package shard

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"conceptrank/internal/core"
	"conceptrank/internal/corpus"
	"conceptrank/internal/ontology"
)

// Sharded cursor-resume equivalence: taking the merged top-k and then
// growing to k' = 2k must be bitwise identical to a fresh sharded query at
// k' AND to a single engine over the union collection at k' — across shard
// counts and both query types. Growing
// resumes bound-paused shards, so the grid also exercises the
// pause/unpause path. CI runs this under -race.

func TestShardedCursorResumeGrid(t *testing.T) {
	r := rand.New(rand.NewSource(20260806))
	ctx := context.Background()
	cases := 0
	for corp := 0; corp < 8; corp++ {
		o := randomDAGOntology(r, 20+r.Intn(100), 0.3)
		coll := randomCollection(r, o, 1+r.Intn(60), 8)
		single := singleEngine(o, coll)
		for qi := 0; qi < 2; qi++ {
			nq := 1 + r.Intn(4)
			q := make([]ontology.ConceptID, nq)
			for j := range q {
				q[j] = ontology.ConceptID(r.Intn(o.NumConcepts()))
			}
			k := 1 + r.Intn(6)
			opts := core.Options{
				K:              k,
				ErrorThreshold: []float64{0, 0.5, 1}[r.Intn(3)],
			}
			sds := (corp+qi)%2 == 1
			runSingle := func(o core.Options) ([]core.Result, *core.Metrics, error) {
				if sds {
					return single.SDSContext(context.Background(), q, o)
				}
				return single.RDSContext(context.Background(), q, o)
			}
			wantK, _, err := runSingle(opts)
			if err != nil {
				t.Fatal(err)
			}
			big := opts
			big.K = 2 * k
			want2K, _, err := runSingle(big)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range []int{1, 3, 5} {
				se, err := New(o, coll, Config{Shards: n})
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%s+cursor", formatCase(corp, qi, n, sds))

				var cur *Cursor
				if sds {
					cur, err = se.OpenSDS(q, opts)
				} else {
					cur, err = se.OpenRDS(q, opts)
				}
				if err != nil {
					t.Fatalf("%s: open: %v", label, err)
				}
				page, err := cur.Next(ctx, k)
				if err != nil {
					t.Fatalf("%s: Next: %v", label, err)
				}
				assertIdentical(t, label+" first page", wantK, page)

				grown, err := cur.GrowK(ctx, 2*k)
				if err != nil {
					t.Fatalf("%s: GrowK: %v", label, err)
				}
				assertIdentical(t, label+" grown", want2K, grown)
				if sm := cur.Metrics(); sm.Merged.ResultCount != len(grown) {
					t.Fatalf("%s: merged ResultCount %d != %d", label, sm.Merged.ResultCount, len(grown))
				}
				cur.Close()
				cases++
				if err := se.Close(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if cases < 48 {
		t.Fatalf("grid covered only %d cases", cases)
	}
}

// TestShardedCursorResumesPausedShards forces the cross-shard bound to
// pause a shard at small k, then grows k far enough that the paused
// shard's documents are needed again — the cursor must resume it and still
// match the single-engine answer.
func TestShardedCursorResumesPausedShards(t *testing.T) {
	// Same fixture as TestCrossShardCancellation: shard 0 holds one exact
	// match, shard 1 holds only distant documents, so at K=1 the bound
	// pauses shard 1 almost immediately.
	b := ontology.NewBuilder("root")
	target := b.AddConcept("target")
	b.MustAddEdge(b.Root(), target)
	deepParent := b.Root()
	for i := 0; i < 6; i++ {
		c := b.AddConcept("deep")
		b.MustAddEdge(deepParent, c)
		deepParent = c
	}
	o := b.MustFinalize()

	coll := corpus.New()
	coll.Add("hit", 0, []ontology.ConceptID{target})      // doc 0 -> shard 0: exact match
	coll.Add("deep", 0, []ontology.ConceptID{deepParent}) // doc 1 -> shard 1: far away
	coll.Add("hit", 0, []ontology.ConceptID{target})      // doc 2 -> shard 0
	coll.Add("deep", 0, []ontology.ConceptID{deepParent}) // doc 3 -> shard 1
	se, err := New(o, coll, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()
	single := singleEngine(o, coll)
	q := []ontology.ConceptID{target}
	opts := core.Options{K: 1, ErrorThreshold: 1}

	cur, err := se.OpenRDS(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	first, err := cur.Next(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	want1, _, err := single.RDSContext(context.Background(), q, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, "k=1 page", want1, first)

	// Grow to the whole collection: the paused shard's documents now rank.
	grown, err := cur.GrowK(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	want4, _, err := single.RDSContext(context.Background(), q, core.Options{K: 4, ErrorThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, "grown to 4", want4, grown)
	if len(grown) != 4 {
		t.Fatalf("grown ranking has %d results, want all 4 documents", len(grown))
	}
}

// TestShardedCursorClosedAndValidation pins the error contract of the
// sharded cursor API.
func TestShardedCursorClosedAndValidation(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	o := randomDAGOntology(r, 40, 0.3)
	coll := randomCollection(r, o, 10, 5)
	se, err := New(o, coll, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()

	if _, err := se.OpenRDS(nil, core.Options{K: 2}); !errors.Is(err, core.ErrEmptyQuery) {
		t.Fatalf("empty query: %v, want ErrEmptyQuery", err)
	}
	if _, err := se.OpenRDS([]ontology.ConceptID{0}, core.Options{K: 2, Workers: -1}); !errors.Is(err, core.ErrNegativeWorkers) {
		t.Fatalf("negative workers: %v, want ErrNegativeWorkers", err)
	}
	if _, err := se.OpenRDS([]ontology.ConceptID{ontology.ConceptID(o.NumConcepts())}, core.Options{K: 2}); err == nil {
		t.Fatal("out-of-range concept: want an error")
	}

	cur, err := se.OpenRDS([]ontology.ConceptID{0}, core.Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	cur.Close()
	cur.Close()
	if _, err := cur.Next(context.Background(), 1); !errors.Is(err, core.ErrCursorClosed) {
		t.Fatalf("Next after close: %v, want ErrCursorClosed", err)
	}
	if _, err := cur.GrowK(context.Background(), 5); !errors.Is(err, core.ErrCursorClosed) {
		t.Fatalf("GrowK after close: %v, want ErrCursorClosed", err)
	}
}

// TestShardedCursorContextResumable: a sharded Next cancelled mid-flight
// leaves every shard cursor resumable; the retry completes with the
// single-engine answer.
func TestShardedCursorContextResumable(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	o := randomDAGOntology(r, 120, 0.35)
	coll := randomCollection(r, o, 60, 8)
	se, err := New(o, coll, Config{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()
	single := singleEngine(o, coll)
	q := []ontology.ConceptID{
		ontology.ConceptID(r.Intn(o.NumConcepts())),
		ontology.ConceptID(r.Intn(o.NumConcepts())),
	}
	opts := core.Options{K: 5, ErrorThreshold: 0}

	cur, err := se.OpenRDS(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cur.Next(ctx, 5); !errors.Is(err, context.Canceled) {
		t.Fatalf("Next under cancelled ctx: %v, want context.Canceled", err)
	}
	page, err := cur.Next(context.Background(), 5)
	if err != nil {
		t.Fatalf("retry after cancellation: %v", err)
	}
	want, _, err := single.RDSContext(context.Background(), q, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, "resumed page", want[:len(page)], page)
}

package shard

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"conceptrank/internal/core"
	"conceptrank/internal/corpus"
	"conceptrank/internal/index"
	"conceptrank/internal/ontology"
)

// --- shared generators (mirroring internal/core's randomized suite) ---

func randomDAGOntology(r *rand.Rand, n int, extraEdgeProb float64) *ontology.Ontology {
	b := ontology.NewBuilder("root")
	ids := []ontology.ConceptID{0}
	for i := 1; i < n; i++ {
		c := b.AddConcept("c")
		parent := ids[r.Intn(len(ids))]
		b.MustAddEdge(parent, c)
		if r.Float64() < extraEdgeProb && len(ids) > 2 {
			p2 := ids[r.Intn(len(ids)-1)]
			if p2 != parent {
				_ = b.AddEdge(p2, c)
			}
		}
		ids = append(ids, c)
	}
	return b.MustFinalize()
}

func randomCollection(r *rand.Rand, o *ontology.Ontology, docs, maxConcepts int) *corpus.Collection {
	c := corpus.New()
	for i := 0; i < docs; i++ {
		n := 1 + r.Intn(maxConcepts)
		concepts := make([]ontology.ConceptID, n)
		for j := range concepts {
			concepts[j] = ontology.ConceptID(r.Intn(o.NumConcepts()))
		}
		c.Add("doc", 0, concepts)
	}
	return c
}

func singleEngine(o *ontology.Ontology, c *corpus.Collection) *core.Engine {
	return core.NewEngine(o, index.BuildMemInverted(c), index.BuildMemForward(c), c.NumDocs(), nil)
}

// assertIdentical requires got to be bitwise identical to want: same
// documents, same float64 distances, same order (i.e. same tie-breaks).
func assertIdentical(t *testing.T, label string, want, got []core.Result) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: got %d results, want %d\n got: %v\nwant: %v", label, len(got), len(want), got, want)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: result %d differs\n got: %v\nwant: %v", label, i, got, want)
		}
	}
}

var (
	shardCountGrid = []int{1, 2, 3, 5, 8}
)

// TestShardedEquivalenceGrid is the central guarantee of this package:
// for randomized corpora, queries and option settings, the sharded engine
// returns bitwise-identical results to a single engine over the union
// collection — for every shard count and both query types.
func TestShardedEquivalenceGrid(t *testing.T) {
	r := rand.New(rand.NewSource(20140328))
	for corp := 0; corp < 12; corp++ {
		o := randomDAGOntology(r, 20+r.Intn(100), 0.3)
		coll := randomCollection(r, o, 1+r.Intn(60), 8)
		single := singleEngine(o, coll)
		for qi := 0; qi < 2; qi++ {
			nq := 1 + r.Intn(4)
			q := make([]ontology.ConceptID, nq)
			for j := range q {
				q[j] = ontology.ConceptID(r.Intn(o.NumConcepts()))
			}
			opts := core.Options{
				K:              1 + r.Intn(8),
				ErrorThreshold: []float64{0, 0.5, 1}[r.Intn(3)],
			}
			sds := (corp+qi)%2 == 1
			var want []core.Result
			var err error
			if sds {
				want, _, err = single.SDSContext(context.Background(), q, opts)
			} else {
				want, _, err = single.RDSContext(context.Background(), q, opts)
			}
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range shardCountGrid {
				se, err := New(o, coll, Config{Shards: n})
				if err != nil {
					t.Fatal(err)
				}
				so := opts
				// The grid runs traced: tracing must never perturb
				// the sharded/single equivalence, and the -race CI
				// matrix holds the forwarding lock to account.
				traced := 0
				so.Trace = func(core.TraceEvent) { traced++ }
				var got []core.Result
				var sm *Metrics
				if sds {
					got, sm, err = se.SDSContext(context.Background(), q, so)
				} else {
					got, sm, err = se.RDSContext(context.Background(), q, so)
				}
				if err != nil {
					t.Fatal(err)
				}
				label := formatCase(corp, qi, n, sds)
				assertIdentical(t, label, want, got)
				if sm.Merged.ResultCount != len(got) {
					t.Fatalf("%s: merged ResultCount %d != %d", label, sm.Merged.ResultCount, len(got))
				}
				if traced == 0 {
					t.Fatalf("%s: no trace events delivered", label)
				}
				if err := se.Close(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

func formatCase(corp, qi, shards int, sds bool) string {
	typ := "rds"
	if sds {
		typ = "sds"
	}
	return typ + " corpus=" + itoa(corp) + " q=" + itoa(qi) +
		" shards=" + itoa(shards)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

// TestShardedTieBreaking floods the engines with equidistant documents: a
// flat ontology where dozens of documents tie exactly, so any divergence
// in the canonical (distance, doc ID) order between merge and single
// engine would surface immediately.
func TestShardedTieBreaking(t *testing.T) {
	b := ontology.NewBuilder("root")
	var leaves []ontology.ConceptID
	for i := 0; i < 12; i++ {
		c := b.AddConcept("leaf")
		b.MustAddEdge(0, c)
		leaves = append(leaves, c)
	}
	o := b.MustFinalize()
	coll := corpus.New()
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 48; i++ {
		coll.Add("doc", 0, []ontology.ConceptID{leaves[r.Intn(len(leaves))]})
	}
	single := singleEngine(o, coll)
	q := []ontology.ConceptID{leaves[0], leaves[3]}
	for _, k := range []int{1, 3, 7, 20} {
		opts := core.Options{K: k, ErrorThreshold: 1}
		want, _, err := single.RDSContext(context.Background(), q, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(want); i++ {
			if want[i-1].Distance == want[i].Distance && want[i-1].Doc >= want[i].Doc {
				t.Fatalf("single engine ties not in canonical order: %v", want)
			}
		}
		for _, n := range shardCountGrid {
			se, err := New(o, coll, Config{Shards: n})
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := se.RDSContext(context.Background(), q, opts)
			if err != nil {
				t.Fatal(err)
			}
			assertIdentical(t, "k="+itoa(k)+" shards="+itoa(n), want, got)
		}
	}
}

// TestPartition checks placement mechanics: round-robin assignment and
// — load-bearing for the tie-break equivalence — strictly increasing
// local→global maps.
func TestPartition(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	o := randomDAGOntology(r, 30, 0.2)
	coll := randomCollection(r, o, 41, 9)
	colls, maps, err := Partition(coll, Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for s := range colls {
		if colls[s].NumDocs() != len(maps[s]) {
			t.Fatalf("shard %d: %d docs vs %d map entries", s, colls[s].NumDocs(), len(maps[s]))
		}
		for i, g := range maps[s] {
			if i > 0 && maps[s][i-1] >= g {
				t.Fatalf("shard %d: map not strictly increasing: %v", s, maps[s])
			}
			// Round-robin is positional by construction.
			if int(g)%4 != s || int(g)/4 != i {
				t.Fatalf("round-robin misplacement: shard %d slot %d holds doc %d", s, i, g)
			}
			// The shard-local copy must be the same document.
			local := colls[s].Doc(corpus.DocID(i))
			global := coll.Doc(g)
			if len(local.Concepts) != len(global.Concepts) {
				t.Fatalf("shard %d doc %d: concepts differ", s, i)
			}
		}
		total += colls[s].NumDocs()
	}
	if total != coll.NumDocs() {
		t.Fatalf("%d docs placed, want %d", total, coll.NumDocs())
	}

	if _, _, err := Partition(coll, Config{Shards: 0}); err == nil {
		t.Fatal("Shards=0 must be rejected")
	}
}

func TestShardedQueryValidation(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	o := randomDAGOntology(r, 20, 0.2)
	coll := randomCollection(r, o, 10, 4)
	se, err := New(o, coll, Config{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := se.RDSContext(context.Background(), nil, core.Options{}); !errors.Is(err, core.ErrEmptyQuery) {
		t.Fatalf("empty query: %v", err)
	}
	if _, _, err := se.RDSContext(context.Background(), []ontology.ConceptID{9999}, core.Options{}); err == nil {
		t.Fatal("out-of-range concept must be rejected")
	}
	if _, _, err := se.RDSContext(context.Background(), []ontology.ConceptID{1}, core.Options{Workers: -1}); !errors.Is(err, core.ErrNegativeWorkers) {
		t.Fatalf("negative workers: %v", err)
	}
}

// TestShardedContextCancellation: a context cancelled before the query
// starts aborts every shard at its first wave boundary.
func TestShardedContextCancellation(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	o := randomDAGOntology(r, 60, 0.3)
	coll := randomCollection(r, o, 40, 6)
	se, err := New(o, coll, Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, _, err := se.RDSContext(ctx, []ontology.ConceptID{1, 2}, core.Options{K: 5})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if res != nil {
		t.Fatalf("cancelled query returned results: %v", res)
	}
}

// gatedInverted holds a shard's first postings lookup until gate closes.
type gatedInverted struct {
	index.Inverted
	gate <-chan struct{}
}

func (g gatedInverted) Postings(c ontology.ConceptID) ([]corpus.DocID, error) {
	<-g.gate
	return g.Inverted.Postings(c)
}

// TestCrossShardCancellation constructs a two-shard workload where one
// shard holds the entire top-k at distance zero and the other must crawl a
// very deep chain: the fast shard fills the merged heap, the slow shard's
// rising termination floor crosses the merged k-th distance, and the bound
// cancels it. The slow shard's index is gated on the fast shard's
// termination, so the order does not depend on how many CPUs schedule the
// two. Only the slow shard counts as cancelled: the fast one also sees its
// final floor pass the k-th distance, but it completed its answer.
func TestCrossShardCancellation(t *testing.T) {
	const depth = 1500
	b := ontology.NewBuilder("root")
	qc := b.AddConcept("q")
	b.MustAddEdge(0, qc)
	prev := ontology.ConceptID(0)
	var deepest ontology.ConceptID
	for i := 0; i < depth; i++ {
		c := b.AddConcept("x")
		b.MustAddEdge(prev, c)
		prev, deepest = c, c
	}
	o := b.MustFinalize()

	coll := corpus.New()
	// Round-robin over 2 shards: even doc IDs (shard 0) match the query
	// exactly; odd doc IDs (shard 1) sit at the end of the chain.
	for i := 0; i < 6; i++ {
		if i%2 == 0 {
			coll.Add("hit", 0, []ontology.ConceptID{qc})
		} else {
			coll.Add("deep", 0, []ontology.ConceptID{deepest})
		}
	}
	q := []ontology.ConceptID{qc}
	opts := core.Options{K: 3, ErrorThreshold: 0}

	want, _, err := singleEngine(o, coll).RDSContext(context.Background(), q, opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Shards: 2}
	se, err := New(o, coll, cfg)
	if err != nil {
		t.Fatal(err)
	}
	colls, _, err := Partition(coll, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	se.shards[1] = core.NewEngine(o, gatedInverted{index.BuildMemInverted(colls[1]), gate},
		index.BuildMemForward(colls[1]), colls[1].NumDocs(), nil)
	// A shard that terminates on a full heap has emitted all of it (every
	// result lies strictly below the final floor), so by shard 0's
	// Terminate event the merged heap holds the three hits.
	opts.Trace = func(ev core.TraceEvent) {
		if ev.Kind == core.TraceTerminate && ev.Shard == 0 {
			close(gate)
		}
	}
	got, sm, err := se.RDSContext(context.Background(), q, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, "cross-shard cancellation", want, got)
	if sm.CancelledShards != 1 {
		t.Errorf("CancelledShards = %d, want 1 (only shard 1 is stopped unfinished)", sm.CancelledShards)
	}
	if sm.PerShard[0].ResultCount != 3 {
		t.Errorf("shard 0 metrics: %+v", sm.PerShard[0])
	}
	if sm.PerShard[1].ResultCount != 0 {
		t.Errorf("shard 1 ran to its own termination: %+v", sm.PerShard[1])
	}
}

// TestShardedMetricsAggregation: merged counters are the per-shard sums.
func TestShardedMetricsAggregation(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	o := randomDAGOntology(r, 50, 0.3)
	coll := randomCollection(r, o, 30, 6)
	se, err := New(o, coll, Config{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	_, sm, err := se.RDSContext(context.Background(), []ontology.ConceptID{1, 2, 3}, core.Options{K: 5, ErrorThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	var wantExamined, wantDiscovered int
	var wantVisited int64
	for _, m := range sm.PerShard {
		wantExamined += m.DocsExamined
		wantDiscovered += m.DocsDiscovered
		wantVisited += m.NodesVisited
	}
	if sm.Merged.DocsExamined != wantExamined || sm.Merged.DocsDiscovered != wantDiscovered ||
		sm.Merged.NodesVisited != wantVisited {
		t.Fatalf("merged %+v does not sum per-shard metrics", sm.Merged)
	}
	if sm.Merged.TotalTime <= 0 {
		t.Fatal("merged TotalTime not set")
	}
}

// TestMoreShardsThanDocs: empty shards are skipped, results unchanged.
func TestMoreShardsThanDocs(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	o := randomDAGOntology(r, 25, 0.2)
	coll := randomCollection(r, o, 3, 4)
	want, _, err := singleEngine(o, coll).RDSContext(context.Background(), []ontology.ConceptID{1}, core.Options{K: 5, ErrorThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	se, err := New(o, coll, Config{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := se.RDSContext(context.Background(), []ontology.ConceptID{1}, core.Options{K: 5, ErrorThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, "8 shards", want, got)
}

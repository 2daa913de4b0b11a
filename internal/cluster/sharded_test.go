package cluster

// Sharded≡single over MemTransport: the coordinator and its nodes in one
// process, exactly as the facade's ShardedEngine runs them, must return
// bitwise the single engine's answer over the union collection — for
// every shard count, both query types, paged and grown cursors, cached
// and cold nodes. CI runs this file under -race at -cpu 1,2,8.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"conceptrank/internal/cache"
	"conceptrank/internal/core"
	"conceptrank/internal/corpus"
	"conceptrank/internal/measure"
	"conceptrank/internal/ontology"
)

var shardCountGrid = []int{1, 2, 3, 5, 8}

// memCoordinator starts a MemTransport fleet of n shards over coll and a
// coordinator over it, both closed when the test ends.
func memCoordinator(t testing.TB, o *ontology.Ontology, coll *corpus.Collection, n int) *Coordinator {
	t.Helper()
	return newMemFleet(t, o, coll, n, nil).coordinator(t, nil)
}

// query runs one RDS or SDS query through the coordinator.
func query(c *Coordinator, sds bool, q []ontology.ConceptID, opts core.Options) ([]core.Result, *Metrics, error) {
	if sds {
		return c.SDS(context.Background(), q, opts)
	}
	return c.RDS(context.Background(), q, opts)
}

// TestShardedEquivalenceGrid: for randomized corpora, queries and option
// settings, the coordinator over MemTransport returns bitwise-identical
// results to a single engine over the union collection — for every shard
// count and both query types. 12 corpora × 2 queries × 5 shard counts =
// 120 cases.
func TestShardedEquivalenceGrid(t *testing.T) {
	r := rand.New(rand.NewSource(20140328))
	cases := 0
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
				f := newMemFleet(t, o, coll, n, nil)
				got, sm, err := query(f.coordinator(t, nil), sds, q, opts)
				if err != nil {
					t.Fatal(err)
				}
				label := formatCase(corp, qi, n, sds)
				assertIdentical(t, label, want, got)
				if sm.Merged.ResultCount != len(got) {
					t.Fatalf("%s: merged ResultCount %d != %d", label, sm.Merged.ResultCount, len(got))
				}
				f.close()
				cases++
			}
		}
	}
	if cases != 120 {
		t.Fatalf("grid ran %d cases, want 120", cases)
	}
}

func formatCase(corp, qi, shards int, sds bool) string {
	typ := "rds"
	if sds {
		typ = "sds"
	}
	return fmt.Sprintf("%s corpus=%d q=%d shards=%d", typ, corp, qi, shards)
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
	coords := map[int]*Coordinator{}
	for _, n := range shardCountGrid {
		coords[n] = memCoordinator(t, o, coll, n)
	}
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
			got, _, err := coords[n].RDS(context.Background(), q, opts)
			if err != nil {
				t.Fatal(err)
			}
			assertIdentical(t, fmt.Sprintf("k=%d shards=%d", k, n), want, got)
		}
	}
}

func TestShardedQueryValidation(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	o := randomDAGOntology(r, 20, 0.2)
	coll := randomCollection(r, o, 10, 4)
	coord := memCoordinator(t, o, coll, 3)
	ctx := context.Background()
	if _, _, err := coord.RDS(ctx, nil, core.Options{}); !errors.Is(err, core.ErrEmptyQuery) {
		t.Fatalf("empty query: %v", err)
	}
	if _, _, err := coord.RDS(ctx, []ontology.ConceptID{9999}, core.Options{}); err == nil {
		t.Fatal("out-of-range concept must be rejected")
	}
	if _, _, err := coord.RDS(ctx, []ontology.ConceptID{1}, core.Options{Workers: -1}); !errors.Is(err, core.ErrNegativeWorkers) {
		t.Fatalf("negative workers: %v", err)
	}
}

// TestCoordinatorRefusesMeasure: a measure is a Go value the wire cannot
// carry, so the coordinator refuses a query that sets one instead of
// ranking it under Rada on the nodes. Over a 2-node loopback fleet (seed
// 7, 80 concepts, 60 documents, query {3, 17, 40}, k 10) RDS under the
// density measure used to answer [{30 2} {57 3} {10 4} …], the Rada
// ranking, with a nil error, where the single engine answers
// [{30 1.7077…} {57 2.5974…} {0 3.1511…} …]. The refusal comes before
// admission and names the field, for every measure, both query types and
// the cursor entry points, over loopback and over MemTransport alike.
func TestCoordinatorRefusesMeasure(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	o := randomDAGOntology(r, 80, 0.3)
	coll := randomCollection(r, o, 60, 8)
	q := []ontology.ConceptID{3, 17, 40}
	ctx := context.Background()
	refused := func(label string, err error) {
		t.Helper()
		if !errors.Is(err, errMeasureNotCarried) || !strings.Contains(err.Error(), "Options.Measure") {
			t.Fatalf("%s: err = %v, want the Options.Measure refusal", label, err)
		}
	}

	loop := newFleet(t, o, coll, 2, 1).coordinator(t, func(cfg *CoordinatorConfig) {
		cfg.Admission = AdmissionConfig{MaxInFlight: 1}
	})
	got, _, err := loop.RDS(ctx, q, core.Options{K: 10, Measure: measure.NewDensity(o)})
	if got != nil {
		t.Fatalf("density RDS over loopback answered %v", got)
	}
	refused("loopback density RDS", err)
	if n := loop.Admission().InFlight(); n != 0 {
		t.Fatalf("a refused query holds %d admission slots", n)
	}

	mem := memCoordinator(t, o, coll, 3)
	for _, m := range []measure.Measure{measure.Rada(), measure.NewDensity(o), measure.NewEnhanced(o)} {
		opts := core.Options{K: 6, ErrorThreshold: 0.5, Measure: m}
		for _, sds := range []bool{false, true} {
			_, _, err := query(mem, sds, q, opts)
			refused(fmt.Sprintf("%s sds=%v", m.Name(), sds), err)
		}
		_, err := mem.OpenRDS(ctx, q, opts)
		refused(m.Name()+" OpenRDS", err)
		_, err = mem.OpenSDS(ctx, q, opts)
		refused(m.Name()+" OpenSDS", err)
	}
}

// TestShardedContextCancellation: a context cancelled before the query
// starts aborts every shard before it runs.
func TestShardedContextCancellation(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	o := randomDAGOntology(r, 60, 0.3)
	coll := randomCollection(r, o, 40, 6)
	coord := memCoordinator(t, o, coll, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, _, err := coord.RDS(ctx, []ontology.ConceptID{1, 2}, core.Options{K: 5})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if res != nil {
		t.Fatalf("cancelled query returned results: %v", res)
	}
}

// stepGate holds one shard's step requests until release reports true.
type stepGate struct {
	next    http.RoundTripper
	host    string
	release func() bool
}

func (g stepGate) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Host == g.host && strings.HasSuffix(req.URL.Path, "/step") {
		for deadline := time.Now().Add(10 * time.Second); !g.release(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				return nil, errors.New("step gate never opened")
			}
		}
	}
	return g.next.RoundTrip(req)
}

// TestCrossShardCancellation constructs a two-shard workload where one
// shard holds the entire top-k at distance zero and the other must crawl a
// very deep chain: the fast shard fills the merged heap, the slow shard's
// rising termination floor crosses the merged k-th distance, and the bound
// cancels it. The slow shard's steps are held until the merged heap is
// full, so the order does not depend on how many CPUs schedule the two.
// Only the slow shard counts as cancelled: the fast one also sees its
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
	f := newMemFleet(t, o, coll, 2, nil)
	var cur *Cursor
	var opened = make(chan struct{})
	coord := f.coordinator(t, func(cfg *CoordinatorConfig) {
		cfg.HTTPClient = &http.Client{Transport: stepGate{
			next: f.client.Transport,
			host: "shard1",
			release: func() bool {
				<-opened
				full, _ := cur.f.ms.bound()
				return full
			},
		}}
	})
	cur, err = coord.OpenRDS(context.Background(), q, opts)
	if err != nil {
		t.Fatal(err)
	}
	close(opened)
	defer cur.Close()
	got, sm, err := cur.Run(context.Background())
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
	coord := memCoordinator(t, o, coll, 3)
	_, sm, err := coord.RDS(context.Background(), []ontology.ConceptID{1, 2, 3}, core.Options{K: 5, ErrorThreshold: 1})
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
	got, _, err := memCoordinator(t, o, coll, 8).RDS(context.Background(), []ontology.ConceptID{1}, core.Options{K: 5, ErrorThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, "8 shards", want, got)
}

// TestShardedCachedMatchesCold extends the sharded equivalence guarantee
// to cached nodes: with one cache shared by every node
// (NodeConfig.Cache) — cold on the first pass, warm on the second — a
// query must stay bitwise identical to both the uncached fleet's and the
// single-engine answer, and the merged metrics must aggregate the
// per-shard cache counters additively. Each node keys its entries under
// its own engine identity, so one cache serves them all without mixing
// corpora.
func TestShardedCachedMatchesCold(t *testing.T) {
	r := rand.New(rand.NewSource(5150))
	for trial := 0; trial < 8; trial++ {
		o := randomDAGOntology(r, 20+r.Intn(100), 0.3)
		coll := randomCollection(r, o, 5+r.Intn(60), 8)
		single := singleEngine(o, coll)
		for _, n := range []int{1, 3, 5} {
			q := make([]ontology.ConceptID, 1+r.Intn(3))
			for j := range q {
				q[j] = ontology.ConceptID(r.Intn(o.NumConcepts()))
			}
			opts := core.Options{K: 1 + r.Intn(8), ErrorThreshold: []float64{0, 0.5, 1}[trial%3]}
			label := fmt.Sprintf("trial %d shards %d", trial, n)

			want, _, err := single.RDSContext(context.Background(), q, opts)
			if err != nil {
				t.Fatal(err)
			}
			coldSharded, _, err := memCoordinator(t, o, coll, n).RDS(context.Background(), q, opts)
			if err != nil {
				t.Fatal(err)
			}
			assertIdentical(t, label+" uncached sharded", want, coldSharded)

			c := cache.New(cache.Config{})
			cached := newMemFleet(t, o, coll, n, func(cfg *NodeConfig) { cfg.Cache = c }).coordinator(t, nil)
			first, m1, err := cached.RDS(context.Background(), q, opts)
			if err != nil {
				t.Fatal(err)
			}
			assertIdentical(t, label+" first cached pass", want, first)
			warm, m2, err := cached.RDS(context.Background(), q, opts)
			if err != nil {
				t.Fatal(err)
			}
			assertIdentical(t, label+" warm pass", want, warm)

			// Every shard resolves its own seed vectors: the first pass is
			// all misses, the warm pass all hits, and the merged counters
			// are the per-shard sums.
			if m1.Merged.CacheMisses == 0 {
				t.Fatalf("%s: first cached pass recorded no misses", label)
			}
			if m2.Merged.CacheMisses != 0 || m2.Merged.CacheHits != m1.Merged.CacheMisses {
				t.Fatalf("%s: warm pass hits=%d misses=%d, want hits=%d misses=0",
					label, m2.Merged.CacheHits, m2.Merged.CacheMisses, m1.Merged.CacheMisses)
			}
			sumHits, sumMisses := 0, 0
			for _, pm := range m2.PerShard {
				sumHits += pm.CacheHits
				sumMisses += pm.CacheMisses
			}
			if sumHits != m2.Merged.CacheHits || sumMisses != m2.Merged.CacheMisses {
				t.Fatalf("%s: merged cache counters %d/%d, per-shard sums %d/%d",
					label, m2.Merged.CacheHits, m2.Merged.CacheMisses, sumHits, sumMisses)
			}
		}
	}
}

// TestShardedCursorResumeGrid: taking the merged top-k through a cursor
// and then growing to k' = 2k must be bitwise identical to a single engine
// over the union collection at k' — across shard counts and both query
// types. Growing resumes bound-paused node cursors, so the grid also
// exercises the pause/unpause path. 8 corpora × 2 queries × 3 shard
// counts = 48 cases.
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
				f := newMemFleet(t, o, coll, n, nil)
				coord := f.coordinator(t, nil)
				label := formatCase(corp, qi, n, sds) + "+cursor"

				open := coord.OpenRDS
				if sds {
					open = coord.OpenSDS
				}
				cur, err := open(ctx, q, opts)
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
				if err := cur.Close(); err != nil {
					t.Fatal(err)
				}
				f.close()
				cases++
			}
		}
	}
	if cases != 48 {
		t.Fatalf("grid covered %d cases, want 48", cases)
	}
}

// TestShardedCursorResumesPausedShards forces the cross-shard bound to
// pause a shard at small k, then grows k far enough that the paused
// shard's documents are needed again — the cursor must resume it and still
// match the single-engine answer.
func TestShardedCursorResumesPausedShards(t *testing.T) {
	// Shard 0 holds the exact matches, shard 1 only distant documents,
	// so at K=1 the bound pauses shard 1 almost immediately.
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
	coord := memCoordinator(t, o, coll, 2)
	single := singleEngine(o, coll)
	q := []ontology.ConceptID{target}
	opts := core.Options{K: 1, ErrorThreshold: 1}

	cur, err := coord.OpenRDS(context.Background(), q, opts)
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
// coordinator's cursor API.
func TestShardedCursorClosedAndValidation(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	o := randomDAGOntology(r, 40, 0.3)
	coll := randomCollection(r, o, 10, 5)
	coord := memCoordinator(t, o, coll, 2)
	ctx := context.Background()

	if _, err := coord.OpenRDS(ctx, nil, core.Options{K: 2}); !errors.Is(err, core.ErrEmptyQuery) {
		t.Fatalf("empty query: %v, want ErrEmptyQuery", err)
	}
	if _, err := coord.OpenRDS(ctx, []ontology.ConceptID{0}, core.Options{K: 2, Workers: -1}); !errors.Is(err, core.ErrNegativeWorkers) {
		t.Fatalf("negative workers: %v, want ErrNegativeWorkers", err)
	}
	if _, err := coord.OpenRDS(ctx, []ontology.ConceptID{ontology.ConceptID(o.NumConcepts())}, core.Options{K: 2}); err == nil {
		t.Fatal("out-of-range concept: want an error")
	}

	cur, err := coord.OpenRDS(ctx, []ontology.ConceptID{0}, core.Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	cur.Close()
	cur.Close()
	if _, err := cur.Next(ctx, 1); !errors.Is(err, core.ErrCursorClosed) {
		t.Fatalf("Next after close: %v, want ErrCursorClosed", err)
	}
	if _, err := cur.GrowK(ctx, 5); !errors.Is(err, core.ErrCursorClosed) {
		t.Fatalf("GrowK after close: %v, want ErrCursorClosed", err)
	}
}

// TestShardedCursorContextResumable: a Next cancelled mid-flight leaves
// every node cursor resumable; the retry completes with the single-engine
// answer.
func TestShardedCursorContextResumable(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	o := randomDAGOntology(r, 120, 0.35)
	coll := randomCollection(r, o, 60, 8)
	coord := memCoordinator(t, o, coll, 3)
	single := singleEngine(o, coll)
	q := []ontology.ConceptID{
		ontology.ConceptID(r.Intn(o.NumConcepts())),
		ontology.ConceptID(r.Intn(o.NumConcepts())),
	}
	opts := core.Options{K: 5, ErrorThreshold: 0}

	cur, err := coord.OpenRDS(context.Background(), q, opts)
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

// TestPartition checks placement mechanics: round-robin assignment and
// — load-bearing for the tie-break equivalence — strictly increasing
// local→global maps.
func TestPartition(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	o := randomDAGOntology(r, 30, 0.2)
	coll := randomCollection(r, o, 41, 9)
	colls, maps, err := Partition(coll, ShardConfig{Shards: 4})
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

	if _, _, err := Partition(coll, ShardConfig{Shards: 0}); err == nil {
		t.Fatal("Shards=0 must be rejected")
	}
}

// TestMergeMetricsCoversAllFields fails when a field is added to
// core.Metrics without a merge rule in mergeMetrics: it sets every field
// of src to a non-zero value and requires the merge into a zero dst to
// move every field except the caller-owned ones.
func TestMergeMetricsCoversAllFields(t *testing.T) {
	callerOwned := map[string]bool{
		"TotalTime":   true, // wall-clock of the fan-out, not a shard sum
		"ResultCount": true, // merged result count, set after Merger.Sorted
	}

	var src, dst core.Metrics
	sv := reflect.ValueOf(&src).Elem()
	for i := 0; i < sv.NumField(); i++ {
		f := sv.Field(i)
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(i) + 1)
		case reflect.Float64:
			f.SetFloat(float64(i) + 0.5)
		case reflect.Array:
			// Metrics.Stages: populate every stage's every field, so the
			// merge rule must carry the whole breakdown, not just one cell.
			for j := 0; j < f.Len(); j++ {
				el := f.Index(j)
				for k := 0; k < el.NumField(); k++ {
					el.Field(k).SetInt(int64(i+j+k) + 1)
				}
			}
		default:
			t.Fatalf("core.Metrics field %s has kind %v: teach this test how to populate it",
				sv.Type().Field(i).Name, f.Kind())
		}
	}

	mergeMetrics(&dst, &src)

	dv := reflect.ValueOf(dst)
	for i := 0; i < dv.NumField(); i++ {
		name := dv.Type().Field(i).Name
		if callerOwned[name] {
			continue
		}
		if dv.Field(i).IsZero() {
			t.Errorf("core.Metrics.%s is not aggregated by mergeMetrics; add a merge rule "+
				"(or, if it is caller-owned like TotalTime, exempt it here with a justification)", name)
		}
	}

	// Second merge: additive fields keep summing; TerminalEps stays a max.
	lower := src
	lower.TerminalEps = 0.01
	mergeMetrics(&dst, &lower)
	if dst.DRCCalls != 2*src.DRCCalls {
		t.Errorf("DRCCalls after two merges = %d, want %d", dst.DRCCalls, 2*src.DRCCalls)
	}
	if dst.CacheHits != 2*src.CacheHits || dst.CacheMisses != 2*src.CacheMisses {
		t.Errorf("cache counters after two merges = %d/%d, want %d/%d",
			dst.CacheHits, dst.CacheMisses, 2*src.CacheHits, 2*src.CacheMisses)
	}
	if dst.TerminalEps != src.TerminalEps {
		t.Errorf("TerminalEps after merging a smaller value = %v, want max %v", dst.TerminalEps, src.TerminalEps)
	}
	for i := range dst.Stages {
		if dst.Stages[i].Time != 2*src.Stages[i].Time {
			t.Errorf("Stages[%v] after two merges = %+v, want double %+v",
				core.Stage(i), dst.Stages[i], src.Stages[i])
		}
	}
}

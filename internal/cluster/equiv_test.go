package cluster

import (
	"context"
	"math/rand"
	"net/http/httptest"
	"sort"
	"testing"

	"conceptrank/internal/core"
	"conceptrank/internal/corpus"
	"conceptrank/internal/index"
	"conceptrank/internal/ontology"
	"conceptrank/internal/shard"
)

// --- shared generators (mirroring internal/shard's randomized suite) ---

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

// fleet is a loopback distributed deployment: shards × replicas Node
// servers, every replica of a shard carrying the same documents.
type fleet struct {
	peers [][]string
	nodes [][]*Node            // [shard][replica]
	srvs  [][]*httptest.Server // [shard][replica]
}

// newFleet partitions coll RoundRobin across shards — the same placement
// the in-process comparison engine uses — and starts every node.
func newFleet(t testing.TB, o *ontology.Ontology, coll *corpus.Collection, shards, replicas int) *fleet {
	t.Helper()
	colls, maps, err := shard.Partition(coll, shard.Config{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	f := &fleet{}
	for s := 0; s < shards; s++ {
		var urls []string
		var ns []*Node
		var ss []*httptest.Server
		for rep := 0; rep < replicas; rep++ {
			n, err := NewNode(NodeConfig{Ontology: o, Coll: colls[s], DocMap: maps[s]})
			if err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(n.Handler())
			ns = append(ns, n)
			ss = append(ss, srv)
			urls = append(urls, srv.URL)
		}
		f.peers = append(f.peers, urls)
		f.nodes = append(f.nodes, ns)
		f.srvs = append(f.srvs, ss)
	}
	t.Cleanup(f.close)
	return f
}

func (f *fleet) close() {
	for s := range f.srvs {
		for r := range f.srvs[s] {
			f.srvs[s][r].Close()
			_ = f.nodes[s][r].Close()
		}
	}
}

// kill takes one shard's replicas off the network (connection refused
// from now on), simulating a dead node.
func (f *fleet) kill(s int) {
	for r := range f.srvs[s] {
		f.srvs[s][r].Close()
	}
}

func (f *fleet) coordinator(t testing.TB, mut func(*CoordinatorConfig)) *Coordinator {
	t.Helper()
	cfg := CoordinatorConfig{
		Peers:   f.peers,
		Retries: 1,
		backoff: 1, // nanoseconds: keep retry loops instant in tests
	}
	if mut != nil {
		mut(&cfg)
	}
	c, err := NewCoordinator(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestDistributedEquivalenceGrid is the central guarantee of this
// package: over loopback fleets the coordinator returns bitwise-identical
// results to the in-process sharded engine AND to a single engine over
// the union collection — for every node count, replica count, k, both
// query types, and both step segmentations (one wave per step, which
// refreshes the cross-shard bound at every boundary, and the default
// multi-wave budget). 3 node counts × 2 replica counts × 4 k values × 2
// query types × 2 wave budgets = 96 cases.
func TestDistributedEquivalenceGrid(t *testing.T) {
	r := rand.New(rand.NewSource(20140404))
	o := randomDAGOntology(r, 20+r.Intn(80), 0.3)
	coll := randomCollection(r, o, 10+r.Intn(50), 8)
	single := singleEngine(o, coll)
	ctx := context.Background()

	queries := map[bool][]ontology.ConceptID{}
	for _, sds := range []bool{false, true} {
		nq := 1 + r.Intn(4)
		q := make([]ontology.ConceptID, nq)
		for j := range q {
			q[j] = ontology.ConceptID(r.Intn(o.NumConcepts()))
		}
		queries[sds] = q
	}

	cases := 0
	for _, nodes := range []int{1, 2, 3} {
		se, err := shard.New(o, coll, shard.Config{Shards: nodes})
		if err != nil {
			t.Fatal(err)
		}
		for _, replicas := range []int{1, 2} {
			f := newFleet(t, o, coll, nodes, replicas)
			for _, waves := range []int{1, 16} {
				waves := waves
				coord := f.coordinator(t, func(cfg *CoordinatorConfig) {
					cfg.waveBudget = waves
				})
				for _, k := range []int{1, 3, 10, 25} {
					for _, sds := range []bool{false, true} {
						cases++
						q := queries[sds]
						opts := core.Options{K: k, ErrorThreshold: 0.5}
						var want, viaShard, got []core.Result
						var err error
						if sds {
							want, _, err = single.SDSContext(context.Background(), q, opts)
						} else {
							want, _, err = single.RDSContext(context.Background(), q, opts)
						}
						if err != nil {
							t.Fatal(err)
						}
						if sds {
							viaShard, _, err = se.SDSContext(context.Background(), q, opts)
						} else {
							viaShard, _, err = se.RDSContext(context.Background(), q, opts)
						}
						if err != nil {
							t.Fatal(err)
						}
						var m *Metrics
						if sds {
							got, m, err = coord.SDS(ctx, q, opts)
						} else {
							got, m, err = coord.RDS(ctx, q, opts)
						}
						if err != nil {
							t.Fatalf("nodes=%d replicas=%d waves=%d k=%d sds=%v: %v",
								nodes, replicas, waves, k, sds, err)
						}
						label := "distributed"
						assertIdentical(t, label+" vs single", want, got)
						assertIdentical(t, label+" vs sharded", viaShard, got)
						if len(m.Degraded) != 0 {
							t.Fatalf("healthy fleet reported degraded shards %v", m.Degraded)
						}
					}
				}
			}
		}
	}
	if cases < 90 {
		t.Fatalf("grid ran %d cases, want >= 90", cases)
	}
}

// TestDistributedCursorResume drives the remote cursors through the same
// Next/GrowK protocol the in-process sharded cursor speaks: pages must
// concatenate to the full ranking and every grown k must be bitwise
// identical to a fresh query at that k.
func TestDistributedCursorResume(t *testing.T) {
	r := rand.New(rand.NewSource(20140405))
	o := randomDAGOntology(r, 60, 0.3)
	coll := randomCollection(r, o, 40, 6)
	single := singleEngine(o, coll)
	ctx := context.Background()

	for _, nodes := range []int{2, 3} {
		f := newFleet(t, o, coll, nodes, 1)
		coord := f.coordinator(t, func(cfg *CoordinatorConfig) {
			cfg.waveBudget = 1 // maximum segmentation: every wave a step
		})
		for _, sds := range []bool{false, true} {
			q := []ontology.ConceptID{
				ontology.ConceptID(r.Intn(o.NumConcepts())),
				ontology.ConceptID(r.Intn(o.NumConcepts())),
			}
			opts := core.Options{K: 3, ErrorThreshold: 0.5}

			// Next paging: pages of 2 via a k=3 cursor that must grow to
			// cover the requested span, checked against a fresh k=9 run.
			want := fresh(t, single, sds, q, 9)
			open := coord.OpenRDS
			if sds {
				open = coord.OpenSDS
			}
			cur, err := open(ctx, q, opts)
			if err != nil {
				t.Fatal(err)
			}
			var paged []core.Result
			for len(paged) < len(want) {
				page, err := cur.Next(ctx, 2)
				if err != nil {
					t.Fatal(err)
				}
				if len(page) == 0 {
					break
				}
				paged = append(paged, page...)
				if len(paged) >= 9 {
					break
				}
			}
			n := len(paged)
			if n > len(want) {
				n = len(want)
			}
			assertIdentical(t, "paged prefix", want[:n], paged[:n])

			if err := cur.Close(); err != nil {
				t.Fatal(err)
			}
			// Closed cursors refuse further use.
			if _, err := cur.Next(ctx, 1); err == nil {
				t.Fatal("Next on closed cursor did not fail")
			}

			// GrowK ladder on a fresh k=3 cursor: each rung bitwise equal
			// to a fresh single-engine query at that k. (Growing below the
			// current k is a no-op, matching the local sharded cursor, so
			// the ladder only climbs.)
			gcur, err := open(ctx, q, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{5, 12, 25} {
				grown, err := gcur.GrowK(ctx, k)
				if err != nil {
					t.Fatal(err)
				}
				assertIdentical(t, "grown vs single", fresh(t, single, sds, q, k), grown)
			}
			if err := gcur.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func fresh(t *testing.T, e *core.Engine, sds bool, q []ontology.ConceptID, k int) []core.Result {
	t.Helper()
	opts := core.Options{K: k, ErrorThreshold: 0.5}
	var rs []core.Result
	var err error
	if sds {
		rs, _, err = e.SDSContext(context.Background(), q, opts)
	} else {
		rs, _, err = e.RDSContext(context.Background(), q, opts)
	}
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// TestDegradedShardAtOpen: a node dead before the query opens yields a
// degraded-but-flagged answer that is bitwise identical to a single
// engine over the surviving shards' documents.
func TestDegradedShardAtOpen(t *testing.T) {
	r := rand.New(rand.NewSource(20140407))
	o := randomDAGOntology(r, 60, 0.3)
	coll := randomCollection(r, o, 36, 6)
	ctx := context.Background()

	const nodes, dead = 3, 1
	f := newFleet(t, o, coll, nodes, 1)
	coord := f.coordinator(t, func(cfg *CoordinatorConfig) {
		cfg.PartialResults = true
	})
	f.kill(dead)

	// The surviving corpus: every document except the dead shard's.
	colls, maps, err := shard.Partition(coll, shard.Config{Shards: nodes})
	if err != nil {
		t.Fatal(err)
	}
	// Build it in GLOBAL ID order so the surviving engine's canonical tie
	// order (by its local IDs) matches the cluster's (by global IDs).
	type survivor struct {
		global corpus.DocID
		doc    corpus.Document
	}
	var docs []survivor
	for s := range colls {
		if s == dead {
			continue
		}
		for i, d := range colls[s].Docs() {
			docs = append(docs, survivor{global: maps[s][i], doc: d})
		}
	}
	sort.Slice(docs, func(i, j int) bool { return docs[i].global < docs[j].global })
	surviving := corpus.New()
	remap := map[corpus.DocID]corpus.DocID{} // surviving-local -> global
	for _, d := range docs {
		id := surviving.Add(d.doc.Name, d.doc.TokenCount, d.doc.Concepts)
		remap[id] = d.global
	}
	survivorEngine := singleEngine(o, surviving)

	q := []ontology.ConceptID{ontology.ConceptID(r.Intn(o.NumConcepts()))}
	opts := core.Options{K: 10, ErrorThreshold: 0.5}
	want, _, err := survivorEngine.RDSContext(context.Background(), q, opts)
	if err != nil {
		t.Fatal(err)
	}
	mapped := make([]core.Result, len(want))
	for i, w := range want {
		mapped[i] = core.Result{Doc: remap[w.Doc], Distance: w.Distance}
	}

	got, m, err := coord.RDS(ctx, q, opts)
	if err != nil {
		t.Fatalf("degraded query failed instead of flagging: %v", err)
	}
	if len(m.Degraded) != 1 || m.Degraded[0] != dead {
		t.Fatalf("Degraded = %v, want [%d]", m.Degraded, dead)
	}
	assertIdentical(t, "degraded vs surviving single", mapped, got)
}

// TestDegradedShardMidQuery kills a node between cursor segments: the
// already-run k=3 epoch succeeded, the grow to k=12 finds the node dead,
// and the cursor degrades — no error, flagged metrics, and every returned
// distance still exact (checked against the full single engine).
func TestDegradedShardMidQuery(t *testing.T) {
	r := rand.New(rand.NewSource(20140408))
	o := randomDAGOntology(r, 60, 0.3)
	coll := randomCollection(r, o, 36, 6)
	single := singleEngine(o, coll)
	ctx := context.Background()

	const nodes, dead = 3, 2
	f := newFleet(t, o, coll, nodes, 1)
	coord := f.coordinator(t, func(cfg *CoordinatorConfig) {
		cfg.PartialResults = true
	})

	q := []ontology.ConceptID{ontology.ConceptID(r.Intn(o.NumConcepts())), 0}
	cur, err := coord.OpenRDS(ctx, q, core.Options{K: 3, ErrorThreshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	firstPage, err := cur.Next(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, "pre-kill page", fresh(t, single, false, q, 3), firstPage)

	f.kill(dead)
	grown, err := cur.GrowK(ctx, 12)
	if err != nil {
		t.Fatalf("mid-query death failed the cursor instead of degrading: %v", err)
	}
	m := cur.Metrics()
	if len(m.Degraded) != 1 || m.Degraded[0] != dead {
		t.Fatalf("Degraded = %v, want [%d]", m.Degraded, dead)
	}
	// Exactness survives degradation: every returned document carries its
	// true distance and the list is canonically ordered.
	truth := map[corpus.DocID]float64{}
	for _, w := range fresh(t, single, false, q, coll.NumDocs()) {
		truth[w.Doc] = w.Distance
	}
	for i, g := range grown {
		d, ok := truth[g.Doc]
		if !ok || d != g.Distance {
			t.Fatalf("degraded result %d: doc %d dist %v, truth %v (ok=%v)",
				i, g.Doc, g.Distance, d, ok)
		}
		if i > 0 && (grown[i-1].Distance > g.Distance ||
			(grown[i-1].Distance == g.Distance && grown[i-1].Doc >= g.Doc)) {
			t.Fatalf("degraded results out of canonical order at %d: %v", i, grown)
		}
	}
}

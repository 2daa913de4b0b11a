package core

// Dead-subtree pruning: the wave stepper descends only into live concepts
// (at or above some document concept). These tests pin the pruned trace on
// the paper's fixture, the live set's growth with the collection, its
// concurrent growth under queries, a document appended after a query's
// snapshot, and bitwise-unchanged rankings on
// fixtures whose ontology is far larger than their vocabulary, where the
// pruning fires on most descents.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"conceptrank/internal/corpus"
	"conceptrank/internal/index"
	"conceptrank/internal/measure"
	"conceptrank/internal/ontology"
	"conceptrank/internal/store"
)

// allLive turns the pruning off for e, before its first query: with every
// bit set the live set can gain nothing, and the stepper descends
// everywhere, as the paper's BFS does.
func allLive(e *Engine) {
	for i := range e.vocab.live {
		e.vocab.live[i].Store(^uint64(0))
	}
}

// waveNodes runs an RDS query and returns the concept names popped per
// depth, with the results and metrics.
func waveNodes(t *testing.T, e *Engine, pf *ontology.PaperFig, q []ontology.ConceptID, opts Options) (map[int]map[string]bool, []Result, *Metrics) {
	t.Helper()
	depths := map[int]map[string]bool{}
	opts.OnWave = func(w WaveInfo) {
		if depths[w.Depth] == nil {
			depths[w.Depth] = map[string]bool{}
		}
		for _, v := range w.Visited {
			depths[w.Depth][pf.O.Name(v.Node)] = true
		}
	}
	res, m, err := e.RDSContext(context.Background(), q, opts)
	if err != nil {
		t.Fatal(err)
	}
	return depths, res, m
}

// TestExample3PrunedTrace replays Example 3's query on the same fixture
// with the pruning on. The document {F, R, T, V} makes live exactly those
// four concepts and their ancestors, so C, I, L, M, N and U are dead: at
// depth 1 the BFS still ascends to G, H and R but no longer descends from
// I into M and N. The results and ε_d are those of the paper's BFS.
func TestExample3PrunedTrace(t *testing.T) {
	pf := ontology.NewPaperFig()
	coll := corpus.New()
	coll.Add("d", 0, pf.Concepts("F", "R", "T", "V"))
	pruned := memEngine(pf.O, coll)
	full := memEngine(pf.O, coll)
	allLive(full)
	q := pf.Concepts("I", "L", "U")
	opts := Options{K: 1, ErrorThreshold: 0}

	got, res, m := waveNodes(t, pruned, pf, q, opts)
	want, wantRes, wantM := waveNodes(t, full, pf, q, opts)
	sameResults(t, "pruned vs paper BFS", res, wantRes)
	if m.TerminalEps != wantM.TerminalEps {
		t.Errorf("ε_d %v, paper BFS %v", m.TerminalEps, wantM.TerminalEps)
	}
	for _, name := range []string{"A", "B", "D", "E", "F", "G", "H", "J", "K", "O", "P", "Q", "R", "S", "T", "V"} {
		if !isLive(pruned.vocab.live, pf.Concept(name)) {
			t.Errorf("%s is at or above a document concept but not live", name)
		}
	}
	for _, name := range []string{"C", "I", "L", "M", "N", "U"} {
		if isLive(pruned.vocab.live, pf.Concept(name)) {
			t.Errorf("%s has no document concept at or below it but is live", name)
		}
	}
	if fmt.Sprint(got[1]) != fmt.Sprint(map[string]bool{"G": true, "H": true, "R": true}) {
		t.Fatalf("pruned depth-1 nodes = %v, want G H R", got[1])
	}
	var skipped []string
	for name := range want[1] {
		if !got[1][name] {
			skipped = append(skipped, name)
		}
	}
	if sort.Strings(skipped); fmt.Sprint(skipped) != "[M N]" {
		t.Fatalf("depth 1 skips %v, want [M N]", skipped)
	}
	for depth, nodes := range got {
		for name := range nodes {
			if !want[depth][name] {
				t.Errorf("pruned BFS popped %s at depth %d, the paper's BFS did not", name, depth)
			}
		}
	}
	if m.NodesVisited >= wantM.NodesVisited {
		t.Errorf("pruned BFS popped %d states, the paper's %d", m.NodesVisited, wantM.NodesVisited)
	}
}

// sparseFixture is an ontology far larger than its vocabulary: documents
// draw from vocab concepts only, so most of the ontology is dead.
func sparseFixture(r *rand.Rand, concepts, vocab, docs int) (*ontology.Ontology, *corpus.Collection) {
	o := randomDAGOntology(r, concepts, 0.3)
	words := make([]ontology.ConceptID, vocab)
	for i := range words {
		words[i] = ontology.ConceptID(r.Intn(concepts))
	}
	c := corpus.New()
	for range docs {
		d := make([]ontology.ConceptID, 1+r.Intn(6))
		for j := range d {
			d[j] = words[r.Intn(len(words))]
		}
		c.Add("doc", 0, d)
	}
	return o, c
}

// TestLiveSetGrowsWithDocuments: a document added after the first query,
// carrying a concept in a formerly dead subtree, is found by the next
// query, at its exact distance.
func TestLiveSetGrowsWithDocuments(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(501))
	o, base := sparseFixture(r, 800, 20, 40)
	e, dyn := dynamicEngine(o)
	coll := corpus.New()
	add := func(concepts []ontology.ConceptID) corpus.DocID {
		dyn.AddDocument("doc", concepts)
		return coll.Add("doc", 0, concepts)
	}
	for _, d := range base.Docs() {
		add(d.Concepts)
	}
	q := []ontology.ConceptID{ontology.ConceptID(r.Intn(o.NumConcepts()))}
	if _, _, err := e.RDSContext(ctx, q, Options{K: 3}); err != nil {
		t.Fatal(err)
	}
	// The query concept itself, if dead, is the nearest possible document
	// concept; otherwise any dead concept will do.
	fresh := q[0]
	for c := 0; isLive(e.vocab.live, fresh); c++ {
		fresh = ontology.ConceptID(c)
	}
	added := add([]ontology.ConceptID{fresh})
	for _, sds := range []bool{false, true} {
		run := e.RDSContext
		qq := q
		if sds {
			run, qq = e.SDSContext, []ontology.ConceptID{fresh}
		}
		res, _, err := run(ctx, qq, Options{K: 5})
		if err != nil {
			t.Fatal(err)
		}
		checkTopK(t, o, coll, qq, sds, 5, res)
		if sds && (len(res) == 0 || res[0].Distance != 0) {
			t.Fatalf("SDS by the added document's own concept: %v, want distance 0 first", res)
		}
		found := false
		for _, x := range res {
			found = found || x.Doc == added
		}
		if !sds && q[0] == fresh && !found {
			t.Fatalf("document %d at the query concept missing from %v", added, res)
		}
	}
	if !isLive(e.vocab.live, fresh) {
		t.Fatal("the live set did not grow by the added document's concept")
	}
}

// TestLiveSetConcurrent: RDS and SDS queries run while documents are added,
// so the live set grows under readers. Every returned distance is its
// document's exact distance, and once the writes stop the rankings equal a
// fresh engine's. CI runs it under -race at -cpu 1,2,8.
func TestLiveSetConcurrent(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(503))
	o, base := sparseFixture(r, 600, 60, 120)
	e, dyn := dynamicEngine(o)
	coll := corpus.New()
	var mu sync.Mutex
	add := func(concepts []ontology.ConceptID) {
		mu.Lock()
		defer mu.Unlock()
		dyn.AddDocument("doc", concepts)
		coll.Add("doc", 0, concepts)
	}
	docs := base.Docs()
	for _, d := range docs[:30] {
		add(d.Concepts)
	}
	queries := make([][]ontology.ConceptID, 8)
	for i := range queries {
		queries[i] = randomDocConcepts(r, o, 3)
	}
	fwd := func(d corpus.DocID) []ontology.ConceptID {
		c, err := dyn.Concepts(d)
		if err != nil {
			t.Error(err)
		}
		return c
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rr := rand.New(rand.NewSource(seed))
			for i := 0; i < 20; i++ {
				sds := rr.Intn(2) == 0
				q := queries[rr.Intn(len(queries))]
				run := e.RDSContext
				if sds {
					run = e.SDSContext
				}
				res, _, err := run(ctx, q, Options{K: 4, ErrorThreshold: []float64{0, 0.5, 1}[rr.Intn(3)]})
				if err != nil {
					t.Errorf("query: %v", err)
					return
				}
				for _, x := range res {
					if want := freshDistance(t, o, sds, fwd(x.Doc), dedupConcepts(q)); math.Float64bits(want) != math.Float64bits(x.Distance) {
						t.Errorf("doc %d at %v, exact distance %v", x.Doc, x.Distance, want)
						return
					}
				}
			}
		}(int64(600 + g))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, d := range docs[30:] {
			add(d.Concepts)
		}
		add(randomDocConcepts(r, o, 4)) // most likely in a dead subtree
	}()
	wg.Wait()
	if t.Failed() {
		return
	}
	cold := memEngine(o, coll)
	for _, q := range queries {
		for _, sds := range []bool{false, true} {
			got, _, err := runSpace(e, sds, false)(ctx, q, Options{K: 6})
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := runSpace(cold, sds, false)(ctx, q, Options{K: 6})
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, fmt.Sprintf("quiesced sds=%v", sds), got, want)
		}
	}
}

// runSpace picks an engine's kNDS or full-scan entry point.
func runSpace(e *Engine, sds, scan bool) func(context.Context, []ontology.ConceptID, Options) ([]Result, *Metrics, error) {
	switch {
	case sds && scan:
		return e.FullScanSDSContext
	case sds:
		return e.SDSContext
	case scan:
		return e.FullScanRDSContext
	}
	return e.RDSContext
}

// diskEngine writes coll's indexes under dir and opens an engine over them.
func diskEngine(t *testing.T, o *ontology.Ontology, coll *corpus.Collection) *Engine {
	t.Helper()
	dir := t.TempDir()
	inv, fwd := filepath.Join(dir, "inv"), filepath.Join(dir, "fwd")
	if err := store.BuildInvertedFile(inv, coll); err != nil {
		t.Fatal(err)
	}
	if err := store.BuildForwardFile(fwd, coll); err != nil {
		t.Fatal(err)
	}
	io := new(store.IOStats)
	di, err := store.OpenInverted(inv, io, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { di.Close() })
	df, err := store.OpenForward(fwd, io, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { df.Close() })
	return NewEngine(o, di, df, coll.NumDocs(), io)
}

// TestDiskListingReadsNoForwardEntry: a disk engine lists its vocabulary
// from the inverted file's key directory, so its first unseeded query —
// the one that grows the live set over every document — reads a forward
// entry only for each document it examines by DRC, none for the listing,
// and ranks as a memory engine does.
func TestDiskListingReadsNoForwardEntry(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(77))
	o, coll := sparseFixture(r, 600, 40, 80)
	dir := t.TempDir()
	inv, fwd := filepath.Join(dir, "inv"), filepath.Join(dir, "fwd")
	if err := store.BuildInvertedFile(inv, coll); err != nil {
		t.Fatal(err)
	}
	if err := store.BuildForwardFile(fwd, coll); err != nil {
		t.Fatal(err)
	}
	var fwdIO store.IOStats
	di, err := store.OpenInverted(inv, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer di.Close()
	df, err := store.OpenForward(fwd, &fwdIO, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer df.Close()
	disk, mem := NewEngine(o, di, df, coll.NumDocs(), nil), memEngine(o, coll)
	for i, eps := range []float64{0, 0.5, 1} {
		q := coll.Doc(corpus.DocID(r.Intn(coll.NumDocs()))).Concepts
		opts := Options{K: 5, ErrorThreshold: eps}
		before := fwdIO.Reads.Load()
		got, m, err := disk.RDSContext(ctx, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		if reads := fwdIO.Reads.Load() - before; reads != int64(m.DRCCalls) {
			t.Errorf("query %d (eps %v): %d forward reads for %d DRC calls", i, eps, reads, m.DRCCalls)
		}
		want, _, err := mem.RDSContext(ctx, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, fmt.Sprintf("query %d", i), got, want)
	}
	if n := disk.vocab.listedDocs; n != coll.NumDocs() {
		t.Errorf("listing covers %d documents, want %d", n, coll.NumDocs())
	}
}

// TestSparseOntologyPruningGrid: on ontologies far larger than their
// vocabulary, kNDS with the pruning answers bitwise as the full scan and
// as kNDS without it — RDS and SDS, the nil measure and all three built-in
// measures, several ε_θ, a small QueueLimit, NoDedup, a cursor grown with
// GrowK, and a disk engine — while popping fewer states.
func TestSparseOntologyPruningGrid(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(509))
	for trial := 0; trial < 3; trial++ {
		o, coll := sparseFixture(r, 700+r.Intn(300), 25, 60)
		pruned := memEngine(o, coll)
		full := memEngine(o, coll)
		allLive(full)
		disk := diskEngine(t, o, coll)
		var fewer, queries int
		for qi := 0; qi < 3; qi++ {
			q := randomDocConcepts(r, o, 3)
			for _, sds := range []bool{false, true} {
				if sds {
					q = coll.Doc(corpus.DocID(r.Intn(coll.NumDocs()))).Concepts
				}
				for _, meas := range []measure.Measure{nil, measure.Rada(), measure.NewDensity(o), measure.NewEnhanced(o)} {
					name := "nil"
					if meas != nil {
						name = meas.Name()
					}
					scan, _, err := runSpace(pruned, sds, true)(ctx, q, Options{K: 6, Measure: meas})
					if err != nil {
						t.Fatal(err)
					}
					for _, opts := range []Options{
						{K: 6, ErrorThreshold: 0},
						{K: 6, ErrorThreshold: 0.5},
						{K: 6, ErrorThreshold: 1},
						{K: 6, ErrorThreshold: 0.5, QueueLimit: 4},
						{K: 6, ErrorThreshold: 0.5, NoDedup: true},
					} {
						opts.Measure = meas
						label := fmt.Sprintf("trial %d q%d sds=%v %s eps=%v ql=%d nodedup=%v", trial, qi, sds, name, opts.ErrorThreshold, opts.QueueLimit, opts.NoDedup)
						got, m, err := runSpace(pruned, sds, false)(ctx, q, opts)
						if err != nil {
							t.Fatal(err)
						}
						sameResults(t, label+" vs full scan", got, scan)
						want, wm, err := runSpace(full, sds, false)(ctx, q, opts)
						if err != nil {
							t.Fatal(err)
						}
						sameResults(t, label+" vs paper BFS", got, want)
						queries++
						if m.NodesVisited < wm.NodesVisited {
							fewer++
						} else if m.NodesVisited > wm.NodesVisited {
							t.Errorf("%s: pruned BFS popped %d states, the paper's %d", label, m.NodesVisited, wm.NodesVisited)
						}
						if opts.QueueLimit == 0 && !opts.NoDedup {
							got, _, err := runSpace(disk, sds, false)(ctx, q, opts)
							if err != nil {
								t.Fatal(err)
							}
							sameResults(t, label+" disk", got, scan)
						}
					}
					cursorResumeCase(t, ctx, pruned, sds, q, Options{K: 3, ErrorThreshold: 0.5, Measure: meas}, fmt.Sprintf("trial %d q%d sds=%v %s cursor", trial, qi, sds, name))
				}
			}
		}
		if fewer < queries/2 {
			t.Errorf("trial %d: pruning fired on %d of %d queries", trial, fewer, queries)
		}
	}
}

// TestLiveSetSurvivesDeepOntology: the vocabulary index gives up on
// ontologies deeper than its 255-step entries, the live set does not.
func TestLiveSetSurvivesDeepOntology(t *testing.T) {
	b := ontology.NewBuilder("root")
	prev := ontology.ConceptID(0)
	chain := []ontology.ConceptID{prev}
	for range 300 {
		c := b.AddConcept("c")
		b.MustAddEdge(prev, c)
		chain = append(chain, c)
		prev = c
	}
	side := b.AddConcept("side") // a dead leaf under the root
	b.MustAddEdge(0, side)
	o := b.MustFinalize()
	dyn := index.NewDynamic()
	dyn.AddDocument("deep", []ontology.ConceptID{chain[300]})
	dyn.AddDocument("shallow", []ontology.ConceptID{chain[2]})
	e := NewEngineDynamic(o, dyn, dyn, dyn.NumDocs, nil)
	if vi, err := e.vocabFor(dyn.NumDocs()); err != nil || vi != nil {
		t.Fatalf("vocabulary index over a 300-deep chain: %v, err %v; want none", vi, err)
	}
	res, _, err := e.RDSContext(context.Background(), []ontology.ConceptID{side}, Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0].Distance != 3 || res[1].Distance != 301 {
		t.Fatalf("results %v, want distances 3 and 301", res)
	}
	if isLive(e.vocab.live, side) || !isLive(e.vocab.live, chain[300]) {
		t.Fatal("live set wrong on the deep chain")
	}
}

// TestLiveSetDocumentAfterSnapshot: a document appended after a query's
// snapshot can surface in that query's postings, but the query's live set
// predates it, so its nearest concept may lie in a subtree the traversal
// skips. Its first contact then comes by a longer path, and the query
// must not take that contact as its exact distance (optimization 3).
func TestLiveSetDocumentAfterSnapshot(t *testing.T) {
	b := ontology.NewBuilder("root")
	a, a1 := b.AddConcept("A"), b.AddConcept("A1")
	bb, b1 := b.AddConcept("B"), b.AddConcept("B1")
	b.MustAddEdge(0, a)
	b.MustAddEdge(a, a1)
	b.MustAddEdge(0, bb)
	b.MustAddEdge(bb, b1)
	o := b.MustFinalize()
	e, dyn := dynamicEngine(o)
	dyn.AddDocument("far", []ontology.ConceptID{b1})
	cur, err := e.OpenRDS([]ontology.ConceptID{a}, Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if isLive(e.vocab.live, a1) {
		t.Fatal("A1 live before any document carries it")
	}
	// Appended after the snapshot: D(A, A1) = 1 through the dead A1, while
	// the traversal first meets the document at B1, 3 steps away.
	dyn.AddDocument("near", []ontology.ConceptID{a1, b1})
	res, _, err := cur.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if want := map[corpus.DocID]float64{0: 3, 1: 1}[r.Doc]; r.Distance != want {
			t.Errorf("doc %d at distance %v, want %v", r.Doc, r.Distance, want)
		}
	}
}

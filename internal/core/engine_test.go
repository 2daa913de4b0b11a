package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"conceptrank/internal/cache"
	"conceptrank/internal/corpus"
	"conceptrank/internal/distance"
	"conceptrank/internal/index"
	"conceptrank/internal/measure"
	"conceptrank/internal/ontology"
)

// memEngine assembles an in-memory engine over a collection.
func memEngine(o *ontology.Ontology, c *corpus.Collection) *Engine {
	return NewEngine(o, index.BuildMemInverted(c), index.BuildMemForward(c), c.NumDocs(), nil)
}

// bruteForce ranks all non-empty documents by exact distance using the
// independent BL calculator and returns the sorted distances.
func bruteForce(o *ontology.Ontology, c *corpus.Collection, q []ontology.ConceptID, sds bool) []float64 {
	bl := distance.NewBL(o, 0)
	var dists []float64
	for _, d := range c.Docs() {
		if len(d.Concepts) == 0 {
			continue
		}
		if sds {
			dists = append(dists, bl.DocDoc(d.Concepts, q))
		} else {
			dists = append(dists, bl.DocQuery(d.Concepts, q))
		}
	}
	sort.Float64s(dists)
	return dists
}

// checkTopK asserts that results carry the exact brute-force distances for
// the k smallest (as a multiset prefix; ties make document identity
// ambiguous) and that each result's distance matches its own document's
// true distance.
func checkTopK(t *testing.T, o *ontology.Ontology, c *corpus.Collection, q []ontology.ConceptID,
	sds bool, k int, results []Result) {
	t.Helper()
	bl := distance.NewBL(o, 0)
	all := bruteForce(o, c, q, sds)
	wantLen := k
	if len(all) < k {
		wantLen = len(all)
	}
	if len(results) != wantLen {
		t.Fatalf("got %d results, want %d (corpus has %d rankable docs)", len(results), wantLen, len(all))
	}
	for i, r := range results {
		var trueDist float64
		concepts := c.Doc(r.Doc).Concepts
		if sds {
			trueDist = bl.DocDoc(concepts, q)
		} else {
			trueDist = bl.DocQuery(concepts, q)
		}
		if math.Abs(r.Distance-trueDist) > 1e-9 {
			t.Fatalf("result %d (doc %d): reported %v, true %v", i, r.Doc, r.Distance, trueDist)
		}
		if math.Abs(r.Distance-all[i]) > 1e-9 {
			t.Fatalf("result %d: distance %v, brute-force rank-%d distance is %v (all=%v)",
				i, r.Distance, i, all[i], all[:wantLen])
		}
		if i > 0 && results[i-1].Distance > r.Distance+1e-12 {
			t.Fatalf("results not sorted: %v", results)
		}
	}
}

// paperCorpus builds a 6-document collection over the Figure 3 ontology,
// consistent with Example 4's setting (q = {F,I}, k = 2, final results
// d2 and d3 with distance 2 each).
func paperCorpus(pf *ontology.PaperFig) *corpus.Collection {
	c := corpus.New()
	c.Add("d1", 0, pf.Concepts("I", "T")) // Ddq = 0 + 4 = 4
	c.Add("d2", 0, pf.Concepts("F", "E")) // Ddq = 0 + 2 = 2
	c.Add("d3", 0, pf.Concepts("G", "J")) // Ddq = 1 + 1 = 2
	c.Add("d4", 0, pf.Concepts("K"))      // Ddq = 2 + 3 = 5
	c.Add("d5", 0, pf.Concepts("C"))      // far away
	c.Add("d6", 0, pf.Concepts("E", "M")) // Ddq = 4 + 1 = 5
	return c
}

func TestRDSPaperExample4Outcome(t *testing.T) {
	pf := ontology.NewPaperFig()
	c := paperCorpus(pf)
	e := memEngine(pf.O, c)
	q := pf.Concepts("F", "I")

	results, metrics, err := e.RDSContext(context.Background(), q, Options{K: 2, ErrorThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results: %v", results)
	}
	// Example 4 terminates with Hk = {(d2,2),(d3,2)} — doc IDs 1 and 2 here.
	got := map[corpus.DocID]float64{results[0].Doc: results[0].Distance, results[1].Doc: results[1].Distance}
	if got[1] != 2 || got[2] != 2 {
		t.Fatalf("top-2 = %v, want d2 and d3 at distance 2", results)
	}
	// kNDS must not examine the whole corpus.
	if metrics.DocsExamined >= c.NumDocs() {
		t.Errorf("kNDS examined all %d documents; no pruning happened", metrics.DocsExamined)
	}
	checkTopK(t, pf.O, c, q, false, 2, results)
}

func TestRDSMatchesBruteForceAcrossThresholds(t *testing.T) {
	pf := ontology.NewPaperFig()
	c := paperCorpus(pf)
	e := memEngine(pf.O, c)
	q := pf.Concepts("F", "I")
	for _, eps := range []float64{0, 0.25, 0.5, 0.75, 1} {
		for _, k := range []int{1, 2, 3, 6, 10} {
			results, _, err := e.RDSContext(context.Background(), q, Options{K: k, ErrorThreshold: eps})
			if err != nil {
				t.Fatalf("eps=%v k=%d: %v", eps, k, err)
			}
			checkTopK(t, pf.O, c, q, false, k, results)
		}
	}
}

func TestSDSMatchesBruteForce(t *testing.T) {
	pf := ontology.NewPaperFig()
	c := paperCorpus(pf)
	e := memEngine(pf.O, c)
	qdoc := pf.Concepts("F", "R", "T", "V")
	for _, eps := range []float64{0, 0.5, 1} {
		results, _, err := e.SDSContext(context.Background(), qdoc, Options{K: 3, ErrorThreshold: eps})
		if err != nil {
			t.Fatalf("eps=%v: %v", eps, err)
		}
		checkTopK(t, pf.O, c, qdoc, true, 3, results)
	}
}

func TestEmptyQueryRejected(t *testing.T) {
	pf := ontology.NewPaperFig()
	e := memEngine(pf.O, paperCorpus(pf))
	if _, _, err := e.RDSContext(context.Background(), nil, Options{}); err == nil {
		t.Error("empty query accepted")
	}
	if _, _, err := e.SDSContext(context.Background(), []ontology.ConceptID{}, Options{}); err == nil {
		t.Error("empty query doc accepted")
	}
}

// TestQueryConceptOutOfRange: a concept past the ontology is an error at
// every entry point, never an index panic — the kNDS queries and cursors
// and every full scan (one partition, partitioned, measure and the
// cache-seeded fold) run the same check.
func TestQueryConceptOutOfRange(t *testing.T) {
	pf := ontology.NewPaperFig()
	e := memEngine(pf.O, paperCorpus(pf))
	ctx := context.Background()
	type entry func(q []ontology.ConceptID) error
	query := func(f func(context.Context, []ontology.ConceptID, Options) ([]Result, *Metrics, error), opts Options) entry {
		return func(q []ontology.ConceptID) error {
			_, _, err := f(ctx, q, opts)
			return err
		}
	}
	rows := []struct {
		name string
		run  entry
	}{
		{"RDSContext", query(e.RDSContext, Options{})},
		{"SDSContext", query(e.SDSContext, Options{})},
		{"OpenRDS", func(q []ontology.ConceptID) error { _, err := e.OpenRDS(q, Options{}); return err }},
		{"FullScanRDS", query(e.FullScanRDSContext, Options{})},
		{"FullScanSDS", query(e.FullScanSDSContext, Options{})},
		{"FullScanRDS/workers=2", query(e.FullScanRDSContext, Options{Workers: 2})},
		{"FullScanSDS/workers=2", query(e.FullScanSDSContext, Options{Workers: 2})},
		{"FullScanRDS/measure", query(e.FullScanRDSContext, Options{Measure: measure.Rada()})},
		{"FullScanRDS/seeded", query(cachedView(e, cache.New(cache.Config{})).FullScanRDSContext, Options{})},
	}
	past := ontology.ConceptID(pf.O.NumConcepts())
	for _, row := range rows {
		for _, q := range [][]ontology.ConceptID{{past}, pf.Concepts("F", "I"), {9999}} {
			q = append(q, past)
			err := row.run(q)
			if err == nil || !strings.Contains(err.Error(), "outside ontology") {
				t.Errorf("%s(%v): %v, want an outside-ontology error", row.name, q, err)
			}
		}
	}
}

func TestDuplicateQueryConceptsDeduped(t *testing.T) {
	pf := ontology.NewPaperFig()
	c := paperCorpus(pf)
	e := memEngine(pf.O, c)
	a, _, err := e.RDSContext(context.Background(), pf.Concepts("F", "I"), Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := e.RDSContext(context.Background(), pf.Concepts("F", "I", "F", "I"), Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("duplicates changed results: %v vs %v", a, b)
		}
	}
}

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

// TestQuickKNDSAgainstBruteForce is the central correctness property:
// random ontologies, random corpora, random queries, both query types, all
// option knobs and every distance space — results must always carry the
// true k smallest distances. Every iteration runs the Rada space (nil
// Measure) against brute force; a drawn measure also runs and must match
// the same-measure full scan bit for bit (and brute force, for Rada()).
func TestQuickKNDSAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(6021))
	for iter := 0; iter < 60; iter++ {
		o := randomDAGOntology(r, 10+r.Intn(120), 0.3)
		c := randomCollection(r, o, 1+r.Intn(60), 8)
		e := memEngine(o, c)
		sds := iter%2 == 1
		nq := 1 + r.Intn(5)
		q := make([]ontology.ConceptID, nq)
		for j := range q {
			q[j] = ontology.ConceptID(r.Intn(o.NumConcepts()))
		}
		opts := Options{
			K:                 1 + r.Intn(8),
			ErrorThreshold:    []float64{0, 0.3, 0.6, 0.9, 1}[r.Intn(5)],
			QueueLimit:        []int{0, 7, 100, 50000}[r.Intn(4)],
			NoDedup:           r.Intn(4) == 0,
			Measure:           []measure.Measure{nil, measure.Rada(), measure.NewDensity(o), measure.NewEnhanced(o)}[r.Intn(4)],
			NoSkipWhenCovered: r.Intn(3) == 0,
		}
		query, scan := e.RDSContext, e.FullScanRDSContext
		if sds {
			query, scan = e.SDSContext, e.FullScanSDSContext
		}
		radaOpts := opts
		radaOpts.Measure = nil
		results, _, err := query(context.Background(), q, radaOpts)
		if err != nil {
			t.Fatalf("iter %d (opts %+v): %v", iter, radaOpts, err)
		}
		checkTopK(t, o, c, dedupConcepts(q), sds, opts.K, results)
		if opts.Measure == nil {
			continue
		}
		results, _, err = query(context.Background(), q, opts)
		if err != nil {
			t.Fatalf("iter %d (%s, opts %+v): %v", iter, opts.Measure.Name(), opts, err)
		}
		if opts.Measure.Name() == measure.Rada().Name() {
			checkTopK(t, o, c, dedupConcepts(q), sds, opts.K, results)
		}
		want, _, err := scan(context.Background(), q, Options{K: opts.K, Measure: opts.Measure})
		if err != nil {
			t.Fatalf("iter %d scan: %v", iter, err)
		}
		sameResults(t, fmt.Sprintf("iter %d (%s, opts %+v)", iter, opts.Measure.Name(), opts), results, want)
	}
}

func TestKnLargerThanCorpus(t *testing.T) {
	pf := ontology.NewPaperFig()
	c := paperCorpus(pf)
	e := memEngine(pf.O, c)
	results, _, err := e.RDSContext(context.Background(), pf.Concepts("F"), Options{K: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != c.NumDocs() {
		t.Fatalf("got %d results, want all %d docs", len(results), c.NumDocs())
	}
	checkTopK(t, pf.O, c, pf.Concepts("F"), false, 100, results)
}

func TestEmptyDocumentsAreNeverReturned(t *testing.T) {
	pf := ontology.NewPaperFig()
	c := corpus.New()
	c.Add("full", 0, pf.Concepts("F"))
	c.Add("empty", 0, nil)
	e := memEngine(pf.O, c)
	results, _, err := e.RDSContext(context.Background(), pf.Concepts("I"), Options{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Doc != 0 {
		t.Fatalf("results = %v, want only the non-empty doc", results)
	}
}

func TestProgressiveEmission(t *testing.T) {
	r := rand.New(rand.NewSource(404))
	for iter := 0; iter < 15; iter++ {
		o := randomDAGOntology(r, 20+r.Intn(80), 0.3)
		c := randomCollection(r, o, 10+r.Intn(40), 6)
		e := memEngine(o, c)
		q := []ontology.ConceptID{ontology.ConceptID(r.Intn(o.NumConcepts())), ontology.ConceptID(r.Intn(o.NumConcepts()))}
		var emitted []Result
		opts := Options{K: 5, ErrorThreshold: 0.8, Progressive: func(r Result) { emitted = append(emitted, r) }}
		results, _, err := e.RDSContext(context.Background(), q, opts)
		if err != nil {
			t.Fatal(err)
		}
		// Every result must be emitted exactly once, and every emitted doc
		// must be a final result.
		if len(emitted) != len(results) {
			t.Fatalf("emitted %d, results %d", len(emitted), len(results))
		}
		final := map[corpus.DocID]float64{}
		for _, r := range results {
			final[r.Doc] = r.Distance
		}
		seen := map[corpus.DocID]bool{}
		for _, em := range emitted {
			if seen[em.Doc] {
				t.Fatalf("doc %d emitted twice", em.Doc)
			}
			seen[em.Doc] = true
			if d, ok := final[em.Doc]; !ok || d != em.Distance {
				t.Fatalf("emitted %v not in final results %v", em, results)
			}
		}
	}
}

func TestQueueLimitForcesExamsButStaysExact(t *testing.T) {
	r := rand.New(rand.NewSource(777))
	o := randomDAGOntology(r, 150, 0.3)
	c := randomCollection(r, o, 80, 6)
	e := memEngine(o, c)
	q := []ontology.ConceptID{5, 17, 42}

	unlimited, mu, err := e.RDSContext(context.Background(), q, Options{K: 5, ErrorThreshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	limited, ml, err := e.RDSContext(context.Background(), q, Options{K: 5, ErrorThreshold: 0.5, QueueLimit: 5})
	if err != nil {
		t.Fatal(err)
	}
	if ml.ForcedExams == 0 {
		t.Error("tiny queue limit never forced an examination")
	}
	if mu.ForcedExams != 0 {
		t.Error("default queue limit should not force examinations here")
	}
	for i := range unlimited {
		if math.Abs(unlimited[i].Distance-limited[i].Distance) > 1e-9 {
			t.Fatalf("queue limit changed result distances: %v vs %v", unlimited, limited)
		}
	}
	checkTopK(t, o, c, q, false, 5, limited)
}

func TestMetricsSanity(t *testing.T) {
	pf := ontology.NewPaperFig()
	c := paperCorpus(pf)
	e := memEngine(pf.O, c)
	results, m, err := e.RDSContext(context.Background(), pf.Concepts("F", "I"), Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if m.ResultCount != len(results) {
		t.Errorf("ResultCount = %d, want %d", m.ResultCount, len(results))
	}
	if m.NodesVisited == 0 || m.Iterations == 0 {
		t.Errorf("traversal metrics empty: %+v", m)
	}
	if m.DocsExamined < len(results) {
		t.Errorf("examined %d < results %d", m.DocsExamined, len(results))
	}
	if m.DocsDiscovered < m.DocsExamined {
		t.Errorf("discovered %d < examined %d", m.DocsDiscovered, m.DocsExamined)
	}
	if p := m.ExaminedPrecision(); p <= 0 || p > 1 {
		t.Errorf("ExaminedPrecision = %v", p)
	}
	if m.TotalTime <= 0 {
		t.Errorf("TotalTime = %v", m.TotalTime)
	}
}

// TestErrorThresholdZeroWaitsForFullCoverage checks the ε_θ = 0 extreme:
// documents are only examined once every query node is covered, in which
// case optimization 3 means DRC is never called at all.
func TestErrorThresholdZeroWaitsForFullCoverage(t *testing.T) {
	pf := ontology.NewPaperFig()
	c := paperCorpus(pf)
	e := memEngine(pf.O, c)
	results, m, err := e.RDSContext(context.Background(), pf.Concepts("F", "I"), Options{K: 2, ErrorThreshold: 0})
	if err != nil {
		t.Fatal(err)
	}
	checkTopK(t, pf.O, c, pf.Concepts("F", "I"), false, 2, results)
	if m.DRCCalls != 0 {
		t.Errorf("ε_θ=0 should examine only fully-covered docs (DRC skipped), got %d DRC calls", m.DRCCalls)
	}
}

// TestSkipWhenCoveredAblation verifies optimization 3 changes DRC call
// counts but never distances.
func TestSkipWhenCoveredAblation(t *testing.T) {
	pf := ontology.NewPaperFig()
	c := paperCorpus(pf)
	e := memEngine(pf.O, c)
	q := pf.Concepts("F", "I")
	withOpt, m1, err := e.RDSContext(context.Background(), q, Options{K: 3, ErrorThreshold: 0})
	if err != nil {
		t.Fatal(err)
	}
	without, m2, err := e.RDSContext(context.Background(), q, Options{K: 3, ErrorThreshold: 0, NoSkipWhenCovered: true})
	if err != nil {
		t.Fatal(err)
	}
	if m2.DRCCalls <= m1.DRCCalls {
		t.Errorf("disabling optimization 3 should add DRC calls: %d vs %d", m2.DRCCalls, m1.DRCCalls)
	}
	for i := range withOpt {
		if withOpt[i].Distance != without[i].Distance {
			t.Fatalf("optimization 3 changed distances: %v vs %v", withOpt, without)
		}
	}
}

func TestFullScanBaselineMatchesKNDS(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	o := randomDAGOntology(r, 100, 0.3)
	c := randomCollection(r, o, 50, 6)
	e := memEngine(o, c)
	q := []ontology.ConceptID{3, 30, 60}

	knds, _, err := e.RDSContext(context.Background(), q, Options{K: 7})
	if err != nil {
		t.Fatal(err)
	}
	scan, ms, err := e.FullScanRDSContext(context.Background(), q, Options{K: 7})
	if err != nil {
		t.Fatal(err)
	}
	if ms.DocsExamined != 50 {
		t.Errorf("full scan examined %d docs, want all 50", ms.DocsExamined)
	}
	for i := range knds {
		if math.Abs(knds[i].Distance-scan[i].Distance) > 1e-9 {
			t.Fatalf("kNDS %v vs full scan %v", knds, scan)
		}
	}

	kndsS, _, err := e.SDSContext(context.Background(), q, Options{K: 7})
	if err != nil {
		t.Fatal(err)
	}
	scanS, _, err := e.FullScanSDSContext(context.Background(), q, Options{K: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := range kndsS {
		if math.Abs(kndsS[i].Distance-scanS[i].Distance) > 1e-9 {
			t.Fatalf("SDS: kNDS %v vs full scan %v", kndsS, scanS)
		}
	}
}

func TestTopKHeap(t *testing.T) {
	h := newTopK[Result](3)
	for _, d := range []float64{5, 1, 4, 2, 8, 3} {
		h.offer(Result{Doc: corpus.DocID(d), Distance: d})
	}
	got := h.sorted()
	want := []float64{1, 2, 3}
	if len(got) != 3 {
		t.Fatalf("sorted = %v", got)
	}
	for i := range want {
		if got[i].Distance != want[i] {
			t.Fatalf("sorted = %v, want distances %v", got, want)
		}
	}
	// Canonical (distance, doc ID) order: a distance tie resolves toward
	// the smaller doc ID regardless of offer order, so the heap's content
	// is a pure function of the offered set — the property the sharded
	// merge relies on.
	h2 := newTopK[Result](1)
	h2.offer(Result{Doc: 7, Distance: 2})
	h2.offer(Result{Doc: 3, Distance: 2})
	if h2.items[0].Doc != 3 {
		t.Fatalf("tie must resolve to the smaller doc ID: %v", h2.items)
	}
	h2.offer(Result{Doc: 5, Distance: 2})
	if h2.items[0].Doc != 3 {
		t.Fatalf("tie-losing offer must not evict: %v", h2.items)
	}
	h2.offer(Result{Doc: 9, Distance: 1})
	if h2.items[0].Doc != 9 {
		t.Fatalf("strictly better candidate must evict: %v", h2.items)
	}
}

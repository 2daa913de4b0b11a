package core

// The batch seed resolver (resolveSeeds) builds a query's missing and
// stale vectors on several goroutines. These tests pin it to a one-worker
// run of the same resolver, the seedWorkers seam: whatever the builds'
// interleaving, results, counters, the hit/miss trace, the cache's
// statistics and every stored vector are the serial run's.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"conceptrank/internal/cache"
	"conceptrank/internal/corpus"
	"conceptrank/internal/index"
	"conceptrank/internal/measure"
	"conceptrank/internal/ontology"
)

// seedTwin is an engine with its own cache over a shared index, its seed
// builds pinned to workers goroutines.
type seedTwin struct {
	e  *Engine
	cc *cache.Cache
}

func newSeedTwin(o *ontology.Ontology, inv index.Inverted, fwd index.Forward, numDocs func() int, workers int) seedTwin {
	e := NewEngineDynamic(o, inv, fwd, numDocs, nil)
	cc := cache.New(cache.Config{})
	e.EnableCache(cc)
	e.seedWorkers = workers
	return seedTwin{e, cc}
}

// metricCounters renders every Metrics field but the times.
func metricCounters(m *Metrics) string {
	return fmt.Sprintf("iter %d nodes %d disc %d exam %d drc %d forced %d res %d hits %d misses %d eps %v",
		m.Iterations, m.NodesVisited, m.DocsDiscovered, m.DocsExamined, m.DRCCalls, m.ForcedExams,
		m.ResultCount, m.CacheHits, m.CacheMisses, m.TerminalEps)
}

// seedEvents keeps a trace's hit and miss events, without their times.
func seedEvents(events []TraceEvent) []TraceEvent {
	var out []TraceEvent
	for _, ev := range events {
		if ev.Kind == TraceCacheHit || ev.Kind == TraceCacheMiss {
			ev.At = 0
			out = append(out, ev)
		}
	}
	return out
}

// seedOutcome is what one cached operation leaves observable.
type seedOutcome struct {
	results  []Result
	pairs    []PairResult
	counters string
	events   []TraceEvent
	err      string
	stats    cache.Stats
}

// runSeeded runs one operation — a kNDS RDS query, a seeded full scan or
// a pair join — on tw and records its outcome.
func runSeeded(tw seedTwin, op string, q []ontology.ConceptID, meas measure.Measure) seedOutcome {
	ctx := context.Background()
	var out seedOutcome
	var events []TraceEvent
	opts := Options{K: 7, ErrorThreshold: 0.5, Measure: meas, Trace: func(ev TraceEvent) { events = append(events, ev) }}
	var err error
	switch op {
	case "pairs":
		var pm *PairMetrics
		out.pairs, pm, err = tw.e.TopKPairs(ctx, PairOptions{K: 7})
		out.counters = pairCounters(pm)
	default:
		run := tw.e.RDSContext
		if op == "scan" {
			run = tw.e.FullScanRDSContext
		}
		var m *Metrics
		out.results, m, err = run(ctx, q, opts)
		out.counters = metricCounters(m)
	}
	if err != nil {
		out.err = err.Error()
	}
	out.events = seedEvents(events)
	out.stats = tw.cc.Stats()
	return out
}

func sameOutcome(t *testing.T, label string, want, got seedOutcome) {
	t.Helper()
	if want.err != got.err {
		t.Fatalf("%s: error %q, serial %q", label, got.err, want.err)
	}
	sameResults(t, label, got.results, want.results)
	assertPairsIdentical(t, label, want.pairs, got.pairs)
	if want.counters != got.counters {
		t.Fatalf("%s: counters\n got    %s\n serial %s", label, got.counters, want.counters)
	}
	if !slices.Equal(want.events, got.events) {
		t.Fatalf("%s: hit/miss trace\n got    %v\n serial %v", label, got.events, want.events)
	}
	if want.stats != got.stats {
		t.Fatalf("%s: cache stats\n got    %+v\n serial %+v", label, got.stats, want.stats)
	}
}

// sameStoredSeeds requires both twins to hold the same entry — present or
// not, and then the same generation and vector — for every concept.
func sameStoredSeeds[E comparable](t *testing.T, label string, sp seedSpace[E], serial, conc seedTwin, concepts []ontology.ConceptID) {
	t.Helper()
	for _, c := range concepts {
		wd, wg, wok := sp.get(serial.cc, serial.e.cacheID, c)
		gd, gg, gok := sp.get(conc.cc, conc.e.cacheID, c)
		if wok != gok || wg != gg || !slices.Equal(wd, gd) {
			t.Fatalf("%s: concept %d stored (%v, gen %d, %d entries), serial (%v, gen %d, %d entries)",
				label, c, gok, gg, len(gd), wok, wg, len(wd))
		}
	}
}

// TestResolveSeedsMatchesSerial runs every operation through a one-worker
// and a four-worker twin (four spawns builders at any GOMAXPROCS).
func TestResolveSeedsMatchesSerial(t *testing.T) {
	t.Run("grid", resolveGrid)
	t.Run("forward error", resolveForwardError)
}

// resolveGrid drives random sequences of writes and cached operations:
// queries of 1 to 8 origins drawn partly from earlier queries, so batches
// mix fresh hits, entries made stale by AddDocument and misses; kNDS RDS,
// the seeded full scan and TopKPairs; under Rada and the density measure.
func resolveGrid(t *testing.T) {
	r := rand.New(rand.NewSource(2718))
	for trial := range 3 {
		o := randomDAGOntology(r, 120+r.Intn(150), 0.3)
		for _, meas := range []measure.Measure{nil, measure.NewDensity(o)} {
			dyn := index.NewDynamic()
			for range 25 {
				dyn.AddDocument("doc", randomDocConcepts(r, o, 6))
			}
			serial := newSeedTwin(o, dyn, dyn, dyn.NumDocs, 1)
			conc := newSeedTwin(o, dyn, dyn, dyn.NumDocs, 4)
			var seen []ontology.ConceptID
			for step := range 24 {
				if step%3 == 2 {
					for range 1 + r.Intn(3) {
						dyn.AddDocument("doc", randomDocConcepts(r, o, 6))
					}
				}
				var q []ontology.ConceptID
				for range 1 + r.Intn(8) {
					c := ontology.ConceptID(r.Intn(o.NumConcepts()))
					if len(seen) > 0 && r.Intn(2) == 0 {
						c = seen[r.Intn(len(seen))]
					}
					q = append(q, c)
				}
				seen = append(seen, q...)
				op := []string{"rds", "rds", "scan", "pairs"}[step%4]
				if op == "pairs" && meas != nil {
					op = "rds" // the pair join ranks under Rada only
				}
				label := fmt.Sprintf("trial %d measure %v step %d %s", trial, meas != nil, step, op)
				want := runSeeded(serial, op, q, meas)
				got := runSeeded(conc, op, q, meas)
				sameOutcome(t, label, want, got)
				if want.err != "" {
					t.Fatalf("%s: %s", label, want.err)
				}
			}
			all := make([]ontology.ConceptID, o.NumConcepts())
			for c := range all {
				all[c] = ontology.ConceptID(c)
			}
			label := fmt.Sprintf("trial %d measure %v", trial, meas != nil)
			if meas == nil {
				sameStoredSeeds(t, label, &ddcSpace{}, serial, conc, all)
			} else {
				sameStoredSeeds(t, label, newMeasureSpace(meas), serial, conc, all)
			}
		}
	}
}

// failingForward fails every read of document bad while fail is set. It
// hides index.Dynamic's ConceptsRange, so every read goes through
// Concepts.
type failingForward struct {
	index.Forward
	bad  corpus.DocID
	fail bool
}

func (f *failingForward) Concepts(d corpus.DocID) ([]ontology.ConceptID, error) {
	if f.fail && d == f.bad {
		return nil, errors.New("read failed")
	}
	return f.Forward.Concepts(d)
}

// resolveForwardError: a batch [a, z, b] where a and b are stale by
// documents that read cleanly and z, a miss, must read a failing
// document. Both twins return z's error, count and trace a alone, store
// a's refresh and leave z absent and b at its old generation — the state
// a loop resolving one concept after another leaves, though b's refresh
// ran.
func resolveForwardError(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	o := randomDAGOntology(r, 150, 0.3)
	dyn := index.NewDynamic()
	for range 20 {
		dyn.AddDocument("doc", randomDocConcepts(r, o, 6))
	}
	g0 := dyn.NumDocs()
	ff := &failingForward{Forward: dyn, bad: 3}
	serial := newSeedTwin(o, dyn, ff, dyn.NumDocs, 1)
	conc := newSeedTwin(o, dyn, ff, dyn.NumDocs, 4)
	a, z, b := ontology.ConceptID(1), ontology.ConceptID(2), ontology.ConceptID(3)
	for _, tw := range []seedTwin{serial, conc} {
		if out := runSeeded(tw, "rds", []ontology.ConceptID{a, b}, nil); out.err != "" {
			t.Fatal(out.err)
		}
	}
	for range 4 {
		dyn.AddDocument("doc", randomDocConcepts(r, o, 6))
	}
	ff.fail = true
	q := []ontology.ConceptID{a, z, b}
	want := runSeeded(serial, "rds", q, nil)
	got := runSeeded(conc, "rds", q, nil)
	sameOutcome(t, "failing batch", want, got)
	if ev := want.events; want.err == "" || len(ev) != 1 || ev[0].Kind != TraceCacheHit || ev[0].N != int(a) {
		t.Fatalf("failing batch: error %q, events %v; want z's error and a's hit alone", want.err, want.events)
	}
	for _, tw := range []seedTwin{serial, conc} {
		for c, gen := range map[ontology.ConceptID]int{a: dyn.NumDocs(), z: -1, b: g0} {
			_, g, ok := (&ddcSpace{}).get(tw.cc, tw.e.cacheID, c)
			if (gen < 0) == ok || (ok && g != gen) {
				t.Errorf("workers %d: concept %d stored %v at gen %d, want gen %d", tw.e.seedWorkers, c, ok, g, gen)
			}
		}
	}
}

package core

// Measure-equivalence grids: the pluggable-measure pipeline against its
// oracles.
//
//   - measure.Rada() routed through the generic machinery must reproduce
//     the default (nil-measure) DRC fast path bit for bit, across serial,
//     parallel, cached, cursor and full-scan execution;
//   - for every built-in measure, kNDS must match the full-scan oracle
//     (exactness of the generalized bounds);
//   - warm (cached) and cold rankings must be bitwise identical per
//     measure, and cache entries must never cross measures.
//
// Run with -race: the grids double as the concurrency suite for the
// measure path.

import (
	"context"
	"math/rand"
	"testing"

	"conceptrank/internal/cache"
	"conceptrank/internal/measure"
	"conceptrank/internal/ontology"
)

// sameResults asserts bitwise equality of two rankings.
func sameResults(t *testing.T, label string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d vs %d results\n got %v\nwant %v", label, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: rank %d: got %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestMeasureRadaBitwiseEquivalence pins the tentpole guarantee: the
// explicit Rada measure reproduces the nil-measure fast path bit for bit
// at every point of the execution grid.
func TestMeasureRadaBitwiseEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	for trial := 0; trial < 4; trial++ {
		o := randomDAGOntology(r, 150, 0.3)
		coll := randomCollection(r, o, 80, 7)
		e := memEngine(o, coll)
		q := []ontology.ConceptID{
			ontology.ConceptID(r.Intn(o.NumConcepts())),
			ontology.ConceptID(r.Intn(o.NumConcepts())),
			ontology.ConceptID(r.Intn(o.NumConcepts())),
		}
		rada := measure.Rada()
		for _, sds := range []bool{false, true} {
			// w selects the serial or the partitioned scan; kNDS ignores it.
			for _, w := range []int{1, 4} {
				for _, eps := range []float64{0, 0.5, 1} {
					base := Options{K: 9, ErrorThreshold: eps, Workers: w}
					var ref, got []Result
					var err error
					if sds {
						ref, _, err = e.SDSContext(context.Background(), q, base)
					} else {
						ref, _, err = e.RDSContext(context.Background(), q, base)
					}
					if err != nil {
						t.Fatal(err)
					}
					withM := base
					withM.Measure = rada
					if sds {
						got, _, err = e.SDSContext(context.Background(), q, withM)
					} else {
						got, _, err = e.RDSContext(context.Background(), q, withM)
					}
					if err != nil {
						t.Fatal(err)
					}
					sameResults(t, "kNDS", got, ref)

					if sds {
						got, _, err = e.FullScanSDSContext(context.Background(), q, withM)
					} else {
						got, _, err = e.FullScanRDSContext(context.Background(), q, withM)
					}
					if err != nil {
						t.Fatal(err)
					}
					var scan []Result
					if sds {
						scan, _, err = e.FullScanSDSContext(context.Background(), q, base)
					} else {
						scan, _, err = e.FullScanRDSContext(context.Background(), q, base)
					}
					if err != nil {
						t.Fatal(err)
					}
					sameResults(t, "full scan", got, scan)
				}
			}
		}

		// Cached tier (RDS; SDS never seeds): warm Rada-measure runs against
		// the cold nil-measure ranking.
		ce := cachedView(e, cache.New(cache.Config{}))
		warm := Options{K: 9, ErrorThreshold: 0.5, Measure: rada}
		ref, _, err := e.RDSContext(context.Background(), q, Options{K: 9, ErrorThreshold: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ { // cold fill, then warm hit
			cur, err := ce.OpenRDS(q, warm)
			if err != nil {
				t.Fatal(err)
			}
			got, m, err := cur.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, "cached kNDS", got, ref)
			checkSeededCounters(t, "cached kNDS", m, cur.Examined(), canonicalRanking(t, e, q, Options{}), warm.K, true)
			cur.Close()
		}

		// Cursor tier: page and grow under the measure.
		ctx := context.Background()
		cur, err := e.OpenRDS(q, Options{K: 5, ErrorThreshold: 0.5, Measure: rada})
		if err != nil {
			t.Fatal(err)
		}
		page, err := cur.Next(ctx, 5)
		if err != nil {
			t.Fatal(err)
		}
		small, _, err := e.RDSContext(context.Background(), q, Options{K: 5, ErrorThreshold: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, "cursor page", page, small)
		grown, err := cur.GrowK(ctx, 9)
		if err != nil {
			t.Fatal(err)
		}
		big, _, err := e.RDSContext(context.Background(), q, Options{K: 9, ErrorThreshold: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, "cursor GrowK", grown, big)
		cur.Close()
	}
}

// TestMeasureKNDSMatchesFullScan: for each built-in measure the staged
// pipeline's ranking equals the full-scan oracle's — the generalized
// bounds never cost exactness.
func TestMeasureKNDSMatchesFullScan(t *testing.T) {
	r := rand.New(rand.NewSource(73))
	for trial := 0; trial < 4; trial++ {
		o := randomDAGOntology(r, 150, 0.3)
		coll := randomCollection(r, o, 70, 7)
		e := memEngine(o, coll)
		q := []ontology.ConceptID{
			ontology.ConceptID(r.Intn(o.NumConcepts())),
			ontology.ConceptID(r.Intn(o.NumConcepts())),
			ontology.ConceptID(r.Intn(o.NumConcepts())),
		}
		for _, m := range []measure.Measure{measure.Rada(), measure.NewDensity(o), measure.NewEnhanced(o)} {
			for _, sds := range []bool{false, true} {
				for _, eps := range []float64{0, 0.5, 1} {
					opts := Options{K: 8, ErrorThreshold: eps, Measure: m}
					var knds, scan []Result
					var err error
					if sds {
						knds, _, err = e.SDSContext(context.Background(), q, opts)
					} else {
						knds, _, err = e.RDSContext(context.Background(), q, opts)
					}
					if err != nil {
						t.Fatalf("%s kNDS: %v", m.Name(), err)
					}
					if sds {
						scan, _, err = e.FullScanSDSContext(context.Background(), q, Options{K: 8, Measure: m})
					} else {
						scan, _, err = e.FullScanRDSContext(context.Background(), q, Options{K: 8, Measure: m})
					}
					if err != nil {
						t.Fatalf("%s scan: %v", m.Name(), err)
					}
					sameResults(t, m.Name(), knds, scan)

					// Parallel scan against the serial oracle.
					if !sds {
						pscan, _, err := e.FullScanRDSContext(context.Background(), q, Options{K: 8, Workers: 4, Measure: m})
						if err != nil {
							t.Fatal(err)
						}
						sameResults(t, m.Name()+" parallel scan", pscan, scan)
					}
				}
			}
		}
	}
}

// TestMeasureWarmColdIdentical: per measure, warm (cache-hit) rankings are
// bitwise identical to cold ones — for kNDS and the seeded full scan — and
// the second run actually hits the cache.
func TestMeasureWarmColdIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(79))
	o := randomDAGOntology(r, 150, 0.3)
	coll := randomCollection(r, o, 80, 7)
	e := memEngine(o, coll)
	q := []ontology.ConceptID{5, 60, 110}

	for _, m := range []measure.Measure{measure.Rada(), measure.NewDensity(o), measure.NewEnhanced(o)} {
		cold := Options{K: 8, ErrorThreshold: 0.5, Measure: m}
		refK, _, err := e.RDSContext(context.Background(), q, cold)
		if err != nil {
			t.Fatal(err)
		}
		refS, _, err := e.FullScanRDSContext(context.Background(), q, Options{K: 8, Measure: m})
		if err != nil {
			t.Fatal(err)
		}

		ce := cachedView(e, cache.New(cache.Config{}))
		warm := Options{K: 8, ErrorThreshold: 0.5, Measure: m}
		all := canonicalRanking(t, e, q, Options{Measure: m})
		var lastHits int
		for pass := 0; pass < 2; pass++ {
			cur, err := ce.OpenRDS(q, warm)
			if err != nil {
				t.Fatal(err)
			}
			gotK, mk, err := cur.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, m.Name()+" kNDS warm", gotK, refK)
			checkSeededCounters(t, m.Name()+" kNDS warm", mk, cur.Examined(), all, warm.K, true)
			cur.Close()
			gotS, _, err := ce.FullScanRDSContext(context.Background(), q, Options{K: 8, Measure: m})
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, m.Name()+" seeded scan", gotS, refS)
			lastHits = mk.CacheHits
		}
		if lastHits == 0 {
			t.Fatalf("%s: second kNDS run hit nothing", m.Name())
		}
	}
}

// TestMeasureCacheKeysSeparate: one shared cache serving three measures
// (plus the nil fast path) never leaks a vector across measures — each
// measure's warm ranking equals its own cold ranking.
func TestMeasureCacheKeysSeparate(t *testing.T) {
	r := rand.New(rand.NewSource(83))
	o := randomDAGOntology(r, 120, 0.3)
	coll := randomCollection(r, o, 60, 6)
	e := memEngine(o, coll)
	q := []ontology.ConceptID{3, 40, 80}
	ce := cachedView(e, cache.New(cache.Config{}))

	type tier struct {
		name string
		m    measure.Measure
	}
	tiers := []tier{
		{"nil", nil},
		{"rada", measure.Rada()},
		{"density", measure.NewDensity(o)},
		{"enhanced", measure.NewEnhanced(o)},
	}
	cold := make(map[string][]Result)
	for _, tr := range tiers {
		res, _, err := e.RDSContext(context.Background(), q, Options{K: 8, ErrorThreshold: 0.5, Measure: tr.m})
		if err != nil {
			t.Fatal(err)
		}
		cold[tr.name] = res
	}
	// Interleave warm runs so every measure queries a cache already filled
	// by the others.
	for pass := 0; pass < 2; pass++ {
		for _, tr := range tiers {
			res, _, err := ce.RDSContext(context.Background(), q, Options{K: 8, ErrorThreshold: 0.5, Measure: tr.m})
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, tr.name+" interleaved warm", res, cold[tr.name])
		}
	}
	// Sanity: density and enhanced disagree with rada somewhere on this
	// setup — otherwise the separation test is vacuous.
	differs := false
	for _, name := range []string{"density", "enhanced"} {
		for i := range cold[name] {
			if cold[name][i] != cold["rada"][i] {
				differs = true
			}
		}
	}
	if !differs {
		t.Log("note: all measures ranked identically on this seed (separation untested)")
	}
}

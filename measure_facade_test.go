package conceptrank

// Facade-level coverage of the pluggable-measure API and the consolidated
// query surface: Options.Measure end to end, engine-level EnableCache reaching
// the collapsed FullScan entry points (a facade bug until this release —
// fullScan never consulted the engine cache), and per-measure telemetry
// labels.

import (
	"context"
	"testing"
	"time"
)

func TestFacadeMeasuresEndToEnd(t *testing.T) {
	o, coll := smallSetup(t)
	eng := NewEngine(o, coll)
	q := coll.Doc(0).Concepts[:3]

	ref, _, err := eng.RDSContext(context.Background(), q, Options{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	viaRada, _, err := eng.RDSContext(context.Background(), q, Options{K: 5, Measure: RadaMeasure()})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if ref[i] != viaRada[i] {
			t.Fatalf("RadaMeasure diverges from default at rank %d: %v vs %v", i, viaRada[i], ref[i])
		}
	}
	for _, m := range []DistanceMeasure{NewDensityMeasure(o), NewEnhancedMeasure(o)} {
		res, _, err := eng.RDSContext(context.Background(), q, Options{K: 5, Measure: m})
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if len(res) != 5 {
			t.Fatalf("%s: %d results", m.Name(), len(res))
		}
		// Doc 0 contains every query concept: distance 0 under any measure.
		if res[0].Doc != 0 || res[0].Distance != 0 {
			t.Fatalf("%s: doc 0 should lead at distance 0: %v", m.Name(), res)
		}
		scan, _, err := eng.FullScanRDS(q, WithK(5), WithMeasure(m))
		if err != nil {
			t.Fatal(err)
		}
		for i := range res {
			if res[i] != scan[i] {
				t.Fatalf("%s: kNDS %v vs scan %v", m.Name(), res, scan)
			}
		}
	}
}

// TestEngineCacheReachesFullScan pins the EnableCache bugfix: an
// engine-level cache must flow into the collapsed FullScan entry points
// exactly like it flows into RDS, with identical rankings and observable
// cache traffic.
func TestEngineCacheReachesFullScan(t *testing.T) {
	o, coll := smallSetup(t)
	q := coll.Doc(0).Concepts[:3]

	cold := NewEngine(o, coll)
	refScan, _, err := cold.FullScanRDS(q, WithK(5))
	if err != nil {
		t.Fatal(err)
	}

	eng := NewEngine(o, coll)
	eng.EnableCache(NewCache(CacheConfig{}))
	var sawTraffic bool
	for pass := 0; pass < 2; pass++ {
		scan, m, err := eng.FullScanRDS(q, WithK(5))
		if err != nil {
			t.Fatal(err)
		}
		if m.CacheHits+m.CacheMisses == 0 {
			t.Fatalf("pass %d: FullScanRDS ignored the engine cache", pass)
		}
		if pass == 1 && m.CacheHits > 0 {
			sawTraffic = true
		}
		for i := range refScan {
			if scan[i] != refScan[i] {
				t.Fatalf("cached scan diverges at rank %d: %v vs %v", i, scan[i], refScan[i])
			}
		}
	}
	if !sawTraffic {
		t.Fatal("second scan produced no cache hits")
	}
}

// TestTelemetryPerMeasureLabels: queries under a non-default measure are
// recorded under "<kind>_<measure>" so per-measure dashboards come free.
// The slow log keeps the kind per entry; a 1ns threshold records all.
func TestTelemetryPerMeasureLabels(t *testing.T) {
	o, coll := smallSetup(t)
	eng := NewEngine(o, coll)
	sink := NewTelemetry(TelemetryConfig{SlowThreshold: time.Nanosecond})
	eng.EnableTelemetry(sink)
	q := coll.Doc(0).Concepts[:2]

	if _, _, err := eng.RDSContext(context.Background(), q, Options{K: 3}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.RDSContext(context.Background(), q, Options{K: 3, Measure: NewDensityMeasure(o)}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.FullScanRDS(q, WithK(3), WithMeasure(NewEnhancedMeasure(o))); err != nil {
		t.Fatal(err)
	}

	kinds := map[string]bool{}
	for _, e := range sink.Slow.Snapshot() {
		kinds[e.Kind] = true
	}
	for _, want := range []string{"rds", "rds_density", "scan_rds_enhanced"} {
		if !kinds[want] {
			t.Fatalf("telemetry kinds missing %q: %v", want, kinds)
		}
	}
}

package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"conceptrank/internal/measure"
	"conceptrank/internal/ontology"
)

// collectTrace runs fn with a Trace hook installed and returns the events
// in delivery order.
func collectTrace(opts Options, run func(Options) error, t *testing.T) []TraceEvent {
	t.Helper()
	var events []TraceEvent
	opts.Trace = func(ev TraceEvent) { events = append(events, ev) }
	if err := run(opts); err != nil {
		t.Fatal(err)
	}
	return events
}

func countKind(events []TraceEvent, k TraceKind) int {
	n := 0
	for _, ev := range events {
		if ev.Kind == k {
			n++
		}
	}
	return n
}

// TestTraceRDSEventStream asserts the acceptance contract: a traced RDS
// query observes at least one WaveStart, at least one DRCProbe, and a
// single terminal event whose ε_d matches the returned Metrics.
func TestTraceRDSEventStream(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	o := randomDAGOntology(r, 120, 0.15)
	c := randomCollection(r, o, 300, 5)
	e := memEngine(o, c)
	q := []ontology.ConceptID{3, 17, 40}

	var metrics *Metrics
	var results []Result
	events := collectTrace(Options{K: 5, ErrorThreshold: 0.3}, func(opts Options) error {
		var err error
		results, metrics, err = e.RDSContext(context.Background(), q, opts)
		return err
	}, t)

	if countKind(events, TraceWaveStart) < 1 {
		t.Fatalf("no WaveStart events in %d events", len(events))
	}
	if countKind(events, TraceDRCProbe) < 1 {
		t.Fatalf("no DRCProbe events in %d events", len(events))
	}
	if n := countKind(events, TraceTerminate); n != 1 {
		t.Fatalf("got %d Terminate events, want exactly 1", n)
	}
	last := events[len(events)-1]
	if last.Kind != TraceTerminate {
		t.Fatalf("last event is %v, want Terminate", last.Kind)
	}
	if last.Value != metrics.TerminalEps {
		t.Fatalf("Terminate.Value = %v, Metrics.TerminalEps = %v", last.Value, metrics.TerminalEps)
	}
	if last.N != len(results) {
		t.Fatalf("Terminate.N = %d, len(results) = %d", last.N, len(results))
	}
	if metrics.TerminalEps < 0 || metrics.TerminalEps > 1 {
		t.Fatalf("TerminalEps out of [0,1]: %v", metrics.TerminalEps)
	}

	// Structural invariants: WaveStart/WaveEnd pair up, timestamps are
	// monotonic, DRCProbe.N sums to Metrics.DRCCalls, probe count matches
	// DocsExamined, and every unsharded event carries Shard == -1.
	depth := 0
	drcRan := 0
	prevAt := events[0].At
	for i, ev := range events {
		if ev.At < prevAt {
			t.Fatalf("event %d: At went backwards (%v after %v)", i, ev.At, prevAt)
		}
		prevAt = ev.At
		if ev.Shard != -1 {
			t.Fatalf("event %d: Shard = %d, want -1 for unsharded query", i, ev.Shard)
		}
		switch ev.Kind {
		case TraceWaveStart:
			depth++
		case TraceWaveEnd:
			depth--
			if depth < 0 {
				t.Fatalf("event %d: WaveEnd without matching WaveStart", i)
			}
		case TraceDRCProbe:
			drcRan += ev.N
		}
	}
	if depth != 0 {
		t.Fatalf("unbalanced WaveStart/WaveEnd: %d unclosed", depth)
	}
	if drcRan != metrics.DRCCalls {
		t.Fatalf("sum of DRCProbe.N = %d, Metrics.DRCCalls = %d", drcRan, metrics.DRCCalls)
	}
	if probes := countKind(events, TraceDRCProbe); probes != metrics.DocsExamined {
		t.Fatalf("DRCProbe events = %d, Metrics.DocsExamined = %d", probes, metrics.DocsExamined)
	}
}

// TestTraceObservationOnly holds the core contract: installing a hook must
// not change results or decision-sequence metrics.
func TestTraceObservationOnly(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	o := randomDAGOntology(r, 100, 0.2)
	c := randomCollection(r, o, 250, 4)
	e := memEngine(o, c)
	q := []ontology.ConceptID{5, 31, 62, 80}

	base := Options{K: 8, ErrorThreshold: 0.4}
	plain, pm, err := e.RDSContext(context.Background(), q, base)
	if err != nil {
		t.Fatal(err)
	}
	traced := base
	traced.Trace = func(TraceEvent) {}
	got, gm, err := e.RDSContext(context.Background(), q, traced)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(plain) {
		t.Fatalf("traced returned %d results, plain %d", len(got), len(plain))
	}
	for i := range got {
		if got[i] != plain[i] {
			t.Fatalf("result %d differs: %v vs %v", i, got[i], plain[i])
		}
	}
	if gm.DocsExamined != pm.DocsExamined || gm.DRCCalls != pm.DRCCalls ||
		gm.Iterations != pm.Iterations || gm.TerminalEps != pm.TerminalEps {
		t.Fatalf("traced metrics differ: %+v vs %+v", gm, pm)
	}
}

// TestTraceSDSEventStream mirrors the RDS stream test on the similarity
// path (document query).
func TestTraceSDSEventStream(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	o := randomDAGOntology(r, 90, 0.2)
	c := randomCollection(r, o, 200, 5)
	e := memEngine(o, c)
	queryDoc := c.Doc(0).Concepts

	var metrics *Metrics
	events := collectTrace(Options{K: 4, ErrorThreshold: 0.25}, func(opts Options) error {
		var err error
		_, metrics, err = e.SDSContext(context.Background(), queryDoc, opts)
		return err
	}, t)
	if countKind(events, TraceWaveStart) < 1 || countKind(events, TraceDRCProbe) < 1 {
		t.Fatalf("missing WaveStart/DRCProbe in %d events", len(events))
	}
	last := events[len(events)-1]
	if last.Kind != TraceTerminate || last.Value != metrics.TerminalEps {
		t.Fatalf("terminal event %+v does not match TerminalEps %v", last, metrics.TerminalEps)
	}
}

// TestTraceFullScan covers the baseline scans: a one-partition scan emits
// one probe per examined document and a zero-ε terminal event; a
// partitioned scan emits only the coarse events but keeps the terminal
// contract.
func TestTraceFullScan(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	o := randomDAGOntology(r, 80, 0.2)
	c := randomCollection(r, o, 150, 4)
	e := memEngine(o, c)
	q := []ontology.ConceptID{2, 9, 33}

	for _, workers := range []int{1, 4} {
		var m *Metrics
		events := collectTrace(Options{K: 6, Workers: workers}, func(opts Options) error {
			var err error
			_, m, err = e.FullScanRDSContext(context.Background(), q, opts)
			return err
		}, t)
		if countKind(events, TraceWaveStart) != 1 || countKind(events, TraceWaveEnd) != 1 {
			t.Fatalf("workers=%d: scan should emit exactly one wave, got %d events", workers, len(events))
		}
		wantProbes := m.DocsExamined
		if workers > 1 {
			wantProbes = 0 // probes would cross partition goroutines
		}
		if probes := countKind(events, TraceDRCProbe); probes != wantProbes {
			t.Fatalf("workers=%d: %d probes, want %d (%d docs examined)", workers, probes, wantProbes, m.DocsExamined)
		}
		last := events[len(events)-1]
		if last.Kind != TraceTerminate || last.Value != 0 {
			t.Fatalf("workers=%d: terminal event %+v, want Terminate with ε_d = 0", workers, last)
		}
		if m.TerminalEps != 0 {
			t.Fatalf("workers=%d: full scan TerminalEps = %v, want 0", workers, m.TerminalEps)
		}
	}
}

func TestTerminalEps(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		kth, dMinus, want float64
	}{
		{inf, 5, 0},   // heap never filled
		{3, inf, 1},   // traversal exhausted
		{inf, inf, 0}, // both: no k results and no floor
		{2, 4, 0.5},   // Eq. 9 form: 1 - 2/4
		{4, 4, 0},     // floor exactly at kth
		{5, 4, 0},     // clamped: kth above floor
		{3, 0, 0},     // degenerate zero floor
	}
	for _, c := range cases {
		if got := terminalEps(c.kth, c.dMinus); got != c.want {
			t.Errorf("terminalEps(%v, %v) = %v, want %v", c.kth, c.dMinus, got, c.want)
		}
	}
}

func TestTraceKindString(t *testing.T) {
	kinds := []TraceKind{TraceWaveStart, TraceWaveEnd, TraceForcedExam, TraceDRCProbe,
		TraceBound, TraceTerminate}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || s == "TraceKind(?)" || seen[s] {
			t.Fatalf("kind %d: bad or duplicate name %q", k, s)
		}
		seen[s] = true
	}
	if TraceKind(200).String() != "TraceKind(?)" {
		t.Fatal("unknown kind should stringify to TraceKind(?)")
	}
}

// BenchmarkTrace measures the per-query cost of the tracing seam: Off is
// the uninstrumented engine (nil hook — one branch per would-be event),
// Hook installs a minimal counting hook, and OnWave a no-op
// Options.OnWave, whose snapshot costs (OnWave − Off) / waves/op a wave.
// CI runs this with -benchtime=1x as a smoke test; the workload-level
// comparison is the repository benchmark's trace.overhead_pct.
func BenchmarkTrace(b *testing.B) {
	e, _, q := benchFixture()

	b.Run("Off", func(b *testing.B) {
		opts := Options{K: 10, ErrorThreshold: 0.3}
		for i := 0; i < b.N; i++ {
			if _, _, err := e.RDSContext(context.Background(), q, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Hook", func(b *testing.B) {
		var n int
		opts := Options{K: 10, ErrorThreshold: 0.3, Trace: func(TraceEvent) { n++ }}
		for i := 0; i < b.N; i++ {
			if _, _, err := e.RDSContext(context.Background(), q, opts); err != nil {
				b.Fatal(err)
			}
		}
		_ = n
	})
	b.Run("OnWave", func(b *testing.B) {
		opts := Options{K: 10, ErrorThreshold: 0.3, OnWave: func(WaveInfo) {}}
		waves := 0
		for i := 0; i < b.N; i++ {
			_, m, err := e.RDSContext(context.Background(), q, opts)
			if err != nil {
				b.Fatal(err)
			}
			waves += m.Iterations
		}
		b.ReportMetric(float64(waves)/float64(b.N), "waves/op")
	})
}

// BenchmarkMeasureQuery prices a cold query under the density measure on
// BenchmarkTrace's fixture: the bound table's running minima, the
// Σ min(running, floor) bounds and exact distances from valid-path
// vectors, RDS and SDS.
func BenchmarkMeasureQuery(b *testing.B) {
	e, o, q := benchFixture()
	opts := Options{K: 10, ErrorThreshold: 0.3, Measure: measure.NewDensity(o)}
	for _, run := range []struct {
		name  string
		query func(context.Context, []ontology.ConceptID, Options) ([]Result, *Metrics, error)
	}{{"RDS", e.RDSContext}, {"SDS", e.SDSContext}} {
		b.Run(run.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := run.query(context.Background(), q, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchFixture is the query benchmarks' engine: a 150-concept random DAG,
// 500 documents of up to 5 concepts, and a 4-concept query.
func benchFixture() (*Engine, *ontology.Ontology, []ontology.ConceptID) {
	r := rand.New(rand.NewSource(7))
	o := randomDAGOntology(r, 150, 0.15)
	c := randomCollection(r, o, 500, 5)
	return memEngine(o, c), o, []ontology.ConceptID{3, 40, 77, 120}
}

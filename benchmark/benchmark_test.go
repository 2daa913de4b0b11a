package main

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestQuantileArithmetic(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.95, 4.8}} {
		if got := quantile(xs, c.q); !near(got, c.want) {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of nothing is not NaN")
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its input")
	}
	if got := spreadPct([]float64{9, 10, 11}); !near(got, 20) {
		t.Errorf("spreadPct = %v, want 20", got)
	}
}

func TestLeastDisturbedTakesEachChunkFromItsFastestReplay(t *testing.T) {
	const n = chunkOps + 2 // two chunks, the second a short one
	replay := func(lat float64, chunkWall, chunkCPU []float64) *passStats {
		p := &passStats{lat: make([]float64, n), bad: make([]bool, n), chunkWall: chunkWall, chunkCPU: chunkCPU}
		for i := range p.lat {
			p.lat[i] = lat
		}
		return p
	}
	a := replay(1, []float64{10, 5}, []float64{4, 2})
	b := replay(2, []float64{8, 9}, []float64{3, 3})
	b.bad[0] = true
	c := replay(3, []float64{7}, []float64{1}) // cut after its first chunk
	got := leastDisturbed([]*passStats{a, b, c}, n)
	// The first chunk ran fastest in c, the second in a.
	for i, want := range map[int]float64{0: 3, chunkOps - 1: 3, chunkOps: 1, n - 1: 1} {
		if got.lat[i] != want {
			t.Errorf("op %d comes from the replay with latency %v, want %v", i, got.lat[i], want)
		}
	}
	if got.bad[0] {
		t.Error("a failure of a replay that was not chosen counts against the chosen one")
	}
	if !near(ms(got.wall), 12) || !near(ms(got.cpu), 3) {
		t.Errorf("wall %v ms, cpu %v ms; want 12 and 3", ms(got.wall), ms(got.cpu))
	}
	if got := pick([]float64{4, 9, 3, 8}, []int{0, 3}); got[0] != 4 || got[1] != 8 {
		t.Errorf("pick = %v", got)
	}
}

// The values are those of Python's statistics.quantiles(xs, n=4).
func TestQuartileSpreadMatchesPython(t *testing.T) {
	xs := []float64{12, 10, 15, 11, 19, 13, 14, 18, 16, 17}
	// quantiles -> [11.75, 14.5, 17.25], median 14.5
	if got, want := quartileSpread(xs), (17.25-11.75)/14.5; !near(got, want) {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2, 4], n=4) -> [1.0, 2.0, 4.0]
	if got, want := quartileSpread([]float64{4, 1, 2}), 3.0/2; !near(got, want) {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 40},  // overlaps the next child
		{ID: 2, Parent: 0, Start: 30, End: 60},  // 10..60 covered once
		{ID: 3, Parent: 0, Start: 90, End: 120}, // sticks out: clipped at 100
		{ID: 4, Parent: 1, Start: 10, End: 25},
		{ID: 5, Parent: 2, Start: 35, End: 35},
	}
	selfTimes(spans)
	for id, want := range map[int]int64{0: 40, 1: 15, 2: 30, 3: 30, 4: 15, 5: 0} {
		if spans[id].Self != want {
			t.Errorf("span %d self = %d, want %d", id, spans[id].Self, want)
		}
	}
}

// stallSystem answers at once, except that one op blocks for a while.
type stallSystem struct {
	inProcess
	stallAt *op
	stall   time.Duration
}

func (s *stallSystem) close() {}
func (s *stallSystem) do(_ context.Context, o *op, _ *opTrace) (opResult, error) {
	if o == s.stallAt {
		time.Sleep(s.stall)
	}
	return opResult{}, nil
}

// A server that stalls must show in the latency of the requests that were
// due while it stalled, not only in the one that hit the stall: timing from
// the due time is what keeps coordinated omission out. The stall is a full
// second and every limit is a third of it away from what a correct (or a
// broken) generator gives, so a busy machine does not decide the test.
func TestOpenLoopCountsTheStall(t *testing.T) {
	const n, rate, stall = 60, 50.0, time.Second
	ops := make([]op, n)
	due := make([]float64, n)
	for i := range due {
		due[i] = float64(i+1) / rate
	}
	sys := &stallSystem{stallAt: &ops[10], stall: stall}
	p, err := runPass(sys, ops, passOpts{due: due, conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	if p.n != n {
		t.Fatalf("ran %d of %d ops", p.n, n)
	}
	limit := ms(stall) / 3
	// Op 30 was due 400 ms into the stall, so it waited about 600 ms. Timed
	// from its dispatch to the one connection it would have taken no time.
	if p.lat[30] < limit {
		t.Errorf("op due during the stall took %.1f ms; the stall is not in its latency", p.lat[30])
	}
	if p.lat[5] > limit {
		t.Errorf("op before the stall took %.1f ms", p.lat[5])
	}
	// The scheduler itself never waited for the stalled connection: had it,
	// the 49 ops due behind the stall would have been dispatched up to a
	// second late.
	if late := quantile(p.late, 0.95); late > limit {
		t.Errorf("late_ms_p95 = %.1f; the scheduler ran behind its schedule", late)
	}
}

func TestScheduleHoldsTheRate(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		due := schedule(seed, 120, 60)
		if !near(due[len(due)-1], 2) {
			t.Errorf("seed %d: last request due at %v s, want 2", seed, due[len(due)-1])
		}
		for i := 1; i < len(due); i++ {
			if due[i] < due[i-1] {
				t.Fatalf("seed %d: schedule goes backwards at %d", seed, i)
			}
		}
	}
}

func TestOpListsFollowTheSeed(t *testing.T) {
	d, err := generate(t.TempDir(), smokeScale)
	if err != nil {
		t.Fatal(err)
	}
	for _, def := range workloadDefs {
		a, b, c := encodeOps(def.ops(d, 7)), encodeOps(def.ops(d, 7)), encodeOps(def.ops(d, 8))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave different op lists", def.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: different seeds gave the same op list", def.name)
		}
	}
}

func TestSpecIsValidAndCommitted(t *testing.T) {
	if err := validateSpec(); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadSpecs {
		if findWorkload(w.Name) == nil {
			t.Errorf("workload %s is declared but not defined", w.Name)
		}
	}
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	committed, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, benchmarkJSON()) {
		t.Error("BENCHMARK.json differs from the table in spec.go; regenerate it with go run ./benchmark -write-spec > BENCHMARK.json")
	}
}

// The smoke run drives every code path on a tiny corpus, with the
// in-process twin in place of crserve processes, and must emit exactly the
// metrics BENCHMARK.json names.
func TestSmokeRunEmitsEveryMetric(t *testing.T) {
	sameNames := func(what string, got map[string]float64, want []string) {
		t.Helper()
		names := map[string]bool{}
		for _, n := range want {
			names[n] = true
			v, ok := got[n]
			if !ok {
				t.Errorf("%s: metric %s is missing", what, n)
			} else if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: metric %s = %v", what, n, v)
			}
		}
		for n := range got {
			if !names[n] {
				t.Errorf("%s: metric %s is not named in BENCHMARK.json", what, n)
			}
			if !nameRE.MatchString(n) {
				t.Errorf("%s: bad metric name %q", what, n)
			}
		}
	}
	var endToEnd, perLayer []string
	for _, m := range endToEndSpecs {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range layerSpecs {
		perLayer = append(perLayer, m.Name)
	}
	for i := range workloadDefs {
		def := &workloadDefs[i]
		res, err := runWorkload(def, smokeScale, true, 1, 1)
		if err != nil {
			t.Fatalf("%s: %v", def.name, err)
		}
		if !res.correct() || res.Attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d", def.name, res.Attempted, res.Failed)
		}
		sameNames(def.name, res.Metrics, endToEnd)
		for _, m := range endToEndSpecs {
			if res.Metrics[m.Name] <= 0 {
				t.Errorf("%s: %s = %v, must never be 0", def.name, m.Name, res.Metrics[m.Name])
			}
		}
	}
	shared := &sharedLayers{}
	for _, name := range []string{wlIngest, wlServe} {
		res, err := runTraced(findWorkload(name), smokeScale, true, 1, shared)
		if err != nil {
			t.Fatalf("%s traced: %v", name, err)
		}
		if res.Failed != 0 {
			t.Errorf("%s traced: %d ops failed", name, res.Failed)
		}
		sameNames(name+" traced", res.Metrics, perLayer)
		if _, err := os.Stat(res.TraceFile); err != nil {
			t.Errorf("%s traced: %v", name, err)
		}
	}
}

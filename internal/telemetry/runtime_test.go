package telemetry

import (
	"math"
	"net/http/httptest"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"testing"
	"time"
)

// scrape serves one GET /metrics from s's handler and returns the body.
func scrape(t *testing.T, s *Sink) string {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics: status %d", rec.Code)
	}
	return rec.Body.String()
}

// sampleValue returns the value of the unlabeled sample name in a
// Prometheus text body.
func sampleValue(t *testing.T, body, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: bad value %q", name, v)
			}
			return f
		}
	}
	t.Fatalf("/metrics has no %s sample:\n%s", name, body)
	return 0
}

// TestRuntimeGaugesReadAtScrape: New starts no goroutine, every go_*
// family is on /metrics from the first scrape, go_heap_alloc_bytes (a
// stop-the-world ReadMemStats per scrape) is gone, and the values are
// live — a GC between two scrapes advances go_gc_cycles_total.
func TestRuntimeGaugesReadAtScrape(t *testing.T) {
	before := runtime.NumGoroutine()
	s := testSink(time.Hour)
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("New started goroutines: %d before, %d after", before, after)
	}

	body := scrape(t, s)
	for _, family := range []string{
		"go_goroutines", "go_gomaxprocs", "go_heap_live_bytes", "go_heap_goal_bytes",
		"go_heap_objects", "go_gc_cycles_total", "go_alloc_bytes_total",
		"go_alloc_objects_total", "go_gc_pause_p50_seconds", "go_gc_pause_p99_seconds",
	} {
		if !strings.Contains(body, "# TYPE "+family+" ") {
			t.Errorf("/metrics missing family %s", family)
		}
	}
	if strings.Contains(body, "go_heap_alloc_bytes") {
		t.Errorf("/metrics still exports go_heap_alloc_bytes")
	}
	if got := sampleValue(t, body, "go_gomaxprocs"); got != float64(runtime.GOMAXPROCS(0)) {
		t.Errorf("go_gomaxprocs = %v, want %d", got, runtime.GOMAXPROCS(0))
	}
	if sampleValue(t, body, "go_heap_live_bytes") == 0 || sampleValue(t, body, "go_alloc_bytes_total") == 0 {
		t.Errorf("heap series read zero:\n%s", body)
	}

	cycles := sampleValue(t, body, "go_gc_cycles_total")
	runtime.GC()
	if got := sampleValue(t, scrape(t, s), "go_gc_cycles_total"); got <= cycles {
		t.Fatalf("go_gc_cycles_total = %v after runtime.GC, was %v", got, cycles)
	}
}

// TestHistQuantileRuntimeHistogram exercises the runtime/metrics
// histogram resolver directly on a real pause histogram shape.
func TestHistQuantileRuntimeHistogram(t *testing.T) {
	h := &metrics.Float64Histogram{
		Counts:  []uint64{0, 2, 1, 1},
		Buckets: []float64{0, 1e-6, 1e-5, 1e-4, math.Inf(1)},
	}
	if got := histQuantile(h, 0.5); got != 1e-5 {
		t.Fatalf("p50 = %v, want 1e-5", got)
	}
	if got := histQuantile(h, 1); got != 1e-4 {
		// The max sits in the last finite bucket: its lower bound is the
		// fallback only for the +Inf tail; here the upper bound is finite.
		t.Fatalf("max = %v, want 1e-4", got)
	}
	h.Counts[3] = 0
	h.Counts[1] = 0
	if got := histQuantile(h, 0); got != 1e-4 {
		// Quantiles resolve to bucket upper bounds, min included.
		t.Fatalf("min = %v, want 1e-4", got)
	}
	empty := &metrics.Float64Histogram{Counts: []uint64{0}, Buckets: []float64{0, 1}}
	if got := histQuantile(empty, 0.5); got != 0 {
		t.Fatalf("empty runtime histogram quantile = %v, want 0", got)
	}
}

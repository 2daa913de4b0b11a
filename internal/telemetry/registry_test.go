package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total", "requests")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters are monotonic
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if same := r.Counter("reqs_total", "requests"); same != c {
		t.Fatal("re-registration must return the same counter")
	}
	depth := 2.5
	r.GaugeFunc("depth", "queue depth", func() float64 { return depth })
	depth = 1.5 // sampled at exposition time, not at registration
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"# TYPE depth gauge", "depth 1.5", "reqs_total 5"} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("exposition missing %q:\n%s", want, b.String())
		}
	}
}

func TestRegistryTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Fatal("registering x as a gauge after a counter must panic")
		}
	}()
	r.GaugeFunc("x", "", func() float64 { return 0 })
}

func TestHistogramBucketsAndQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "latency", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.02, 0.02, 0.5, 2} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if math.Abs(h.Sum()-2.545) > 1e-12 {
		t.Fatalf("sum = %v", h.Sum())
	}
	// Cumulative: le=0.01 -> 1, le=0.1 -> 3, le=1 -> 4, +Inf -> 5.
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`lat_bucket{le="0.01"} 1`,
		`lat_bucket{le="0.1"} 3`,
		`lat_bucket{le="1"} 4`,
		`lat_bucket{le="+Inf"} 5`,
		`lat_count 5`,
		"# TYPE lat histogram",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if q := h.Quantile(0.5); q != 0.1 {
		t.Fatalf("p50 = %v, want bucket bound 0.1", q)
	}
	if q := h.Quantile(0.99); !math.IsInf(q, 1) {
		t.Fatalf("p99 = %v, want +Inf (tail bucket)", q)
	}
	if q := r.Histogram("other", "", []float64{1}).Quantile(0.5); !math.IsNaN(q) {
		t.Fatalf("quantile of empty histogram = %v, want NaN", q)
	}
}

func TestHistogramRejectsUnsortedBounds(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("descending bounds must panic")
		}
	}()
	r.Histogram("bad", "", []float64{1, 0.5})
}

// TestConcurrentObservations exercises the atomic paths under the race
// detector: total counts must be exact.
func TestConcurrentObservations(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n", "")
	h := r.Histogram("h", "", LatencyBuckets)
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*per)
	}
	if h.Count() != workers*per {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*per)
	}
	if math.Abs(h.Sum()-float64(workers*per)*0.001) > 1e-6 {
		t.Fatalf("histogram sum drifted: %v", h.Sum())
	}
}

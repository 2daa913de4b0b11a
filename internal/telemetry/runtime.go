package telemetry

import (
	"math"
	"runtime"
	"runtime/metrics"
)

// registerRuntimeGauges registers the process-level go_* series. Each is
// read from the runtime when /metrics is scraped, so nothing runs between
// scrapes; runtime/metrics reads, unlike runtime.ReadMemStats, do not
// stop the world. Pause quantiles cover the process lifetime, resolved
// from the runtime's own pause histogram.
func registerRuntimeGauges(r *Registry) {
	gauge := func(name, help, sample string) {
		r.GaugeFunc(name, help, func() float64 { return float64(readRuntime(sample).Uint64()) })
	}
	counter := func(name, help, sample string) {
		r.CounterFunc(name, help, func() int64 { return int64(readRuntime(sample).Uint64()) })
	}
	pause := func(name, help string, q float64) {
		r.GaugeFunc(name, help, func() float64 {
			return histQuantile(readRuntime("/sched/pauses/total/gc:seconds").Float64Histogram(), q)
		})
	}
	r.GaugeFunc("go_goroutines", "Live goroutines.", func() float64 { return float64(runtime.NumGoroutine()) })
	r.GaugeFunc("go_gomaxprocs", "GOMAXPROCS.", func() float64 { return float64(runtime.GOMAXPROCS(0)) })
	gauge("go_heap_live_bytes", "Heap bytes occupied by live objects.", "/memory/classes/heap/objects:bytes")
	gauge("go_heap_goal_bytes", "GC heap goal in bytes.", "/gc/heap/goal:bytes")
	gauge("go_heap_objects", "Live heap objects.", "/gc/heap/objects:objects")
	counter("go_gc_cycles_total", "Completed GC cycles.", "/gc/cycles/total:gc-cycles")
	counter("go_alloc_bytes_total", "Cumulative heap bytes allocated.", "/gc/heap/allocs:bytes")
	counter("go_alloc_objects_total", "Cumulative heap objects allocated.", "/gc/heap/allocs:objects")
	pause("go_gc_pause_p50_seconds", "Median stop-the-world GC pause (process lifetime).", 0.50)
	pause("go_gc_pause_p99_seconds", "99th-percentile stop-the-world GC pause (process lifetime).", 0.99)
}

// readRuntime reads one runtime/metrics sample. A fresh sample slice per
// call keeps concurrent scrapes independent.
func readRuntime(name string) metrics.Value {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value
}

// histQuantile resolves the q-quantile of a runtime/metrics histogram to
// its bucket's upper bound (falling back to the lower bound for the +Inf
// tail bucket). An empty histogram yields 0: "no GC pauses yet" reads
// better on a dashboard as zero than as NaN.
func histQuantile(h *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum >= rank {
			// Buckets has len(Counts)+1 boundaries; bucket i spans
			// [Buckets[i], Buckets[i+1]).
			hi := h.Buckets[i+1]
			if math.IsInf(hi, 1) {
				return h.Buckets[i]
			}
			return hi
		}
	}
	return 0
}

package telemetry

import (
	"conceptrank/internal/core"
)

// Default bucket layouts. Query latencies on in-memory indexes sit in the
// micro-to-millisecond range, so the latency buckets extend two decades
// below the usual Prometheus defaults; count buckets are roughly
// logarithmic 1-2-5 series sized to the paper's corpora (up to ~10^6
// documents); ε_d lives in [0,1] with mass near the ends, so its buckets
// tighten there.
var (
	LatencyBuckets = []float64{
		0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005,
		0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5,
	}
	WaveBuckets    = []float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64}
	CountBuckets   = []float64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000, 50000, 100000, 500000, 1000000}
	EpsilonBuckets = []float64{0, 0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99}
)

// QueryStats is the per-engine (or global) bundle of query-level
// instruments, all registered under one name prefix so several engines can
// share a Registry without colliding. Observe feeds it from a completed
// query's core.Metrics.
type QueryStats struct {
	Queries      *Counter   // <prefix>_queries_total
	Errors       *Counter   // <prefix>_query_errors_total
	TraceEvents  *Counter   // <prefix>_trace_events_total
	Latency      *Histogram // <prefix>_query_latency_seconds
	Waves        *Histogram // <prefix>_query_waves
	DRCCalls     *Histogram // <prefix>_query_drc_calls
	DocsExamined *Histogram // <prefix>_query_docs_examined
	TerminalEps  *Histogram // <prefix>_query_terminal_epsilon
	CacheHits    *Counter   // <prefix>_query_cache_hits_total
	CacheMisses  *Counter   // <prefix>_query_cache_misses_total

	// Per-stage time attribution, one labeled series per pipeline stage,
	// indexed by core.Stage.
	StageSeconds [core.NumStages]*Histogram // <prefix>_stage_seconds{stage=...}
}

// NewQueryStats registers the query instruments under prefix (e.g.
// "conceptrank") in r. Calling it twice with the same prefix returns a
// bundle over the same underlying instruments.
func NewQueryStats(r *Registry, prefix string) *QueryStats {
	q := &QueryStats{
		Queries:      r.Counter(prefix+"_queries_total", "Queries completed, including failed ones."),
		Errors:       r.Counter(prefix+"_query_errors_total", "Queries that returned an error (including cancellation)."),
		TraceEvents:  r.Counter(prefix+"_trace_events_total", "Span events delivered to telemetry trace recorders."),
		Latency:      r.Histogram(prefix+"_query_latency_seconds", "End-to-end query latency in seconds.", LatencyBuckets),
		Waves:        r.Histogram(prefix+"_query_waves", "BFS waves per query (Metrics.Iterations).", WaveBuckets),
		DRCCalls:     r.Histogram(prefix+"_query_drc_calls", "Exact distance computations per query.", CountBuckets),
		DocsExamined: r.Histogram(prefix+"_query_docs_examined", "Documents examined per query.", CountBuckets),
		TerminalEps:  r.Histogram(prefix+"_query_terminal_epsilon", "Termination slack eps_d per query (Metrics.TerminalEps).", EpsilonBuckets),
		CacheHits:    r.Counter(prefix+"_query_cache_hits_total", "Seed vectors served from the distance cache during query planning."),
		CacheMisses:  r.Counter(prefix+"_query_cache_misses_total", "Seed vectors built cold during query planning."),
	}
	for i := 0; i < core.NumStages; i++ {
		stage := core.Stage(i).String()
		q.StageSeconds[i] = r.LabeledHistogram(prefix+"_stage_seconds",
			"Wall time per pipeline stage per query, in seconds.", "stage", stage, LatencyBuckets)
	}
	return q
}

// Observe records one finished query. m may be nil (a query that failed
// before producing metrics); err marks the query failed either way.
func (q *QueryStats) Observe(m *core.Metrics, err error) {
	q.Queries.Inc()
	if err != nil {
		q.Errors.Inc()
	}
	if m == nil {
		return
	}
	q.Latency.Observe(m.TotalTime.Seconds())
	q.Waves.Observe(float64(m.Iterations))
	q.DRCCalls.Observe(float64(m.DRCCalls))
	q.DocsExamined.Observe(float64(m.DocsExamined))
	q.CacheHits.Add(int64(m.CacheHits))
	q.CacheMisses.Add(int64(m.CacheMisses))
	for i := range m.Stages {
		if t := m.Stages[i].Time; t > 0 {
			q.StageSeconds[i].Observe(t.Seconds())
		}
	}
	if err == nil {
		// ε_d is defined at successful termination only; an aborted
		// query's zero value would skew the distribution.
		q.TerminalEps.Observe(m.TerminalEps)
	}
}

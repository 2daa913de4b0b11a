package telemetry

import (
	"time"

	"conceptrank/internal/cache"
	"conceptrank/internal/core"
)

// Config parameterizes a Sink. The zero value is usable: 25ms slow
// threshold.
type Config struct {
	// SlowThreshold is the latency at which a query enters the slow log
	// (default 25ms). Failed queries are logged regardless.
	SlowThreshold time.Duration
}

// The query metrics' name prefix, the slow-log ring size and the span
// events kept per slow query (the overflow is counted instead).
const (
	queryPrefix   = "conceptrank"
	slowCapacity  = 64
	slowMaxEvents = 512
)

// Sink bundles the registry, the query instruments and the slow log for
// one engine (or one process). It is safe for concurrent queries.
type Sink struct {
	Registry *Registry
	Stats    *QueryStats
	Slow     *SlowLog

	maxEvents int
	cache     *cache.Cache // set by AttachCache; read by /debug/cache
}

// New builds a Sink from cfg (see Config for defaults) and registers the
// process-level go_* runtime series alongside the query instruments. It
// starts no goroutine: the runtime series are read at scrape time.
func New(cfg Config) *Sink {
	if cfg.SlowThreshold == 0 {
		cfg.SlowThreshold = 25 * time.Millisecond
	}
	return newSink(cfg.SlowThreshold, slowCapacity, slowMaxEvents)
}

// newSink builds a Sink over a fresh registry with the given slow-log
// ring size and per-query event cap; tests shrink both to see the ring
// wrap and the events truncate.
func newSink(threshold time.Duration, capacity, maxEvents int) *Sink {
	reg := NewRegistry()
	registerRuntimeGauges(reg)
	return &Sink{
		Registry:  reg,
		Stats:     NewQueryStats(reg, queryPrefix),
		Slow:      NewSlowLog(threshold, capacity),
		maxEvents: maxEvents,
	}
}

// AttachCache registers the semantic-distance cache's counters as
// conceptrank_cache_* series (sampled at exposition time, so scrapes are
// always current with zero hot-path cost) and wires the cache into the
// /debug/cache endpoint. Attach at most one cache per sink; a second call
// replaces the /debug/cache target but the exposition series stay bound
// to the first cache (metric names are registry-global).
func (s *Sink) AttachCache(c *cache.Cache) {
	s.cache = c
	r := s.Registry
	r.CounterFunc("conceptrank_cache_seed_hits_total", "Seed-vector cache hits (any generation).", func() int64 { return c.Stats().SeedHits })
	r.CounterFunc("conceptrank_cache_seed_misses_total", "Seed-vector cache misses.", func() int64 { return c.Stats().SeedMisses })
	r.CounterFunc("conceptrank_cache_seed_refreshes_total", "Stale seed vectors advanced by incremental refresh.", func() int64 { return c.Stats().SeedRefreshes })
	r.CounterFunc("conceptrank_cache_evictions_total", "Entries evicted by the byte budget.", func() int64 { return c.Stats().Evictions })
	r.GaugeFunc("conceptrank_cache_bytes", "Approximate bytes held by the cache.", func() float64 { return float64(c.Stats().Bytes) })
	r.GaugeFunc("conceptrank_cache_entries", "Entries currently held by the cache.", func() float64 { return float64(c.Stats().Entries) })
}

// Query opens a per-query recording: install the returned TraceFunc as
// Options.Trace (it chains to caller, which may be nil) and call done
// exactly once with the query's outcome. The TraceFunc relies on the
// engine's sequential-delivery contract and must not be shared across
// concurrently running queries — open one recording per query.
//
// done records the query into the stats bundle and files the query into
// the slow log when it was slow or failed.
func (s *Sink) Query(kind string, caller core.TraceFunc) (core.TraceFunc, func(*core.Metrics, error)) {
	rec := &queryRecording{sink: s, kind: kind}
	trace := func(ev core.TraceEvent) {
		rec.events++
		if len(rec.kept) < s.maxEvents {
			rec.kept = append(rec.kept, toSlowEvent(ev))
		} else {
			rec.dropped++
		}
		if caller != nil {
			caller(ev)
		}
	}
	return trace, rec.done
}

type queryRecording struct {
	sink    *Sink
	kind    string
	events  int64
	kept    []SlowEvent
	dropped int
}

func (r *queryRecording) done(m *core.Metrics, err error) {
	s := r.sink
	s.Stats.Observe(m, err)
	s.Stats.TraceEvents.Add(r.events)
	var latency time.Duration
	if m != nil {
		latency = m.TotalTime
	}
	if err == nil && latency < s.Slow.Threshold() {
		return
	}
	entry := SlowEntry{
		When:            time.Now(),
		Kind:            r.kind,
		Latency:         latency,
		Events:          r.kept,
		TruncatedEvents: r.dropped,
	}
	if m != nil {
		entry.Metrics = *m
	}
	if err != nil {
		entry.Err = err.Error()
	}
	s.Slow.Record(entry)
}

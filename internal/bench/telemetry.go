package bench

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"conceptrank/internal/core"
	"conceptrank/internal/ontology"
	"conceptrank/internal/telemetry"
)

// TelemetryOverhead measures query observability at its operating points:
// tracing disabled (the nil-gated fast path every production query takes by
// default), a minimal counting hook (the cost of emitting span events), the
// full telemetry sink (event recording + histogram observation + slow-log
// bookkeeping — which now includes the always-on per-stage wall-time
// attribution), and the sink plus the opt-in per-stage allocation sampler
// (StageAllocs, two runtime/metrics reads per stage boundary). Reported as
// p50/p95 per-query wall latency and percent p50 overhead against the
// disabled configuration. The workload is warmed once untimed so all
// configurations run against hot caches.
func TelemetryOverhead(env *Env) (*Table, error) {
	t := &Table{
		ID:     "telemetry",
		Title:  "Observability overhead (RDS, defaults): off / counting hook / full sink / sink + alloc sampler",
		Header: []string{"dataset", "config", "p50 ms", "p95 ms", "p50 overhead"},
	}
	// The control is a second, independently timed run of the exact
	// nil-hook configuration: its "overhead" against off is the noise
	// floor of the harness, the yardstick for the disabled-path claim
	// (a nil Options.Trace must be indistinguishable from no tracing).
	control := telemetryConfig{name: "off (control)", prep: configOff.prep}
	configs := []telemetryConfig{configOff, control, configHook, configSink, configSinkAllocs}
	for _, ds := range env.Datasets() {
		r := rand.New(rand.NewSource(41))
		queries := ds.RandomQueries(r, env.Scale.RankQueries, DefaultNq)

		// Warm-up pass: fault in postings and ontology pages.
		if err := telemetryWarmup(ds, queries); err != nil {
			return nil, err
		}

		// Interleave the configurations per query and keep each query's
		// best of telemetryReps runs, so scheduler and allocator drift
		// between passes cannot masquerade as instrumentation overhead.
		lat := make([][]time.Duration, len(configs))
		for c := range configs {
			lat[c] = make([]time.Duration, len(queries))
			for i := range lat[c] {
				lat[c][i] = time.Duration(1<<63 - 1)
			}
		}
		for rep := 0; rep < telemetryReps; rep++ {
			for i, q := range queries {
				// Rotate which configuration goes first: the first run of a
				// query pays its cold-cache cost, and that penalty must not
				// land on the same configuration every time.
				for off := range configs {
					c := (rep + i + off) % len(configs)
					d, err := telemetryQuery(ds, q, configs[c])
					if err != nil {
						return nil, err
					}
					if d < lat[c][i] {
						lat[c][i] = d
					}
				}
			}
		}

		var base time.Duration
		for c, cfg := range configs {
			p50, p95 := quantileDur(lat[c], 0.50), quantileDur(lat[c], 0.95)
			overhead := "—"
			if cfg.name == "off" {
				base = p50
			} else if base > 0 {
				overhead = fmt.Sprintf("%+.1f%%", 100*(float64(p50)-float64(base))/float64(base))
			}
			t.Add(ds.Name, cfg.name, ms(p50), ms(p95), overhead)
		}
	}
	return t, nil
}

// telemetryReps: best-of runs per (query, config) pair.
const telemetryReps = 5

// telemetryConfig prepares the per-query instrumentation for one operating
// point: prep returns the Trace hook to install (nil for the fast path) and
// the completion callback (nil when there is no sink).
type telemetryConfig struct {
	name string
	prep func(kind string) (core.TraceFunc, func(*core.Metrics, error))
	// stageAllocs additionally turns on the per-stage allocation sampler
	// (Options.StageAllocs), the most expensive observability option.
	stageAllocs bool
}

var (
	configOff = telemetryConfig{
		name: "off",
		prep: func(string) (core.TraceFunc, func(*core.Metrics, error)) { return nil, nil },
	}
	configHook = telemetryConfig{
		name: "hook",
		prep: func(string) (core.TraceFunc, func(*core.Metrics, error)) {
			var n int
			return func(core.TraceEvent) { n++ }, nil
		},
	}
	configSink = func() telemetryConfig {
		s := telemetry.New(telemetry.Config{})
		return telemetryConfig{name: "sink", prep: func(kind string) (core.TraceFunc, func(*core.Metrics, error)) {
			return s.Query(kind, nil)
		}}
	}()
	configSinkAllocs = func() telemetryConfig {
		s := telemetry.New(telemetry.Config{})
		return telemetryConfig{name: "sink+allocs", stageAllocs: true,
			prep: func(kind string) (core.TraceFunc, func(*core.Metrics, error)) {
				return s.Query(kind, nil)
			}}
	}()
)

func telemetryWarmup(ds *Dataset, queries [][]ontology.ConceptID) error {
	for _, q := range queries {
		if _, err := telemetryQuery(ds, q, configOff); err != nil {
			return err
		}
	}
	return nil
}

// telemetryQuery runs one query under one instrumentation configuration
// and returns its wall latency (including the sink's completion work,
// which a production query also pays).
func telemetryQuery(ds *Dataset, q []ontology.ConceptID, cfg telemetryConfig) (time.Duration, error) {
	opts := core.Options{K: DefaultK, ErrorThreshold: ds.DefaultEps, StageAllocs: cfg.stageAllocs}
	trace, done := cfg.prep("bench_rds")
	opts.Trace = trace
	start := time.Now()
	_, m, err := ds.Engine.RDS(q, opts)
	if done != nil {
		done(m, err)
	}
	return time.Since(start), err
}

func quantileDur(lat []time.Duration, q float64) time.Duration {
	if len(lat) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(q * float64(len(s)-1))
	return s[idx]
}

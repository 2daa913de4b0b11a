package main

import (
	"fmt"
	"math"
	"os"
	"time"

	"conceptrank"
)

// Thresholds of the "still does what it is for" checks. They are shares of
// time measured inside the same ops, so a busy machine moves both sides.
const (
	minExamShare     = 0.80 // patient-sds-exam: exam stage / op time
	minTraverseShare = 0.90 // radio-rds-traverse: (wave + bound) / op time
	minProtocolShare = 0.50 // serve-zipf-open: op time outside engine stages
)

// tracePairs is how many pairs of half-traced replays the traced run makes.
const tracePairs = 2

// sharedLayers holds the per-layer metrics that are the same measurement
// whatever workload is traced: the replays, the store, cache and distance
// calls, and the layer ladder. A process measures them once, so
// `-workload all -trace 1` reports one value of each under all four
// workloads; the driver, which starts one process per workload and wants
// every per-layer metric from each, gets them measured in each.
type sharedLayers struct {
	metrics map[string]float64
	// twin counts the allocations of the in-process twin over the ladder
	// ops. They stand in for the serve workload's, whose servers are other
	// processes.
	twin    memCounters
	twinOps int
}

// runTraced is the traced run of one workload: a verified pass, one pass
// with tracing off and one with the benchmark's spans on (their difference
// is the tracing overhead), then, unless shared holds them already, the
// replay measurements and the layer ladder. It reports every per-layer
// metric, checks that the workload still does what it is for, and writes
// the spans to benchmark/out/trace-<workload>.json.
func runTraced(def *workloadDef, sc scale, smoke bool, seed int64, shared *sharedLayers) (*result, error) {
	env, err := newRunEnv(sc, smoke, true)
	if err != nil {
		return nil, err
	}
	defer env.close()
	ops := def.ops(env.d, seed)
	po := passOpts{conns: env.conns}
	if def.rate > 0 {
		po.due = schedule(seed, len(ops), def.rate)
	}
	sys, err := def.setup(env)
	if err != nil {
		return nil, err
	}
	defer func() { sys.close() }()

	res := &result{Workload: def.name, Seed: seed, Metrics: map[string]float64{}}
	out := res.Metrics
	run := func(po passOpts, want []uint64) (*passStats, error) {
		p, err := runPass(sys, ops, po)
		if err != nil {
			return nil, err
		}
		failed := p.failures(want)
		for _, i := range failed {
			fmt.Fprintf(os.Stderr, "op %d failed: %v\n", i, p.errs[i])
		}
		res.Passes++
		res.Attempted += p.n
		res.Failed += len(failed)
		return p, nil
	}
	first, err := run(passOpts{}, nil)
	if err != nil {
		return nil, err
	}
	want, bad, err := verifyFirst(def, env, ops, first, seed)
	if err != nil {
		return nil, err
	}
	res.Failed += len(bad)
	// Every replay traces every second op, and the next replay the others,
	// so each op is timed with spans and without within a second or two of
	// each other; a busy spell on the machine then falls on both sides. What
	// the spans add is taken from the ops' own latencies, each at its faster
	// timing: the open loop's throughput is pinned by its schedule and would
	// always say 0.
	var (
		traced *passStats
		t      *tracer
		off    = make([]float64, len(ops))
		on     = make([]float64, len(ops))
	)
	for i := range ops {
		off[i], on[i] = math.Inf(1), math.Inf(1)
	}
	for pair := 0; pair < tracePairs; pair++ {
		t = newTracer() // the spans written out are those of the last pair
		for _, odd := range []bool{false, true} {
			half := po
			half.t, half.odd = t, odd
			if traced, err = run(half, want); err != nil {
				return nil, err
			}
			for i, lat := range traced.lat {
				if (i%2 == 1) == odd {
					on[i] = min(on[i], lat)
				} else {
					off[i] = min(off[i], lat)
				}
			}
		}
	}
	out["trace.overhead_pct"] = (sum(on) - sum(off)) / sum(off) * 100

	// core: what the engine reported for the first ladderOps reads.
	var (
		stages  conceptrank.StageStats
		m       conceptrank.Metrics
		opTime  time.Duration
		counted float64
	)
	for i := range ops {
		if !ops[i].isRead() || traced.res[i].m == nil {
			continue
		}
		if counted == float64(sc.ladderOps) {
			break
		}
		counted++
		om := traced.res[i].m
		for st := range stages {
			stages[st].Time += om.Stages[st].Time
		}
		m.Iterations += om.Iterations
		m.NodesVisited += om.NodesVisited
		m.DocsDiscovered += om.DocsDiscovered
		m.DocsExamined += om.DocsExamined
		m.DRCCalls += om.DRCCalls
		m.ResultCount += om.ResultCount
		opTime += time.Duration(traced.lat[i] * float64(time.Millisecond))
	}
	var staged time.Duration
	for st := range stages {
		out["core.stage_"+conceptrank.Stage(st).String()+"_us_per_op"] = us(stages[st].Time) / counted
		staged += stages[st].Time
	}
	out["core.self_us_per_op"] = us(opTime-staged) / counted
	out["core.waves_per_op"] = float64(m.Iterations) / counted
	out["core.nodes_visited_per_op"] = float64(m.NodesVisited) / counted
	out["core.docs_discovered_per_op"] = float64(m.DocsDiscovered) / counted
	out["core.docs_examined_per_op"] = float64(m.DocsExamined) / counted
	out["core.drc_calls_per_op"] = float64(m.DRCCalls) / counted
	out["core.examined_precision"] = m.ExaminedPrecision()

	n := float64(traced.n)
	c := traced.cacheD
	out["cache.seed_hit_rate"] = ratio(float64(c.SeedHits), float64(c.SeedHits+c.SeedMisses))
	out["cache.seed_refreshes_per_op"] = float64(c.SeedRefreshes) / n
	out["cache.pair_hit_rate"] = ratio(float64(c.PairHits), float64(c.PairHits+c.PairMisses))
	out["cache.evictions_per_op"] = float64(c.Evictions) / n
	out["cache.bytes_mb"] = float64(c.Bytes) / (1 << 20)

	if shared.metrics == nil {
		if err := shared.measure(env, seed); err != nil {
			return nil, err
		}
	}
	for name, v := range shared.metrics {
		out[name] = v
	}
	mem, memOps := traced.mem, n
	if def.name == wlServe {
		mem, memOps = shared.twin, float64(shared.twinOps)
	}
	out["pool.alloc_kb_per_op"] = float64(mem.bytes) / 1024 / memOps
	out["pool.alloc_objects_per_op"] = float64(mem.mallocs) / memOps
	out["runtime.gc_cycles_per_1k_ops"] = float64(mem.gcs) / memOps * 1000
	out["runtime.gc_pause_ms_total"] = float64(mem.pauseNS) / 1e6

	share := func(d time.Duration) float64 { return ratio(float64(d), float64(opTime)) }
	check := func(ok bool, format string, args ...any) {
		if !ok {
			res.Assertions = append(res.Assertions, fmt.Sprintf(format, args...))
		}
	}
	switch def.name {
	case wlPatient:
		s := share(stages[conceptrank.StageExam].Time)
		check(s >= minExamShare, "exam stage is %.0f%% of op time, want >= %.0f%%", s*100, minExamShare*100)
	case wlTraverse:
		s := share(stages[conceptrank.StageWave].Time + stages[conceptrank.StageBound].Time)
		check(s >= minTraverseShare, "wave+bound stages are %.0f%% of op time, want >= %.0f%%", s*100, minTraverseShare*100)
		check(m.DRCCalls == 0, "%d DRC calls, want none", m.DRCCalls)
	case wlIngest:
		check(c.SeedRefreshes > 0, "no seed refreshes: reads are not meeting stale seeds")
	case wlServe:
		s := share(opTime - staged)
		check(s >= minProtocolShare, "time outside engine stages is %.0f%% of op time, want >= %.0f%%", s*100, minProtocolShare*100)
	}

	if res.TraceFile, err = t.write(env.outDir, def.name); err != nil {
		return nil, err
	}
	return res, nil
}

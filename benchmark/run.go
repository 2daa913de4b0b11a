package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"conceptrank"
)

// runEnv is what one run of one workload works with.
type runEnv struct {
	sc      scale
	smoke   bool   // in-process twin instead of crserve processes
	outDir  string // benchmark/out
	dataDir string // generated input, removed when the run ends
	d       *dataset
	crserve string // path of the built binary; empty in smoke mode
	conns   int    // client connections: at most nproc
}

// workloadDef is one workload: how its op list is drawn, how the system
// under test is set up from files, and how answers are checked.
type workloadDef struct {
	name string
	// rate > 0 makes the workload an open loop at that many requests per
	// second over env.conns connections; 0 is a closed loop of one client.
	rate   float64
	ops    func(d *dataset, seed int64) []op
	setup  func(env *runEnv) (system, error)
	verify func(env *runEnv, ops []op, got []uint64, r *rand.Rand) ([]int, error)
}

var workloadDefs = []workloadDef{
	{
		name:  wlPatient,
		ops:   patientOps,
		setup: func(env *runEnv) (system, error) { return setupEngine(env.dataDir, "PATIENT") },
		verify: func(env *runEnv, ops []op, got []uint64, r *rand.Rand) ([]int, error) {
			return verifyEngine(env.d.o, env.d.patient, env.sc.patientScans, ops, got, r)
		},
	},
	{
		name: wlTraverse,
		ops: func(d *dataset, seed int64) []op {
			return traverseOps(d, seed, d.sc.traverseOps, epsTraverse)
		},
		setup: func(env *runEnv) (system, error) { return setupEngine(env.dataDir, "RADIO") },
		verify: func(env *runEnv, ops []op, got []uint64, r *rand.Rand) ([]int, error) {
			return verifyEngine(env.d.o, env.d.radio, env.sc.radioScans, ops, got, r)
		},
	},
	{
		name:   wlIngest,
		ops:    ingestOps,
		setup:  func(env *runEnv) (system, error) { return setupIngest(env.dataDir) },
		verify: verifyIngest,
	},
	{
		name:   wlServe,
		rate:   serveRate,
		ops:    serveOps,
		setup:  setupServe,
		verify: verifyServe,
	},
}

func findWorkload(name string) *workloadDef {
	for i := range workloadDefs {
		if workloadDefs[i].name == name {
			return &workloadDefs[i]
		}
	}
	return nil
}

// setupServe starts the serving topology: crserve processes, or in smoke
// mode the in-process twin.
func setupServe(env *runEnv) (system, error) {
	if env.smoke {
		o, coll, err := loadFiltered(env.dataDir, "RADIO")
		if err != nil {
			return nil, err
		}
		return newTwin(o, coll, nodeCacheMB, nil)
	}
	return spawnFleet(env.crserve, env.dataDir, nodeCacheMB, env.conns)
}

// --- one pass ---------------------------------------------------------------

type memCounters struct {
	mallocs, bytes, gcs, pauseNS uint64
}

func (m memCounters) sub(o memCounters) memCounters {
	return memCounters{m.mallocs - o.mallocs, m.bytes - o.bytes, m.gcs - o.gcs, m.pauseNS - o.pauseNS}
}

func (m *memCounters) add(o memCounters) {
	m.mallocs += o.mallocs
	m.bytes += o.bytes
	m.gcs += o.gcs
	m.pauseNS += o.pauseNS
}

func readMem() memCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memCounters{ms.Mallocs, ms.TotalAlloc, uint64(ms.NumGC), ms.PauseTotalNs}
}

// passStats is the raw record of one replay of the op list.
type passStats struct {
	n    int       // ops executed: all of them unless the deadline cut the pass
	lat  []float64 // ms per op; in an open loop, from the op's due time
	late []float64 // ms between an op's due time and its dispatch (open loop)
	res  []opResult
	errs []error
	bad  []bool // ops that failed; filled in by failures
	// chunkWall is what each complete chunk of chunkOps ops took, in ms: in a
	// closed loop the wall time from its first op's start to its last op's
	// end, in an open loop (where ops overlap) the sum of its ops' latencies.
	// chunkCPU is the system's CPU time over the same interval (closed loop).
	chunkWall, chunkCPU []float64
	wall                time.Duration
	cpu                 time.Duration
	mem                 memCounters            // deltas over the pass, this process
	cacheD              conceptrank.CacheStats // traffic of the pass; zero without a cache
}

// passOpts says how a pass is driven.
type passOpts struct {
	// due is the open-loop schedule in seconds from the start of the pass,
	// served over conns connections; nil is a closed loop of one client.
	due   []float64
	conns int
	// deadline, when set, ends the pass before the first chunk (closed loop)
	// or op (open loop) that would start after it.
	deadline time.Time
	// t, when set, gives every second op a root span, to which the system
	// adds children: the ops at even positions, or with odd set those at odd
	// ones. Two such passes time every op once with spans and once without,
	// both within one replay of each other.
	t   *tracer
	odd bool
}

// doOp executes op number i under the op timeout; with t set it runs
// inside a root span that the system hangs its own spans under.
func doOp(sys system, o *op, i int, t *tracer) (opResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	var tr *opTrace
	if t != nil {
		root, end := t.begin("op "+o.Kind.String(), -1, i)
		defer end()
		tr = &opTrace{t: t, root: root, op: i}
	}
	return sys.do(ctx, o, tr)
}

// runPass replays ops once against sys.
func runPass(sys system, ops []op, po passOpts) (*passStats, error) {
	if err := sys.beginPass(); err != nil {
		return nil, err
	}
	p := &passStats{
		lat:  make([]float64, len(ops)),
		res:  make([]opResult, len(ops)),
		errs: make([]error, len(ops)),
	}
	one := func(i int) {
		t := po.t
		if (i%2 == 1) != po.odd {
			t = nil
		}
		p.res[i], p.errs[i] = doOp(sys, &ops[i], i, t)
	}
	past := func(t time.Time) bool { return !po.deadline.IsZero() && t.After(po.deadline) }

	runtime.GC()
	cache0, _ := sys.cacheStats()
	mem0 := readMem()
	cpu0, err := sys.cpu()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	dueAt := func(i int) time.Time { return start.Add(time.Duration(po.due[i] * float64(time.Second))) }
	if po.due == nil {
		for a := 0; a < len(ops) && !past(time.Now()); a += chunkOps {
			c0, err := sys.cpu()
			if err != nil {
				return nil, err
			}
			chunkStart := time.Now()
			for i := a; i < min(a+chunkOps, len(ops)); i++ {
				t0 := time.Now()
				one(i)
				p.lat[i] = ms(time.Since(t0))
				p.n++
			}
			p.chunkWall = append(p.chunkWall, ms(time.Since(chunkStart)))
			c1, err := sys.cpu()
			if err != nil {
				return nil, err
			}
			p.chunkCPU = append(p.chunkCPU, ms(c1-c0))
		}
	} else {
		p.late = make([]float64, len(ops))
		// Sized to the number of sends: the scheduler never blocks on a
		// busy connection, so a stalled server delays no dispatch.
		queue := make(chan int, len(ops))
		var wg sync.WaitGroup
		for c := 0; c < po.conns; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range queue {
					one(i)
					// Timed from when the request was due, not from when a
					// connection was free to send it.
					p.lat[i] = ms(time.Since(dueAt(i)))
				}
			}()
		}
		for i := range ops {
			if past(dueAt(i)) {
				break
			}
			time.Sleep(time.Until(dueAt(i)))
			p.late[i] = ms(time.Since(dueAt(i)))
			queue <- i
			p.n++
		}
		close(queue)
		wg.Wait()
		for a := 0; a < p.n; a += chunkOps {
			if b := min(a+chunkOps, len(ops)); b <= p.n {
				p.chunkWall = append(p.chunkWall, sum(p.lat[a:b]))
			}
		}
	}
	p.wall = time.Since(start)
	cpu1, err := sys.cpu()
	if err != nil {
		return nil, err
	}
	p.cpu = cpu1 - cpu0
	p.mem = readMem().sub(mem0)
	cache1, _ := sys.cacheStats()
	p.cacheD = cacheDelta(cache1, cache0)
	return p, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func (k opKind) String() string {
	return [...]string{"sds", "rds", "add", "paged"}[k]
}

// failures lists the ops of a pass that count as failed: an error, a
// refusal, a timeout, or an answer whose checksum differs from want.
func (p *passStats) failures(want []uint64) []int {
	var bad []int
	p.bad = make([]bool, len(p.lat))
	for i := 0; i < p.n; i++ {
		if p.errs[i] != nil || p.lat[i] > ms(opTimeout) || (want != nil && p.res[i].sum != want[i]) {
			bad = append(bad, i)
			p.bad[i] = true
		}
	}
	return bad
}

// chunkOps is the unit in which replays of the op list are compared: a
// tenth of the shortest list, 50 ms to 500 ms of work.
const chunkOps = 24

// leastDisturbed assembles one pass over nOps ops out of several replays
// of the same list: every chunk of chunkOps ops is taken from the replay in
// which it took the least time. Replays do identical work, so a chunk's
// timings differ only by what else the machine did meanwhile, and that only
// ever adds time. On the shared reference box memory latency doubles for
// 5 to 20 seconds at a time (see README), which moves a median over replays
// by as much; the least disturbed replay of a chunk still holds every cost
// the program itself has in it, garbage collection and slow ops included.
// The result has lat, bad, and the summed chunkWall and chunkCPU of the
// chosen replays as wall and cpu. Replays may be cut short after any chunk;
// the first must be complete.
func leastDisturbed(passes []*passStats, nOps int) *passStats {
	out := &passStats{n: nOps, lat: make([]float64, nOps), bad: make([]bool, nOps)}
	var wallMS, cpuMS float64
	for a, c := 0, 0; a < nOps; a, c = a+chunkOps, c+1 {
		best := passes[0]
		for _, p := range passes[1:] {
			if c < len(p.chunkWall) && p.chunkWall[c] < best.chunkWall[c] {
				best = p
			}
		}
		b := min(a+chunkOps, nOps)
		copy(out.lat[a:b], best.lat[a:b])
		copy(out.bad[a:b], best.bad[a:b])
		wallMS += best.chunkWall[c]
		if c < len(best.chunkCPU) {
			cpuMS += best.chunkCPU[c]
		}
	}
	out.wall = time.Duration(wallMS * float64(time.Millisecond))
	out.cpu = time.Duration(cpuMS * float64(time.Millisecond))
	return out
}

// --- answer checks of the first pass -----------------------------------------

// otherSchedule returns an examination threshold far from eps. kNDS is
// exact at every threshold, so the same query examined on the opposite
// schedule must return the bitwise identical ranking.
func otherSchedule(eps float64) float64 {
	if eps >= 0.5 {
		return 0
	}
	return 0.9
}

// refEvery is the stride of the cross-schedule check. Full scans are a
// smaller sample still: one RADIO scan costs as much as 150 queries.
const refEvery = 4

// verifyEngine checks the in-process read workloads against a separately
// built engine: every refEvery-th op (seeded offset) against serial kNDS
// on the opposite examination schedule, and scans seeded ops against
// FullScanSDS / FullScanRDS.
func verifyEngine(o *conceptrank.Ontology, coll *conceptrank.Collection, scans int, ops []op, got []uint64, r *rand.Rand) ([]int, error) {
	ref := conceptrank.NewEngine(o, coll)
	defer ref.Close()
	var bad []int
	for i := r.Intn(refEvery); i < len(ops); i += refEvery {
		other := ops[i]
		other.Eps = otherSchedule(other.Eps)
		res, err := engineDo(context.Background(), ref, &other, nil)
		if err != nil {
			return nil, fmt.Errorf("reference for op %d: %w", i, err)
		}
		if res.sum != got[i] {
			bad = append(bad, i)
		}
	}
	for n := 0; n < scans; n++ {
		i := r.Intn(len(ops))
		scan := ref.FullScanRDS
		if ops[i].Kind == opSDS {
			scan = ref.FullScanSDS
		}
		res, _, err := scan(ops[i].Concepts, conceptrank.WithK(defaultK), conceptrank.WithWorkers(1))
		if err != nil {
			return nil, fmt.Errorf("full scan for op %d: %w", i, err)
		}
		if checksum(res) != got[i] {
			bad = append(bad, i)
		}
	}
	return bad, nil
}

// verifyIngest replays the whole list on an uncached shadow engine fed the
// same writes in lockstep.
func verifyIngest(env *runEnv, ops []op, got []uint64, _ *rand.Rand) ([]int, error) {
	shadow := conceptrank.NewDynamicEngineFrom(env.d.o, env.d.radio)
	defer shadow.Close()
	var bad []int
	added := 0
	for i := range ops {
		var want uint64
		if ops[i].Kind == opAdd {
			want = uint64(ingestAdd(shadow, &added, &ops[i], nil))
		} else {
			res, err := engineDo(context.Background(), &shadow.Engine, &ops[i], nil)
			if err != nil {
				return nil, fmt.Errorf("shadow engine, op %d: %w", i, err)
			}
			want = res.sum
		}
		if want != got[i] {
			bad = append(bad, i)
		}
	}
	return bad, nil
}

// verifyServe checks every HTTP answer (document IDs and distance bits,
// both pages of a paged op) against an in-process single engine over the
// same collection.
func verifyServe(env *runEnv, ops []op, got []uint64, _ *rand.Rand) ([]int, error) {
	ref := conceptrank.NewEngine(env.d.o, env.d.radio)
	defer ref.Close()
	// A cache of its own keeps the Zipf stream cheap; the point of this
	// reference is the other topology, one engine and no RPC or JSON.
	ref.EnableCache(conceptrank.NewCache(conceptrank.CacheConfig{}))
	var bad []int
	for i := range ops {
		res, _, err := ref.RDSContext(context.Background(), ops[i].Concepts, ops[i].options())
		if err != nil {
			return nil, fmt.Errorf("reference engine, op %d: %w", i, err)
		}
		if checksum(res) != got[i] {
			bad = append(bad, i)
		}
	}
	return bad, nil
}

// --- one run of one workload --------------------------------------------------

// result is what one run reports.
type result struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Passes     int                `json:"passes"`
	Attempted  int                `json:"ops_attempted"`
	Failed     int                `json:"ops_failed"`
	Metrics    map[string]float64 `json:"metrics"`
	Spread     map[string]float64 `json:"pass_spread_pct,omitempty"`
	Assertions []string           `json:"failed_assertions,omitempty"`
	TraceFile  string             `json:"trace_file,omitempty"`
}

func (r *result) correct() bool { return r.Failed == 0 && len(r.Assertions) == 0 }

// newRunEnv generates the data set into a private directory under
// benchmark/out and, for workloads that need it, builds crserve.
func newRunEnv(sc scale, smoke bool, needServer bool) (*runEnv, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	env := &runEnv{sc: sc, smoke: smoke, conns: min(runtime.NumCPU(), 2)}
	env.outDir = filepath.Join(root, "benchmark", "out")
	if err := os.MkdirAll(env.outDir, 0o755); err != nil {
		return nil, err
	}
	if env.dataDir, err = os.MkdirTemp(env.outDir, "data-"); err != nil {
		return nil, err
	}
	ownDir(env.dataDir)
	if env.d, err = generate(env.dataDir, sc); err != nil {
		env.close()
		return nil, err
	}
	if needServer && !smoke {
		if env.crserve, err = buildCrserve(root, env.outDir); err != nil {
			env.close()
			return nil, err
		}
	}
	return env, nil
}

func (env *runEnv) close() { removeDir(env.dataDir) }

// coldSetups sets the system up n times from files, each into fresh
// objects or fresh processes, and returns the last one with all times.
func coldSetups(def *workloadDef, env *runEnv, n int) (system, []float64, error) {
	var (
		sys   system
		times []float64
	)
	for i := 0; i < n; i++ {
		if sys != nil {
			sys.close()
		}
		runtime.GC()
		t0 := time.Now()
		s, err := def.setup(env)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		times = append(times, time.Since(t0).Seconds())
		sys = s
	}
	return sys, times, nil
}

// verifyFirst checks the answers of the first pass against the workload's
// reference and returns the checksums every later pass must reproduce,
// with the ops the reference disagrees on.
func verifyFirst(def *workloadDef, env *runEnv, ops []op, p *passStats, seed int64) (want []uint64, bad []int, err error) {
	want = make([]uint64, len(ops))
	for i := range want {
		want[i] = p.res[i].sum
	}
	bad, err = def.verify(env, ops, want, rand.New(rand.NewSource(seed)))
	for _, i := range bad {
		fmt.Fprintf(os.Stderr, "op %d: answer differs from the reference\n", i)
	}
	return want, bad, err
}

// runWorkload is one untraced run: cold set-ups, an untimed warm-up pass
// whose answers are checked against the reference, then measured passes
// over the op list for the given number of seconds, reported as the six
// end-to-end metrics. The first measured pass always completes; the last
// one is cut when the time is up.
//
// The op list is fixed, so every pass does identical work and the timings
// of one op differ only by what else the machine and the collector did.
// query_p50_ms takes each op at its fastest timing, the cost interference
// cannot add to; query_p95_ms takes each op at its median timing, so a tail
// cost that recurs shows; both are quantiles over ops. throughput_qps and
// cpu_ms_per_op are medians over the complete passes of ops completed per
// second of wall time and CPU time per completed op, garbage collection
// included.
func runWorkload(def *workloadDef, sc scale, smoke bool, seed int64, seconds float64) (*result, error) {
	env, err := newRunEnv(sc, smoke, def.name == wlServe)
	if err != nil {
		return nil, err
	}
	defer env.close()
	ops := def.ops(env.d, seed)
	var due []float64
	if def.rate > 0 {
		due = schedule(seed, len(ops), def.rate)
	}
	var reads []int
	for i := range ops {
		if ops[i].isRead() {
			reads = append(reads, i)
		}
	}

	// Half of the cold set-ups come before the passes and half after them,
	// twenty seconds apart: the machine's speed moves in spells of seconds,
	// and set-ups done in one go would all sit inside one spell.
	sys, setups, err := coldSetups(def, env, (sc.setups+1)/2)
	if err != nil {
		return nil, err
	}
	closeSys := func() {
		if sys != nil {
			sys.close()
			sys = nil
		}
	}
	defer closeSys()

	res := &result{Workload: def.name, Seed: seed, Metrics: map[string]float64{}, Spread: map[string]float64{}}
	// The warm-up pass is a closed loop whatever the workload: an open loop
	// on cold caches would start overloaded.
	resetPeakRSS()
	warm, err := runPass(sys, ops, passOpts{})
	if err != nil {
		return nil, err
	}
	res.Attempted += warm.n
	res.Failed += len(warm.failures(nil))
	rssWarm, err := sys.peakRSS()
	if err != nil {
		return nil, err
	}
	want, bad, err := verifyFirst(def, env, ops, warm, seed)
	if err != nil {
		return nil, err
	}
	res.Failed += len(bad)
	// The reference engines are garbage now; the peak restarts so that they
	// are not charged to the system under test.
	debug.FreeOSMemory()
	resetPeakRSS()

	var (
		passes                     []*passStats // a cut pass holds a prefix of whole chunks
		p50s, p95s, qps, passCPUms []float64    // per complete pass
	)
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for {
		po := passOpts{due: due, conns: env.conns}
		if len(passes) > 0 {
			po.deadline = deadline
		}
		p, err := runPass(sys, ops, po)
		if err != nil {
			return nil, err
		}
		failed := p.failures(want)
		for _, i := range failed {
			fmt.Fprintf(os.Stderr, "pass %d op %d failed: %v\n", len(passes)+1, i, p.errs[i])
		}
		res.Attempted += p.n
		res.Failed += len(failed)
		passes = append(passes, p)
		if p.n == len(ops) {
			res.Passes++
			done := float64(p.n - len(failed))
			r := pick(p.lat, reads)
			p50s = append(p50s, quantile(r, 0.50))
			p95s = append(p95s, quantile(r, 0.95))
			qps = append(qps, done/p.wall.Seconds())
			passCPUms = append(passCPUms, ratio(ms(p.cpu), done))
		}
		if smoke || p.n < len(ops) || !time.Now().Before(deadline) {
			break // one pass is a smoke run; otherwise the time is up
		}
	}
	rss, err := sys.peakRSS()
	if err != nil {
		return nil, err
	}
	closeSys()
	if n := sc.setups / 2; n > 0 {
		var more []float64
		if sys, more, err = coldSetups(def, env, n); err != nil {
			return nil, err
		}
		setups = append(setups, more...)
	}

	best := leastDisturbed(passes, len(ops))
	done := 0.0
	for _, bad := range best.bad {
		if !bad {
			done++
		}
	}
	perOp := pick(best.lat, reads)
	res.Metrics["setup_s"] = median(setups)
	res.Metrics["query_p50_ms"] = quantile(perOp, 0.50)
	res.Metrics["query_p95_ms"] = quantile(perOp, 0.95)
	if due == nil {
		res.Metrics["throughput_qps"] = done / best.wall.Seconds()
		res.Metrics["cpu_ms_per_op"] = ratio(ms(best.cpu), done)
	} else {
		// Open loop: requests overlap, so a chunk has no wall time or CPU time
		// of its own; both are taken per pass. The schedule pins the rate.
		res.Metrics["throughput_qps"] = median(qps)
		res.Metrics["cpu_ms_per_op"] = median(passCPUms)
	}
	res.Metrics["rss_peak_mb"] = float64(max(rss, rssWarm)) / (1 << 20)
	res.Spread["setup_s"] = spreadPct(setups)
	res.Spread["query_p50_ms"] = spreadPct(p50s)
	res.Spread["query_p95_ms"] = spreadPct(p95s)
	res.Spread["throughput_qps"] = spreadPct(qps)
	res.Spread["cpu_ms_per_op"] = spreadPct(passCPUms)
	return res, nil
}

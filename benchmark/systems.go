package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"conceptrank"
)

// opResult is what one executed op reports back to the runner.
type opResult struct {
	sum   uint64               // checksum of the answer
	m     *conceptrank.Metrics // the engine's own account; nil for writes
	bytes int                  // response body bytes (HTTP systems)
	shed  bool                 // refused with 429
	// cancelled is the number of shards the cross-shard bound stopped
	// early (sharded engine).
	cancelled int
}

// opTrace is handed to system.do in the traced run: the system records
// child spans of the op's root span around the calls it makes.
type opTrace struct {
	t    *tracer
	root int
	op   int
}

// system is the program under test as one workload drives it. Set-up
// builds one from files; the runner then replays the op list against it.
type system interface {
	// beginPass prepares pass-local state outside the timed region.
	beginPass() error
	// do executes one op. It must be safe for concurrent use when the
	// workload is an open loop.
	do(ctx context.Context, o *op, tr *opTrace) (opResult, error)
	// cpu is the user+system CPU time the system under test has consumed.
	cpu() (time.Duration, error)
	// peakRSS is the peak resident set of the system under test, in bytes.
	peakRSS() (int64, error)
	// cacheStats snapshots the system's distance cache, if it has one.
	cacheStats() (conceptrank.CacheStats, bool)
	close()
}

// inProcess is the part of system shared by everything that runs inside
// the benchmark's own process: no pass-local state, this process's
// resources, no distance cache.
type inProcess struct{}

func (inProcess) beginPass() error        { return nil }
func (inProcess) peakRSS() (int64, error) { return procHWM("self") }
func (inProcess) cacheStats() (conceptrank.CacheStats, bool) {
	return conceptrank.CacheStats{}, false
}

func (inProcess) cpu() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return tv(ru.Utime) + tv(ru.Stime), nil
}

// --- resource accounting -------------------------------------------------

func tv(t syscall.Timeval) time.Duration {
	return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
}

// procHWM reads VmHWM, the peak resident set size, in bytes.
func procHWM(pid string) (int64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("/proc/%s/status has no VmHWM", pid)
}

// procCPU reads the CPU time another process has consumed: the on-CPU
// nanoseconds of its threads from /proc/<pid>/task/*/schedstat. The
// utime and stime of /proc/<pid>/stat count the same time in 10 ms ticks,
// too coarse for a pass that uses under a second of CPU.
func procCPU(pid int) (time.Duration, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err != nil || len(tasks) == 0 {
		return 0, fmt.Errorf("no /proc/%d/task/*/schedstat", pid)
	}
	var sum time.Duration
	for _, path := range tasks {
		data, err := os.ReadFile(path)
		if err != nil {
			continue // the thread ended between the listing and the read
		}
		f := strings.Fields(string(data))
		if len(f) == 0 {
			return 0, fmt.Errorf("empty %s", path)
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", path, err)
		}
		sum += time.Duration(ns)
	}
	return sum, nil
}

// resetPeakRSS restarts this process's VmHWM from its current resident
// set, so rss_peak_mb covers the passes and not the reference engines the
// first pass's answers were checked with. Kernels that refuse the write
// leave the peak as it is.
func resetPeakRSS() {
	runtime.GC()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0o200)
}

// --- in-process engine (patient-sds-exam, radio-rds-traverse) -------------

type engineSystem struct {
	inProcess
	eng *conceptrank.Engine
}

func setupEngine(dir, corpus string) (*engineSystem, error) {
	o, coll, err := loadFiltered(dir, corpus)
	if err != nil {
		return nil, err
	}
	return &engineSystem{eng: conceptrank.NewEngine(o, coll)}, nil
}

func (s *engineSystem) close() { _ = s.eng.Close() }

func (s *engineSystem) do(ctx context.Context, o *op, tr *opTrace) (opResult, error) {
	return engineDo(ctx, s.eng, o, tr)
}

// engineDo runs a read op on an engine. Untraced it is one RDSContext /
// SDSContext call; traced it is the same query as Open + Run + Close with
// a span around each and the engine's own DRC probe events collected.
func engineDo(ctx context.Context, eng *conceptrank.Engine, o *op, tr *opTrace) (opResult, error) {
	opts := o.options()
	if tr == nil {
		var (
			res []conceptrank.Result
			m   *conceptrank.Metrics
			err error
		)
		if o.Kind == opSDS {
			res, m, err = eng.SDSContext(ctx, o.Concepts, opts)
		} else {
			res, m, err = eng.RDSContext(ctx, o.Concepts, opts)
		}
		return opResult{sum: checksum(res), m: m}, err
	}

	var probes []time.Duration // time since the previous event, per probe
	last := time.Duration(0)
	opts.Trace = func(ev conceptrank.TraceEvent) {
		if ev.Kind == conceptrank.TraceDRCProbe {
			probes = append(probes, ev.At-last)
		}
		last = ev.At
	}
	open := eng.OpenRDS
	if o.Kind == opSDS {
		open = eng.OpenSDS
	}
	_, endOpen := tr.t.begin("core.Open", tr.root, tr.op)
	cur, err := open(o.Concepts, opts)
	endOpen()
	if err != nil {
		return opResult{}, err
	}
	runID, endRun := tr.t.begin("core.Run", tr.root, tr.op)
	res, m, err := cur.Run(ctx)
	endRun()
	_, endClose := tr.t.begin("core.Close", tr.root, tr.op)
	_ = cur.Close()
	endClose()
	if err != nil {
		return opResult{}, err
	}
	synthesizeStages(tr, runID, m, probes)
	return opResult{sum: checksum(res), m: m}, nil
}

// synthesizeStages lays the engine's per-stage times out as child spans of
// the Run span, back to back in stage order, and the DRC probes as child
// spans of the exam stage. The durations are the engine's measurements;
// the positions inside Run are not (stages interleave wave by wave).
func synthesizeStages(tr *opTrace, runID int, m *conceptrank.Metrics, probes []time.Duration) {
	tr.t.mu.Lock()
	at := tr.t.spans[runID].Start
	tr.t.mu.Unlock()
	for st := 0; st < conceptrank.NumStages; st++ {
		d := int64(m.Stages[st].Time)
		if d == 0 {
			continue
		}
		id := tr.t.add("core.stage."+conceptrank.Stage(st).String(), runID, tr.op, at, at+d)
		if conceptrank.Stage(st) == conceptrank.StageExam {
			p := at
			for _, pd := range probes {
				e := p + int64(pd)
				if e > at+d {
					e = at + d
				}
				tr.t.add("drc.probe", id, tr.op, p, e)
				p = e
			}
		}
		at += d
	}
}

// --- dynamic engine under ingest (radio-zipf-ingest) ----------------------

type ingestSystem struct {
	inProcess
	o     *conceptrank.Ontology
	coll  *conceptrank.Collection
	eng   *conceptrank.DynamicEngine
	cache *conceptrank.Cache
	added int
}

func setupIngest(dir string) (*ingestSystem, error) {
	o, coll, err := loadFiltered(dir, "RADIO")
	if err != nil {
		return nil, err
	}
	s := &ingestSystem{o: o, coll: coll}
	return s, s.beginPass()
}

// beginPass starts from a fresh engine and a fresh cache, so every pass
// does identical work although the corpus grows within a pass.
func (s *ingestSystem) beginPass() error {
	s.eng = conceptrank.NewDynamicEngineFrom(s.o, s.coll)
	s.cache = conceptrank.NewCache(conceptrank.CacheConfig{MaxBytes: ingestCache})
	s.eng.EnableCache(s.cache)
	s.added = 0
	return nil
}

func (s *ingestSystem) close() { _ = s.eng.Close() }
func (s *ingestSystem) cacheStats() (conceptrank.CacheStats, bool) {
	return s.cache.Stats(), true
}

func (s *ingestSystem) do(ctx context.Context, o *op, tr *opTrace) (opResult, error) {
	if o.Kind == opAdd {
		return opResult{sum: uint64(ingestAdd(s.eng, &s.added, o, tr))}, nil
	}
	return engineDo(ctx, &s.eng.Engine, o, tr)
}

func ingestAdd(eng *conceptrank.DynamicEngine, added *int, o *op, tr *opTrace) conceptrank.DocID {
	if tr != nil {
		_, end := tr.t.begin("index.AddDocument", tr.root, tr.op)
		defer end()
	}
	*added++
	return eng.AddDocument("new-"+strconv.Itoa(*added), o.Concepts)
}

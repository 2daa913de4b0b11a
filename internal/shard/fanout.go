package shard

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"conceptrank/internal/core"
	"conceptrank/internal/corpus"
	"conceptrank/internal/pool"
)

// The cross-shard merge/resume loop, extracted behind an interface so the
// in-process sharded cursor and the distributed coordinator (internal/
// cluster) share one implementation of the algorithm that makes sharded
// results bitwise identical to a single engine: run every shard to
// termination or a provable pause, merge every exact distance the shards
// have paid for through the canonical top-k heap, and — on GrowK — rebuild
// the heap from the shards' examined archives after resuming them.

// FanoutShard is one shard's resumable query execution as seen by the
// fan-out merge loop. The in-process implementation wraps a core.Cursor;
// the distributed one (internal/cluster) wraps a remote cursor spoken to
// over RPC. Implementations offer results (global doc IDs, exact
// distances) into the shared MergeState as they become final and consult
// it for the cross-shard cancellation bound.
type FanoutShard interface {
	// Run drives the shard at its current k until its traversal
	// terminates (true, nil), the cross-shard bound pauses it (false,
	// nil — the implementation must have marked itself paused in the
	// MergeState), or it fails. Context errors are resumable: the shard's
	// saved state survives and a later Run continues where it stopped.
	Run(ctx context.Context) (done bool, err error)
	// Grow raises the shard's k; the next Run resumes from saved state.
	Grow(ctx context.Context, k int) error
	// Examined returns every result whose exact distance the shard has
	// paid for so far (global doc IDs) — a superset of its top-k. The
	// merge loop re-offers these into a fresh merger when growing k.
	Examined(ctx context.Context) ([]core.Result, error)
	// Metrics returns the shard's accumulated metrics (zero value before
	// the first Run).
	Metrics() core.Metrics
	// Close releases the shard's query resources.
	Close() error
}

// MergeState is the shared cross-shard merge state: the canonical top-k
// merger, the set of doc IDs already offered (shards emit each result once
// per lifetime, but a GrowK merger rebuild re-offers archives, and the
// merger heap has no dedup of its own), and the per-shard pause flags for
// the cross-shard bound. All methods are safe for concurrent use by shard
// goroutines.
type MergeState struct {
	mu      sync.Mutex
	merger  *core.Merger
	offered map[corpus.DocID]bool
	paused  []bool
}

// NewMergeState returns merge state for a k-result fan-out over shards.
func NewMergeState(k, shards int) *MergeState {
	return &MergeState{
		merger:  core.NewMerger(k),
		offered: make(map[corpus.DocID]bool),
		paused:  make([]bool, shards),
	}
}

// Offer considers one exact result (global doc ID) for the merged top-k.
// Re-offering a doc ID is a no-op, so shards may replay archives safely.
func (ms *MergeState) Offer(r core.Result) {
	ms.mu.Lock()
	if !ms.offered[r.Doc] {
		ms.offered[r.Doc] = true
		ms.merger.Offer(r)
	}
	ms.mu.Unlock()
}

// Bound returns the cross-shard cancellation bound: whether the merged
// heap is full and, if so, its current k-th distance (+Inf otherwise).
func (ms *MergeState) Bound() (full bool, kth float64) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if !ms.merger.Full() {
		return false, math.Inf(1)
	}
	return true, ms.merger.Kth()
}

// PauseIfBeyond atomically pauses shard s when its floor dMinus is Beyond
// the merged top-k. Returns true when the shard was newly paused (the
// caller should then stop the shard's in-flight work); false when the
// proof does not (yet) hold or the shard was already paused.
func (ms *MergeState) PauseIfBeyond(s int, dMinus float64) bool {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if ms.paused[s] || !Beyond(ms.merger.Full(), ms.merger.Kth(), dMinus) {
		return false
	}
	ms.paused[s] = true
	return true
}

// Pause force-pauses shard s — for callers whose pause proof was
// established elsewhere (a remote node self-pausing against a bound it was
// sent; see Beyond for why a stale bound still proves it).
func (ms *MergeState) Pause(s int) {
	ms.mu.Lock()
	ms.paused[s] = true
	ms.mu.Unlock()
}

// Paused reports whether shard s is paused in the current k-epoch.
func (ms *MergeState) Paused(s int) bool {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return ms.paused[s]
}

// reset installs a fresh merger at capacity k and unpauses every shard
// (growing k invalidates every pause proof). Caller must ensure no shard
// goroutines are running.
func (ms *MergeState) reset(k int) {
	ms.mu.Lock()
	ms.merger = core.NewMerger(k)
	ms.offered = make(map[corpus.DocID]bool)
	for s := range ms.paused {
		ms.paused[s] = false
	}
	ms.mu.Unlock()
}

// sorted returns the merged results in canonical ascending order.
func (ms *MergeState) sorted() []core.Result {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return ms.merger.Sorted()
}

// Fanout is the shard-fan-out merge/resume loop shared by the in-process
// sharded cursor and the distributed coordinator: it runs every live shard
// in parallel to termination or a provable pause, merges through the
// canonical top-k heap, grows k by resuming shards and replaying their
// examined archives, and accounts the cross-shard metrics. A Fanout is not
// safe for concurrent use; shard.Cursor and cluster's coordinator cursor
// serialize access with their own locks.
type Fanout struct {
	shards []FanoutShard // nil entries are empty shards: nothing to run
	ms     *MergeState
	sm     *Metrics

	k        int
	paused   int  // lifetime count of shards a bound pause stopped unfinished
	done     bool // current-k run has terminated; results is valid
	needGrow bool // a grow was interrupted; redo it before the next run
	failed   error
	results  []core.Result

	degraded []bool

	elapsed   time.Duration // accumulated segment wall-clock → Merged.TotalTime
	mergeTime time.Duration // accumulated cross-shard merge time → Stages[StageMerge]

	// PartialOK, when non-nil, is consulted when a shard's Run or Grow
	// fails with a non-resumable error: returning true marks the shard
	// degraded — the merged ranking continues without it and the shard is
	// reported in Metrics.Degraded — while false fails the whole query.
	// The distributed coordinator uses this for graceful degradation; the
	// in-process engine leaves it nil (a shard failure fails the query).
	PartialOK func(shard int, err error) bool
}

// NewFanout builds the merge loop over the given shards (nil entries are
// empty shards) at initial capacity k.
func NewFanout(shards []FanoutShard, k int) *Fanout {
	return &Fanout{
		shards:   shards,
		ms:       NewMergeState(k, len(shards)),
		sm:       &Metrics{PerShard: make([]core.Metrics, len(shards))},
		k:        k,
		degraded: make([]bool, len(shards)),
	}
}

// MergeState returns the shared merge state the shards offer into.
func (f *Fanout) MergeState() *MergeState { return f.ms }

// K returns the current merged result capacity.
func (f *Fanout) K() int { return f.k }

// Results returns the merged results of the latest completed run (nil
// before the first run or after a grow). Treat as read-only.
func (f *Fanout) Results() []core.Result { return f.results }

// Metrics returns the fan-out metrics, accumulated across every run
// segment so far. The pointer stays live; snapshot it for a fixed view.
func (f *Fanout) Metrics() *Metrics { return f.sm }

// Degraded lists the shards abandoned by the PartialOK policy, in shard
// order (empty for in-process fan-outs, which fail instead).
func (f *Fanout) Degraded() []int {
	var out []int
	for s, d := range f.degraded {
		if d {
			out = append(out, s)
		}
	}
	return out
}

// MarkDegraded excludes shard s from all future runs — for fan-outs whose
// shard failed before the merge loop ever ran it (a node down at open).
// The shard is reported in Metrics.Degraded after the next run.
func (f *Fanout) MarkDegraded(s int) { f.degraded[s] = true }

// RunTo grows the merged capacity to target if needed and runs a segment
// to termination: every live shard in parallel until all are done, paused
// by the cross-shard bound, or degraded. Context errors are resumable —
// shard state survives and a later RunTo continues. Any other error is
// sticky unless PartialOK absorbs it.
func (f *Fanout) RunTo(ctx context.Context, target int) error {
	if f.failed != nil {
		return f.failed
	}
	if target > f.k {
		// Growing past a merger the union could not fill finds nothing new.
		if !(f.done && len(f.results) < f.k) {
			if err := f.grow(ctx, target); err != nil {
				return err
			}
		}
	} else if f.needGrow {
		if err := f.grow(ctx, f.k); err != nil {
			return err
		}
	}
	if f.done {
		return nil
	}
	segStart := time.Now()
	defer func() { f.elapsed += time.Since(segStart) }()

	g, gctx := pool.GroupWithContext(ctx)
	var paused atomic.Int32
	for s, sh := range f.shards {
		if sh == nil || f.degraded[s] || f.ms.Paused(s) {
			continue
		}
		s, sh := s, sh
		g.Go(func() error {
			done, err := sh.Run(gctx)
			f.sm.PerShard[s] = sh.Metrics()
			if err != nil {
				if !ctxResumable(err) && f.PartialOK != nil && f.PartialOK(s, err) {
					f.degraded[s] = true
					return nil
				}
				return err
			}
			if !done {
				// Only a pause that stopped an unfinished shard counts as a
				// cancellation: a shard that completes its answer also sees
				// its final floor pass the k-th distance it helped set.
				paused.Add(1)
			}
			return nil
		})
	}
	err := g.Wait()
	f.paused += int(paused.Load()) // kept on error too: paused shards are not re-run
	if err != nil {
		if !ctxResumable(err) {
			f.failed = err
		}
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}

	mergeStart := time.Now()
	f.results = f.ms.sorted()
	merged := core.Metrics{}
	for i := range f.sm.PerShard {
		mergeMetrics(&merged, &f.sm.PerShard[i])
	}
	// The cross-shard merge is the one stage shards cannot see; attribute
	// it here — accumulated across segments like elapsed, because merged
	// is rebuilt from the per-shard metrics on every segment.
	f.mergeTime += time.Since(mergeStart)
	merged.Stages[core.StageMerge].Time += f.mergeTime
	merged.TotalTime = f.elapsed + time.Since(segStart)
	merged.ResultCount = len(f.results)
	f.sm.Merged = merged
	f.sm.CancelledShards = f.paused
	f.sm.Degraded = f.Degraded()
	f.done = true
	return nil
}

// grow raises k, resumes every shard at the larger capacity and rebuilds
// the merger from the shards' archives of exact distances. Interrupted
// grows (a resumable context error mid-way) are redone wholesale on the
// next RunTo — Grow is idempotent and the merger rebuild starts fresh.
func (f *Fanout) grow(ctx context.Context, k int) error {
	f.needGrow = true
	f.k = k
	f.done = false
	f.results = nil
	f.ms.reset(k)
	for s, sh := range f.shards {
		if sh == nil || f.degraded[s] {
			continue
		}
		if err := f.growShard(ctx, s, sh, k); err != nil {
			if !ctxResumable(err) {
				f.failed = err
			}
			return err
		}
	}
	f.needGrow = false
	return nil
}

func (f *Fanout) growShard(ctx context.Context, s int, sh FanoutShard, k int) error {
	err := sh.Grow(ctx, k)
	var ex []core.Result
	if err == nil {
		// Re-seed the merger with the exact distances this shard already
		// paid for: its progressive offers only happen once per query
		// lifetime, so results emitted before the grow would otherwise be
		// lost to the fresh merger.
		ex, err = sh.Examined(ctx)
	}
	if err != nil {
		if !ctxResumable(err) && f.PartialOK != nil && f.PartialOK(s, err) {
			f.degraded[s] = true
			return nil
		}
		return err
	}
	for _, r := range ex {
		f.ms.Offer(r)
	}
	return nil
}

// Close releases every shard, all at once: a remote shard's close is a
// round trip, and the caller waits for the slowest. It returns the first
// error. Closing twice is a no-op.
func (f *Fanout) Close() error {
	var g pool.Group
	for _, sh := range f.shards {
		if sh != nil {
			g.Go(sh.Close)
		}
	}
	f.shards = nil
	return g.Wait()
}

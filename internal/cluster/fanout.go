package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"conceptrank/internal/core"
	"conceptrank/internal/corpus"
	"conceptrank/internal/pool"
	"conceptrank/internal/telemetry"
)

// The cross-shard merge/resume loop: run every shard to termination or a
// provable pause, merge every exact distance the shards have paid for
// through the canonical top-k heap, and — on GrowK — rebuild the heap from
// the shards' examined archives after resuming them. It is what makes the
// coordinator's results bitwise identical to a single engine over the
// union collection. The equivalence rests on two invariants (proof sketch
// in DESIGN.md, "Sharded execution"):
//
//  1. the kNDS engine returns the k canonically smallest results under the
//     total order (distance, then doc ID) — a pure function of the
//     document set, independent of examination order; and
//  2. placement (document i to shard i mod N) assigns documents in
//     ascending global DocID order, so each shard's local→global ID map
//     is strictly increasing and local canonical order equals global
//     canonical order.
//
// The k smallest of the union are then always contained in the union of
// the per-shard k smallest, and merging through core.Merger (the same heap
// the engine commits into) reproduces the single-engine answer exactly.

// ShardConfig parameterizes a partition of a collection.
type ShardConfig struct {
	// Shards is the number of partitions (>= 1).
	Shards int
}

// Partition splits coll into cfg.Shards sub-collections, document i to
// shard i mod cfg.Shards, and returns them together with the per-shard
// local→global DocID maps. Documents are assigned in ascending DocID
// order, so every returned map is strictly increasing.
func Partition(coll *corpus.Collection, cfg ShardConfig) ([]*corpus.Collection, [][]corpus.DocID, error) {
	if cfg.Shards < 1 {
		return nil, nil, fmt.Errorf("cluster: Shards must be >= 1, got %d", cfg.Shards)
	}
	n := cfg.Shards
	colls := make([]*corpus.Collection, n)
	for i := range colls {
		colls[i] = corpus.New()
	}
	maps := make([][]corpus.DocID, n)
	for _, d := range coll.Docs() {
		s := int(d.ID) % n
		colls[s].Add(d.Name, d.TokenCount, d.Concepts)
		maps[s] = append(maps[s], d.ID)
	}
	return colls, maps, nil
}

// Metrics describes one coordinator query.
type Metrics struct {
	// Merged sums the per-shard counters and component times; its TotalTime
	// is the query's wall-clock time (shards overlap, so it is typically
	// far below the per-shard sum) and its ResultCount is the merged
	// result count.
	Merged core.Metrics
	// PerShard holds each shard's own metrics, indexed by shard.
	PerShard []core.Metrics
	// CancelledShards counts shards stopped early by the cross-shard
	// bound: their termination floor rose above the merged k-th distance,
	// proving they had nothing left to contribute.
	CancelledShards int
	// Degraded lists shards abandoned mid-query under
	// CoordinatorConfig.PartialResults (shard order); without it a shard
	// failure fails the query. A degraded ranking is exact over the
	// surviving shards' union but may miss documents owned by the lost
	// shards.
	Degraded []int
}

// mergeMetrics accumulates src into dst: counters and component times sum;
// TerminalEps merges by max — the merged result is only as tight as the
// loosest shard's stopping point. TotalTime and ResultCount are owned by
// the caller (shards overlap, so their sums are meaningless). A
// reflection-based test (TestMergeMetricsCoversAllFields) fails when a new
// core.Metrics field is added without a merge rule here.
func mergeMetrics(dst, src *core.Metrics) {
	dst.TraversalTime += src.TraversalTime
	dst.DistanceTime += src.DistanceTime
	dst.IOTime += src.IOTime
	dst.Iterations += src.Iterations
	dst.NodesVisited += src.NodesVisited
	dst.DocsDiscovered += src.DocsDiscovered
	dst.DocsExamined += src.DocsExamined
	dst.DRCCalls += src.DRCCalls
	dst.ForcedExams += src.ForcedExams
	dst.CacheHits += src.CacheHits
	dst.CacheMisses += src.CacheMisses
	core.MergeStages(&dst.Stages, &src.Stages)
	if src.TerminalEps > dst.TerminalEps {
		dst.TerminalEps = src.TerminalEps
	}
}

// beyond is kNDS's one stopping rule (paper §5, the Eq. 9 termination
// test) lifted across shards: once the merged top-k is full and a shard's
// termination floor d⁻ exceeds its k-th distance, everything the shard
// could still produce is outside the answer, so stopping it cannot change
// the ranking. The proof survives a stale bound — within a k-epoch the
// merged k-th only decreases while d⁻ only increases — which is what lets
// a node test it against the bound its last step request carried.
func beyond(full bool, kth, dMinus float64) bool { return full && dMinus > kth }

// mergeState is the shared cross-shard merge state: the canonical top-k
// merger, the set of doc IDs already offered (shards emit each result once
// per lifetime, but a GrowK merger rebuild re-offers archives, and the
// merger heap has no dedup of its own), and the per-shard pause flags for
// the cross-shard bound. All methods are safe for concurrent use by shard
// goroutines.
type mergeState struct {
	mu      sync.Mutex
	merger  *core.Merger
	offered map[corpus.DocID]bool
	paused  []bool
}

func newMergeState(k, shards int) *mergeState {
	return &mergeState{
		merger:  core.NewMerger(k),
		offered: make(map[corpus.DocID]bool),
		paused:  make([]bool, shards),
	}
}

// offer considers one exact result (global doc ID) for the merged top-k.
// Re-offering a doc ID is a no-op, so shards may replay archives safely.
func (ms *mergeState) offer(r core.Result) {
	ms.mu.Lock()
	if !ms.offered[r.Doc] {
		ms.offered[r.Doc] = true
		ms.merger.Offer(r)
	}
	ms.mu.Unlock()
}

// bound returns the cross-shard cancellation bound: whether the merged
// heap is full and, if so, its current k-th distance (+Inf otherwise).
func (ms *mergeState) bound() (full bool, kth float64) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if !ms.merger.Full() {
		return false, math.Inf(1)
	}
	return true, ms.merger.Kth()
}

// pauseIfBeyond atomically pauses shard s when its floor dMinus is beyond
// the merged top-k, and reports whether it did.
func (ms *mergeState) pauseIfBeyond(s int, dMinus float64) bool {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if ms.paused[s] || !beyond(ms.merger.Full(), ms.merger.Kth(), dMinus) {
		return false
	}
	ms.paused[s] = true
	return true
}

// pause marks shard s paused on a proof established on its node against
// a bound it was sent (see beyond for why a stale bound still proves it).
func (ms *mergeState) pause(s int) {
	ms.mu.Lock()
	ms.paused[s] = true
	ms.mu.Unlock()
}

func (ms *mergeState) isPaused(s int) bool {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return ms.paused[s]
}

// reset installs a fresh merger at capacity k and unpauses every shard
// (growing k invalidates every pause proof). Caller must ensure no shard
// goroutines are running.
func (ms *mergeState) reset(k int) {
	ms.mu.Lock()
	ms.merger = core.NewMerger(k)
	ms.offered = make(map[corpus.DocID]bool)
	for s := range ms.paused {
		ms.paused[s] = false
	}
	ms.mu.Unlock()
}

// sorted returns the merged results in canonical ascending order.
func (ms *mergeState) sorted() []core.Result {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return ms.merger.Sorted()
}

// fanout is the coordinator's merge/resume loop over its remote shards:
// it runs every live shard in parallel to termination or a provable
// pause, merges through the canonical top-k heap, grows k by resuming
// shards and replaying their examined archives, and accounts the
// cross-shard metrics. It is not safe for concurrent use; Cursor
// serializes access.
type fanout struct {
	shards []*remoteShard // nil entries are empty or degraded-at-open shards
	ms     *mergeState
	sm     *Metrics

	k        int
	paused   int  // lifetime count of shards a bound pause stopped unfinished
	done     bool // current-k run has terminated; results is valid
	needGrow bool // a grow was interrupted; redo it before the next run
	failed   error
	results  []core.Result

	degraded []bool
	// lost, when non-nil, makes a shard whose step or grow fails with a
	// non-resumable error degrade instead of failing the query
	// (CoordinatorConfig.PartialResults); it counts each degraded shard.
	lost *telemetry.Counter

	elapsed   time.Duration // accumulated segment wall-clock → Merged.TotalTime
	mergeTime time.Duration // accumulated cross-shard merge time → Stages[StageMerge]
}

func newFanout(shards []*remoteShard, k int, lost *telemetry.Counter) *fanout {
	return &fanout{
		shards:   shards,
		ms:       newMergeState(k, len(shards)),
		sm:       &Metrics{PerShard: make([]core.Metrics, len(shards))},
		k:        k,
		degraded: make([]bool, len(shards)),
		lost:     lost,
	}
}

// degrade excludes shard s from all future runs when partial results are
// allowed, and reports whether it did. The shard is reported in
// Metrics.Degraded after the next run.
func (f *fanout) degrade(s int) bool {
	if f.lost == nil {
		return false
	}
	f.degraded[s] = true
	f.lost.Inc()
	return true
}

// runTo grows the merged capacity to target if needed and runs a segment
// to termination: every live shard in parallel until all are done, paused
// by the cross-shard bound, or degraded. Context errors are resumable —
// shard state survives and a later runTo continues. Any other error is
// sticky unless the shard degrades.
func (f *fanout) runTo(ctx context.Context, target int) error {
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
		if sh == nil || f.degraded[s] || f.ms.isPaused(s) {
			continue
		}
		s, sh := s, sh
		g.Go(func() error {
			done, err := sh.run(gctx)
			f.sm.PerShard[s] = sh.metrics
			if err != nil {
				// Each goroutine writes only its own shard's degraded slot.
				if !ctxResumable(err) && f.degrade(s) {
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
	f.sm.Degraded = nil
	for s, d := range f.degraded {
		if d {
			f.sm.Degraded = append(f.sm.Degraded, s)
		}
	}
	f.done = true
	return nil
}

// grow raises k, resumes every shard at the larger capacity and rebuilds
// the merger from the shards' archives of exact distances. Interrupted
// grows (a resumable context error mid-way) are redone wholesale on the
// next runTo — a node's grow is idempotent and the merger rebuild starts
// fresh.
func (f *fanout) grow(ctx context.Context, k int) error {
	f.needGrow = true
	f.k = k
	f.done = false
	f.results = nil
	f.ms.reset(k)
	for s, sh := range f.shards {
		if sh == nil || f.degraded[s] {
			continue
		}
		// Re-seed the merger with the exact distances this shard already
		// paid for: its progressive offers only happen once per query
		// lifetime, so results emitted before the grow would otherwise be
		// lost to the fresh merger.
		ex, err := sh.grow(ctx, k)
		if err != nil {
			if !ctxResumable(err) {
				if f.degrade(s) {
					continue
				}
				f.failed = err
			}
			return err
		}
		for _, r := range ex {
			f.ms.offer(r)
		}
	}
	f.needGrow = false
	return nil
}

// close releases every shard, all at once: a close is a round trip, and
// the caller waits for the slowest. It returns the first error. Closing
// twice is a no-op.
func (f *fanout) close() error {
	var g pool.Group
	for _, sh := range f.shards {
		if sh != nil {
			g.Go(sh.close)
		}
	}
	f.shards = nil
	return g.Wait()
}

func ctxResumable(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

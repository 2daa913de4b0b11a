package core

// Structured per-query tracing. A Trace hook observes the engine's
// decision sequence as typed span events — where a query spent its budget:
// BFS waves, DRC probes, forced examinations, bound movement, cache
// lookups — without being able to influence it (tracing is
// observation-only; the sharded/single equivalence suite runs with
// tracing enabled to hold that line).
//
// The hook is invoked sequentially from the goroutine running the query,
// so a per-query hook needs no synchronization (same contract as
// Progressive).
// The sharded engine forwards per-shard events to the caller's hook under
// its own lock, stamping TraceEvent.Shard, so a hook passed to a sharded
// query is also invoked sequentially.
//
// Uninstrumented queries pay one nil-check branch per would-be event; see
// BenchmarkTrace and the crbench "telemetry" experiment for the measured
// overhead.

import (
	"math"
	"time"

	"conceptrank/internal/corpus"
)

// TraceKind enumerates the span event types a Trace hook can observe.
type TraceKind uint8

const (
	// TraceWaveStart opens one BFS depth-level expansion. Wave and Depth
	// are set; N is the pending queue length.
	TraceWaveStart TraceKind = iota
	// TraceWaveEnd closes the expansion opened by the matching
	// TraceWaveStart. N is the number of BFS states popped in the wave.
	TraceWaveEnd
	// TraceForcedExam marks a traversal pause forced by Options.QueueLimit:
	// the collected candidates are examined regardless of ErrorThreshold.
	// N is the pending queue length at the pause.
	TraceForcedExam
	// TraceDRCProbe marks one exact-distance examination. Doc and Value
	// (the exact distance) are set; N is 1 when DRC or the measure ran and 0
	// when the fully-covered shortcut reused the accumulated partial sum.
	TraceDRCProbe
	// TraceBound reports the query's termination floor d⁻ after a wave
	// (Value). It is monotonically non-decreasing across waves.
	TraceBound
	// TraceTerminate is the terminal event of a successfully completed
	// query. Value is ε_d, the termination slack recorded in
	// Metrics.TerminalEps; N is the result count. Cancelled or failed
	// queries emit no terminal event.
	TraceTerminate
	// TraceCacheHit is emitted during the plan stage for each query
	// concept whose Ddc seed vector was served from the engine's cache
	// (including incrementally refreshed stale entries). N is the concept
	// ID; Value the vector length.
	TraceCacheHit
	// TraceCacheMiss is emitted for each query concept whose seed vector
	// had to be built (and was then stored). N is the concept ID; Value
	// the vector length.
	TraceCacheMiss
)

// String names the kind for logs and /debug/slowlog output.
func (k TraceKind) String() string {
	switch k {
	case TraceWaveStart:
		return "WaveStart"
	case TraceWaveEnd:
		return "WaveEnd"
	case TraceForcedExam:
		return "ForcedExam"
	case TraceDRCProbe:
		return "DRCProbe"
	case TraceBound:
		return "Bound"
	case TraceTerminate:
		return "Terminate"
	case TraceCacheHit:
		return "CacheHit"
	case TraceCacheMiss:
		return "CacheMiss"
	}
	return "TraceKind(?)"
}

// TraceEvent is one typed span event. Only the fields documented for the
// event's Kind are meaningful; the rest are zero.
type TraceEvent struct {
	Kind TraceKind
	// At is the monotonic offset since the query started (Go's time.Since
	// uses the monotonic clock, so At is unaffected by wall-clock jumps).
	At time.Duration
	// Wave is the BFS wave index (WaveStart, WaveEnd, Bound).
	Wave int
	// Depth is the BFS depth level being expanded (WaveStart, WaveEnd).
	Depth int
	// Doc is the examined document (DRCProbe).
	Doc corpus.DocID
	// Value is kind-specific: exact distance (DRCProbe), d⁻ (Bound), ε_d
	// (Terminate).
	Value float64
	// N is kind-specific: pending queue length (WaveStart, ForcedExam),
	// states popped (WaveEnd), DRC-ran flag (DRCProbe), result count
	// (Terminate).
	N int
	// Shard is the shard the event originated from, stamped by the sharded
	// engine when forwarding; -1 for events from an unsharded query.
	Shard int
}

// TraceFunc receives span events; install one with Options.Trace.
type TraceFunc func(TraceEvent)

// tracer stamps and delivers events for one query. The zero fn makes
// every emit a single predictable branch — the whole hot-path cost of an
// uninstrumented query.
type tracer struct {
	fn    TraceFunc
	start time.Time
}

func newTracer(fn TraceFunc) tracer {
	if fn == nil {
		return tracer{}
	}
	return tracer{fn: fn, start: time.Now()}
}

func (t *tracer) enabled() bool { return t.fn != nil }

// emit stamps At and Shard and delivers ev; no-op without a hook.
func (t *tracer) emit(ev TraceEvent) {
	if t.fn == nil {
		return
	}
	ev.At = time.Since(t.start)
	ev.Shard = -1
	t.fn(ev)
}

// terminalEps computes ε_d, the termination slack recorded in
// Metrics.TerminalEps and the TraceTerminate event: 1 - kth/d⁻, the Eq. 9
// error form applied to the whole query at its stopping point. 0 means no
// slack was needed (k never filled, or d⁻ barely cleared the k-th
// distance); 1 means traversal exhausted with unbounded margin (d⁻ = +Inf).
func terminalEps(kth, dMinus float64) float64 {
	if math.IsInf(kth, 1) {
		return 0 // fewer than k results: the heap never filled
	}
	if math.IsInf(dMinus, 1) {
		return 1
	}
	if dMinus <= 0 {
		return 0
	}
	eps := 1 - kth/dMinus
	if eps < 0 {
		return 0
	}
	return eps
}

// Package core implements kNDS (k-Nearest Document Search), the
// early-termination top-k algorithm of Section 5 of Arvanitis et al.
// (EDBT 2014), for both query types:
//
//   - RDS (Relevant Document Search): top-k documents by the
//     document-query distance Ddq (Eq. 2), and
//   - SDS (Similar Document Search): top-k documents by the symmetric
//     document-document distance Ddd (Eq. 3).
//
// kNDS runs parallel breadth-first traversals of the ontology starting from
// each query concept, restricted to valid (up* down*) paths. Documents
// containing visited concepts accumulate partial distances (Eqs. 5, 7) and
// lower bounds (Eqs. 6, 8). A candidate is "examined" — its exact distance
// computed with DRC — only when its error estimate ε = 1 - partial/lower
// (Eq. 9) drops to the configured threshold, balancing traversal cost
// against distance-calculation cost. A bounded min-heap of exact distances
// plus the smallest outstanding lower bound give the paper's
// early-termination condition.
//
// All four optimizations listed at the end of Section 5.3 are implemented:
// lower-bound pruning against the k-th distance, partial sorting of the
// candidate list, reusing the accumulated distance when every query concept
// is covered (skipping DRC), and progressive result emission.
//
// The algorithm runs as a staged pipeline — plan, wave stepper, bound
// table, examination policy, collector — driven by a steppable executor
// (pipeline.go). RDSContext/SDSContext run the executor to termination;
// the Cursor API (cursor.go) exposes the same executor incrementally, with
// resumable pagination and GrowK. Each shard node (internal/cluster)
// runs one of these engines. The engine is safe for concurrent queries, so
// many queries at once are as many goroutines calling RDSContext or
// SDSContext.
package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"conceptrank/internal/cache"
	"conceptrank/internal/corpus"
	"conceptrank/internal/drc"
	"conceptrank/internal/index"
	"conceptrank/internal/measure"
	"conceptrank/internal/ontology"
	"conceptrank/internal/store"
)

// Result is one ranked document.
type Result struct {
	Doc      corpus.DocID
	Distance float64
}

// Options configures a kNDS run. Zero values select the paper's defaults
// via Normalize.
type Options struct {
	// K is the number of results (paper default 10).
	K int
	// ErrorThreshold is ε_θ of Eq. 9. 0 waits until a document covers
	// every query node before examining it; 1 examines a document on first
	// contact. The paper's tuned defaults are 0.5 (PATIENT) and 0.9
	// (RADIO).
	ErrorThreshold float64
	// QueueLimit bounds the pending BFS queue (paper default 50,000).
	// When reached, traversal halts and the collected candidates are
	// examined regardless of ErrorThreshold; traversal then resumes, which
	// (unlike the paper's implementation) preserves exactness. <= 0 means
	// unlimited. The queue holds live states only — the traversal never
	// descends into a subtree without a document concept — so the limit
	// is reached later than over the paper's unpruned queue.
	QueueLimit int
	// NoDedup disables the dedup of BFS states per (origin, node, phase).
	// The paper avoids the bookkeeping and revisits nodes; set true to
	// reproduce that behaviour (ablation). Inverted so that the zero value
	// of Options means "dedup on".
	NoDedup bool
	// NoSkipWhenCovered disables optimization 3 (reuse the accumulated
	// distance instead of calling DRC when all query nodes are covered).
	// A cached RDS query ignores it: its distances come from seed vectors,
	// never from DRC (see Engine.EnableCache).
	NoSkipWhenCovered bool
	// Workers > 1 partitions a full scan (FullScanRDSContext/SDSContext)
	// across that many goroutines, with results identical to one
	// partition; 0 and 1 scan in one partition. kNDS does
	// not read it: every prune / examine / stop decision depends on the
	// evolving k-th distance, so a query is one serial loop (DESIGN.md,
	// "Why kNDS is serial"). Nor do a cached query's seed builds, which
	// run on up to GOMAXPROCS goroutines whatever Workers says (see
	// Engine.EnableCache). Negative values are rejected with
	// ErrNegativeWorkers at every entry point.
	Workers int
	// Progressive, when non-nil, receives results as soon as they are
	// provably part of the top-k (optimization 4), before the run ends.
	// Progressive is always invoked sequentially from the goroutine running
	// the query, so a per-query callback needs no synchronization. (A
	// callback shared across concurrently running queries must still
	// synchronize its own state.)
	Progressive func(Result)
	// OnWave, when non-nil, receives a snapshot after every BFS wave —
	// observation-only instrumentation for debugging, the benchmark's
	// per-layer replays and the golden tests that replay the paper's
	// Example 3/4 iterations. The snapshot's slices are only valid during
	// the callback. It is not free: every wave builds the visited list and,
	// under Rada, a CoveredDist map over every discovered unexamined
	// document. A no-op hook takes BenchmarkTrace's query from 80 to 176
	// µs, about 19 µs a wave over its 5 waves (2-core box), so no serving
	// path installs it; a caller that needs to bound or stop a query steps
	// a Cursor (Cursor.Step) instead.
	OnWave func(WaveInfo)
	// Measure selects the semantic distance measure (internal/measure).
	// nil keeps the paper's Rada shortest-valid-path distance, examined
	// with DRC; a non-nil measure ranks under the measure over the same
	// bound table, its exact distances evaluated from per-origin valid-
	// path vectors (or measure seed vectors served from the engine's
	// cache) instead of
	// DRC. measure.Rada() computes the identical distance as a measure —
	// the equivalence grids pin the two bit for bit. A measure must honor
	// the contract documented in internal/measure; the kNDS bounds (and
	// thus result exactness) depend on it. Optimization 3 does not apply
	// under a measure — a first contact is the nearest *path*, not
	// necessarily the smallest measure value, so exact distances are
	// always recomputed at examination.
	Measure measure.Measure
	// Trace, when non-nil, receives typed span events (see TraceKind) with
	// monotonic timestamps: WaveStart/WaveEnd around each BFS depth level,
	// DRCProbe per exact-distance examination, ForcedExam on queue-limit
	// pauses, Bound after each wave, and a Terminate event whose ε_d equals
	// the returned Metrics.TerminalEps. Tracing is observation-only —
	// results, pruning and every counter are identical with and without a
	// hook — and, like Progressive, the hook is invoked sequentially from
	// the goroutine running the query. A nil Trace costs one branch per
	// would-be event.
	Trace TraceFunc
}

// WaveInfo is the per-wave traversal snapshot delivered to Options.OnWave.
type WaveInfo struct {
	// Depth of the BFS level just expanded (0 = the query nodes).
	Depth int
	// Visited lists the (node, origin index) states popped in this wave:
	// every ascent, but only descents into concepts at or above some
	// document concept (the paper's BFS, Example 3, also descends into
	// document-free subtrees).
	Visited []VisitedNode
	// CoveredDist reports, per discovered unexamined document, the
	// per-origin path lengths found so far (-1 = origin not covered yet).
	// It is nil under a Measure, whose per-origin values are measure
	// minima, not path lengths.
	CoveredDist map[corpus.DocID][]int32
}

// VisitedNode is one BFS state pop.
type VisitedNode struct {
	Node   ontology.ConceptID
	Origin int // index into the (deduplicated) query
}

// Normalize fills in defaults. A negative Workers value is left in place
// and rejected by queries with ErrNegativeWorkers (Normalize has no error
// path, and silently clamping would mask caller bugs).
func (o Options) Normalize() Options {
	if o.K <= 0 {
		o.K = 10
	}
	if o.QueueLimit == 0 {
		o.QueueLimit = 50_000
	}
	return o
}

// Metrics reports where a query spent its time, matching the stacked
// components of the paper's Figures 7-9 (distance calculation, ontology
// traversal, I/O). For a Cursor, times and counters accumulate across
// every run segment of the query's lifetime.
type Metrics struct {
	TraversalTime time.Duration // BFS expansion, bound maintenance
	DistanceTime  time.Duration // DRC or measure exact distance computations
	// IOTime is the index access time attributed to this query. It is
	// always zero for in-memory stores: only the disk-backed indexes share
	// a store.IOStats with the engine (see NewEngine), so memory-resident
	// lookups have nothing to attribute.
	IOTime    time.Duration
	TotalTime time.Duration

	Iterations     int   // BFS waves completed
	NodesVisited   int64 // BFS states popped (descents only into concepts at or above a document concept)
	DocsDiscovered int   // documents that entered the candidate list
	DocsExamined   int   // documents whose exact distance was computed
	DRCCalls       int   // exact distance computations that ran DRC or a measure
	ForcedExams    int   // examination phases forced by the queue limit
	ResultCount    int

	// CacheHits / CacheMisses count the plan stage's seed-vector lookups
	// against the engine's cache (EnableCache): one per deduplicated RDS
	// query concept. A
	// stale entry that was refreshed incrementally counts as a hit (the
	// bulk of the vector was reused); a miss builds and stores the vector.
	// Both are zero when no cache is attached and for SDS queries.
	CacheHits   int
	CacheMisses int

	// Stages is the per-stage breakdown: wall time per pipeline stage
	// (plan, seed, wave, bound, exam, collect, merge) for every query.
	// Stage times are recorded from the same clock readings as the
	// component times above, so attribution costs a few additions per
	// wave; full scans report everything under StageExam.
	Stages StageStats

	// TerminalEps is ε_d at termination: 1 - kth/d⁻, the Eq. 9 error form
	// applied to the whole query at its stopping point. 0 means no slack
	// (the heap never filled, or d⁻ barely cleared the k-th distance);
	// 1 means traversal exhausted with unbounded margin. Full scans report
	// 0 (they compute every distance exactly). The same value rides on the
	// TraceTerminate span event.
	TerminalEps float64
}

// ExaminedPrecision returns |top-k| / examined — the fraction of examined
// documents that made it into the results (Section 6.2 reports 99% for RDS
// on PATIENT and >60% for SDS).
func (m *Metrics) ExaminedPrecision() float64 {
	if m.DocsExamined == 0 {
		return 0
	}
	return float64(m.ResultCount) / float64(m.DocsExamined)
}

// Engine evaluates RDS and SDS queries against one indexed collection.
// An Engine is safe for concurrent queries as long as the underlying
// indexes are (both provided implementations are).
type Engine struct {
	o       *ontology.Ontology
	inv     index.Inverted
	fwd     index.Forward
	numDocs func() int
	io      *store.IOStats // optional: shared with disk indexes for I/O attribution
	// addrCache memoizes Dewey address enumeration across queries, and
	// runs keeps each probed document's sorted address run (positions in
	// those lists) across queries; both are concurrency-safe and capped.
	addrCache *drc.AddressCache
	runs      *drc.RunStore
	// cache is the semantic-distance cache installed by EnableCache (nil:
	// none), and cacheID is this engine's identity in it: seed vectors
	// describe one corpus, so every engine — including each shard of a
	// sharded engine — keys its entries under a distinct ID.
	cache   *cache.Cache
	cacheID uint64
	// vocab is the vocabulary ancestor index seed vectors are built from,
	// grown lazily by the first seed that needs it, and the live set wave
	// steppers prune with, grown where a stepper is made (vocab.go).
	vocab vocabState
	// arenas recycles per-query arena memory (see arena.go). Each shard of
	// a sharded engine is its own Engine, so arenas never cross shards.
	// The pool is allocated apart from the Engine: the runtime lists every
	// used pool until two GC cycles after its last use, and an embedded
	// pool would keep a dropped engine — and the cache it holds — alive
	// that long.
	arenas *sync.Pool
	// seedWorkers caps the goroutines one batch of seed builds runs on
	// (resolveSeeds); 0 means GOMAXPROCS. Tests pin it.
	seedWorkers int
}

// NewEngine assembles an engine over a fixed-size collection. io may be
// nil; pass the IOStats shared with disk-backed indexes to have
// Metrics.IOTime attributed per query.
func NewEngine(o *ontology.Ontology, inv index.Inverted, fwd index.Forward, numDocs int, io *store.IOStats) *Engine {
	return NewEngineDynamic(o, inv, fwd, func() int { return numDocs }, io)
}

// NewEngineDynamic assembles an engine whose collection may grow between
// queries (the paper's on-the-fly document integration: kNDS needs no
// distance precomputation, so a freshly indexed EMR is searchable
// immediately). numDocs is sampled once per query.
func NewEngineDynamic(o *ontology.Ontology, inv index.Inverted, fwd index.Forward, numDocs func() int, io *store.IOStats) *Engine {
	e := &Engine{o: o, inv: inv, fwd: fwd, numDocs: numDocs, io: io,
		addrCache: drc.NewAddressCache(o, 0, 0),
		runs:      drc.NewRunStore(),
		cacheID:   nextCacheID.Add(1),
		arenas:    new(sync.Pool)}
	e.vocab.live = make([]atomic.Uint64, (o.NumConcepts()+63)/64)
	return e
}

// EnableCache attaches the shared semantic-distance cache to the engine's
// plan stage, for every later RDS query, cursor, RDS full scan and pair
// join: each RDS query concept's Ddc seed vector (Eq. 1 to every document)
// is served from the cache, refreshed incrementally when the corpus grew
// past the vector's generation, or built and stored on a miss. The
// vectors one query refreshes or builds are independent, so they are
// extended on up to GOMAXPROCS goroutines, the caller's among them, and
// stored and counted in concept order once all are done; a query with
// at most one to build spawns nothing. The
// vectors hold the exact distances the traversal would have accumulated,
// so a cached query folds them into one exact distance per document and
// runs no traversal at all; rankings are bitwise identical to an
// uncached query (see DESIGN.md, "Distance caching"). Having no
// traversal, a cached RDS query ignores the traversal knobs —
// ErrorThreshold, QueueLimit, NoDedup, NoSkipWhenCovered and OnWave — as
// the seeded full scan does. One cache may back any number of engines;
// entries are keyed per engine. SDS queries ignore the cache: the symmetric distance needs
// per-document concept coverage (M'd of Eq. 7) that a seed vector does
// not carry. Pass nil to detach. Not safe to call concurrently with
// queries.
func (e *Engine) EnableCache(c *cache.Cache) { e.cache = c }

// ErrEmptyQuery is returned for queries with no concepts.
var ErrEmptyQuery = errors.New("core: query has no concepts")

// ErrNegativeWorkers is returned when Options.Workers or
// PairOptions.Workers is negative.
var ErrNegativeWorkers = errors.New("core: Workers must be >= 0")

// RDSContext returns the k documents most relevant to the query concepts
// (Definition 1), ordered by ascending Ddq. Cancellation is observed at
// wave boundaries (once per BFS depth level); a cancelled query returns
// ctx.Err() with nil results and the metrics accumulated so far.
// RDSContext is exactly OpenRDS + Cursor.Run + Close: one pass of the
// staged pipeline over the same executor the cursor exposes stepwise.
func (e *Engine) RDSContext(ctx context.Context, q []ontology.ConceptID, opts Options) ([]Result, *Metrics, error) {
	return e.runQuery(ctx, false, q, opts)
}

// SDSContext returns the k documents most similar to the query document's
// concept set (Definition 2), ordered by ascending Ddd; see RDSContext for
// the cancellation contract.
func (e *Engine) SDSContext(ctx context.Context, queryDoc []ontology.ConceptID, opts Options) ([]Result, *Metrics, error) {
	return e.runQuery(ctx, true, queryDoc, opts)
}

func (e *Engine) runQuery(ctx context.Context, sds bool, q []ontology.ConceptID, opts Options) ([]Result, *Metrics, error) {
	x, m, err := e.newExecutor(sds, q, opts.Normalize())
	if err != nil {
		return nil, m, err
	}
	defer x.close()
	if _, err := x.run(ctx, 0, nil); err != nil {
		return nil, m, err
	}
	return x.results, m, nil
}

func (e *Engine) ioSnapshot() time.Duration {
	if e.io == nil {
		return 0
	}
	return e.io.Time()
}

// beginQuery starts the wall-clock / I/O attribution shared by every
// pipeline segment and full-scan entry point: it snapshots the engine's
// cumulative I/O time, and the returned func — deferred by the caller —
// accumulates the segment's deltas into Metrics.TotalTime and
// Metrics.IOTime. Accumulation (rather than overwrite) is what lets a
// Cursor's metrics span its open/run/grow segments without counting the
// caller's think time in between. IOTime is zero for in-memory stores,
// which share no store.IOStats with the engine.
func (e *Engine) beginQuery(m *Metrics) func() {
	start := time.Now()
	ioStart := e.ioSnapshot()
	return func() {
		m.TotalTime += time.Since(start)
		m.IOTime += e.ioSnapshot() - ioStart
	}
}

// QueryConcepts is the one query check behind every entry point — the
// kNDS plan, the full scans, and the sharded and distributed fan-outs: it
// drops repeated concepts (first occurrence wins) and rejects an empty
// query with ErrEmptyQuery and a concept outside the ontology's
// [0, numConcepts) with an error naming it.
func QueryConcepts(raw []ontology.ConceptID, numConcepts int) ([]ontology.ConceptID, error) {
	q := dedupConcepts(raw)
	if len(q) == 0 {
		return nil, ErrEmptyQuery
	}
	for _, c := range q {
		if int(c) >= numConcepts {
			return nil, fmt.Errorf("core: query concept %d outside ontology", c)
		}
	}
	return q, nil
}

func dedupConcepts(in []ontology.ConceptID) []ontology.ConceptID {
	seen := make(map[ontology.ConceptID]struct{}, len(in))
	out := make([]ontology.ConceptID, 0, len(in))
	for _, c := range in {
		if _, ok := seen[c]; !ok {
			seen[c] = struct{}{}
			out = append(out, c)
		}
	}
	return out
}

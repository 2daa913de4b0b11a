// Package shard partitions a document collection across N independent kNDS
// engines and fans each query out to all shards concurrently, merging the
// per-shard top-k heaps into a global top-k that is bitwise identical to
// running a single engine over the union collection.
//
// The equivalence rests on two invariants (proof sketch in DESIGN.md,
// "Sharded execution"):
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
//
// Shards additionally propagate progress to each other: every shard
// reports its termination floor d⁻ after each wave (Options.OnBound), and
// a shard whose floor exceeds the merged heap's k-th distance is cancelled
// via its context — everything it could still produce is provably outside
// the global top-k, so cancellation never changes the answer, only saves
// work. Metrics report the merged totals, the per-shard breakdown, and how
// many shards the bound cancelled.
package shard

import (
	"context"
	"fmt"

	"conceptrank/internal/cache"
	"conceptrank/internal/core"
	"conceptrank/internal/corpus"
	"conceptrank/internal/index"
	"conceptrank/internal/ontology"
)

// Config parameterizes a sharded engine.
type Config struct {
	// Shards is the number of partitions (>= 1).
	Shards int
}

func (c Config) validate() error {
	if c.Shards < 1 {
		return fmt.Errorf("shard: Shards must be >= 1, got %d", c.Shards)
	}
	return nil
}

// Metrics describes one sharded query.
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
	// Degraded lists shards abandoned mid-query by a partial-results
	// policy (shard order). In-process engines never degrade — a shard
	// failure fails the query — so this is non-nil only for fan-outs with
	// such a policy, e.g. the distributed coordinator when a node dies
	// past its deadline. A degraded ranking is exact over the surviving
	// shards' union but may miss documents owned by the lost shards.
	Degraded []int
}

// Engine fans kNDS queries out over N per-shard core engines and merges
// their top-k results. It is safe for concurrent queries. Construct with
// New.
type Engine struct {
	o      *ontology.Ontology
	shards []*core.Engine
	maps   [][]corpus.DocID // per shard: local DocID → global DocID
}

// Partition splits coll into cfg.Shards sub-collections, document i to
// shard i mod cfg.Shards, and returns them together with the per-shard
// local→global DocID maps. Documents are assigned in ascending DocID
// order, so every returned map is strictly increasing.
func Partition(coll *corpus.Collection, cfg Config) ([]*corpus.Collection, [][]corpus.DocID, error) {
	if err := cfg.validate(); err != nil {
		return nil, nil, err
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

// New builds an in-memory sharded engine over coll. A document concept
// outside o fails it, naming the document.
func New(o *ontology.Ontology, coll *corpus.Collection, cfg Config) (*Engine, error) {
	if err := coll.CheckOntology(o.NumConcepts()); err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	colls, maps, err := Partition(coll, cfg)
	if err != nil {
		return nil, err
	}
	e := &Engine{o: o, maps: maps}
	for _, c := range colls {
		e.shards = append(e.shards,
			core.NewEngine(o, index.BuildMemInverted(c), index.BuildMemForward(c), c.NumDocs(), nil))
	}
	return e, nil
}

// NumShards returns the number of partitions.
func (e *Engine) NumShards() int { return len(e.shards) }

// NumDocs returns the total number of documents across all shards.
func (e *Engine) NumDocs() int {
	n := 0
	for _, m := range e.maps {
		n += len(m)
	}
	return n
}

// Close is a no-op, since every shard is in memory; callers may release a
// sharded engine the same way as a disk-backed single engine.
func (e *Engine) Close() error { return nil }

// enableCache attaches c to every shard (core.Engine.EnableCache): each
// shard keys its entries under its own engine identity, so one cache
// serves them all without mixing corpora. The cached≡cold grid's hook;
// not safe to call concurrently with queries.
func (e *Engine) enableCache(c *cache.Cache) {
	for _, sh := range e.shards {
		sh.EnableCache(c)
	}
}

// RDSContext answers a relevant-document query across all shards; results
// are identical to a single engine over the union collection. Cancellation
// propagates to every shard and is observed at their wave boundaries.
func (e *Engine) RDSContext(ctx context.Context, q []ontology.ConceptID, opts core.Options) ([]core.Result, *Metrics, error) {
	return e.query(ctx, false, q, opts)
}

// SDSContext answers a similar-document query across all shards; see
// RDSContext.
func (e *Engine) SDSContext(ctx context.Context, queryDoc []ontology.ConceptID, opts core.Options) ([]core.Result, *Metrics, error) {
	return e.query(ctx, true, queryDoc, opts)
}

// query fans one kNDS query out to every shard and merges the results:
// exactly Open + Cursor.Run + Close over the shared staged pipeline.
//
// Per-query callbacks in opts (Progressive, OnWave, OnBound) are owned by
// the sharded engine — it installs its own merge and bound-propagation
// hooks per shard — so caller-provided values are ignored. Options.Trace
// is the exception: per-shard span events are forwarded to the caller's
// hook under a lock with TraceEvent.Shard stamped, so the hook is still
// invoked sequentially and needs no synchronization of its own. A
// forwarded event's At is relative to its own shard's query start. Each
// shard's query is one serial kNDS loop; the fan-out is the only
// parallelism.
func (e *Engine) query(ctx context.Context, sds bool, rawQuery []ontology.ConceptID, opts core.Options) ([]core.Result, *Metrics, error) {
	cur, err := e.open(sds, rawQuery, opts)
	if err != nil {
		return nil, &Metrics{PerShard: make([]core.Metrics, len(e.shards))}, err
	}
	defer cur.Close()
	return cur.Run(ctx)
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

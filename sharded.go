package conceptrank

import (
	"context"

	"conceptrank/internal/shard"
)

// Sharded execution: the collection is partitioned round-robin across N
// per-shard kNDS engines, every query fans out to all shards
// concurrently, and the per-shard top-k heaps merge into a global top-k
// that is bitwise identical to a single Engine over the union collection
// — same documents, same distances, same tie-breaks, for every shard
// count. Shards propagate progress to each other: one whose outstanding
// lower bound passes the merged k-th distance is cancelled early. See
// DESIGN.md, "Sharded execution", for the placement invariant and the
// merge proof sketch.

// ShardConfig parameterizes a sharded engine: the number of shards
// (>= 1); document i goes to shard i mod Shards.
type ShardConfig = shard.Config

// ShardedMetrics describes one sharded query: merged totals, the
// per-shard breakdown, and how many shards the cross-shard bound
// cancelled early.
type ShardedMetrics = shard.Metrics

// ShardedEngine answers RDS queries over a partitioned collection. It is
// safe for concurrent queries. Results are identical to a single Engine
// over the union collection. Serving does not shard this way — each
// shard repeats the BFS over the whole ontology, so two shards cost more
// than one engine; crserve shards across processes with
// -node/-coordinator. ShardedEngine is the in-process equivalence oracle
// and a rung of the benchmark ladder.
type ShardedEngine struct {
	inner *shard.Engine
}

// NewShardedEngine partitions coll per cfg and indexes every shard in
// memory. A document concept outside o fails it, naming the document.
func NewShardedEngine(o *Ontology, coll *Collection, cfg ShardConfig) (*ShardedEngine, error) {
	inner, err := shard.New(o, coll, cfg)
	if err != nil {
		return nil, err
	}
	return &ShardedEngine{inner: inner}, nil
}

// NumShards returns the number of partitions.
func (e *ShardedEngine) NumShards() int { return e.inner.NumShards() }

// NumDocs returns the total number of documents across all shards.
func (e *ShardedEngine) NumDocs() int { return e.inner.NumDocs() }

// Close is a no-op, since every shard is in memory; callers may release
// a ShardedEngine the same way as a disk-backed Engine.
func (e *ShardedEngine) Close() error { return e.inner.Close() }

// RDSContext returns the k documents most relevant to the query concepts,
// searched across all shards concurrently (each shard's query is one
// serial kNDS loop). Progressive, OnWave and OnBound are used internally
// by the merge and are ignored; Options.Trace is honored — per-shard span
// events are forwarded to it sequentially with TraceEvent.Shard stamped.
// Cancellation propagates to every shard and is observed at their wave
// boundaries.
func (e *ShardedEngine) RDSContext(ctx context.Context, query []ConceptID, opts Options) ([]Result, *ShardedMetrics, error) {
	return e.inner.RDSContext(ctx, query, opts)
}

package conceptrank

import (
	"context"

	"conceptrank/internal/shard"
)

// Sharded execution: the collection is partitioned across N per-shard kNDS
// engines, every query fans out to all shards concurrently, and the
// per-shard top-k heaps merge into a global top-k that is bitwise
// identical to a single Engine over the union collection — same documents,
// same distances, same tie-breaks, for every shard count and placement
// policy. Shards propagate progress to each other: one whose outstanding
// lower bound passes the merged k-th distance is cancelled early. See
// DESIGN.md, "Sharded execution", for the placement invariants and the
// merge proof sketch.

// ShardPlacement selects how documents are distributed across shards.
type ShardPlacement = shard.Placement

// Shard placement policies.
const (
	// RoundRobinPlacement assigns document i to shard i mod N.
	RoundRobinPlacement = shard.RoundRobin
	// SizeBalancedPlacement assigns each document to the shard with the
	// smallest total concept count so far.
	SizeBalancedPlacement = shard.SizeBalanced
)

// ParseShardPlacement resolves a placement name ("round-robin" or
// "size-balanced"), for CLI flags and configuration files.
func ParseShardPlacement(s string) (ShardPlacement, error) { return shard.ParsePlacement(s) }

// ShardConfig parameterizes a sharded engine: the number of shards (>= 1)
// and the placement policy.
type ShardConfig = shard.Config

// ShardedMetrics describes one sharded query: merged totals, the
// per-shard breakdown, and how many shards the cross-shard bound
// cancelled early.
type ShardedMetrics = shard.Metrics

// ShardedEngine answers RDS queries and the pair join over a partitioned
// collection. It is safe for concurrent queries. Results are identical to a
// single Engine over the union collection. Serving does not shard this
// way — each shard repeats the BFS over the whole ontology, so two shards
// cost more than one engine; crserve shards across processes with
// -node/-coordinator. ShardedEngine is the in-process equivalence oracle,
// a rung of the benchmark ladder, and the block-partitioned pair join.
type ShardedEngine struct {
	inner *shard.Engine
}

// NewShardedEngine partitions coll per cfg and indexes every shard in
// memory.
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

// EnableCache attaches a semantic-distance cache to every shard: later
// RDS queries and pair joins resolve their seed vectors through c, with
// rankings bitwise identical to an uncached engine. Pass nil to detach.
// Not safe to call concurrently with queries.
func (e *ShardedEngine) EnableCache(c *Cache) { e.inner.EnableCache(c) }

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

// TopKPairs returns the k lowest-Ddd document pairs across the whole
// partitioned collection: each shard's documents form one block of a
// bounded all-pairs join, the intra- and cross-block tasks fan out
// concurrently (PairOptions.Workers wide), and every task prunes against
// the shared global k-th-best threshold, which also cancels tasks with
// provably nothing left to contribute. Results are bitwise identical to
// a single Engine's TopKPairs over the union collection. A cache installed
// with EnableCache serves every shard's seed vectors.
func (e *ShardedEngine) TopKPairs(ctx context.Context, opts PairOptions) ([]PairResult, *PairMetrics, error) {
	return e.inner.TopKPairs(ctx, opts)
}

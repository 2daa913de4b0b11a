package conceptrank

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"conceptrank/internal/cluster"
)

// Sharded execution: the collection is partitioned round-robin across N
// shard nodes, every query fans out to all of them concurrently, and the
// per-shard top-k heaps merge into a global top-k that is bitwise
// identical to a single Engine over the union collection — same
// documents, same distances, same tie-breaks, for every shard count.
// Shards propagate progress to each other: one whose outstanding lower
// bound passes the merged k-th distance is cancelled early. See
// DESIGN.md, "Sharded execution", for the placement invariant and the
// merge proof sketch.

// ShardConfig parameterizes a sharded engine: the number of shards
// (>= 1); document i goes to shard i mod Shards.
type ShardConfig = cluster.ShardConfig

// ShardedMetrics describes one sharded query: merged totals, the
// per-shard breakdown, and how many shards the cross-shard bound
// cancelled early.
type ShardedMetrics = cluster.Metrics

// ShardedEngine is the distributed tier in one process: one ClusterNode
// per shard and a Coordinator that reaches them through an in-memory
// transport — the real node handlers and wire frames, with no sockets. It
// is safe for concurrent queries, and its results are identical to a
// single Engine over the union collection. It is the in-process
// equivalence oracle and a rung of the benchmark ladder; serving shards
// across processes with crserve -node/-coordinator. Being the fleet, it
// answers as the fleet does:
//   - Options.Trace receives no span events, since nodes do not carry it;
//   - k is at most 10 000 and an RDS query at most 1 024 concepts, the
//     node's ceilings;
//   - a query that sets Options.Measure is refused, since a measure
//     cannot cross the wire and the nodes rank under Rada only.
type ShardedEngine struct {
	nodes []*cluster.Node
	coord *cluster.Coordinator
}

// NewShardedEngine partitions coll per cfg and starts one in-memory node
// per shard. A document concept outside o fails it, naming the document.
func NewShardedEngine(o *Ontology, coll *Collection, cfg ShardConfig) (*ShardedEngine, error) {
	if err := coll.CheckOntology(o.NumConcepts()); err != nil {
		return nil, fmt.Errorf("conceptrank: NewShardedEngine: %w", err)
	}
	colls, maps, err := cluster.Partition(coll, cfg)
	if err != nil {
		return nil, err
	}
	e := &ShardedEngine{}
	mem := cluster.MemTransport{}
	var peers [][]string
	for s := range colls {
		n, err := cluster.NewNode(cluster.NodeConfig{Ontology: o, Coll: colls[s], DocMap: maps[s]})
		if err != nil {
			_ = e.Close()
			return nil, err
		}
		e.nodes = append(e.nodes, n)
		host := "shard" + strconv.Itoa(s)
		mem[host] = n.Handler()
		peers = append(peers, []string{"http://" + host})
	}
	// The info probe is served in memory, so it needs no deadline.
	e.coord, err = cluster.NewCoordinator(context.TODO(), cluster.CoordinatorConfig{
		Peers:      peers,
		HTTPClient: &http.Client{Transport: mem},
	})
	if err != nil {
		_ = e.Close()
		return nil, err
	}
	return e, nil
}

// Close closes every node, which stops its cursor sweeper and releases
// its parked cursors.
func (e *ShardedEngine) Close() error {
	var errs []error
	for _, n := range e.nodes {
		errs = append(errs, n.Close())
	}
	return errors.Join(errs...)
}

// RDSContext returns the k documents most relevant to the query concepts,
// searched across all shards concurrently. Progressive and OnWave do not
// cross to the nodes and are ignored: each node installs its own
// Progressive to ship offers to the merge. Cancellation propagates to
// every shard and is observed at their wave boundaries.
func (e *ShardedEngine) RDSContext(ctx context.Context, query []ConceptID, opts Options) ([]Result, *ShardedMetrics, error) {
	return e.coord.RDS(ctx, query, opts)
}

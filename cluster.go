package conceptrank

import (
	"context"
	"net/http"

	"conceptrank/internal/cluster"
)

// Distributed serving: the collection's shards run as standalone node
// processes and a coordinator fans queries out to them over a versioned
// HTTP protocol of binary frames, merging through the canonical top-k
// heap — so distributed results are bitwise identical to single-engine
// results. ShardedEngine is the same coordinator and nodes in one
// process, over an in-memory transport. The coordinator carries
// the cross-shard cancellation bound on every cursor step, hedges
// stateless calls across replicas, sheds load per tenant, and can degrade
// to partial flagged results when nodes die. See DESIGN.md, "Distributed
// serving".

// ErrClusterOverloaded is returned when admission control sheds a query.
var ErrClusterOverloaded = cluster.ErrOverloaded

// ClusterRPCPrefix is the URL prefix of the versioned node RPC protocol;
// mount ClusterNode.Handler at "/" or route this subtree to it.
const ClusterRPCPrefix = cluster.PathPrefix

type (
	// ClusterNode is a shard node: a thin HTTP server around one engine
	// shard that plans queries, parks their cursors behind TTL'd tokens,
	// and executes bounded step segments on the coordinator's demand.
	ClusterNode = cluster.Node

	// ClusterNodeConfig configures a shard node.
	ClusterNodeConfig = cluster.NodeConfig

	// ClusterConfig configures a coordinator: peer URLs (one replica list
	// per shard), deadlines, retries, hedging, admission control, and the
	// Telemetry sink its queries and instruments record into.
	ClusterConfig = cluster.CoordinatorConfig

	// ClusterAdmissionConfig bounds what the coordinator accepts.
	ClusterAdmissionConfig = cluster.AdmissionConfig

	// Coordinator answers queries against remote shard nodes.
	Coordinator = cluster.Coordinator

	// ClusterCursor is a resumable distributed query: Next pages and GrowK
	// extends the merged ranking, with every remote shard resuming from its
	// parked node-side cursor.
	ClusterCursor = cluster.Cursor
)

// NewClusterNode builds a shard node over its slice of the corpus. Mount
// Handler on an HTTP server and Close when done. The DocMap (from
// PartitionCollection) must be strictly increasing — the invariant that
// keeps distributed rankings bitwise identical to single-engine ones.
func NewClusterNode(cfg ClusterNodeConfig) (*ClusterNode, error) { return cluster.NewNode(cfg) }

// NewCoordinator connects to every peer, validates protocol versions, and
// returns a Coordinator. The context bounds only the initial probe.
func NewCoordinator(ctx context.Context, cfg ClusterConfig) (*Coordinator, error) {
	return cluster.NewCoordinator(ctx, cfg)
}

// PartitionCollection splits coll per cfg exactly as NewShardedEngine
// would: colls[s] is shard s's collection in local DocID space and
// maps[s][local] is the global DocID — ready to feed ClusterNodeConfig on
// N separate node processes.
func PartitionCollection(coll *Collection, cfg ShardConfig) (colls []*Collection, maps [][]DocID, err error) {
	return cluster.Partition(coll, cfg)
}

// WithTenant tags ctx with the requesting tenant for the coordinator's
// per-tenant admission control.
func WithTenant(ctx context.Context, tenant string) context.Context {
	return cluster.WithTenant(ctx, tenant)
}

// ClusterHealthHandler mounts /healthz (process liveness) and /readyz
// (readiness) onto mux. Both answer 200: a crserve process mounts them
// once its data is loaded and its engine or coordinator is built.
func ClusterHealthHandler(mux *http.ServeMux) {
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("ready\n"))
	})
}

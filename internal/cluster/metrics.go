package cluster

import (
	"strconv"
	"time"

	"conceptrank/internal/telemetry"
)

// rpcBuckets are the latency buckets for RPC histograms: loopback calls
// land in the sub-millisecond buckets, WAN hedging decisions live around
// the 10–100ms ones.
var rpcBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// nodeMetrics is a shard node's RPC-surface instrumentation.
type nodeMetrics struct {
	reg       *telemetry.Registry
	errors    *telemetry.Counter
	seconds   *telemetry.Histogram
	evictions *telemetry.Counter
}

// newNodeMetrics registers the node instruments on reg (a private
// registry when nil, so callers without telemetry pay only the atomics).
func newNodeMetrics(reg *telemetry.Registry, cursors func() int) *nodeMetrics {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	m := &nodeMetrics{
		reg: reg,
		errors: reg.Counter("crank_node_rpc_errors_total",
			"Node RPC requests answered with an error status."),
		seconds: reg.Histogram("crank_node_rpc_seconds",
			"Node RPC request latency in seconds.", rpcBuckets),
		evictions: reg.Counter("crank_node_cursor_evictions_total",
			"Parked cursors dropped by TTL sweep, a full store, or explicit close."),
	}
	reg.GaugeFunc("crank_node_cursors",
		"Cursors currently parked in the node's token store.",
		func() float64 { return float64(cursors()) })
	return m
}

// endpoint registers the request counter of one RPC endpoint.
func (m *nodeMetrics) endpoint(name string) *telemetry.Counter {
	return m.reg.LabeledCounter("crank_node_rpc_requests_total",
		"Node RPC requests by endpoint.", "endpoint", name)
}

func (m *nodeMetrics) observe(requests *telemetry.Counter, start time.Time, failed bool) {
	requests.Inc()
	if failed {
		m.errors.Inc()
	}
	m.seconds.Observe(time.Since(start).Seconds())
}

// coordMetrics is the coordinator's client-side instrumentation: per-node
// RPC traffic plus the hedging / retry / admission / degradation counters
// the serving behaviors report through.
type coordMetrics struct {
	requests []*telemetry.Counter   // per node index
	errors   []*telemetry.Counter   // per node index
	seconds  []*telemetry.Histogram // per node index

	retries   *telemetry.Counter
	hedges    *telemetry.Counter
	hedgeWins *telemetry.Counter
	sheds     *telemetry.Counter
	degraded  *telemetry.Counter
}

// newCoordMetrics registers coordinator instruments for n nodes on reg (a
// private registry when nil). Nodes are labeled by index, matching the
// order of the coordinator's peer list.
func newCoordMetrics(reg *telemetry.Registry, n int) *coordMetrics {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	m := &coordMetrics{
		retries: reg.Counter("crank_coord_rpc_retries_total",
			"RPC attempts repeated after a transient node error."),
		hedges: reg.Counter("crank_coord_hedges_total",
			"Hedge requests fired against a second replica."),
		hedgeWins: reg.Counter("crank_coord_hedge_wins_total",
			"Hedge requests that beat the primary replica."),
		sheds: reg.Counter("crank_coord_sheds_total",
			"Queries rejected by admission control."),
		degraded: reg.Counter("crank_coord_degraded_total",
			"Queries answered without one or more failed shards."),
	}
	for i := 0; i < n; i++ {
		node := strconv.Itoa(i)
		m.requests = append(m.requests, reg.LabeledCounter(
			"crank_coord_rpc_requests_total",
			"Coordinator RPC requests by shard node.", "node", node))
		m.errors = append(m.errors, reg.LabeledCounter(
			"crank_coord_rpc_errors_total",
			"Coordinator RPC failures by shard node (after retries).", "node", node))
		m.seconds = append(m.seconds, reg.LabeledHistogram(
			"crank_coord_rpc_seconds",
			"Coordinator RPC latency in seconds by shard node.", "node", node,
			rpcBuckets))
	}
	return m
}

func (m *coordMetrics) observe(node int, start time.Time, failed bool) {
	if node < 0 || node >= len(m.requests) {
		return
	}
	m.requests[node].Inc()
	if failed {
		m.errors[node].Inc()
	}
	m.seconds[node].Observe(time.Since(start).Seconds())
}

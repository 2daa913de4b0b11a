// Package cluster is the distributed serving tier: shard nodes (thin
// servers wrapping one engine shard) behind a coordinator that speaks the
// same cursor/page protocol as the in-process sharded engine and merges
// with the same canonical top-k machinery, so distributed results are
// bitwise identical to sharded and single-engine results over the same
// corpus.
//
// # RPC protocol (v1)
//
// Nodes serve versioned HTTP+JSON endpoints under /rpc/v1/:
//
//	open    plan a query and run its first step segment; returns the
//	        segment's outcome and, unless released, a cursor token
//	step    run one bounded segment of an open cursor
//	grow    raise an open cursor's k and return its examined archive
//	close   release an open cursor
//	pairs   node-local top-k document pairs
//	block   the node's documents (global IDs + concepts)
//	doc     one document's concepts by global ID
//	info    node identity: doc count, concept count, protocol version
//
// Every request carries a per-request deadline (the client sets a context
// deadline and sends it as a header); errors return a JSON envelope with
// an HTTP status. Document IDs on the wire are always GLOBAL: the node is
// configured with its local→global map and translates at the boundary, so
// the coordinator merges results from different nodes without any mapping
// state of its own.
//
// # Cursor execution model
//
// A remote query runs as a sequence of step segments. Each segment
// executes at most WaveBudget BFS waves (the node's OnWave hook cancels the
// segment's context at the budget — a wave boundary, where core cursors are
// resumable) and carries the coordinator's current cross-shard bound
// (merged-heap full? k-th distance). The node's OnBound hook compares its
// termination floor d⁻ against that bound and pauses itself when d⁻
// provably exceeds it — cross-shard bound cancellation over RPC. A stale
// bound cannot un-prove a pause: the merged k-th distance only decreases
// within a k-epoch while d⁻ only increases, so a pause valid against any
// earlier bound is valid against the current one. Segment responses carry
// the results that became final during the segment (the node's progressive
// offers), which the coordinator feeds to the shared merge state,
// tightening the bound it sends everywhere else.
//
// The first segment rides on the open, against the empty bound (no shard
// has offered yet, so it is the bound a first step would carry). An open
// that sets Release and finishes within that segment is never parked: the
// node closes the cursor and returns no token, so an unpaged query whose
// shard terminates within one wave budget costs that shard one RPC. Any
// other open parks its cursor, which the coordinator steps until it
// terminates or pauses and closes when the query ends.
package cluster

import (
	"encoding/json"
	"fmt"
	"math"

	"conceptrank/internal/core"
	"conceptrank/internal/corpus"
	"conceptrank/internal/ontology"
)

// Version is the RPC protocol version; the path prefix of every endpoint.
const Version = "v1"

// PathPrefix is the URL prefix all node RPC endpoints live under.
const PathPrefix = "/rpc/" + Version + "/"

// wireFloat carries a float64 that may be non-finite through JSON, which
// rejects ±Inf and NaN outright. Non-finite values encode as the strings
// "+Inf"/"-Inf"/"NaN" — the same spelling the telemetry exposition uses.
type wireFloat float64

func (f wireFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	}
	return json.Marshal(v)
}

func (f *wireFloat) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		switch s {
		case "+Inf", "Inf":
			*f = wireFloat(math.Inf(1))
		case "-Inf":
			*f = wireFloat(math.Inf(-1))
		case "NaN":
			*f = wireFloat(math.NaN())
		default:
			return json.Unmarshal(b, (*float64)(f))
		}
		return nil
	}
	return json.Unmarshal(b, (*float64)(f))
}

// WireResult is one ranked document on the wire: a GLOBAL document ID and
// its exact distance. Distances round-trip bitwise: encoding/json formats
// float64 with the shortest exact representation, and the non-finite cases
// go through wireFloat.
type WireResult struct {
	Doc      corpus.DocID `json:"doc"`
	Distance wireFloat    `json:"distance"`
}

func toWire(rs []core.Result) []WireResult {
	if rs == nil {
		return nil
	}
	out := make([]WireResult, len(rs))
	for i, r := range rs {
		out[i] = WireResult{Doc: r.Doc, Distance: wireFloat(r.Distance)}
	}
	return out
}

func fromWire(ws []WireResult) []core.Result {
	if ws == nil {
		return nil
	}
	out := make([]core.Result, len(ws))
	for i, w := range ws {
		out[i] = core.Result{Doc: w.Doc, Distance: float64(w.Distance)}
	}
	return out
}

// WireBound is the coordinator's cross-shard cancellation bound as carried
// on step requests: whether the merged heap is full and, if so, its k-th
// distance (+Inf otherwise).
type WireBound struct {
	Full bool      `json:"full"`
	Kth  wireFloat `json:"kth"`
}

// WireOptions is the query-configuration subset that crosses the wire.
// Callback and cache fields of core.Options are node-local concerns and
// never travel; the node applies its own cache and hooks.
type WireOptions struct {
	K              int     `json:"k"`
	ErrorThreshold float64 `json:"eps"`
	QueueLimit     int     `json:"queue_limit,omitempty"`
}

// Ceilings on what a request may ask of a node: every result is held and
// shipped, and every pair-join worker is a goroutine running a block
// task. A request above either is a caller bug and is refused (400),
// never clamped — a clamped answer would silently differ from the one
// asked for. Only pairs requests carry workers; open passes 0.
const (
	maxWireWorkers = 64
	maxWireK       = 10_000
)

// MaxQueryConcepts is the ceiling on the concept IDs of one RDS query,
// counted as sent (before the engine deduplicates them), at the serving
// edge and on every node. Every query concept is a BFS origin and widens
// every discovered document's coverage array, so an unbounded list makes
// one request cost memory and traversal proportional to the ontology
// times the shard. SDS queries take their concepts from a stored document
// and are not capped.
const MaxQueryConcepts = 1024

func checkWireLimits(k, workers int) error {
	if k > maxWireK {
		return fmt.Errorf("cluster: k %d above the node's limit %d", k, maxWireK)
	}
	if workers > maxWireWorkers {
		return fmt.Errorf("cluster: workers %d above the node's limit %d", workers, maxWireWorkers)
	}
	return nil
}

func (w WireOptions) options() core.Options {
	return core.Options{
		K:              w.K,
		ErrorThreshold: w.ErrorThreshold,
		QueueLimit:     w.QueueLimit,
	}
}

// OpenRequest plans a query and runs its first step segment.
type OpenRequest struct {
	SDS     bool                 `json:"sds"` // false: RDS, true: SDS
	Query   []ontology.ConceptID `json:"query"`
	Options WireOptions          `json:"options"`
	// Waves caps the first segment's BFS waves, as StepRequest.Waves.
	Waves int `json:"waves,omitempty"`
	// Release asks the node not to park a cursor whose first segment
	// finished: the caller will never step, grow or close it.
	Release bool `json:"release,omitempty"`
}

// OpenResponse reports the first segment's outcome and returns the cursor
// token naming the parked query — empty when the open was released.
type OpenResponse struct {
	Cursor string `json:"cursor,omitempty"`
	StepResponse
}

// StepRequest runs one bounded segment of an open cursor.
type StepRequest struct {
	Cursor string    `json:"cursor"`
	Bound  WireBound `json:"bound"`
	// Waves caps the BFS waves this segment may run (<= 0: no cap — run
	// to termination or pause).
	Waves int `json:"waves,omitempty"`
	// From is the count of this cursor's offered results the coordinator
	// has already received; the response ships offers[From:]. Keeping the
	// offer list cumulative node-side makes steps retry-safe: a response
	// lost to a timeout re-ships on the retry, and the coordinator's
	// merge state deduplicates re-offers.
	From int `json:"from"`
}

// StepResponse reports one segment's outcome. Done and Paused are mutually
// exclusive; when both are false the segment hit its wave budget and the
// coordinator should step again (with a fresh bound).
type StepResponse struct {
	// Results lists documents that became provably final and have not been
	// acknowledged by the request's From watermark — the node's
	// progressive offers from position From onward.
	Results []WireResult `json:"results,omitempty"`
	Done    bool         `json:"done"`
	Paused  bool         `json:"paused"`
	// DMinus is the node's termination floor after the segment; the
	// coordinator may pause this shard without another RPC once its own
	// bound proves d⁻ out of range.
	DMinus  wireFloat     `json:"d_minus"`
	Metrics *core.Metrics `json:"metrics,omitempty"`
}

// GrowRequest raises an open cursor's k. The pause proof, if any, expires
// with the old k; the node unpauses the cursor.
type GrowRequest struct {
	Cursor string `json:"cursor"`
	K      int    `json:"k"`
}

// GrowResponse returns the cursor's full examined archive — every exact
// distance the node has paid for — which the coordinator replays into its
// rebuilt merger exactly as the in-process grow replays local archives.
type GrowResponse struct {
	Examined []WireResult `json:"examined"`
}

// CloseRequest releases an open cursor.
type CloseRequest struct {
	Cursor string `json:"cursor"`
}

// WirePair is one ranked document pair (GLOBAL IDs, canonical A < B).
type WirePair struct {
	A        corpus.DocID `json:"a"`
	B        corpus.DocID `json:"b"`
	Distance wireFloat    `json:"distance"`
}

// PairsRequest asks for the node's top-k intra-node document pairs.
type PairsRequest struct {
	K              int     `json:"k"`
	ErrorThreshold float64 `json:"eps"`
	Workers        int     `json:"workers,omitempty"`
}

// PairsResponse returns the node-local top-k pairs.
type PairsResponse struct {
	Pairs   []WirePair        `json:"pairs"`
	Metrics *core.PairMetrics `json:"metrics,omitempty"`
}

// WireDoc is one document: its global ID and concept annotations.
type WireDoc struct {
	Doc      corpus.DocID         `json:"doc"`
	Concepts []ontology.ConceptID `json:"concepts"`
}

// BlockResponse lists every document the node owns, in ascending global
// ID order — the coordinator's input for cross-node pair probes.
type BlockResponse struct {
	Docs []WireDoc `json:"docs"`
}

// DocRequest fetches one document's concepts by global ID.
type DocRequest struct {
	Doc corpus.DocID `json:"doc"`
}

// DocResponse returns the requested document's concepts.
type DocResponse struct {
	Doc      corpus.DocID         `json:"doc"`
	Concepts []ontology.ConceptID `json:"concepts"`
}

// InfoResponse identifies a node.
type InfoResponse struct {
	Version  string `json:"version"`
	Docs     int    `json:"docs"`
	Concepts int    `json:"concepts"`
}

// ErrorResponse is the JSON error envelope every endpoint returns on
// failure, alongside a non-2xx HTTP status.
type ErrorResponse struct {
	Error string `json:"error"`
	// Code mirrors the HTTP status for clients reading the body only.
	Code int `json:"code"`
}

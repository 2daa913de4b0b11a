// Package cluster is sharded execution: a collection partitioned across
// shard nodes (thin servers wrapping one engine shard) behind a
// coordinator that fans each query out and merges the nodes' answers
// through the canonical top-k heap, so its results are bitwise identical
// to a single engine over the union corpus. Nodes speak HTTP; the
// coordinator reaches them over the network, or, through MemTransport,
// in the same process with no sockets.
//
// # RPC protocol (v2)
//
// Nodes serve versioned HTTP endpoints under /rpc/v2/, every one a POST
// whose request and response bodies are each one binary frame:
//
//	open    plan a query and run its first step segment; returns the
//	        segment's outcome and, unless released, a cursor token
//	step    run one bounded segment of an open cursor
//	grow    raise an open cursor's k and return its examined archive
//	close   release an open cursor
//	doc     one document's concepts by global ID, if the node owns it
//	info    node identity: doc count, concept count, protocol version
//
// A frame is the message's fields in a fixed order, little-endian and
// fixed-width, with no tags, padding or length prefix (the HTTP body has
// one): u8 flags (0 or 1), u32 document and concept IDs, i64 integers and
// durations, float64 distances and d⁻ as their raw IEEE bits (so NaN, ±Inf
// and −0 round-trip bitwise), strings and lists as a u32 count followed by
// their bytes or elements. Every count is checked against the bytes left
// before anything is allocated, and a body that ends early or carries
// bytes past its message is refused (400). The layouts:
//
//	OpenRequest    sds u8 · query [u32] · k i64 · eps f64 · queue_limit i64 · waves i64 · release u8
//	OpenResponse   cursor str · StepResponse
//	StepRequest    cursor str · full u8 · kth f64 · waves i64 · from i64
//	StepResponse   results [doc u32 · distance f64] · done u8 · paused u8 · d_minus f64 · metrics
//	GrowRequest    cursor str · k i64
//	GrowResponse   examined [doc u32 · distance f64]
//	CloseRequest   cursor str
//	DocRequest     doc u32
//	DocResponse    found u8 · concepts [u32]
//	InfoResponse   version str · docs i64 · concepts i64
//
// metrics is a presence flag followed, when set, by every core.Metrics
// field in declaration order (durations, counters and the per-stage times
// as i64, TerminalEps as f64). The info request and the close response
// are empty frames.
//
// Every request carries a per-request deadline (the client sets a context
// deadline); an error answers a non-2xx HTTP status with a text/plain
// message. Document IDs on the wire are always GLOBAL: the node is
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
	"conceptrank/internal/core"
	"conceptrank/internal/corpus"
	"conceptrank/internal/ontology"
)

// Version is the RPC protocol version; the path prefix of every endpoint.
const Version = "v2"

// PathPrefix is the URL prefix all node RPC endpoints live under.
const PathPrefix = "/rpc/" + Version + "/"

// WireBound is the coordinator's cross-shard cancellation bound as carried
// on step requests: whether the merged heap is full and, if so, its k-th
// distance (+Inf otherwise).
type WireBound struct {
	Full bool
	Kth  float64
}

// WireOptions is the query-configuration subset that crosses the wire.
// Callback and cache fields of core.Options are node-local concerns and
// never travel; the node applies its own cache and hooks.
type WireOptions struct {
	K              int
	ErrorThreshold float64
	QueueLimit     int
}

// maxWireK is the ceiling on the k an open may ask of a node: every
// result is held and shipped. A request above it is a caller bug and is
// refused (400), never clamped — a clamped answer would silently differ
// from the one asked for.
const maxWireK = 10_000

// MaxQueryConcepts is the ceiling on the concept IDs of one RDS query,
// counted as sent (before the engine deduplicates them), at the serving
// edge and on every node. Every query concept is a BFS origin and widens
// every discovered document's coverage array, so an unbounded list makes
// one request cost memory and traversal proportional to the ontology
// times the shard. SDS queries take their concepts from a stored document
// and are not capped.
const MaxQueryConcepts = 1024

func (w WireOptions) options() core.Options {
	return core.Options{
		K:              w.K,
		ErrorThreshold: w.ErrorThreshold,
		QueueLimit:     w.QueueLimit,
	}
}

// OpenRequest plans a query and runs its first step segment.
type OpenRequest struct {
	SDS     bool // false: RDS, true: SDS
	Query   []ontology.ConceptID
	Options WireOptions
	// Waves caps the first segment's BFS waves, as StepRequest.Waves.
	Waves int
	// Release asks the node not to park a cursor whose first segment
	// finished: the caller will never step, grow or close it.
	Release bool
}

func (m OpenRequest) appendFrame(b []byte) []byte {
	b = appendBool(b, m.SDS)
	b = appendConcepts(b, m.Query)
	b = appendInt(b, m.Options.K)
	b = appendF64(b, m.Options.ErrorThreshold)
	b = appendInt(b, m.Options.QueueLimit)
	b = appendInt(b, m.Waves)
	return appendBool(b, m.Release)
}

func (m *OpenRequest) readFrame(r *frameReader) {
	m.SDS = r.bool()
	m.Query = r.concepts()
	m.Options = WireOptions{K: r.int(), ErrorThreshold: r.f64(), QueueLimit: r.int()}
	m.Waves = r.int()
	m.Release = r.bool()
}

// OpenResponse reports the first segment's outcome and returns the cursor
// token naming the parked query — empty when the open was released.
type OpenResponse struct {
	Cursor string
	StepResponse
}

func (m OpenResponse) appendFrame(b []byte) []byte {
	return m.StepResponse.appendFrame(appendStr(b, m.Cursor))
}

func (m *OpenResponse) readFrame(r *frameReader) {
	m.Cursor = r.str()
	m.StepResponse.readFrame(r)
}

// StepRequest runs one bounded segment of an open cursor.
type StepRequest struct {
	Cursor string
	Bound  WireBound
	// Waves caps the BFS waves this segment may run (<= 0: no cap — run
	// to termination or pause).
	Waves int
	// From is the count of this cursor's offered results the coordinator
	// has already received; the response ships offers[From:]. Keeping the
	// offer list cumulative node-side makes steps retry-safe: a response
	// lost to a timeout re-ships on the retry, and the coordinator's
	// merge state deduplicates re-offers.
	From int
}

func (m StepRequest) appendFrame(b []byte) []byte {
	b = appendStr(b, m.Cursor)
	b = appendBool(b, m.Bound.Full)
	b = appendF64(b, m.Bound.Kth)
	b = appendInt(b, m.Waves)
	return appendInt(b, m.From)
}

func (m *StepRequest) readFrame(r *frameReader) {
	m.Cursor = r.str()
	m.Bound = WireBound{Full: r.bool(), Kth: r.f64()}
	m.Waves = r.int()
	m.From = r.int()
}

// StepResponse reports one segment's outcome. Done and Paused are mutually
// exclusive; when both are false the segment hit its wave budget and the
// coordinator should step again (with a fresh bound).
type StepResponse struct {
	// Results lists documents (GLOBAL IDs, exact distances) that became
	// provably final and have not been acknowledged by the request's From
	// watermark — the node's progressive offers from position From onward.
	Results []core.Result
	Done    bool
	Paused  bool
	// DMinus is the node's termination floor after the segment; the
	// coordinator may pause this shard without another RPC once its own
	// bound proves d⁻ out of range.
	DMinus  float64
	Metrics *core.Metrics
}

func (m StepResponse) appendFrame(b []byte) []byte {
	b = appendResults(b, m.Results)
	b = appendBool(b, m.Done)
	b = appendBool(b, m.Paused)
	b = appendF64(b, m.DMinus)
	return appendMetrics(b, m.Metrics)
}

func (m *StepResponse) readFrame(r *frameReader) {
	m.Results = r.results()
	m.Done = r.bool()
	m.Paused = r.bool()
	m.DMinus = r.f64()
	m.Metrics = r.metrics()
}

// GrowRequest raises an open cursor's k. The pause proof, if any, expires
// with the old k; the node unpauses the cursor.
type GrowRequest struct {
	Cursor string
	K      int
}

func (m GrowRequest) appendFrame(b []byte) []byte { return appendInt(appendStr(b, m.Cursor), m.K) }

func (m *GrowRequest) readFrame(r *frameReader) {
	m.Cursor = r.str()
	m.K = r.int()
}

// GrowResponse returns the cursor's full examined archive — every exact
// distance the node has paid for, under GLOBAL IDs — which the coordinator
// replays into its rebuilt merger.
type GrowResponse struct {
	Examined []core.Result
}

func (m GrowResponse) appendFrame(b []byte) []byte { return appendResults(b, m.Examined) }
func (m *GrowResponse) readFrame(r *frameReader)   { m.Examined = r.results() }

// CloseRequest releases an open cursor.
type CloseRequest struct {
	Cursor string
}

func (m CloseRequest) appendFrame(b []byte) []byte { return appendStr(b, m.Cursor) }
func (m *CloseRequest) readFrame(r *frameReader)   { m.Cursor = r.str() }

// DocRequest fetches one document's concepts by global ID.
type DocRequest struct {
	Doc corpus.DocID
}

func (m DocRequest) appendFrame(b []byte) []byte { return appendU32(b, uint32(m.Doc)) }
func (m *DocRequest) readFrame(r *frameReader)   { m.Doc = corpus.DocID(r.u32()) }

// DocResponse answers a document lookup. Found reports whether the node
// owns the document, and Concepts lists its concepts when it does. A node
// that does not own it answers Found false with a 200, so asking the
// shards in turn raises no RPC error.
type DocResponse struct {
	Found    bool
	Concepts []ontology.ConceptID
}

func (m DocResponse) appendFrame(b []byte) []byte {
	return appendConcepts(appendBool(b, m.Found), m.Concepts)
}

func (m *DocResponse) readFrame(r *frameReader) {
	m.Found = r.bool()
	m.Concepts = r.concepts()
}

// InfoResponse identifies a node.
type InfoResponse struct {
	Version  string
	Docs     int
	Concepts int
}

func (m InfoResponse) appendFrame(b []byte) []byte {
	b = appendStr(b, m.Version)
	b = appendInt(b, m.Docs)
	return appendInt(b, m.Concepts)
}

func (m *InfoResponse) readFrame(r *frameReader) {
	m.Version = r.str()
	m.Docs = r.int()
	m.Concepts = r.int()
}

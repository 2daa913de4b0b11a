package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"time"

	"conceptrank/internal/cache"
	"conceptrank/internal/core"
	"conceptrank/internal/corpus"
	"conceptrank/internal/index"
	"conceptrank/internal/ontology"
	"conceptrank/internal/telemetry"
)

// NodeConfig configures a shard node.
type NodeConfig struct {
	// Ontology is the concept hierarchy (shared by every node; queries
	// reference concepts, so all nodes must agree on it).
	Ontology *ontology.Ontology
	// Coll is this node's shard of the corpus, in local DocID space.
	Coll *corpus.Collection
	// DocMap translates local to global DocIDs: DocMap[local] = global,
	// strictly increasing (the property that makes local canonical order
	// equal global canonical order). nil means local IDs are global.
	DocMap []corpus.DocID
	// Cache, when non-nil, serves this node's seed vectors: the node
	// enables it on its engine, so every query it executes uses it.
	Cache *cache.Cache
	// MaxCursors caps open cursors (default 256) — past it, opening one
	// evicts the longest-idle parked cursor.
	MaxCursors int
	// Registry, when non-nil, receives the node's RPC metrics.
	Registry *telemetry.Registry

	// cursorTTL bounds how long a parked cursor survives between steps
	// (default DefaultCursorTTL); tests shorten it.
	cursorTTL time.Duration
}

// Node is a thin server wrapping one engine shard: it plans queries,
// parks their cursors behind tokens, and executes bounded step segments
// on demand — the remote half of the coordinator's fan-out. Construct
// with NewNode, mount Handler, and Close when done.
type Node struct {
	o       *ontology.Ontology
	coll    *corpus.Collection
	eng     *core.Engine
	docMap  []corpus.DocID
	cursors *CursorStore[*nodeCursor]
	metrics *nodeMetrics
	mux     *http.ServeMux
}

// nodeCursor is one parked remote query: the core cursor plus what its
// steps accumulate. Only one request holds a cursor at a time (Take checks
// it out of the store), so the fields need no locking.
type nodeCursor struct {
	cur *core.Cursor
	n   *Node

	// offers accumulates every progressive offer (global IDs) of the
	// current k-epoch; step responses ship the suffix past the request's
	// From watermark, so a lost response re-ships on retry. Grow resets
	// the list — the archive it returns supersedes it.
	offers     []core.Result
	paused     bool    // self-paused against a coordinator bound
	lastDMinus float64 // latest termination floor d⁻ a step saw
}

// onProgressive buffers results as they become provably final; the next
// step response drains the buffer. Global IDs: the coordinator merges
// without mapping state.
func (nc *nodeCursor) onProgressive(r core.Result) {
	nc.offers = append(nc.offers, core.Result{Doc: nc.n.global(r.Doc), Distance: r.Distance})
}

// NewNode builds a shard node over its slice of the corpus, indexed in
// memory.
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.Ontology == nil || cfg.Coll == nil {
		return nil, errors.New("cluster: NewNode needs an ontology and a collection")
	}
	if cfg.DocMap != nil && len(cfg.DocMap) != cfg.Coll.NumDocs() {
		return nil, fmt.Errorf("cluster: doc map covers %d docs, collection has %d",
			len(cfg.DocMap), cfg.Coll.NumDocs())
	}
	if err := cfg.Coll.CheckOntology(cfg.Ontology.NumConcepts()); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	n := &Node{
		o:      cfg.Ontology,
		coll:   cfg.Coll,
		docMap: cfg.DocMap,
		eng: core.NewEngine(cfg.Ontology, index.BuildMemInverted(cfg.Coll),
			index.BuildMemForward(cfg.Coll), cfg.Coll.NumDocs(), nil),
	}
	n.eng.EnableCache(cfg.Cache)
	n.cursors = NewCursorStore(cfg.cursorTTL, cfg.MaxCursors, func(nc *nodeCursor) {
		n.metrics.evictions.Inc()
		_ = nc.cur.Close()
	})
	n.metrics = newNodeMetrics(cfg.Registry, n.cursors.Len)
	n.mux = http.NewServeMux()
	n.route("open", n.handleOpen)
	n.route("step", n.handleStep)
	n.route("grow", n.handleGrow)
	n.route("close", n.handleClose)
	n.route("doc", n.handleDoc)
	n.route("info", n.handleInfo)
	return n, nil
}

// Handler returns the node's RPC mux, /rpc/v2/*.
func (n *Node) Handler() http.Handler { return n.mux }

// NumDocs returns the node's document count.
func (n *Node) NumDocs() int { return n.coll.NumDocs() }

// Close stops the cursor sweeper and releases every parked cursor.
func (n *Node) Close() error {
	n.cursors.Close()
	return nil
}

// global maps a local DocID to its global ID.
func (n *Node) global(l corpus.DocID) corpus.DocID {
	if n.docMap == nil {
		return l
	}
	return n.docMap[l]
}

// local maps a global DocID back to local space; ok=false when this node
// does not own the document. DocMap is strictly increasing, so a binary
// search suffices.
func (n *Node) local(g corpus.DocID) (corpus.DocID, bool) {
	if n.docMap == nil {
		if int(g) < n.coll.NumDocs() {
			return g, true
		}
		return 0, false
	}
	i := sort.Search(len(n.docMap), func(i int) bool { return n.docMap[i] >= g })
	if i < len(n.docMap) && n.docMap[i] == g {
		return corpus.DocID(i), true
	}
	return 0, false
}

// maxRequestBody caps what a node reads of one RPC request: 1 MiB of
// frame is about 260 000 concept IDs, two orders above a paper-scale SDS
// query document, and no other request carries more than a token and a
// few numbers. A larger body is refused (413) before it is decoded.
const maxRequestBody = 1 << 20

// route mounts an RPC endpoint with the shared envelope: POST + one frame
// in (at most maxRequestBody), one frame out, errors as a text/plain
// message under their status, latency and error accounting. It registers
// the endpoint's request counter, so the routes mounted are exactly the
// endpoints the metrics report.
func (n *Node) route(name string, h func(ctx context.Context, body []byte) (frameEncoder, error)) {
	requests := n.metrics.endpoint(name)
	n.mux.HandleFunc(PathPrefix+name, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		if r.Method != http.MethodPost {
			n.metrics.observe(requests, start, true)
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		body, err := readBody(http.MaxBytesReader(w, r.Body, maxRequestBody), r.ContentLength, maxRequestBody)
		var resp frameEncoder
		if err == nil {
			resp, err = h(r.Context(), body)
		}
		if err != nil {
			n.metrics.observe(requests, start, true)
			http.Error(w, err.Error(), errStatus(err))
			return
		}
		out := resp.appendFrame(make([]byte, 0, 512))
		n.metrics.observe(requests, start, false)
		w.Header().Set("Content-Type", frameContentType)
		w.Header().Set("Content-Length", strconv.Itoa(len(out)))
		_, _ = w.Write(out)
	})
}

// errStatus maps handler errors to HTTP statuses. 503 marks transient
// conditions the client may retry or hedge; 404 marks unknown cursors
// (expired, evicted or never issued); 413 a body above maxRequestBody;
// everything else is a caller bug (400).
func errStatus(err error) int {
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrStoreFull):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrUnknownCursor):
		return http.StatusNotFound
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The client is gone or out of time; the status is a formality.
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}

// ErrUnknownCursor is a node's answer (404) to a cursor token it does not
// hold; the coordinator's error for that response matches it too.
var ErrUnknownCursor = errors.New("cluster: unknown cursor (expired, evicted, closed, or in use)")

func (n *Node) handleOpen(ctx context.Context, body []byte) (frameEncoder, error) {
	var req OpenRequest
	if err := decodeFrame(body, &req); err != nil {
		return nil, fmt.Errorf("bad open request: %w", err)
	}
	if req.Options.K > maxWireK {
		return nil, fmt.Errorf("cluster: k %d above the node's limit %d", req.Options.K, maxWireK)
	}
	if !req.SDS && len(req.Query) > MaxQueryConcepts {
		return nil, fmt.Errorf("cluster: %d query concepts above the node's limit %d", len(req.Query), MaxQueryConcepts)
	}
	nc := &nodeCursor{n: n, lastDMinus: math.Inf(1)}
	opts := req.Options.options()
	opts.Progressive = nc.onProgressive
	var err error
	if req.SDS {
		nc.cur, err = n.eng.OpenSDS(req.Query, opts)
	} else {
		nc.cur, err = n.eng.OpenRDS(req.Query, opts)
	}
	if err != nil {
		return nil, err
	}
	// No shard has offered before the open, so the first segment runs
	// against the empty bound — the one a first step would carry.
	step, err := nc.step(ctx, WireBound{Kth: math.Inf(1)}, req.Waves, 0)
	if err != nil {
		_ = nc.cur.Close()
		return nil, err
	}
	resp := OpenResponse{StepResponse: step}
	if req.Release && step.Done {
		_ = nc.cur.Close()
		return resp, nil
	}
	if resp.Cursor, err = n.cursors.Add(nc); err != nil {
		_ = nc.cur.Close()
		return nil, err
	}
	return resp, nil
}

func (n *Node) handleStep(ctx context.Context, body []byte) (frameEncoder, error) {
	var req StepRequest
	if err := decodeFrame(body, &req); err != nil {
		return nil, fmt.Errorf("bad step request: %w", err)
	}
	nc, ok := n.cursors.Take(req.Cursor)
	if !ok {
		return nil, ErrUnknownCursor
	}
	defer n.cursors.Put(req.Cursor, nc)
	return nc.step(ctx, req.Bound, req.Waves, req.From)
}

// step runs one segment of at most waves BFS waves against bound — unless
// the cursor already paused itself — and reports it, shipping the offers
// past the from watermark. The segment stops at the first wave whose floor
// d⁻ is beyond bound, which pauses the cursor unless that wave also
// terminated it: cross-shard cancellation's remote half. The bound may be
// stale, which beyond tolerates. Done=false with Paused=false is a spent
// wave budget; both are resumable.
func (nc *nodeCursor) step(ctx context.Context, bound WireBound, waves, from int) (StepResponse, error) {
	var resp StepResponse
	if !nc.paused {
		stopped := false
		done, err := nc.cur.Step(ctx, waves, func(dMinus float64) bool {
			nc.lastDMinus = dMinus
			stopped = beyond(bound.Full, bound.Kth, dMinus)
			return stopped
		})
		if err != nil {
			return resp, err
		}
		resp.Done = done
		nc.paused = stopped && !done
	}
	resp.Paused = nc.paused
	if from >= 0 && from < len(nc.offers) {
		// The response is encoded after the cursor is put back, so it
		// shares the suffix rather than copying it: offers only grows
		// (grow starts a new list), and nothing rewrites a shipped entry.
		resp.Results = nc.offers[from:]
	}
	resp.DMinus = nc.lastDMinus
	if m := nc.cur.Metrics(); m != nil {
		snap := *m
		resp.Metrics = &snap
	}
	return resp, nil
}

func (n *Node) handleGrow(ctx context.Context, body []byte) (frameEncoder, error) {
	var req GrowRequest
	if err := decodeFrame(body, &req); err != nil {
		return nil, fmt.Errorf("bad grow request: %w", err)
	}
	nc, ok := n.cursors.Take(req.Cursor)
	if !ok {
		return nil, ErrUnknownCursor
	}
	defer n.cursors.Put(req.Cursor, nc)
	nc.cur.Grow(req.K)
	nc.paused = false // the pause proof expired with the old k
	// The coordinator rebuilds its merger from the archive, which contains
	// everything the offer list could hold; reset the list (and the
	// coordinator its watermark) so steps ship only post-grow discoveries.
	nc.offers = nil
	ex := nc.cur.Examined()
	out := make([]core.Result, len(ex))
	for i, rr := range ex {
		out[i] = core.Result{Doc: n.global(rr.Doc), Distance: rr.Distance}
	}
	return GrowResponse{Examined: out}, nil
}

func (n *Node) handleClose(ctx context.Context, body []byte) (frameEncoder, error) {
	var req CloseRequest
	if err := decodeFrame(body, &req); err != nil {
		return nil, fmt.Errorf("bad close request: %w", err)
	}
	n.cursors.Remove(req.Cursor)
	return empty{}, nil
}

func (n *Node) handleDoc(ctx context.Context, body []byte) (frameEncoder, error) {
	var req DocRequest
	if err := decodeFrame(body, &req); err != nil {
		return nil, fmt.Errorf("bad doc request: %w", err)
	}
	l, ok := n.local(req.Doc)
	if !ok {
		return DocResponse{}, nil
	}
	return DocResponse{Found: true, Concepts: n.coll.Doc(l).Concepts}, nil
}

func (n *Node) handleInfo(ctx context.Context, body []byte) (frameEncoder, error) {
	if err := decodeFrame(body, &empty{}); err != nil {
		return nil, fmt.Errorf("bad info request: %w", err)
	}
	return InfoResponse{
		Version:  Version,
		Docs:     n.coll.NumDocs(),
		Concepts: n.o.NumConcepts(),
	}, nil
}

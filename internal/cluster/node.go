package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"time"

	"conceptrank/internal/cache"
	"conceptrank/internal/core"
	"conceptrank/internal/corpus"
	"conceptrank/internal/index"
	"conceptrank/internal/ontology"
	"conceptrank/internal/shard"
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
	// Cache, when non-nil, serves this node's seed vectors; the node
	// applies it to every query it executes.
	Cache *cache.Cache
	// CursorTTL bounds how long a parked cursor survives between steps
	// (default DefaultCursorTTL); MaxCursors caps open cursors (default
	// 256) — past it, opening one evicts the longest-idle parked cursor.
	CursorTTL  time.Duration
	MaxCursors int
	// Registry, when non-nil, receives the node's RPC metrics.
	Registry *telemetry.Registry
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
	cc      *cache.Cache
	cursors *CursorStore[*nodeCursor]
	metrics *nodeMetrics
	mux     *http.ServeMux
}

// nodeCursor is one parked remote query: the core cursor plus the
// node-side hook state a step segment reads and writes. Only one request
// holds a cursor at a time (Take checks it out of the store), so the
// fields need no locking beyond the Segment's own.
type nodeCursor struct {
	cur *core.Cursor
	n   *Node
	seg shard.Segment

	// offers accumulates every progressive offer (global IDs) of the
	// current k-epoch; step responses ship the suffix past the request's
	// From watermark, so a lost response re-ships on retry. Grow resets
	// the list — the archive it returns supersedes it.
	offers     []core.Result
	paused     bool    // self-paused against a coordinator bound
	lastDMinus float64 // latest termination floor seen by OnBound

	// Per-segment state, set before each Run.
	bound     WireBound
	waves     int
	waveCount int
}

// onProgressive buffers results as they become provably final; the next
// step response drains the buffer. Global IDs: the coordinator merges
// without mapping state.
func (nc *nodeCursor) onProgressive(r core.Result) {
	nc.offers = append(nc.offers, core.Result{Doc: nc.n.global(r.Doc), Distance: r.Distance})
}

// onWave enforces the step's wave budget — the one thing a node adds to
// the shared segment runner: stop once the budget is spent. The segment
// ends at the next wave boundary, so the count reaches the budget once.
func (nc *nodeCursor) onWave(core.WaveInfo) {
	nc.waveCount++
	if nc.waveCount == nc.waves {
		nc.seg.Stop()
	}
}

// onBound is cross-shard cancellation's remote half: pause when this
// shard's floor d⁻ is Beyond the coordinator's merged top-k. The bound
// travels on the step request and may be stale, which shard.Beyond
// tolerates.
func (nc *nodeCursor) onBound(dMinus float64) {
	nc.lastDMinus = dMinus
	if !nc.paused && shard.Beyond(nc.bound.Full, float64(nc.bound.Kth), dMinus) {
		nc.paused = true
		nc.seg.Stop()
	}
}

// NewNode builds a shard node over its slice of the corpus. The engine is
// constructed exactly as the in-process sharded engine constructs per-
// shard engines, so distributed results can be bitwise identical.
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.Ontology == nil || cfg.Coll == nil {
		return nil, errors.New("cluster: NewNode needs an ontology and a collection")
	}
	if cfg.DocMap != nil && len(cfg.DocMap) != cfg.Coll.NumDocs() {
		return nil, fmt.Errorf("cluster: doc map covers %d docs, collection has %d",
			len(cfg.DocMap), cfg.Coll.NumDocs())
	}
	n := &Node{
		o:      cfg.Ontology,
		coll:   cfg.Coll,
		docMap: cfg.DocMap,
		cc:     cfg.Cache,
		eng: core.NewEngine(cfg.Ontology, index.BuildMemInverted(cfg.Coll),
			index.BuildMemForward(cfg.Coll), cfg.Coll.NumDocs(), nil),
	}
	n.cursors = NewCursorStore(cfg.CursorTTL, cfg.MaxCursors, func(nc *nodeCursor) {
		n.metrics.evictions.Inc()
		_ = nc.cur.Close()
	})
	n.metrics = newNodeMetrics(cfg.Registry, n.cursors.Len)
	n.mux = http.NewServeMux()
	n.route("open", n.handleOpen)
	n.route("step", n.handleStep)
	n.route("grow", n.handleGrow)
	n.route("close", n.handleClose)
	n.route("pairs", n.handlePairs)
	n.route("block", n.handleBlock)
	n.route("doc", n.handleDoc)
	n.route("info", n.handleInfo)
	n.mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("ok\n"))
	})
	n.mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		// Ready means the corpus is loaded and the engine attached, which
		// NewNode guarantees before Handler can be mounted.
		w.WriteHeader(http.StatusOK)
		fmt.Fprintf(w, "ready: %d docs\n", n.coll.NumDocs())
	})
	return n, nil
}

// Handler returns the node's RPC mux: /rpc/v1/* plus /healthz and
// /readyz.
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

// maxRequestBody caps what a node reads of one RPC request: 1 MiB of JSON
// is about 130 000 concept IDs, two orders above a paper-scale SDS query
// document, and no other request carries more than a token and a few
// numbers. A larger body is refused (413) before it is decoded.
const maxRequestBody = 1 << 20

// route mounts an RPC endpoint with the shared envelope: POST + JSON in
// (at most maxRequestBody), JSON out, errors as ErrorResponse, latency and
// error accounting.
func (n *Node) route(name string, h func(*http.Request, *json.Decoder) (any, error)) {
	n.mux.HandleFunc(PathPrefix+name, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		if r.Method != http.MethodPost {
			n.metrics.observe(name, start, true)
			writeRPCError(w, http.StatusMethodNotAllowed, errors.New("POST required"))
			return
		}
		resp, err := h(r, json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody)))
		if err != nil {
			n.metrics.observe(name, start, true)
			writeRPCError(w, errStatus(err), err)
			return
		}
		n.metrics.observe(name, start, false)
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(resp)
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

func writeRPCError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(ErrorResponse{Error: err.Error(), Code: code})
}

func (n *Node) handleOpen(r *http.Request, dec *json.Decoder) (any, error) {
	var req OpenRequest
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("bad open request: %w", err)
	}
	if err := checkWireLimits(req.Options.K, 0); err != nil {
		return nil, err
	}
	if !req.SDS && len(req.Query) > MaxQueryConcepts {
		return nil, fmt.Errorf("cluster: %d query concepts above the node's limit %d", len(req.Query), MaxQueryConcepts)
	}
	nc := &nodeCursor{n: n, lastDMinus: math.Inf(1)}
	opts := req.Options.options()
	opts.Cache = n.cc
	opts.Progressive = nc.onProgressive
	opts.OnWave = nc.onWave
	opts.OnBound = nc.onBound
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
	step, err := nc.step(r.Context(), WireBound{Kth: wireFloat(math.Inf(1))}, req.Waves, 0)
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

func (n *Node) handleStep(r *http.Request, dec *json.Decoder) (any, error) {
	var req StepRequest
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("bad step request: %w", err)
	}
	nc, ok := n.cursors.Take(req.Cursor)
	if !ok {
		return nil, ErrUnknownCursor
	}
	defer n.cursors.Put(req.Cursor, nc)
	return nc.step(r.Context(), req.Bound, req.Waves, req.From)
}

// step runs one segment of at most waves BFS waves against bound — unless
// the cursor already paused itself — and reports it, shipping the offers
// past the from watermark. Done=false with no error is the cursor's own
// hook stopping the segment: a bound pause or a spent wave budget, both
// resumable.
func (nc *nodeCursor) step(ctx context.Context, bound WireBound, waves, from int) (StepResponse, error) {
	var resp StepResponse
	if !nc.paused {
		nc.bound = bound
		nc.waves = waves
		nc.waveCount = 0
		done, err := nc.seg.Run(ctx, nc.cur)
		if err != nil {
			return resp, err
		}
		resp.Done = done
	}
	resp.Paused = nc.paused
	if from >= 0 && from < len(nc.offers) {
		resp.Results = toWire(nc.offers[from:])
	}
	resp.DMinus = wireFloat(nc.lastDMinus)
	if m := nc.cur.Metrics(); m != nil {
		snap := *m
		resp.Metrics = &snap
	}
	return resp, nil
}

func (n *Node) handleGrow(r *http.Request, dec *json.Decoder) (any, error) {
	var req GrowRequest
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("bad grow request: %w", err)
	}
	nc, ok := n.cursors.Take(req.Cursor)
	if !ok {
		return nil, ErrUnknownCursor
	}
	defer n.cursors.Put(req.Cursor, nc)
	nc.cur.Grow(req.K)
	nc.paused = false // the pause proof expired with the old k
	nc.bound = WireBound{}
	// The coordinator rebuilds its merger from the archive, which contains
	// everything the offer list could hold; reset the list (and the
	// coordinator its watermark) so steps ship only post-grow discoveries.
	nc.offers = nil
	ex := nc.cur.Examined()
	out := make([]WireResult, len(ex))
	for i, rr := range ex {
		out[i] = WireResult{Doc: n.global(rr.Doc), Distance: wireFloat(rr.Distance)}
	}
	return GrowResponse{Examined: out}, nil
}

func (n *Node) handleClose(r *http.Request, dec *json.Decoder) (any, error) {
	var req CloseRequest
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("bad close request: %w", err)
	}
	n.cursors.Remove(req.Cursor)
	return struct{}{}, nil
}

func (n *Node) handlePairs(r *http.Request, dec *json.Decoder) (any, error) {
	var req PairsRequest
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("bad pairs request: %w", err)
	}
	if err := checkWireLimits(req.K, req.Workers); err != nil {
		return nil, err
	}
	ps, m, err := n.eng.TopKPairs(r.Context(), core.PairOptions{
		K:              req.K,
		ErrorThreshold: req.ErrorThreshold,
		Workers:        req.Workers,
		Cache:          n.cc,
	})
	if err != nil {
		return nil, err
	}
	out := make([]WirePair, len(ps))
	for i, p := range ps {
		// The doc map is strictly increasing, so local A < B implies
		// global A < B: canonical pair order survives the translation.
		out[i] = WirePair{A: n.global(p.A), B: n.global(p.B), Distance: wireFloat(p.Distance)}
	}
	return PairsResponse{Pairs: out, Metrics: m}, nil
}

func (n *Node) handleBlock(r *http.Request, dec *json.Decoder) (any, error) {
	docs := n.coll.Docs()
	out := make([]WireDoc, len(docs))
	for i, d := range docs {
		out[i] = WireDoc{Doc: n.global(d.ID), Concepts: d.Concepts}
	}
	return BlockResponse{Docs: out}, nil
}

func (n *Node) handleDoc(r *http.Request, dec *json.Decoder) (any, error) {
	var req DocRequest
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("bad doc request: %w", err)
	}
	l, ok := n.local(req.Doc)
	if !ok {
		return nil, fmt.Errorf("doc %d not on this node", req.Doc)
	}
	return DocResponse{Doc: req.Doc, Concepts: n.coll.Doc(l).Concepts}, nil
}

func (n *Node) handleInfo(r *http.Request, dec *json.Decoder) (any, error) {
	return InfoResponse{
		Version:  Version,
		Docs:     n.coll.NumDocs(),
		Concepts: n.o.NumConcepts(),
	}, nil
}

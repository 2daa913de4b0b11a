// Command crserve runs a kNDS query server with live introspection: a
// /search endpoint next to the full telemetry surface (/metrics,
// /debug/slowlog, /debug/cache, /debug/pprof/*), plus /healthz and
// /readyz probes. It serves either a data directory written
// by crgen or, with no -data, a self-contained synthetic ontology +
// corpus — handy for demos and for watching the metrics move:
//
//	crserve -listen :6060                # synthetic corpus
//	crserve -listen :6060 -demo 100ms    # plus background demo traffic
//	crserve -listen :6060 -data data -corpus RADIO
//
//	curl 'localhost:6060/search?type=rds&ids=42,99&k=10&eps=0.5'
//	curl localhost:6060/metrics
//	curl localhost:6060/debug/slowlog
//
// Paged search keeps a resumable cursor open server-side: page=N returns
// the first N results plus a resume token, and cursor=TOK&n=N fetches
// subsequent pages — each growing the saved top-k ranking in place rather
// than re-running the query:
//
//	curl 'localhost:6060/search?type=rds&ids=42,99&page=10'
//	curl 'localhost:6060/search?cursor=3f9c…e1&n=10'
//
// The token is the opaque "cursor" field of the previous response; its
// "done" field marks a drained ranking. A parked cursor lives until it is
// drained, idle for one minute (half the shard nodes' cursor TTL, so a
// token never outlives the node cursors behind it), or — with 256 already
// open — the longest idle when a new paged search needs its slot. Resuming
// a token that is unknown, expired or evicted answers 404: start the
// search again.
//
// A request may ask for at most 10 000 results (k, page, n), and an RDS
// query may name at most 1 024 concept IDs (duplicates count); more is
// refused with 400, at this edge and again on every node.
//
// # Distributed serving
//
// The same binary runs the distributed tier. A -node serves one shard of
// the corpus over the versioned RPC protocol; a -coordinator fans /search
// out to the nodes and merges, bitwise identical to local execution:
//
//	crserve -node -shard-index 0 -shard-count 3 -listen :7001
//	crserve -node -shard-index 1 -shard-count 3 -listen :7002
//	crserve -node -shard-index 2 -shard-count 3 -listen :7003
//	crserve -coordinator -peers 'http://localhost:7001;http://localhost:7002;http://localhost:7003' -listen :6060
//
// In -peers, ';' separates shards and ',' separates replicas of one
// shard (hedged after -hedge). Every node must be started from the same
// corpus flags (-data or the synthetic generator settings) so the
// partition agrees. When nodes die mid-query and -partial is set, search
// responses carry a "degraded" field listing the shards the answer is
// missing. SIGINT/SIGTERM drain in-flight requests and open cursors
// before exit.
//
// Sharding is served only through -node and -coordinator. crserve has no
// in-process sharded mode: two shards cost more per query than one
// engine, because each repeats the BFS over the whole ontology. The
// benchmark's shard.sharded2_ms_per_op row, two nodes and a coordinator
// in one process over an in-memory transport, times that cost.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"conceptrank"
	"conceptrank/internal/cluster"
)

// backend is what /search needs from an execution mode — a single engine
// or the cluster coordinator — as one value built where the concrete
// engine is known. degraded lists shards missing from the answer
// (distributed partial results).
type backend struct {
	numConcepts int // valid query concept IDs are [0, numConcepts)
	numDocs     int
	docConcepts func(ctx context.Context, id conceptrank.DocID) ([]conceptrank.ConceptID, error)
	search      func(ctx context.Context, sds bool, q []conceptrank.ConceptID, opts conceptrank.Options) (res []conceptrank.Result, m *conceptrank.Metrics, degraded []int, err error)
	open        func(ctx context.Context, sds bool, q []conceptrank.ConceptID, opts conceptrank.Options) (*pager, error)
}

// pager is one paged search, parked in the cursor store between requests.
type pager struct {
	next  func(ctx context.Context, n int) ([]conceptrank.Result, error)
	stats func() (m *conceptrank.Metrics, degraded []int)
	close func() error
}

// cursorTTL is how long an idle paged search stays parked: strictly below
// the TTL of the node cursors a coordinator-mode pager holds, so a token
// crserve still honours never points at node cursors already swept.
const cursorTTL = cluster.DefaultCursorTTL / 2

type config struct {
	listen   string
	data     string
	corpus   string
	concepts int
	scale    float64
	seed     int64
	slowMS   int
	cacheMB  int
	demo     time.Duration

	node       bool
	shardIndex int
	shardCount int

	coordinator bool
	peers       string
	hedge       time.Duration
	deadline    time.Duration
	retries     int
	partial     bool
	maxInflight int
	maxTenant   int
	shedLatency time.Duration

	// maxCursors caps open cursors — paged searches at the edge, parked
	// core cursors on a -node — with 0 meaning the store's default of 256.
	// No flag sets it; tests shrink it to reach the eviction path.
	maxCursors int
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("crserve: ")
	var cfg config
	flag.StringVar(&cfg.listen, "listen", ":6060", "HTTP listen address")
	flag.StringVar(&cfg.data, "data", "", "data directory written by crgen (empty = synthetic corpus)")
	flag.StringVar(&cfg.corpus, "corpus", "RADIO", "collection within -data: PATIENT or RADIO")
	flag.IntVar(&cfg.concepts, "concepts", 5000, "synthetic ontology size (no -data)")
	flag.Float64Var(&cfg.scale, "corpus-scale", 0.05, "synthetic corpus scale (no -data; 1.0 = paper RADIO size)")
	flag.Int64Var(&cfg.seed, "seed", 1, "synthetic generator seed")
	flag.IntVar(&cfg.slowMS, "slow", 25, "slow-log latency threshold in milliseconds (0 = log every query)")
	flag.IntVar(&cfg.cacheMB, "cache-mb", 0, "semantic-distance cache budget in MiB (0 = caching off)")
	flag.DurationVar(&cfg.demo, "demo", 0, "fire a random background query this often (0 = off)")
	flag.BoolVar(&cfg.node, "node", false, "serve one shard of the corpus over the cluster RPC protocol")
	flag.IntVar(&cfg.shardIndex, "shard-index", 0, "this node's shard (with -node)")
	flag.IntVar(&cfg.shardCount, "shard-count", 1, "total shards in the cluster (with -node)")
	flag.BoolVar(&cfg.coordinator, "coordinator", false, "serve /search by fanning out to -peers")
	flag.StringVar(&cfg.peers, "peers", "", "coordinator peers: ';' separates shards, ',' separates replicas")
	flag.DurationVar(&cfg.hedge, "hedge", 0, "hedge stateless RPCs to the next replica after this delay (0 = off)")
	flag.DurationVar(&cfg.deadline, "deadline", 5*time.Second, "per-RPC-attempt deadline (coordinator)")
	flag.IntVar(&cfg.retries, "retries", 2, "RPC retries on transient errors (coordinator)")
	flag.BoolVar(&cfg.partial, "partial", false, "degrade to flagged partial results when shards die (coordinator)")
	flag.IntVar(&cfg.maxInflight, "max-inflight", 0, "admission: max concurrent queries, 0 = unlimited (coordinator)")
	flag.IntVar(&cfg.maxTenant, "max-per-tenant", 0, "admission: max concurrent queries per X-Tenant, 0 = unlimited (coordinator)")
	flag.DurationVar(&cfg.shedLatency, "shed-latency", 0, "admission: shed new queries while the p99 of the last 128 queries exceeds this, 0 = off (coordinator)")
	flag.Parse()

	app, err := build(cfg)
	if err != nil {
		log.Fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ln, err := net.Listen("tcp", cfg.listen)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("%s on %s", app.banner, ln.Addr())
	if err := app.run(ctx, ln); err != nil {
		log.Fatal(err)
	}
	log.Print("drained, bye")
}

// app is a fully wired crserve instance: the handler, the paged-cursor
// store to drain at shutdown, and teardown hooks. Tests build one without
// going through flags or signals.
type app struct {
	banner  string
	handler http.Handler
	store   *cluster.CursorStore[*pager] // nil in -node mode
	cleanup []func()
}

// run serves until ctx is cancelled, then drains: in-flight requests get
// shutdownGrace to finish, parked cursors are closed, teardown hooks run.
func (a *app) run(ctx context.Context, ln net.Listener) error {
	srv := &http.Server{Handler: a.handler, ReadHeaderTimeout: headerTimeout, IdleTimeout: idleTimeout}
	errc := make(chan error, 1)
	go func() {
		if err := srv.Serve(ln); err != http.ErrServerClosed {
			errc <- err
		}
	}()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	sctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	err := srv.Shutdown(sctx)
	if a.store != nil {
		a.store.Close() // closes every parked pager, and with it its node cursors
	}
	for _, f := range a.cleanup {
		f()
	}
	return err
}

const shutdownGrace = 10 * time.Second

// The server's connection timeouts, in every mode. A client has
// readHeaderTimeout to send a request's line and headers, so a slow-loris
// client that trickles them holds a connection and its goroutine no
// longer than that. A kept-alive connection idle for idleTimeout is
// closed; that is longer than the 90 s after which Go's default transport,
// which the coordinator's node client uses, drops an idle connection
// itself, so a node never closes one under a request the client is
// sending. No read timeout: /search reads no body, and a node refuses a
// body above 1 MiB before decoding it.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// headerTimeout is the readHeaderTimeout run uses; a test shortens it.
var headerTimeout = readHeaderTimeout

func build(cfg config) (*app, error) {
	if cfg.node && cfg.coordinator {
		return nil, errors.New("-node and -coordinator are mutually exclusive")
	}
	slowThreshold := time.Duration(cfg.slowMS) * time.Millisecond
	if cfg.slowMS <= 0 {
		slowThreshold = time.Nanosecond // Config treats 0 as "use the default"
	}
	tel := conceptrank.NewTelemetry(conceptrank.TelemetryConfig{SlowThreshold: slowThreshold})
	a := &app{}
	var cc *conceptrank.Cache
	if cfg.cacheMB > 0 {
		cc = conceptrank.NewCache(conceptrank.CacheConfig{MaxBytes: int64(cfg.cacheMB) << 20})
		tel.AttachCache(cc)
	}

	if cfg.coordinator {
		return buildCoordinator(cfg, a, tel)
	}

	o, coll, err := loadOrGenerate(cfg.data, cfg.corpus, cfg.concepts, cfg.scale, cfg.seed)
	if err != nil {
		return nil, err
	}
	if cfg.node {
		return buildNode(cfg, a, tel, cc, o, coll)
	}
	return buildLocal(cfg, a, tel, cc, o, coll)
}

// buildNode serves one shard of the corpus over the cluster RPC protocol.
// Every node of a cluster partitions the same corpus with the same flags,
// so the shards agree without a control plane.
func buildNode(cfg config, a *app, tel *conceptrank.Telemetry, cc *conceptrank.Cache,
	o *conceptrank.Ontology, coll *conceptrank.Collection) (*app, error) {
	if cfg.shardIndex < 0 || cfg.shardIndex >= cfg.shardCount {
		return nil, fmt.Errorf("-shard-index %d outside [0,%d)", cfg.shardIndex, cfg.shardCount)
	}
	colls, maps, err := conceptrank.PartitionCollection(coll, conceptrank.ShardConfig{Shards: cfg.shardCount})
	if err != nil {
		return nil, err
	}
	node, err := conceptrank.NewClusterNode(conceptrank.ClusterNodeConfig{
		Ontology:   o,
		Coll:       colls[cfg.shardIndex],
		DocMap:     maps[cfg.shardIndex],
		Cache:      cc,
		Registry:   tel.Registry,
		MaxCursors: cfg.maxCursors,
	})
	if err != nil {
		return nil, err
	}
	a.cleanup = append(a.cleanup, func() { _ = node.Close() })
	mux := http.NewServeMux()
	mux.Handle("/", tel.Handler())
	mux.Handle(conceptrank.ClusterRPCPrefix, node.Handler())
	conceptrank.ClusterHealthHandler(mux)
	a.handler = mux
	a.banner = fmt.Sprintf("shard node %d/%d serving %d docs",
		cfg.shardIndex, cfg.shardCount, node.NumDocs())
	return a, nil
}

// buildCoordinator serves /search by fanning out to the -peers nodes.
func buildCoordinator(cfg config, a *app, tel *conceptrank.Telemetry) (*app, error) {
	peers, err := parsePeers(cfg.peers)
	if err != nil {
		return nil, err
	}
	ccfg := conceptrank.ClusterConfig{
		Peers:          peers,
		Deadline:       cfg.deadline,
		Retries:        cfg.retries,
		HedgeDelay:     cfg.hedge,
		PartialResults: cfg.partial,
		Admission: conceptrank.ClusterAdmissionConfig{
			MaxInFlight:  cfg.maxInflight,
			MaxPerTenant: cfg.maxTenant,
			ShedLatency:  cfg.shedLatency,
		},
		Sink: tel,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	coord, err := conceptrank.NewCoordinator(ctx, ccfg)
	if err != nil {
		return nil, err
	}
	a.serve(cfg, tel, &backend{
		numConcepts: coord.NumConcepts(),
		numDocs:     coord.NumDocs(),
		docConcepts: coord.DocConcepts,
		search: func(ctx context.Context, sds bool, q []conceptrank.ConceptID, opts conceptrank.Options) ([]conceptrank.Result, *conceptrank.Metrics, []int, error) {
			res, sm, err := pick(sds, coord.RDS, coord.SDS)(ctx, q, opts)
			m, degraded := shardedStats(sm)
			return res, m, degraded, err
		},
		open: func(ctx context.Context, sds bool, q []conceptrank.ConceptID, opts conceptrank.Options) (*pager, error) {
			c, err := pick(sds, coord.OpenRDS, coord.OpenSDS)(ctx, q, opts)
			if err != nil {
				return nil, err
			}
			// Close also frees the coordinator's admission slot.
			return &pager{next: c.Next, close: c.Close,
				stats: func() (*conceptrank.Metrics, []int) { return shardedStats(c.Metrics()) }}, nil
		},
	})
	a.banner = fmt.Sprintf("coordinator fronting %d shards, %d docs",
		coord.NumShards(), coord.NumDocs())
	return a, nil
}

// serve mounts /search over b next to the telemetry and health surfaces,
// with the store its paged searches park in.
func (a *app) serve(cfg config, tel *conceptrank.Telemetry, b *backend) {
	a.store = cluster.NewCursorStore(cursorTTL, cfg.maxCursors, func(p *pager) { _ = p.close() })
	mux := http.NewServeMux()
	mux.Handle("/", tel.Handler())
	mux.HandleFunc("/search", func(w http.ResponseWriter, r *http.Request) {
		serveSearch(w, r, b, a.store)
	})
	conceptrank.ClusterHealthHandler(mux)
	a.handler = mux
}

// buildLocal is the classic standalone server: one in-process engine
// behind /search.
func buildLocal(cfg config, a *app, tel *conceptrank.Telemetry, cc *conceptrank.Cache,
	o *conceptrank.Ontology, coll *conceptrank.Collection) (*app, error) {
	if err := coll.CheckOntology(o.NumConcepts()); err != nil {
		return nil, fmt.Errorf("%s collection does not match its ontology: %w", cfg.corpus, err)
	}
	eng := conceptrank.NewEngine(o, coll)
	eng.EnableTelemetry(tel)
	eng.EnableCache(cc)
	b := &backend{
		numConcepts: o.NumConcepts(),
		numDocs:     coll.NumDocs(),
		docConcepts: func(_ context.Context, id conceptrank.DocID) ([]conceptrank.ConceptID, error) {
			return coll.Doc(id).Concepts, nil
		},
		search: func(ctx context.Context, sds bool, q []conceptrank.ConceptID, opts conceptrank.Options) ([]conceptrank.Result, *conceptrank.Metrics, []int, error) {
			res, m, err := pick(sds, eng.RDSContext, eng.SDSContext)(ctx, q, opts)
			return res, m, nil, err
		},
		open: func(_ context.Context, sds bool, q []conceptrank.ConceptID, opts conceptrank.Options) (*pager, error) {
			c, err := pick(sds, eng.OpenRDS, eng.OpenSDS)(q, opts)
			if err != nil {
				return nil, err
			}
			return &pager{next: c.Next, close: c.Close,
				stats: func() (*conceptrank.Metrics, []int) { return c.Metrics(), nil }}, nil
		},
	}
	a.serve(cfg, tel, b)
	a.banner = fmt.Sprintf("serving %d docs (search: /search, metrics: /metrics)", b.numDocs)
	if cfg.demo > 0 {
		stopDemo := make(chan struct{})
		go demoTraffic(b, cfg.demo, cfg.seed, stopDemo)
		a.cleanup = append(a.cleanup, func() { close(stopDemo) })
	}
	return a, nil
}

// pick selects the SDS or the RDS variant of an engine method pair.
func pick[F any](sds bool, rds, sdsVariant F) F {
	if sds {
		return sdsVariant
	}
	return rds
}

func shardedStats(sm *conceptrank.ShardedMetrics) (*conceptrank.Metrics, []int) {
	if sm == nil {
		return nil, nil
	}
	return &sm.Merged, sm.Degraded
}

// parsePeers splits "u1,u2;u3;u4,u5" into one replica list per shard.
func parsePeers(s string) ([][]string, error) {
	if strings.TrimSpace(s) == "" {
		return nil, errors.New("-coordinator needs -peers (';' separates shards, ',' separates replicas)")
	}
	var peers [][]string
	for _, shardPart := range strings.Split(s, ";") {
		var replicas []string
		for _, u := range strings.Split(shardPart, ",") {
			u = strings.TrimSpace(u)
			if u == "" {
				continue
			}
			if !strings.Contains(u, "://") {
				u = "http://" + u
			}
			replicas = append(replicas, strings.TrimRight(u, "/"))
		}
		if len(replicas) == 0 {
			return nil, fmt.Errorf("empty shard in -peers %q", s)
		}
		peers = append(peers, replicas)
	}
	return peers, nil
}

func loadOrGenerate(data, corpusName string, concepts int, scale float64, seed int64) (*conceptrank.Ontology, *conceptrank.Collection, error) {
	if data != "" {
		o, err := conceptrank.LoadOntology(filepath.Join(data, "ontology.cro"))
		if err != nil {
			return nil, nil, err
		}
		coll, err := conceptrank.LoadCollection(filepath.Join(data, strings.ToUpper(corpusName)+".crc"))
		return o, coll, err
	}
	o, err := conceptrank.GenerateOntology(conceptrank.OntologyConfig{NumConcepts: concepts, Seed: seed})
	if err != nil {
		return nil, nil, err
	}
	coll, err := conceptrank.GenerateCorpus(o, conceptrank.RadioProfile(scale, seed))
	return o, coll, err
}

type searchResponse struct {
	Results []searchResult       `json:"results"`
	Metrics *conceptrank.Metrics `json:"metrics"`
	// Cursor is the resume token of a paged search: pass it back as
	// /search?cursor=TOK&n=N to fetch the next page. Omitted once the
	// ranking is drained.
	Cursor string `json:"cursor,omitempty"`
	// Done marks a drained paged search: the collection holds no more
	// rankable documents for this query.
	Done bool `json:"done,omitempty"`
	// Degraded lists shards missing from a partial answer (nodes that died
	// mid-query under the coordinator's -partial policy).
	Degraded []int `json:"degraded,omitempty"`
}

type searchResult struct {
	Doc      int     `json:"doc"`
	Distance float64 `json:"distance"`
}

// maxResults is the ceiling on what one /search request may ask for (k,
// page and n): every result is held and shipped. Larger values are refused
// (400), not clamped — the caller would get a different answer than it
// asked for.
const maxResults = 10_000

// intParam reads the integer query parameter name, def when absent. A
// value that does not parse or lies outside [lo, hi] is answered with 400
// and reported as !ok.
func intParam(w http.ResponseWriter, qp url.Values, name string, def, lo, hi int) (int, bool) {
	v := qp.Get(name)
	if v == "" {
		return def, true
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < lo || n > hi {
		httpError(w, http.StatusBadRequest, "bad %s %q (want %d..%d)", name, v, lo, hi)
		return 0, false
	}
	return n, true
}

func serveSearch(w http.ResponseWriter, r *http.Request, b *backend, store *cluster.CursorStore[*pager]) {
	qp := r.URL.Query()
	ctx := r.Context()
	if tenant := r.Header.Get("X-Tenant"); tenant != "" {
		ctx = conceptrank.WithTenant(ctx, tenant)
	}

	// Resume a paged search: /search?cursor=TOK&n=N.
	if tok := qp.Get("cursor"); tok != "" {
		n, ok := intParam(w, qp, "n", 10, 1, maxResults)
		if !ok {
			return
		}
		p, ok := store.Take(tok)
		if !ok {
			httpError(w, http.StatusNotFound, "unknown, expired or evicted cursor %q", tok)
			return
		}
		page, err := p.next(ctx, n)
		if errors.Is(err, cluster.ErrUnknownCursor) {
			store.Drop(tok) // a node evicted its half of this search under pressure
			httpError(w, http.StatusNotFound, "evicted cursor %q: %v", tok, err)
			return
		}
		if err != nil {
			store.Put(tok, p) // context errors are resumable; keep the state
			httpError(w, http.StatusInternalServerError, "page failed: %v", err)
			return
		}
		servePage(w, store, tok, p, page, n)
		return
	}

	opts := conceptrank.Options{ErrorThreshold: 0.5}
	var ok bool
	if opts.K, ok = intParam(w, qp, "k", 10, 1, maxResults); !ok {
		return
	}
	if v := qp.Get("eps"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || f < 0 || f > 1 {
			httpError(w, http.StatusBadRequest, "bad eps %q (want [0,1])", v)
			return
		}
		opts.ErrorThreshold = f
	}

	// page=N starts a paged search: the first N results come back with a
	// resume token for /search?cursor=TOK&n=N.
	pageSize, ok := intParam(w, qp, "page", 0, 1, maxResults)
	if !ok {
		return
	}
	if pageSize > 0 {
		opts.K = pageSize
	}

	var (
		q   []conceptrank.ConceptID
		sds bool
	)
	switch typ := qp.Get("type"); typ {
	case "", "rds":
		for _, part := range strings.Split(qp.Get("ids"), ",") {
			part = strings.TrimSpace(part)
			if part == "" {
				continue
			}
			if len(q) == cluster.MaxQueryConcepts {
				httpError(w, http.StatusBadRequest, "too many concept IDs (want at most %d)", cluster.MaxQueryConcepts)
				return
			}
			n, perr := strconv.ParseUint(part, 10, 32)
			if perr != nil || int(n) >= b.numConcepts {
				httpError(w, http.StatusBadRequest, "bad concept ID %q", part)
				return
			}
			q = append(q, conceptrank.ConceptID(n))
		}
		if len(q) == 0 {
			httpError(w, http.StatusBadRequest, "rds needs ids=1,2,...")
			return
		}
	case "sds":
		doc, perr := strconv.Atoi(qp.Get("doc"))
		if perr != nil || doc < 0 || doc >= b.numDocs {
			httpError(w, http.StatusBadRequest, "sds needs doc in [0,%d)", b.numDocs)
			return
		}
		concepts, err := b.docConcepts(ctx, conceptrank.DocID(doc))
		if err != nil {
			httpError(w, http.StatusInternalServerError, "doc lookup failed: %v", err)
			return
		}
		q, sds = concepts, true
	default:
		httpError(w, http.StatusBadRequest, "unknown type %q (want rds or sds)", typ)
		return
	}

	if pageSize > 0 {
		p, err := b.open(ctx, sds, q, opts)
		if err != nil {
			searchError(w, err)
			return
		}
		page, err := p.next(ctx, pageSize)
		if err != nil {
			_ = p.close()
			searchError(w, err)
			return
		}
		servePage(w, store, "", p, page, pageSize)
		return
	}

	results, m, degraded, err := b.search(ctx, sds, q, opts)
	if err != nil {
		searchError(w, err)
		return
	}
	writeSearchResponse(w, searchResponse{Metrics: m, Degraded: degraded}, results)
}

// servePage answers one page of p and settles where p goes next: a short
// page drained the ranking, so p is closed (by the store, if it came from
// there); otherwise it is parked — under tok when resuming, under a fresh
// token for a first page (tok "").
func servePage(w http.ResponseWriter, store *cluster.CursorStore[*pager], tok string, p *pager, page []conceptrank.Result, n int) {
	var resp searchResponse
	resp.Metrics, resp.Degraded = p.stats()
	switch {
	case len(page) < n && tok != "":
		resp.Done = true
		store.Drop(tok)
	case len(page) < n:
		resp.Done = true
		_ = p.close()
	case tok != "":
		resp.Cursor = tok
		store.Put(tok, p)
	default:
		var err error
		if resp.Cursor, err = store.Add(p); err != nil {
			_ = p.close() // every slot is held by an in-flight page
			httpError(w, http.StatusServiceUnavailable, "paged search not parked: %v", err)
			return
		}
	}
	writeSearchResponse(w, resp, page)
}

// searchError maps engine errors to HTTP statuses: shed queries are 429
// (retry later), everything else a 500.
func searchError(w http.ResponseWriter, err error) {
	if errors.Is(err, conceptrank.ErrClusterOverloaded) {
		httpError(w, http.StatusTooManyRequests, "overloaded: %v", err)
		return
	}
	httpError(w, http.StatusInternalServerError, "query failed: %v", err)
}

func writeSearchResponse(w http.ResponseWriter, resp searchResponse, results []conceptrank.Result) {
	resp.Results = make([]searchResult, len(results))
	for i, res := range results {
		resp.Results[i] = searchResult{Doc: int(res.Doc), Distance: res.Distance}
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_ = json.NewEncoder(w).Encode(resp)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	http.Error(w, fmt.Sprintf(format, args...), code)
}

// demoTraffic fires random RDS/SDS queries so the telemetry surface has
// something to show out of the box.
func demoTraffic(b *backend, every time.Duration, seed int64, stop <-chan struct{}) {
	r := rand.New(rand.NewSource(seed))
	t := time.NewTicker(every)
	defer t.Stop()
	ctx := context.Background()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		opts := conceptrank.Options{K: 1 + r.Intn(10), ErrorThreshold: r.Float64()}
		if r.Intn(4) == 0 && b.numDocs > 0 {
			if concepts, err := b.docConcepts(ctx, conceptrank.DocID(r.Intn(b.numDocs))); err == nil {
				_, _, _, _ = b.search(ctx, true, concepts, opts)
			}
			continue
		}
		q := make([]conceptrank.ConceptID, 1+r.Intn(4))
		for i := range q {
			q[i] = conceptrank.ConceptID(r.Intn(b.numConcepts))
		}
		_, _, _, _ = b.search(ctx, false, q, opts)
	}
}

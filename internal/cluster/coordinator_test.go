package cluster

import (
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"conceptrank/internal/core"
	"conceptrank/internal/corpus"
	"conceptrank/internal/ontology"
)

func TestCoordinatorAdmissionSheds(t *testing.T) {
	r := rand.New(rand.NewSource(20140410))
	o := randomDAGOntology(r, 40, 0.3)
	coll := randomCollection(r, o, 20, 5)
	f := newFleet(t, o, coll, 2, 1)
	coord := f.coordinator(t, func(cfg *CoordinatorConfig) {
		cfg.Admission = AdmissionConfig{MaxInFlight: 1}
	})
	ctx := context.Background()
	q := []ontology.ConceptID{1}

	// A parked cursor holds its admission slot until Close.
	cur, err := coord.OpenRDS(ctx, q, core.Options{K: 3, ErrorThreshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := coord.RDS(ctx, q, core.Options{K: 3, ErrorThreshold: 0.5}); err != ErrOverloaded {
		t.Fatalf("second query err = %v, want ErrOverloaded", err)
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := coord.RDS(ctx, q, core.Options{K: 3, ErrorThreshold: 0.5}); err != nil {
		t.Fatalf("query after release: %v", err)
	}
	if got := coord.Admission().InFlight(); got != 0 {
		t.Fatalf("InFlight = %d after drain, want 0", got)
	}
}

// slowTransport delays every RPC by its current delay.
type slowTransport struct{ delay atomic.Int64 }

func (s *slowTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	time.Sleep(time.Duration(s.delay.Load()))
	return http.DefaultTransport.RoundTrip(req)
}

// TestShedLatencyRecovers: the ShedLatency rule reads the p99 of recent
// queries, not of every query since boot. After a few slow queries, more
// fast ones than the latency window holds bring the tier back, and a
// query that arrives while another is in flight is admitted again.
func TestShedLatencyRecovers(t *testing.T) {
	r := rand.New(rand.NewSource(20140414))
	o := randomDAGOntology(r, 40, 0.3)
	coll := randomCollection(r, o, 20, 5)
	f := newFleet(t, o, coll, 2, 1)
	tr := &slowTransport{}
	coord := f.coordinator(t, func(cfg *CoordinatorConfig) {
		cfg.Admission = AdmissionConfig{ShedLatency: 100 * time.Millisecond}
		cfg.HTTPClient = &http.Client{Transport: tr}
	})
	ctx := context.Background()
	q := []ontology.ConceptID{1}
	opts := core.Options{K: 3, ErrorThreshold: 0.5}

	tr.delay.Store(int64(150 * time.Millisecond))
	for i := 0; i < 3; i++ {
		if _, _, err := coord.RDS(ctx, q, opts); err != nil {
			t.Fatalf("slow query %d: %v", i, err)
		}
	}
	tr.delay.Store(0)
	for i := 0; i < windowSize+1; i++ {
		if _, _, err := coord.RDS(ctx, q, opts); err != nil {
			t.Fatalf("fast query %d: %v", i, err)
		}
	}
	cur, err := coord.OpenRDS(ctx, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if _, _, err := coord.RDS(ctx, q, opts); err != nil {
		t.Fatalf("query beside an in-flight one after %d fast queries: %v", windowSize+1, err)
	}
}

// TestCoordinatorHedgesSlowReplica fronts each shard with a replica pair
// where replica 0 stalls: hedging must win through replica 1 and the
// results stay bitwise identical to the single engine.
func TestCoordinatorHedgesSlowReplica(t *testing.T) {
	r := rand.New(rand.NewSource(20140411))
	o := randomDAGOntology(r, 40, 0.3)
	coll := randomCollection(r, o, 20, 5)
	single := singleEngine(o, coll)
	f := newFleet(t, o, coll, 2, 2)

	// Wrap replica 0 of each shard in a stalling proxy.
	stall := make(chan struct{})
	defer close(stall)
	for s := range f.peers {
		fast := f.peers[s][0]
		slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			select {
			case <-stall:
			case <-req.Context().Done():
			}
			http.Error(w, "stalled", http.StatusServiceUnavailable)
		}))
		t.Cleanup(slow.Close)
		f.peers[s] = []string{slow.URL, fast}
	}
	coord := f.coordinator(t, func(cfg *CoordinatorConfig) {
		cfg.HedgeDelay = 5 * time.Millisecond
		cfg.Deadline = 2 * time.Second
	})

	q := []ontology.ConceptID{1, 3}
	opts := core.Options{K: 10, ErrorThreshold: 0.5}
	want, _, err := single.RDSContext(context.Background(), q, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, m, err := coord.RDS(context.Background(), q, opts)
	if err != nil {
		t.Fatalf("hedged query failed: %v", err)
	}
	assertIdentical(t, "hedged vs single", want, got)
	if len(m.Degraded) != 0 {
		t.Fatalf("hedged query degraded shards %v", m.Degraded)
	}
}

func TestCoordinatorValidatesOptions(t *testing.T) {
	r := rand.New(rand.NewSource(20140412))
	o := randomDAGOntology(r, 30, 0.3)
	coll := randomCollection(r, o, 10, 4)
	f := newFleet(t, o, coll, 2, 1)
	coord := f.coordinator(t, nil)
	ctx := context.Background()

	if _, _, err := coord.RDS(ctx, nil, core.Options{K: 3}); err == nil {
		t.Fatal("empty query accepted")
	}
	if _, _, err := coord.RDS(ctx, []ontology.ConceptID{99999}, core.Options{K: 3}); err == nil {
		t.Fatal("out-of-range concept accepted")
	}
	if _, _, err := coord.RDS(ctx, []ontology.ConceptID{1}, core.Options{K: 3, Workers: -1}); err == nil {
		t.Fatal("negative workers accepted")
	}
}

func TestCoordinatorRejectsVersionSkew(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		writeFrame(w, InfoResponse{Version: "v1", Docs: 1, Concepts: 1})
	}))
	defer srv.Close()
	_, err := NewCoordinator(context.Background(), CoordinatorConfig{
		Peers: [][]string{{srv.URL}},
	})
	if err == nil {
		t.Fatal("coordinator accepted a peer speaking a different protocol version")
	}
}

// rpcCounter is a coordinator transport that counts RPCs by endpoint.
type rpcCounter struct {
	mu sync.Mutex
	n  map[string]int
}

func (c *rpcCounter) RoundTrip(req *http.Request) (*http.Response, error) {
	c.mu.Lock()
	c.n[strings.TrimPrefix(req.URL.Path, PathPrefix)]++
	c.mu.Unlock()
	return http.DefaultTransport.RoundTrip(req)
}

// take returns the counts since the last take and starts over.
func (c *rpcCounter) take() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.n
	c.n = map[string]int{}
	return n
}

// TestDistributedRPCBudget pins what a query costs on the wire. An
// unpaged query whose shards finish inside the open's wave budget makes
// one open per shard and nothing else; one that needs more waves steps
// and closes; either way no node keeps a cursor. A paged cursor keeps its
// node cursors until Close.
func TestDistributedRPCBudget(t *testing.T) {
	r := rand.New(rand.NewSource(20140413))
	o := randomDAGOntology(r, 60, 0.3)
	coll := randomCollection(r, o, 40, 6)
	single := singleEngine(o, coll)
	ctx := context.Background()
	opts := core.Options{K: 5, ErrorThreshold: 0.5}

	for _, nodes := range []int{2, 3} {
		f := newFleet(t, o, coll, nodes, 1)
		parked := func() int {
			n := 0
			for _, rep := range f.nodes {
				n += rep[0].cursors.Len()
			}
			return n
		}
		rc := &rpcCounter{n: map[string]int{}}
		for _, waves := range []int{0, 1, -1} { // 0: the default budget; -1: no cap
			coord := f.coordinator(t, func(cfg *CoordinatorConfig) {
				cfg.waveBudget = waves
				cfg.HTTPClient = &http.Client{Transport: rc}
			})
			for _, sds := range []bool{false, true} {
				q := []ontology.ConceptID{
					ontology.ConceptID(r.Intn(o.NumConcepts())),
					ontology.ConceptID(r.Intn(o.NumConcepts())),
				}
				query := coord.RDS
				if sds {
					query = coord.SDS
				}
				rc.take()
				got, _, err := query(ctx, q, opts)
				if err != nil {
					t.Fatal(err)
				}
				assertIdentical(t, "budgeted vs single", fresh(t, single, sds, q, opts.K), got)
				calls := rc.take()
				if calls["open"] != nodes {
					t.Fatalf("nodes=%d waves=%d sds=%v: %d opens, want one per shard: %v", nodes, waves, sds, calls["open"], calls)
				}
				if waves != 1 && (calls["step"] != 0 || calls["close"] != 0) {
					t.Fatalf("nodes=%d sds=%v: unpaged query beyond its opens: %v", nodes, sds, calls)
				}
				if waves == 1 && (calls["step"] < 1 || calls["close"] != nodes) {
					t.Fatalf("nodes=%d sds=%v: one-wave budget, want steps and a close per shard: %v", nodes, sds, calls)
				}
				if n := parked(); n != 0 {
					t.Fatalf("nodes=%d waves=%d sds=%v: %d node cursors parked after an unpaged query", nodes, waves, sds, n)
				}
			}
		}

		coord := f.coordinator(t, func(cfg *CoordinatorConfig) {
			cfg.HTTPClient = &http.Client{Transport: rc}
		})
		q := []ontology.ConceptID{ontology.ConceptID(r.Intn(o.NumConcepts()))}
		cur, err := coord.OpenRDS(ctx, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		rc.take()
		if _, err := cur.Next(ctx, 2); err != nil {
			t.Fatal(err)
		}
		if _, err := cur.GrowK(ctx, 2*opts.K); err != nil {
			t.Fatal(err)
		}
		if calls := rc.take(); calls["close"] != 0 || parked() != nodes {
			t.Fatalf("nodes=%d: paged cursor closed early: %v, %d parked", nodes, calls, parked())
		}
		if err := cur.Close(); err != nil {
			t.Fatal(err)
		}
		if calls := rc.take(); calls["close"] != nodes || parked() != 0 {
			t.Fatalf("nodes=%d: paged Close sent %v, %d parked", nodes, calls, parked())
		}
	}
}

// TestDocLookupOnLastShard: DocConcepts asks the shards in order, and a
// shard that does not own the document answers rather than fails, so a
// lookup for a document on the last shard leaves every node's and the
// coordinator's RPC error counters at 0 (a failure on replica 0 would
// also have hedged to replica 1). With the owner down, the lookup
// reports the owner's failure, not "not found".
func TestDocLookupOnLastShard(t *testing.T) {
	r := rand.New(rand.NewSource(20140416))
	o := randomDAGOntology(r, 40, 0.3)
	coll := randomCollection(r, o, 20, 5)
	const shards = 2
	f := newFleet(t, o, coll, shards, 2)
	coord := f.coordinator(t, func(cfg *CoordinatorConfig) { cfg.HedgeDelay = 50 * time.Millisecond })
	ctx := context.Background()
	doc := corpus.DocID(shards - 1) // round-robin placement: the last shard's first document
	got, err := coord.DocConcepts(ctx, doc)
	if err != nil {
		t.Fatal(err)
	}
	if want := coll.Doc(doc).Concepts; !reflect.DeepEqual(got, want) {
		t.Fatalf("doc %d concepts %v, want %v", doc, got, want)
	}
	for s := range f.nodes {
		for rep, n := range f.nodes[s] {
			if e := n.metrics.errors.Value(); e != 0 {
				t.Errorf("shard %d replica %d: crank_node_rpc_errors_total %d, want 0", s, rep, e)
			}
		}
		if e := coord.cm.errors[s].Value(); e != 0 {
			t.Errorf("crank_coord_rpc_errors_total{node=%d} %d, want 0", s, e)
		}
	}
	if _, err := coord.DocConcepts(ctx, corpus.DocID(coll.NumDocs())); err == nil || !strings.Contains(err.Error(), "not found") {
		t.Fatalf("lookup past the corpus: %v, want not found", err)
	}
	f.kill(shards - 1)
	if _, err := coord.DocConcepts(ctx, doc); err == nil || strings.Contains(err.Error(), "not found") {
		t.Fatalf("lookup with its owner down: %v, want the owner's failure", err)
	}
}

// TestDistributedConcurrentClose: closing a cursor closes its shards at
// once. Each node's close handler waits, up to a second, until every
// shard's close has arrived, which closes sent one after another never
// satisfy.
func TestDistributedConcurrentClose(t *testing.T) {
	r := rand.New(rand.NewSource(20140414))
	o := randomDAGOntology(r, 40, 0.3)
	coll := randomCollection(r, o, 20, 5)
	const nodes = 2
	f := newFleet(t, o, coll, nodes, 1)
	var arrived atomic.Int32
	all := make(chan struct{})
	var serial atomic.Bool
	for s := range f.peers {
		h := f.nodes[s][0].Handler()
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			if req.URL.Path == PathPrefix+"close" {
				if arrived.Add(1) == nodes {
					close(all)
				}
				select {
				case <-all:
				case <-time.After(time.Second):
					serial.Store(true)
				}
			}
			h.ServeHTTP(w, req)
		}))
		t.Cleanup(srv.Close)
		f.peers[s] = []string{srv.URL}
	}
	coord := f.coordinator(t, nil)
	ctx := context.Background()
	cur, err := coord.OpenRDS(ctx, []ontology.ConceptID{1, 3}, core.Options{K: 3, ErrorThreshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cur.Next(ctx, 2); err != nil {
		t.Fatal(err)
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	if serial.Load() {
		t.Fatal("the shards' close RPCs ran one after another")
	}
	for s := range f.nodes {
		if n := f.nodes[s][0].cursors.Len(); n != 0 {
			t.Fatalf("node %d holds %d cursors after Close", s, n)
		}
	}
}

// TestHedgeLoserCursorsAreClosed: a slow replica that completes an open
// after the hedge to its twin won still parks a cursor, and nobody else
// holds its token. The coordinator must close it, for unpaged and paged
// queries alike.
func TestHedgeLoserCursorsAreClosed(t *testing.T) {
	r := rand.New(rand.NewSource(20140415))
	o := randomDAGOntology(r, 40, 0.3)
	coll := randomCollection(r, o, 20, 5)
	f := newFleet(t, o, coll, 2, 2)

	// Replica 0 of each shard answers 50 ms late and finishes what it was
	// asked even when the caller has given up.
	var delayed atomic.Int32
	for s := range f.peers {
		h := f.nodes[s][0].Handler()
		slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			delayed.Add(1)
			defer delayed.Add(-1)
			time.Sleep(50 * time.Millisecond)
			h.ServeHTTP(w, req.WithContext(context.WithoutCancel(req.Context())))
		}))
		t.Cleanup(slow.Close)
		f.peers[s] = []string{slow.URL, f.peers[s][1]}
	}
	coord := f.coordinator(t, func(cfg *CoordinatorConfig) {
		cfg.HedgeDelay = 5 * time.Millisecond
		cfg.Deadline = 2 * time.Second
	})

	ctx := context.Background()
	q := []ontology.ConceptID{1, 3}
	opts := core.Options{K: 3, ErrorThreshold: 0.5}
	for i := 0; i < 3; i++ {
		if _, _, err := coord.RDS(ctx, q, opts); err != nil {
			t.Fatal(err)
		}
		cur, err := coord.OpenRDS(ctx, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cur.Next(ctx, 2); err != nil {
			t.Fatal(err)
		}
		if err := cur.Close(); err != nil {
			t.Fatal(err)
		}
	}

	parked := func() int {
		n := 0
		for s := range f.nodes {
			for _, node := range f.nodes[s] {
				n += node.cursors.Len()
			}
		}
		return n
	}
	deadline := time.Now().Add(5 * time.Second)
	for delayed.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	deadline = time.Now().Add(time.Second)
	for parked() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := parked(); n != 0 {
		t.Fatalf("%d cursors left parked by losing hedged opens", n)
	}
}

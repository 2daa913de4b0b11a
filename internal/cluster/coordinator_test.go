package cluster

import (
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"conceptrank/internal/core"
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
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"version":"v0","docs":1,"concepts":1}`))
	}))
	defer srv.Close()
	_, err := NewCoordinator(context.Background(), CoordinatorConfig{
		Peers: [][]string{{srv.URL}},
	})
	if err == nil {
		t.Fatal("coordinator accepted a peer speaking a different protocol version")
	}
}

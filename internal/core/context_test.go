package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"conceptrank/internal/ontology"
)

// Cancellation contract of RDSContext/SDSContext: the context is observed
// at wave boundaries; a cancelled query returns ctx.Err() with nil results
// and whatever metrics accumulated.

func TestContextCancelledBeforeQuery(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	o := randomDAGOntology(r, 40, 0.3)
	c := randomCollection(r, o, 20, 5)
	e := memEngine(o, c)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, sds := range []bool{false, true} {
		var res []Result
		var m *Metrics
		var err error
		if sds {
			res, m, err = e.SDSContext(ctx, []ontology.ConceptID{1, 2}, Options{K: 5})
		} else {
			res, m, err = e.RDSContext(ctx, []ontology.ConceptID{1, 2}, Options{K: 5})
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("sds=%v: want context.Canceled, got %v", sds, err)
		}
		if res != nil {
			t.Fatalf("sds=%v: cancelled query returned results %v", sds, res)
		}
		if m == nil {
			t.Fatalf("sds=%v: metrics must still be returned", sds)
		}
	}
}

// TestContextCancelledMidQuery cancels from inside the OnWave hook — i.e.
// deterministically between two waves — and expects the very next wave
// boundary to abort the query.
func TestContextCancelledMidQuery(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	o := randomDAGOntology(r, 120, 0.3)
	c := randomCollection(r, o, 60, 6)
	e := memEngine(o, c)
	ctx, cancel := context.WithCancel(context.Background())
	waves := 0
	opts := Options{
		K:              5,
		ErrorThreshold: 0, // keep the query traversing as long as possible
		OnWave: func(WaveInfo) {
			waves++
			if waves == 1 {
				cancel()
			}
		},
	}
	res, m, err := e.RDSContext(ctx, []ontology.ConceptID{1, 2, 3}, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v (res=%v)", err, res)
	}
	if waves != 1 {
		t.Fatalf("query ran %d waves after cancellation, want abort at the next boundary", waves-1)
	}
	if m.Iterations != 1 {
		t.Fatalf("metrics report %d iterations, want 1", m.Iterations)
	}
}

func TestContextDeadline(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	o := randomDAGOntology(r, 40, 0.3)
	c := randomCollection(r, o, 20, 5)
	e := memEngine(o, c)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, _, err := e.RDSContext(ctx, []ontology.ConceptID{1}, Options{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
}

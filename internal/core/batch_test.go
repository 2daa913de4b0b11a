package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"conceptrank/internal/ontology"
)

// runBatch is NewBatch + Run + Close: it returns the per-query output the
// run leaves behind — complete, or partial alongside Run's error.
func runBatch(ctx context.Context, e *Engine, sds bool, queries [][]ontology.ConceptID, opts Options, workers int) ([][]Result, []*Metrics, error) {
	newBatch := e.NewBatchRDS
	if sds {
		newBatch = e.NewBatchSDS
	}
	b, err := newBatch(queries, opts)
	if err != nil {
		return nil, nil, err
	}
	defer b.Close()
	err = b.Run(ctx, workers)
	return b.Results(), b.Metrics(), err
}

func TestBatchRDSMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(88))
	o := randomDAGOntology(r, 200, 0.3)
	c := randomCollection(r, o, 100, 6)
	e := memEngine(o, c)

	queries := make([][]ontology.ConceptID, 20)
	for i := range queries {
		queries[i] = []ontology.ConceptID{
			ontology.ConceptID(r.Intn(o.NumConcepts())),
			ontology.ConceptID(r.Intn(o.NumConcepts())),
		}
	}
	opts := Options{K: 5, ErrorThreshold: 0.7}
	batch, metrics, err := runBatch(context.Background(), e, false, queries, opts, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(queries) || len(metrics) != len(queries) {
		t.Fatalf("batch sizes: %d/%d", len(batch), len(metrics))
	}
	for i, q := range queries {
		seq, _, err := e.RDSContext(context.Background(), q, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(seq) != len(batch[i]) {
			t.Fatalf("query %d: %d vs %d results", i, len(batch[i]), len(seq))
		}
		for j := range seq {
			if math.Abs(seq[j].Distance-batch[i][j].Distance) > 1e-12 {
				t.Fatalf("query %d rank %d: %v vs %v", i, j, batch[i][j], seq[j])
			}
		}
		if metrics[i] == nil || metrics[i].ResultCount != len(batch[i]) {
			t.Fatalf("query %d metrics missing", i)
		}
	}
}

func TestBatchSDS(t *testing.T) {
	r := rand.New(rand.NewSource(89))
	o := randomDAGOntology(r, 100, 0.3)
	c := randomCollection(r, o, 40, 5)
	e := memEngine(o, c)
	queries := [][]ontology.ConceptID{
		c.Doc(0).Concepts, c.Doc(1).Concepts, c.Doc(2).Concepts,
	}
	batch, _, err := runBatch(context.Background(), e, true, queries, Options{K: 3}, 0) // 0 = GOMAXPROCS
	if err != nil {
		t.Fatal(err)
	}
	for i := range queries {
		if batch[i][0].Distance != 0 {
			t.Fatalf("query doc %d should match itself at 0: %v", i, batch[i])
		}
	}
}

func TestBatchPropagatesErrors(t *testing.T) {
	pf := ontology.NewPaperFig()
	c := paperCorpus(pf)
	e := memEngine(pf.O, c)
	queries := [][]ontology.ConceptID{
		pf.Concepts("F"),
		nil, // empty query -> error
		pf.Concepts("I"),
		{9999}, // out of range -> error
	}
	if _, _, err := runBatch(context.Background(), e, false, queries, Options{K: 2}, 2); err == nil {
		t.Fatal("batch with bad queries did not error")
	}
}

func TestBatchEmptyInput(t *testing.T) {
	pf := ontology.NewPaperFig()
	e := memEngine(pf.O, paperCorpus(pf))
	res, met, err := runBatch(context.Background(), e, false, nil, Options{K: 2}, 3)
	if err != nil || len(res) != 0 || len(met) != 0 {
		t.Fatalf("empty batch: %v %v %v", res, met, err)
	}
}

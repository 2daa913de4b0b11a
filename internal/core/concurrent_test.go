package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"conceptrank/internal/cache"
	"conceptrank/internal/corpus"
	"conceptrank/internal/ontology"
)

// TestConcurrentQueries: many queries at once are as many goroutines
// calling RDSContext/SDSContext on one engine. Eight goroutines run every
// RDS and SDS query, cold and then with a warm cache attached, and each
// answer must be bitwise equal to the same query run alone — results,
// decision counters and cache hits. CI also runs it under -race at
// -cpu 1,2,8.
func TestConcurrentQueries(t *testing.T) {
	r := rand.New(rand.NewSource(88))
	o := randomDAGOntology(r, 200, 0.3)
	coll := randomCollection(r, o, 120, 6)
	e := memEngine(o, coll)

	type query struct {
		sds  bool
		q    []ontology.ConceptID
		opts Options
	}
	var queries []query
	for i := 0; i < 12; i++ {
		queries = append(queries, query{q: []ontology.ConceptID{
			ontology.ConceptID(r.Intn(o.NumConcepts())),
			ontology.ConceptID(r.Intn(o.NumConcepts())),
		}, opts: Options{K: 5, ErrorThreshold: float64(i%3) / 2}})
	}
	for i := 0; i < 6; i++ {
		queries = append(queries, query{sds: true, q: coll.Doc(corpus.DocID(i * 7)).Concepts,
			opts: Options{K: 4, ErrorThreshold: float64(i%3) / 2}})
	}
	run := func(qr query) ([]Result, *Metrics, error) {
		if qr.sds {
			return e.SDSContext(context.Background(), qr.q, qr.opts)
		}
		return e.RDSContext(context.Background(), qr.q, qr.opts)
	}

	for _, cached := range []bool{false, true} {
		label := "cold"
		if cached {
			label = "cached"
			e.EnableCache(cache.New(cache.Config{}))
			for _, qr := range queries { // warm: every later RDS lookup hits
				if _, _, err := run(qr); err != nil {
					t.Fatal(err)
				}
			}
		}
		want := make([][]Result, len(queries))
		wantM := make([]*Metrics, len(queries))
		for i, qr := range queries {
			var err error
			if want[i], wantM[i], err = run(qr); err != nil {
				t.Fatal(err)
			}
		}

		const goroutines = 8
		got := make([][][]Result, goroutines)
		gotM := make([][]*Metrics, goroutines)
		errs := make([]error, goroutines)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			got[g] = make([][]Result, len(queries))
			gotM[g] = make([]*Metrics, len(queries))
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for j := range queries {
					i := (j + g) % len(queries) // each goroutine starts elsewhere
					res, m, err := run(queries[i])
					if err != nil {
						errs[g] = err
						return
					}
					got[g][i], gotM[g][i] = res, m
				}
			}(g)
		}
		wg.Wait()
		for g := range got {
			if errs[g] != nil {
				t.Fatalf("%s goroutine %d: %v", label, g, errs[g])
			}
			for i := range queries {
				l := fmt.Sprintf("%s goroutine %d query %d", label, g, i)
				assertSameResults(t, want[i], got[g][i], l)
				assertSameCounters(t, wantM[i], gotM[g][i], l)
				if w, h := wantM[i], gotM[g][i]; w.CacheHits != h.CacheHits || w.CacheMisses != h.CacheMisses {
					t.Fatalf("%s: cache hits/misses %d/%d, want %d/%d", l, h.CacheHits, h.CacheMisses, w.CacheHits, w.CacheMisses)
				}
			}
		}
		if cached && wantM[0].CacheHits == 0 {
			t.Fatal("the warm RDS query recorded no cache hit")
		}
	}
}

// fanOut runs each query on its own goroutine, at most workers at a time
// (0 = one per query), and returns every query's output by index.
func fanOut(e *Engine, sds bool, queries [][]ontology.ConceptID, opts Options, workers int) ([][]Result, []*Metrics, error) {
	if workers <= 0 {
		workers = len(queries)
	}
	res := make([][]Result, len(queries))
	met := make([]*Metrics, len(queries))
	errs := make([]error, len(queries))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, q := range queries {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, q []ontology.ConceptID) {
			defer func() { <-sem; wg.Done() }()
			if sds {
				res[i], met[i], errs[i] = e.SDSContext(context.Background(), q, opts)
			} else {
				res[i], met[i], errs[i] = e.RDSContext(context.Background(), q, opts)
			}
		}(i, q)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	return res, met, nil
}

// TestBatchRDSMatchesSequential: a batch of RDS queries run four at a time
// ranks each query exactly as the query run alone.
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
	batch, metrics, err := fanOut(e, false, queries, opts, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		seq, _, err := e.RDSContext(context.Background(), q, opts)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResults(t, seq, batch[i], fmt.Sprintf("query %d", i))
		if metrics[i] == nil || metrics[i].ResultCount != len(batch[i]) {
			t.Fatalf("query %d metrics missing", i)
		}
	}
}

// TestBatchSDS: a batch of SDS queries, one goroutine each, where every
// query is a collection document; each must rank its own document at 0.
func TestBatchSDS(t *testing.T) {
	r := rand.New(rand.NewSource(89))
	o := randomDAGOntology(r, 100, 0.3)
	c := randomCollection(r, o, 40, 5)
	e := memEngine(o, c)
	queries := [][]ontology.ConceptID{
		c.Doc(0).Concepts, c.Doc(1).Concepts, c.Doc(2).Concepts,
	}
	batch, _, err := fanOut(e, true, queries, Options{K: 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range queries {
		if batch[i][0].Distance != 0 {
			t.Fatalf("query doc %d should match itself at 0: %v", i, batch[i])
		}
	}
}

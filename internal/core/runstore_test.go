package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"conceptrank/internal/corpus"
	"conceptrank/internal/drc"
	"conceptrank/internal/ontology"
)

// freshDistance is the exact distance of a document by the paper's full
// construction: no address cache, no stored run.
func freshDistance(t *testing.T, o *ontology.Ontology, sds bool, concepts, q []ontology.ConceptID) float64 {
	t.Helper()
	p := drc.PrepareCached(o, q, 0, nil)
	probe := p.DocQueryScratch
	if sds {
		probe = p.DocDocScratch
	}
	v, err := probe(concepts, new(drc.Scratch))
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// checkFresh fails unless every result carries bitwise its document's
// full-construction distance.
func checkFresh(t *testing.T, label string, o *ontology.Ontology, fwd func(corpus.DocID) []ontology.ConceptID, sds bool, q []ontology.ConceptID, res []Result) {
	t.Helper()
	for _, r := range res {
		if want := freshDistance(t, o, sds, fwd(r.Doc), q); math.Float64bits(want) != math.Float64bits(r.Distance) {
			t.Fatalf("%s: doc %d at %v, full construction %v", label, r.Doc, r.Distance, want)
		}
	}
}

// TestRunStoreDynamicEngine: documents added to a dynamic engine after
// other documents' runs are stored get runs of their own, and every
// distance stays the full construction's.
func TestRunStoreDynamicEngine(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(71))
	o := randomDAGOntology(r, 150, 0.3)
	e, dyn := dynamicEngine(o)
	coll := corpus.New()
	addDocs := func(n int) {
		for i := 0; i < n; i++ {
			concepts := make([]ontology.ConceptID, 1+r.Intn(8))
			for j := range concepts {
				concepts[j] = ontology.ConceptID(r.Intn(o.NumConcepts()))
			}
			dyn.AddDocument("doc", concepts)
			coll.Add("doc", 0, concepts)
		}
	}
	fwd := func(d corpus.DocID) []ontology.ConceptID { return coll.Doc(d).Concepts }
	query := func(label string) {
		t.Helper()
		for i := 0; i < 6; i++ {
			sds := i%2 == 1
			q := coll.Doc(corpus.DocID(r.Intn(coll.NumDocs()))).Concepts
			if !sds {
				q = q[:min(len(q), 3)]
			}
			run := e.RDSContext
			if sds {
				run = e.SDSContext
			}
			res, _, err := run(ctx, q, Options{K: 6, ErrorThreshold: 1})
			if err != nil {
				t.Fatal(err)
			}
			checkTopK(t, o, coll, q, sds, 6, res)
			checkFresh(t, fmt.Sprintf("%s query %d", label, i), o, fwd, sds, q, res)
		}
	}

	addDocs(40)
	query("before growth")
	before := e.runs.Len()
	if before == 0 {
		t.Fatal("no run stored by probing queries")
	}
	addDocs(25)
	query("after growth")
	// A full scan probes every document, so each added one has its run now.
	q := coll.Doc(corpus.DocID(coll.NumDocs() - 1)).Concepts
	res, _, err := e.FullScanSDSContext(ctx, q, Options{K: coll.NumDocs()})
	if err != nil {
		t.Fatal(err)
	}
	checkFresh(t, "full scan", o, fwd, true, q, res)
	if got := e.runs.Len(); got != coll.NumDocs() {
		t.Fatalf("%d runs stored for %d documents after a full scan (%d before growth)", got, coll.NumDocs(), before)
	}
}

// TestRunStoreConcurrentQueries: RDS and SDS queries and partitioned full
// scans running at once on a cold engine, so that runs are made, shared
// and reused concurrently, answer bitwise as the same queries run one at a
// time on another engine. CI runs it under -race at -cpu 1,2,8.
func TestRunStoreConcurrentQueries(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(73))
	o := randomDAGOntology(r, 200, 0.3)
	coll := randomCollection(r, o, 100, 8)

	type query struct {
		sds, scan bool
		q         []ontology.ConceptID
	}
	var queries []query
	for i := 0; i < 12; i++ {
		q := coll.Doc(corpus.DocID(r.Intn(coll.NumDocs()))).Concepts
		sds := i%2 == 1
		if !sds {
			q = q[:min(len(q), 3)]
		}
		queries = append(queries, query{sds: sds, scan: i%4 >= 2, q: q})
	}
	run := func(e *Engine, qr query) ([]Result, error) {
		opts := Options{K: 5, ErrorThreshold: 1}
		var (
			res []Result
			err error
		)
		switch {
		case qr.scan && qr.sds:
			res, _, err = e.FullScanSDSContext(ctx, qr.q, Options{K: 5, Workers: 3})
		case qr.scan:
			res, _, err = e.FullScanRDSContext(ctx, qr.q, Options{K: 5, Workers: 3})
		case qr.sds:
			res, _, err = e.SDSContext(ctx, qr.q, opts)
		default:
			res, _, err = e.RDSContext(ctx, qr.q, opts)
		}
		return res, err
	}

	serial := memEngine(o, coll)
	want := make([][]Result, len(queries))
	for i, qr := range queries {
		var err error
		if want[i], err = run(serial, qr); err != nil {
			t.Fatal(err)
		}
	}

	e := memEngine(o, coll)
	const goroutines = 8
	got := make([][][]Result, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		got[g] = make([][]Result, len(queries))
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range queries {
				i := (k + g) % len(queries)
				if got[g][i], errs[g] = run(e, queries[i]); errs[g] != nil {
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		for i := range queries {
			sameRanking(t, fmt.Sprintf("goroutine %d query %d", g, i), want[i], got[g][i])
		}
	}
	if e.runs.Len() == 0 {
		t.Fatal("no run stored")
	}
}

package index_test

import (
	"context"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"conceptrank/internal/core"
	"conceptrank/internal/corpus"
	"conceptrank/internal/index"
	"conceptrank/internal/ontology"
)

func TestDynamicBasics(t *testing.T) {
	pf := ontology.NewPaperFig()
	d := index.NewDynamic()
	id0 := d.AddDocument("d0", pf.Concepts("F", "R", "F")) // duplicate F
	if id0 != 0 {
		t.Fatalf("first id = %d", id0)
	}
	cs, err := d.Concepts(id0)
	if err != nil || len(cs) != 2 {
		t.Fatalf("concepts = %v, %v", cs, err)
	}
	p, _ := d.Postings(pf.Concept("F"))
	if len(p) != 1 || p[0] != id0 {
		t.Fatalf("postings = %v", p)
	}
	if n := d.NumDocs(); n != 1 {
		t.Fatalf("NumDocs = %d", n)
	}
	if _, err := d.Concepts(corpus.DocID(5)); err == nil {
		t.Error("out-of-range doc accepted")
	}
	if d.Name(id0) != "d0" {
		t.Errorf("Name = %q", d.Name(id0))
	}
}

// TestConceptsRange: a run read under one lock equals the per-document
// reads, stays intact while documents are appended behind it, and refuses
// a range past the end.
func TestConceptsRange(t *testing.T) {
	pf := ontology.NewPaperFig()
	d := index.NewDynamic()
	d.AddDocument("d0", pf.Concepts("F", "R"))
	d.AddDocument("d1", pf.Concepts("J"))
	d.AddDocument("d2", pf.Concepts("G", "K", "F"))
	run, err := d.ConceptsRange(1, 3)
	if err != nil || len(run) != 2 {
		t.Fatalf("ConceptsRange(1, 3) = %v, %v", run, err)
	}
	for i := 0; i < 50; i++ { // regrows the document list behind run
		d.AddDocument("more", pf.Concepts("R"))
	}
	for i, cs := range run {
		want, _ := d.Concepts(corpus.DocID(1 + i))
		if !slices.Equal(cs, want) {
			t.Fatalf("run[%d] = %v, want %v", i, cs, want)
		}
	}
	if run, err := d.ConceptsRange(2, 2); err != nil || len(run) != 0 {
		t.Fatalf("empty range = %v, %v", run, err)
	}
	if _, err := d.ConceptsRange(40, corpus.DocID(d.NumDocs()+1)); err == nil {
		t.Error("range past the end accepted")
	}
	if _, err := d.ConceptsRange(3, 2); err == nil {
		t.Error("reversed range accepted")
	}
}

func TestFromCollection(t *testing.T) {
	pf := ontology.NewPaperFig()
	c := corpus.New()
	c.Add("a", 0, pf.Concepts("F"))
	c.Add("b", 0, pf.Concepts("R", "T"))
	d := index.FromCollection(c)
	if d.NumDocs() != 2 {
		t.Fatalf("NumDocs = %d", d.NumDocs())
	}
	if p, _ := d.Postings(pf.Concept("R")); len(p) != 1 {
		t.Fatalf("len(Postings(R)) = %d", len(p))
	}
}

// TestOnTheFlyDocumentIntegration demonstrates the paper's Section 1
// claim: a freshly added EMR is immediately searchable, with no index
// rebuilding.
func TestOnTheFlyDocumentIntegration(t *testing.T) {
	pf := ontology.NewPaperFig()
	dyn := index.NewDynamic()
	dyn.AddDocument("old-1", pf.Concepts("C"))
	dyn.AddDocument("old-2", pf.Concepts("M"))
	eng := core.NewEngineDynamic(pf.O, dyn, dyn, dyn.NumDocs, nil)

	q := pf.Concepts("F", "I")
	before, _, err := eng.RDSContext(context.Background(), q, core.Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Now the perfect document arrives at the point of care.
	newID := dyn.AddDocument("new-patient", pf.Concepts("F", "I"))
	after, _, err := eng.RDSContext(context.Background(), q, core.Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if after[0].Doc != newID || after[0].Distance != 0 {
		t.Fatalf("new document not immediately ranked first: %v", after)
	}
	if before[0].Doc == newID {
		t.Fatal("time travel: new doc visible before insertion")
	}
}

// TestConcurrentAddAndQuery hammers the dynamic index with concurrent
// writers and kNDS readers under the race detector.
func TestConcurrentAddAndQuery(t *testing.T) {
	pf := ontology.NewPaperFig()
	dyn := index.NewDynamic()
	letters := []string{"F", "R", "T", "V", "I", "L", "U", "G", "K", "M", "N"}
	// Seed a few documents so early queries have work to do.
	for i := 0; i < 5; i++ {
		dyn.AddDocument("seed", pf.Concepts(letters[i], letters[i+1]))
	}
	eng := core.NewEngineDynamic(pf.O, dyn, dyn, dyn.NumDocs, nil)

	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 3; w++ {
		writers.Add(1)
		go func(seed int64) {
			defer writers.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 100; i++ {
				a := letters[r.Intn(len(letters))]
				b := letters[r.Intn(len(letters))]
				dyn.AddDocument("w", pf.Concepts(a, b))
			}
		}(int64(w))
	}
	for g := 0; g < 3; g++ {
		readers.Add(1)
		go func(seed int64) {
			defer readers.Done()
			r := rand.New(rand.NewSource(seed + 100))
			for {
				select {
				case <-stop:
					return
				default:
				}
				q := pf.Concepts(letters[r.Intn(len(letters))])
				if _, _, err := eng.RDSContext(context.Background(), q, core.Options{K: 3}); err != nil {
					t.Errorf("concurrent RDS: %v", err)
					return
				}
			}
		}(int64(g))
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	if dyn.NumDocs() != 305 {
		t.Fatalf("NumDocs = %d, want 305", dyn.NumDocs())
	}
	// Final consistency: a full query over the settled index agrees with a
	// rebuilt static engine.
	coll := corpus.New()
	for i := 0; i < dyn.NumDocs(); i++ {
		cs, _ := dyn.Concepts(corpus.DocID(i))
		coll.Add("d", 0, cs)
	}
	static := core.NewEngine(pf.O, index.BuildMemInverted(coll), index.BuildMemForward(coll), coll.NumDocs(), nil)
	q := pf.Concepts("F", "I")
	a, _, err := eng.RDSContext(context.Background(), q, core.Options{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := static.RDSContext(context.Background(), q, core.Options{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Distance != b[i].Distance {
			t.Fatalf("dynamic %v vs static %v", a, b)
		}
	}
}

package core

import (
	"errors"
	"math/rand"
	"testing"

	"conceptrank/internal/corpus"
	"conceptrank/internal/distance"
	"conceptrank/internal/index"
	"conceptrank/internal/ontology"
)

// checkIndexPass requires the index pass from every origin to equal
// ConceptDistance at every listed concept.
func checkIndexPass(t *testing.T, o *ontology.Ontology, vi *vocabIndex) {
	t.Helper()
	s := sweepPool.Get().(*sweep)
	defer s.release()
	for c := range o.NumConcepts() {
		s.ascend(o, ontology.ConceptID(c))
		dist := vi.pass(s, o.NumConcepts())
		for _, v := range vi.vocab {
			if want := distance.ConceptDistance(o, ontology.ConceptID(c), v); int(dist[v]) != want {
				t.Fatalf("D(%d,%d): index pass %d, ConceptDistance %d (overflow %d)", c, v, dist[v], want, len(vi.ovA))
			}
		}
	}
}

// TestVocabIndexGrowth walks the index through its three kinds of write: a
// document of known concepts leaves the snapshot untouched, a few new
// concepts land in the overflow, and enough of them fold it into the rows.
// The pass stays exact throughout.
func TestVocabIndexGrowth(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	o := randomDAGOntology(r, 300, 0.3)
	e, dyn := dynamicEngine(o)
	for range 40 { // concepts [0, 150) only
		concepts := make([]ontology.ConceptID, 1+r.Intn(6))
		for i := range concepts {
			concepts[i] = ontology.ConceptID(r.Intn(150))
		}
		dyn.AddDocument("doc", concepts)
	}
	vi, err := e.vocabFor(dyn.NumDocs())
	if err != nil || vi == nil || len(vi.ovA) != 0 {
		t.Fatalf("first growth: index %v, err %v; want folded rows", vi, err)
	}
	checkIndexPass(t, o, vi)

	known := vi.vocab[0]
	dyn.AddDocument("known", []ontology.ConceptID{known})
	if again, _ := e.vocabFor(dyn.NumDocs()); again != vi {
		t.Fatal("a document of known concepts replaced the snapshot")
	}

	dyn.AddDocument("new", []ontology.ConceptID{299})
	grown, err := e.vocabFor(dyn.NumDocs())
	if err != nil || len(grown.ovA) == 0 || len(grown.cs) != len(vi.cs) {
		t.Fatalf("one new concept: overflow %d, rows %d → %d (err %v); want overflow only", len(grown.ovA), len(vi.cs), len(grown.cs), err)
	}
	if len(vi.ovA) != 0 || len(vi.vocab) == len(grown.vocab) {
		t.Fatal("growth changed the older snapshot")
	}
	checkIndexPass(t, o, grown)

	for c := ontology.ConceptID(150); len(e.vocab.snap.Load().ovA) != 0; c++ {
		dyn.AddDocument("new", []ontology.ConceptID{c})
		if _, err := e.vocabFor(dyn.NumDocs()); err != nil {
			t.Fatal(err)
		}
	}
	folded := e.vocab.snap.Load()
	if len(folded.cs) <= len(grown.cs) {
		t.Fatalf("fold left %d row entries, want more than %d", len(folded.cs), len(grown.cs))
	}
	checkIndexPass(t, o, folded)
	checkIndexPass(t, o, grown) // still readable after the fold
}

// flakyForward fails Concepts for one document while fail is set.
type flakyForward struct {
	*index.Dynamic
	bad  corpus.DocID
	fail bool
}

func (f *flakyForward) Concepts(d corpus.DocID) ([]ontology.ConceptID, error) {
	if f.fail && d == f.bad {
		return nil, errors.New("read failed")
	}
	return f.Dynamic.Concepts(d)
}

// TestVocabIndexGrowthRetriesAfterReadError: a growth that fails part way
// lists nothing, and the retry lists every concept — including those of
// the documents read before the failure.
func TestVocabIndexGrowthRetriesAfterReadError(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	o := randomDAGOntology(r, 120, 0.3)
	dyn := index.NewDynamic()
	fwd := &flakyForward{Dynamic: dyn, bad: 5, fail: true}
	e := NewEngineDynamic(o, dyn, fwd, dyn.NumDocs, nil)
	want := map[ontology.ConceptID]bool{}
	for range 10 {
		concepts := randomDocConcepts(r, o, 6)
		dyn.AddDocument("doc", concepts)
		for _, c := range concepts {
			want[c] = true
		}
	}
	if _, err := e.vocabFor(dyn.NumDocs()); err == nil {
		t.Fatal("growth over an unreadable document succeeded")
	}
	fwd.fail = false
	vi, err := e.vocabFor(dyn.NumDocs())
	if err != nil || vi == nil {
		t.Fatalf("retry: index %v, err %v", vi, err)
	}
	if len(vi.vocab) != len(want) {
		t.Fatalf("retry lists %d concepts, the documents carry %d", len(vi.vocab), len(want))
	}
	checkIndexPass(t, o, vi)
}

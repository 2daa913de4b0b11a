package index

import (
	"math"
	"slices"
	"testing"

	"conceptrank/internal/corpus"
	"conceptrank/internal/ontology"
)

// testCollection builds a small collection over the paper's Figure 3
// ontology.
func testCollection(pf *ontology.PaperFig) *corpus.Collection {
	c := corpus.New()
	c.Add("d0", 10, pf.Concepts("F", "R"))
	c.Add("d1", 10, pf.Concepts("R", "T", "V"))
	c.Add("d2", 10, pf.Concepts("I"))
	c.Add("d3", 10, pf.Concepts("F", "I", "L"))
	return c
}

func TestMemInverted(t *testing.T) {
	pf := ontology.NewPaperFig()
	c := testCollection(pf)
	inv := BuildMemInverted(c)

	p, err := inv.Postings(pf.Concept("F"))
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 2 || p[0] != 0 || p[1] != 3 {
		t.Errorf("postings(F) = %v, want [0 3]", p)
	}
	if p, _ := inv.Postings(pf.Concept("R")); len(p) != 2 {
		t.Errorf("len(postings(R)) = %d, want 2", len(p))
	}
	if p, _ := inv.Postings(pf.Concept("C")); len(p) != 0 {
		t.Errorf("postings(C) = %v, want empty", p)
	}
	if inv.NumConceptsIndexed() != 6 {
		t.Errorf("NumConceptsIndexed = %d, want 6", inv.NumConceptsIndexed())
	}
}

func TestMemForward(t *testing.T) {
	pf := ontology.NewPaperFig()
	c := testCollection(pf)
	fwd := BuildMemForward(c)
	cs, err := fwd.Concepts(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 3 {
		t.Errorf("Concepts(1) = %v", cs)
	}
	if n, _ := fwd.NumConcepts(3); n != 3 {
		t.Errorf("NumConcepts(3) = %d, want 3", n)
	}
	if _, err := fwd.Concepts(99); err == nil {
		t.Error("out-of-range doc accepted")
	}
}

func TestEntriesAscending(t *testing.T) {
	pf := ontology.NewPaperFig()
	inv := BuildMemInverted(testCollection(pf))
	var prev ontology.ConceptID
	first := true
	err := inv.Entries(func(c ontology.ConceptID, docs []corpus.DocID) error {
		if !first && c <= prev {
			t.Fatalf("Entries not ascending: %d after %d", c, prev)
		}
		prev, first = c, false
		if len(docs) == 0 {
			t.Fatalf("empty postings emitted for %d", c)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMemInvertedRowEdges pins the compressed-row layout's edges: a
// concept past the largest indexed one reads as empty, a caller's append
// to one row never writes into the next, and Entries skips empty rows.
func TestMemInvertedRowEdges(t *testing.T) {
	c := corpus.New()
	c.Add("d0", 0, []ontology.ConceptID{2, 3})
	c.Add("d1", 0, []ontology.ConceptID{3, 7})
	c.Add("d2", 0, []ontology.ConceptID{2})
	inv := BuildMemInverted(c)

	for _, cc := range []ontology.ConceptID{8, 9, 1 << 20, math.MaxUint32} {
		if p, err := inv.Postings(cc); err != nil || len(p) != 0 {
			t.Errorf("Postings(%d) = %v, %v; want empty", cc, p, err)
		}
	}
	if p, _ := BuildMemInverted(corpus.New()).Postings(0); len(p) != 0 {
		t.Errorf("empty index Postings(0) = %v", p)
	}

	two, _ := inv.Postings(2)
	_ = append(two, 99)
	if three, _ := inv.Postings(3); len(three) != 2 || three[0] != 0 || three[1] != 1 {
		t.Fatalf("appending to Postings(2) changed Postings(3) to %v, want [0 1]", three)
	}

	var got []ontology.ConceptID
	err := inv.Entries(func(cc ontology.ConceptID, docs []corpus.DocID) error {
		if len(docs) == 0 {
			t.Errorf("Entries emitted an empty row for %d", cc)
		}
		got = append(got, cc)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []ontology.ConceptID{2, 3, 7}; !slices.Equal(got, want) {
		t.Errorf("Entries visited %v, want %v", got, want)
	}
	if n := inv.NumConceptsIndexed(); n != 3 {
		t.Errorf("NumConceptsIndexed = %d, want 3", n)
	}
}

func TestMuSigmaCF(t *testing.T) {
	c := corpus.New()
	// Frequencies: concept 1 -> 4 docs, concepts 2..5 -> 1 doc each.
	c.Add("a", 0, []ontology.ConceptID{1, 2})
	c.Add("b", 0, []ontology.ConceptID{1, 3})
	c.Add("c", 0, []ontology.ConceptID{1, 4})
	c.Add("d", 0, []ontology.ConceptID{1, 5})
	// mu = (4+1+1+1+1)/5 = 1.6; sigma = sqrt(((2.4)^2 + 4*(0.6)^2)/5) = 1.2
	got := MuSigmaCF(c)
	if math.Abs(got-2.8) > 1e-9 {
		t.Errorf("MuSigmaCF = %v, want 2.8", got)
	}
	if MuSigmaCF(corpus.New()) != 0 {
		t.Error("empty collection threshold should be 0")
	}
}

func TestApplyFilterDepth(t *testing.T) {
	pf := ontology.NewPaperFig()
	c := corpus.New()
	// B has depth 1, R depth 5, I depth 4.
	c.Add("d0", 0, pf.Concepts("B", "R", "I"))
	out, stats := ApplyFilter(c, pf.O, FilterConfig{MinDepth: 4})
	if stats.RemovedByDepth != 1 {
		t.Errorf("RemovedByDepth = %d, want 1 (B)", stats.RemovedByDepth)
	}
	d := out.Doc(0)
	if len(d.Concepts) != 2 {
		t.Errorf("filtered doc = %v", d.Concepts)
	}
	for _, cc := range d.Concepts {
		if cc == pf.Concept("B") {
			t.Error("B survived the depth filter")
		}
	}
}

func TestApplyFilterCF(t *testing.T) {
	pf := ontology.NewPaperFig()
	c := corpus.New()
	// R appears in 3 docs, T and V in 1 each.
	c.Add("d0", 0, pf.Concepts("R", "T"))
	c.Add("d1", 0, pf.Concepts("R", "V"))
	c.Add("d2", 0, pf.Concepts("R"))
	out, stats := ApplyFilter(c, pf.O, FilterConfig{CFThreshold: 2})
	if stats.RemovedByCF != 1 {
		t.Errorf("RemovedByCF = %d, want 1 (R)", stats.RemovedByCF)
	}
	if stats.EmptiedDocs != 1 {
		t.Errorf("EmptiedDocs = %d, want 1 (d2)", stats.EmptiedDocs)
	}
	if out.NumDocs() != 3 {
		t.Errorf("filter must keep doc IDs aligned: %d docs", out.NumDocs())
	}
	if len(out.Doc(2).Concepts) != 0 {
		t.Errorf("d2 should be empty: %v", out.Doc(2).Concepts)
	}
}

func TestEligibleConcepts(t *testing.T) {
	pf := ontology.NewPaperFig()
	c := corpus.New()
	c.Add("d0", 0, pf.Concepts("B", "R", "T"))
	c.Add("d1", 0, pf.Concepts("R"))
	got := EligibleConcepts(c, pf.O, FilterConfig{MinDepth: 4, CFThreshold: 1})
	// B fails depth, R fails CF; T remains.
	if len(got) != 1 || got[0] != pf.Concept("T") {
		t.Errorf("eligible = %v, want [T]", got)
	}
}

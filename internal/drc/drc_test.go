package drc

import (
	"math"
	"math/rand"
	"testing"

	"conceptrank/internal/distance"
	"conceptrank/internal/ontology"
)

// build constructs the D-Radix of (d, q) through the one construction: a
// prepared query side and a fresh scratch.
func build(o *ontology.Ontology, d, q []ontology.ConceptID) (*DRadix, error) {
	return PrepareCached(o, q, 0, nil).BuildScratch(d, new(Scratch))
}

// docQuery is Ddq(d, q) through the one construction.
func docQuery(t *testing.T, o *ontology.Ontology, d, q []ontology.ConceptID) float64 {
	t.Helper()
	v, err := PrepareCached(o, q, 0, nil).DocQueryScratch(d, new(Scratch))
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// docDoc is Ddd(d, q) through the one construction.
func docDoc(t *testing.T, o *ontology.Ontology, d, q []ontology.ConceptID) float64 {
	t.Helper()
	v, err := PrepareCached(o, q, 0, nil).DocDocScratch(d, new(Scratch))
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestFigure5FinalDistances checks the fully tuned D-Radix of Figure 5(g):
// each node is annotated with (distance from nearest document concept,
// distance from nearest query concept) for d = {F,R,T,V}, q = {I,L,U}.
func TestFigure5FinalDistances(t *testing.T) {
	pf := ontology.NewPaperFig()
	d := pf.Concepts("F", "R", "T", "V")
	q := pf.Concepts("I", "L", "U")
	dr, err := build(pf.O, d, q)
	if err != nil {
		t.Fatal(err)
	}

	want := map[string][2]int{
		// letter: {dDoc, dQuery}
		"I": {4, 0}, // Example 1: Ddc(d,I) = 4
		"L": {2, 0}, // Example 1: Ddc(d,L) = 2
		"U": {1, 0}, // Example 1: Ddc(d,U) = 1
		"F": {0, 2},
		"R": {0, 1},
		"T": {0, 4},
		"V": {0, 5},
		"J": {1, 2},
		"G": {3, 1},
		"H": {1, 1},
		"A": {2, 4},
	}
	for letter, w := range want {
		dd, dq, ok := dr.NodeDistances(pf.Concept(letter))
		if !ok {
			t.Fatalf("node %s missing from D-Radix", letter)
		}
		if dd != w[0] || dq != w[1] {
			t.Errorf("%s: (dDoc,dQuery) = (%d,%d), want (%d,%d)", letter, dd, dq, w[0], w[1])
		}
	}

	// Example 1: Ddq(d,q) = 4 + 2 + 1 = 7.
	if got := dr.DocQueryDistance(q); got != 7 {
		t.Errorf("Ddq = %v, want 7", got)
	}
	// Ddd = (2+1+4+5)/4 + 7/3 = 3 + 7/3.
	wantDdd := 3.0 + 7.0/3.0
	if got := dr.DocDocDistance(d, q); math.Abs(got-wantDdd) > 1e-12 {
		t.Errorf("Ddd = %v, want %v", got, wantDdd)
	}
}

func TestCalculatorMatchesBLOnPaperFig(t *testing.T) {
	pf := ontology.NewPaperFig()
	bl := distance.NewBL(pf.O, 0)
	d := pf.Concepts("F", "R", "T", "V")
	q := pf.Concepts("I", "L", "U")
	if got, want := docQuery(t, pf.O, d, q), bl.DocQuery(d, q); got != want {
		t.Errorf("DocQuery: DRC %v vs BL %v", got, want)
	}
	if got, want := docDoc(t, pf.O, d, q), bl.DocDoc(d, q); math.Abs(got-want) > 1e-9 {
		t.Errorf("DocDoc: DRC %v vs BL %v", got, want)
	}
}

func TestOverlappingDocAndQuery(t *testing.T) {
	pf := ontology.NewPaperFig()
	d := pf.Concepts("F", "R")
	q := pf.Concepts("R", "L") // R in both
	dr, err := build(pf.O, d, q)
	if err != nil {
		t.Fatal(err)
	}
	dd, dq, _ := dr.NodeDistances(pf.Concept("R"))
	if dd != 0 || dq != 0 {
		t.Errorf("shared concept R distances = (%d,%d), want (0,0)", dd, dq)
	}
	bl := distance.NewBL(pf.O, 0)
	if got, want := docQuery(t, pf.O, d, q), bl.DocQuery(d, q); got != want {
		t.Errorf("DocQuery with overlap: DRC %v vs BL %v", got, want)
	}
}

func TestIdenticalDocuments(t *testing.T) {
	pf := ontology.NewPaperFig()
	d := pf.Concepts("F", "R", "T")
	if got := docDoc(t, pf.O, d, d); got != 0 {
		t.Errorf("Ddd(d,d) = %v, want 0", got)
	}
	if got := docQuery(t, pf.O, d, d); got != 0 {
		t.Errorf("Ddq(d,d) = %v, want 0", got)
	}
}

func TestSingleConceptEachSide(t *testing.T) {
	pf := ontology.NewPaperFig()
	// D(G,F) = 5 through the common ancestor A (Section 3.2 example).
	if got := docQuery(t, pf.O, pf.Concepts("F"), pf.Concepts("G")); got != 5 {
		t.Errorf("Ddq({F},{G}) = %v, want 5", got)
	}
	// Symmetric doc-doc: 5/1 + 5/1 = 10.
	if got := docDoc(t, pf.O, pf.Concepts("F"), pf.Concepts("G")); got != 10 {
		t.Errorf("Ddd({F},{G}) = %v, want 10", got)
	}
}

func randomDAGOntology(r *rand.Rand, n int, extraEdgeProb float64) *ontology.Ontology {
	b := ontology.NewBuilder("root")
	ids := []ontology.ConceptID{0}
	for i := 1; i < n; i++ {
		c := b.AddConcept("c")
		parent := ids[r.Intn(len(ids))]
		b.MustAddEdge(parent, c)
		if r.Float64() < extraEdgeProb && len(ids) > 2 {
			p2 := ids[r.Intn(len(ids)-1)]
			if p2 != parent {
				_ = b.AddEdge(p2, c)
			}
		}
		ids = append(ids, c)
	}
	return b.MustFinalize()
}

func randomConcepts(r *rand.Rand, o *ontology.Ontology, n int) []ontology.ConceptID {
	seen := map[ontology.ConceptID]bool{}
	var out []ontology.ConceptID
	for len(out) < n {
		c := ontology.ConceptID(r.Intn(o.NumConcepts()))
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

// TestQuickDRCAgainstBL is the load-bearing property test: on random DAG
// ontologies and random concept sets, DRC must agree exactly with the
// brute-force pairwise baseline for both distance types.
func TestQuickDRCAgainstBL(t *testing.T) {
	r := rand.New(rand.NewSource(2014))
	for iter := 0; iter < 60; iter++ {
		o := randomDAGOntology(r, 4+r.Intn(100), 0.35)
		bl := distance.NewBL(o, 0)
		nd := 1 + r.Intn(6)
		nq := 1 + r.Intn(6)
		if nd+nq > o.NumConcepts() {
			continue
		}
		d := randomConcepts(r, o, nd)
		q := randomConcepts(r, o, nq)
		gotQ, wantQ := docQuery(t, o, d, q), bl.DocQuery(d, q)
		if gotQ != wantQ {
			t.Fatalf("iter %d: DocQuery DRC %v vs BL %v (d=%v q=%v, ontology %v)",
				iter, gotQ, wantQ, d, q, o)
		}
		gotD, wantD := docDoc(t, o, d, q), bl.DocDoc(d, q)
		if math.Abs(gotD-wantD) > 1e-9 {
			t.Fatalf("iter %d: DocDoc DRC %v vs BL %v (d=%v q=%v)", iter, gotD, wantD, d, q)
		}
	}
}

// TestQuickNodeDistancesAgainstBruteForce cross-checks the per-node
// annotations themselves, not just the aggregated document distances.
func TestQuickNodeDistancesAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(777))
	for iter := 0; iter < 25; iter++ {
		o := randomDAGOntology(r, 4+r.Intn(60), 0.3)
		bl := distance.NewBL(o, 0)
		d := randomConcepts(r, o, 1+r.Intn(4))
		q := randomConcepts(r, o, 1+r.Intn(4))
		dr, err := build(o, d, q)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range q {
			dd, _, ok := dr.NodeDistances(c)
			if !ok {
				t.Fatalf("query concept %d missing", c)
			}
			if want := bl.DocConcept(d, c); dd != want {
				t.Fatalf("iter %d: Ddc(d,%d) = %d, want %d", iter, c, dd, want)
			}
		}
		for _, c := range d {
			_, dq, ok := dr.NodeDistances(c)
			if !ok {
				t.Fatalf("doc concept %d missing", c)
			}
			if want := bl.DocConcept(q, c); dq != want {
				t.Fatalf("iter %d: Ddc(q,%d) = %d, want %d", iter, c, dq, want)
			}
		}
	}
}

// TestQuickDocQuerySumOfSingles checks the additivity of Eq. 2: the
// document-query distance is the sum of single-concept query distances.
func TestQuickDocQuerySumOfSingles(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for iter := 0; iter < 15; iter++ {
		o := randomDAGOntology(r, 10+r.Intn(60), 0.3)
		d := randomConcepts(r, o, 1+r.Intn(5))
		q := randomConcepts(r, o, 1+r.Intn(5))
		sum := 0.0
		for _, qc := range q {
			sum += docQuery(t, o, d, []ontology.ConceptID{qc})
		}
		if got := docQuery(t, o, d, q); got != sum {
			t.Fatalf("iter %d: Ddq = %v, sum of singles %v", iter, got, sum)
		}
	}
}

func TestBuildEmptySides(t *testing.T) {
	pf := ontology.NewPaperFig()
	dr, err := build(pf.O, nil, pf.Concepts("F"))
	if err != nil {
		t.Fatal(err)
	}
	// No document concepts: Ddq is infinite-ish; must not panic.
	if got := dr.DocQueryDistance(pf.Concepts("F")); got < float64(Inf) {
		t.Errorf("Ddq with empty doc = %v, want Inf-scale", got)
	}
}

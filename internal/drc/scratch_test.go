package drc

import (
	"math"
	"math/rand"
	"testing"

	"conceptrank/internal/ontology"
)

func randomOntologyAndDocs(r *rand.Rand, nConcepts, nDocs, docLen int) (*ontology.Ontology, [][]ontology.ConceptID) {
	b := ontology.NewBuilder("root")
	ids := []ontology.ConceptID{0}
	for i := 1; i < nConcepts; i++ {
		c := b.AddConcept("c")
		b.MustAddEdge(ids[r.Intn(len(ids))], c)
		if r.Float64() < 0.3 && len(ids) > 2 {
			p2 := ids[r.Intn(len(ids))]
			_ = b.AddEdge(p2, c) // duplicate/self rejections are fine
		}
		ids = append(ids, c)
	}
	o := b.MustFinalize()
	docs := make([][]ontology.ConceptID, nDocs)
	for i := range docs {
		seen := map[ontology.ConceptID]bool{}
		for len(docs[i]) < docLen {
			c := ontology.ConceptID(1 + r.Intn(nConcepts-1))
			if !seen[c] {
				seen[c] = true
				docs[i] = append(docs[i], c)
			}
		}
	}
	return o, docs
}

// A scratch-built DAG must satisfy the radix invariants after every reuse
// cycle, as the workspace recycles nodes, edges, labels and annotation
// arrays across documents of varying shape.
func TestScratchDAGInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	o, docs := randomOntologyAndDocs(r, 120, 20, 8)
	p := PrepareCached(o, docs[0], 0, nil)
	var s Scratch
	for _, d := range docs[1:] {
		dr, err := p.BuildScratch(d, &s)
		if err != nil {
			t.Fatal(err)
		}
		if err := dr.DAG.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// After warm-up, a scratch probe with a warm address cache performs no heap
// allocation: this is the exam-stage guarantee the memstats experiment
// measures. Allow a tiny residue for map-internal rehashing noise.
func TestScratchProbeAllocFree(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	o, docs := randomOntologyAndDocs(r, 150, 12, 10)
	ac := NewAddressCache(o, 0, 0)
	p := PrepareCached(o, docs[0], 0, ac)
	var s Scratch
	for _, d := range docs[1:] {
		if _, err := p.DocQueryScratch(d, &s); err != nil {
			t.Fatal(err)
		}
	}
	var sink float64
	allocs := testing.AllocsPerRun(50, func() {
		for _, d := range docs[1:] {
			v, err := p.DocQueryScratch(d, &s)
			if err != nil {
				t.Fatal(err)
			}
			sink += v
		}
	})
	perProbe := allocs / float64(len(docs)-1)
	if perProbe > 1 {
		t.Errorf("scratch probe allocates %.2f objects/probe in steady state, want <= 1", perProbe)
	}
	if math.IsNaN(sink) {
		t.Fatal("unexpected NaN")
	}
}

package conceptrank_test

import (
	"context"
	"fmt"

	"conceptrank"
)

// paperOntology builds the running-example ontology of the paper's
// Figure 3 (22 concepts, one multi-parent node).
func paperOntology() (*conceptrank.Ontology, map[string]conceptrank.ConceptID) {
	b := conceptrank.NewOntologyBuilder("A")
	ids := map[string]conceptrank.ConceptID{"A": b.Root()}
	for _, l := range []string{"B", "C", "D", "E", "F", "G", "H", "I", "J", "K",
		"L", "M", "N", "O", "P", "Q", "R", "S", "T", "U", "V"} {
		ids[l] = b.AddConcept(l)
	}
	for _, e := range [][2]string{
		{"A", "B"}, {"A", "C"}, {"A", "D"}, {"B", "E"}, {"E", "G"},
		{"G", "I"}, {"G", "J"}, {"D", "F"}, {"F", "J"}, {"F", "H"},
		{"I", "M"}, {"I", "N"}, {"J", "K"}, {"J", "O"}, {"K", "R"},
		{"R", "U"}, {"O", "S"}, {"S", "V"}, {"H", "P"}, {"H", "L"},
		{"P", "Q"}, {"Q", "T"},
	} {
		b.MustAddEdge(ids[e[0]], ids[e[1]])
	}
	o, err := b.Finalize()
	if err != nil {
		panic(err)
	}
	return o, ids
}

// The shortest valid path between two concepts must pass through a common
// ancestor — D(G,F) is 5, not the undirected 2 (Section 3.2 of the paper).
func ExampleConceptDistance() {
	o, ids := paperOntology()
	fmt.Println(conceptrank.ConceptDistance(o, ids["G"], ids["F"]))
	// Output: 5
}

// Example 1 of the paper: Ddq({F,R,T,V}, {I,L,U}) = 4 + 2 + 1 = 7.
func ExampleDocQueryDistance() {
	o, ids := paperOntology()
	d := []conceptrank.ConceptID{ids["F"], ids["R"], ids["T"], ids["V"]}
	q := []conceptrank.ConceptID{ids["I"], ids["L"], ids["U"]}
	fmt.Println(conceptrank.DocQueryDistance(o, d, q))
	// Output: 7
}

// A relevance query over a small indexed collection.
func ExampleEngine_RDSContext() {
	o, ids := paperOntology()
	coll := conceptrank.NewCollection()
	coll.Add("note-1", 0, []conceptrank.ConceptID{ids["I"], ids["T"]})
	coll.Add("note-2", 0, []conceptrank.ConceptID{ids["F"], ids["E"]})
	coll.Add("note-3", 0, []conceptrank.ConceptID{ids["G"], ids["J"]})
	eng := conceptrank.NewEngine(o, coll)

	results, _, _ := eng.RDSContext(context.Background(), []conceptrank.ConceptID{ids["F"], ids["I"]}, conceptrank.Options{K: 2})
	for _, r := range results {
		fmt.Printf("%s %.0f\n", coll.Doc(r.Doc).Name, r.Distance)
	}
	// Output:
	// note-2 2
	// note-3 2
}

// A similarity query: the query document itself scores 0.
func ExampleEngine_SDSContext() {
	o, ids := paperOntology()
	coll := conceptrank.NewCollection()
	coll.Add("rec-1", 0, []conceptrank.ConceptID{ids["F"], ids["R"]})
	coll.Add("rec-2", 0, []conceptrank.ConceptID{ids["U"], ids["K"]})
	eng := conceptrank.NewEngine(o, coll)

	results, _, _ := eng.SDSContext(context.Background(), coll.Doc(0).Concepts, conceptrank.Options{K: 2})
	for _, r := range results {
		fmt.Printf("%s %.1f\n", coll.Doc(r.Doc).Name, r.Distance)
	}
	// Output:
	// rec-1 0.0
	// rec-2 2.5
}

// The k most similar document pairs across the whole collection: a
// bounded all-pairs join that prunes candidates against the running
// k-th best pair instead of evaluating every pair.
func ExampleEngine_TopKPairs() {
	o, ids := paperOntology()
	coll := conceptrank.NewCollection()
	coll.Add("note-1", 0, []conceptrank.ConceptID{ids["I"], ids["T"]})
	coll.Add("note-2", 0, []conceptrank.ConceptID{ids["F"], ids["E"]})
	coll.Add("note-3", 0, []conceptrank.ConceptID{ids["G"], ids["J"]})
	coll.Add("note-4", 0, []conceptrank.ConceptID{ids["G"], ids["K"]})
	eng := conceptrank.NewEngine(o, coll)

	pairs, m, _ := eng.TopKPairs(context.Background(), conceptrank.PairOptions{K: 2})
	for _, p := range pairs {
		fmt.Printf("%s ~ %s %.1f\n", coll.Doc(p.A).Name, coll.Doc(p.B).Name, p.Distance)
	}
	fmt.Printf("examined %d of %d pairs\n", m.PairsExamined, m.TotalPairs)
	// Output:
	// note-3 ~ note-4 1.0
	// note-2 ~ note-3 2.0
	// examined 2 of 6 pairs
}

// A resumable cursor pages through a ranking and extends it with GrowK —
// results stay bitwise identical to a fresh query at the larger k.
func ExampleEngine_OpenRDS() {
	o, ids := paperOntology()
	coll := conceptrank.NewCollection()
	coll.Add("note-1", 0, []conceptrank.ConceptID{ids["I"], ids["T"]})
	coll.Add("note-2", 0, []conceptrank.ConceptID{ids["F"], ids["E"]})
	coll.Add("note-3", 0, []conceptrank.ConceptID{ids["G"], ids["J"]})
	eng := conceptrank.NewEngine(o, coll)

	cur, _ := eng.OpenRDS([]conceptrank.ConceptID{ids["F"], ids["I"]}, conceptrank.Options{K: 1})
	defer cur.Close()

	page, _ := cur.Next(context.Background(), 1)
	fmt.Printf("first: %s %.0f\n", coll.Doc(page[0].Doc).Name, page[0].Distance)

	grown, _ := cur.GrowK(context.Background(), 3)
	for _, r := range grown {
		fmt.Printf("grown: %s %.0f\n", coll.Doc(r.Doc).Name, r.Distance)
	}
	// Output:
	// first: note-2 2
	// grown: note-2 2
	// grown: note-3 2
	// grown: note-1 4
}

// Concept extraction from clinical text: abbreviations expand and negated
// mentions are dropped, as in the paper's corpus construction.
func ExampleAnnotator() {
	b := conceptrank.NewOntologyBuilder("clinical finding")
	dm := b.AddConcept("diabetes mellitus", "DM2")
	brady := b.AddConcept("bradycardia")
	b.MustAddEdge(b.Root(), dm)
	b.MustAddEdge(b.Root(), brady)
	o, _ := b.Finalize()

	ann := conceptrank.NewAnnotator(o)
	set := ann.ConceptSet("Follow up DM2 care. Absence of bradycardia.")
	for _, c := range set {
		fmt.Println(o.Name(c))
	}
	// Output: diabetes mellitus
}

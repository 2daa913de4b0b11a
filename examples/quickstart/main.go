// Quickstart: build the running-example ontology of the paper (Figure 3)
// by hand, index a handful of documents, and run both query types. It also
// reproduces the paper's Example 1 distances so you can check the library
// against the publication directly.
package main

import (
	"context"
	"fmt"
	"log"

	"conceptrank"
)

func main() {
	// Figure 3 of the paper: a 22-concept is-a DAG (J has two parents).
	b := conceptrank.NewOntologyBuilder("A")
	ids := map[string]conceptrank.ConceptID{"A": b.Root()}
	for _, letter := range []string{
		"B", "C", "D", "E", "F", "G", "H", "I", "J", "K",
		"L", "M", "N", "O", "P", "Q", "R", "S", "T", "U", "V",
	} {
		ids[letter] = b.AddConcept(letter)
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
		log.Fatal(err)
	}

	cs := func(letters ...string) []conceptrank.ConceptID {
		out := make([]conceptrank.ConceptID, len(letters))
		for i, l := range letters {
			out[i] = ids[l]
		}
		return out
	}

	// Example 1 of the paper: d = {F,R,T,V}, q = {I,L,U} has Ddq = 7.
	d := cs("F", "R", "T", "V")
	q := cs("I", "L", "U")
	fmt.Printf("D(G,F) = %d (paper: 5, the valid path must pass a common ancestor)\n",
		conceptrank.ConceptDistance(o, ids["G"], ids["F"]))
	fmt.Printf("Ddq(d,q) = %.0f (paper Example 1: 4+2+1 = 7)\n", conceptrank.DocQueryDistance(o, d, q))
	fmt.Printf("Ddd(d,q) = %.4f\n\n", conceptrank.DocDocDistance(o, d, q))

	// Index a small collection and search it.
	coll := conceptrank.NewCollection()
	coll.Add("note-1", 40, cs("I", "T"))
	coll.Add("note-2", 35, cs("F", "E"))
	coll.Add("note-3", 25, cs("G", "J"))
	coll.Add("note-4", 10, cs("K"))
	coll.Add("note-5", 15, cs("C"))
	coll.Add("note-6", 30, cs("E", "M"))
	eng := conceptrank.NewEngine(o, coll)
	ctx := context.Background()

	fmt.Println("RDS: top-2 documents for query {F, I}:")
	results, metrics, err := eng.RDSContext(ctx, cs("F", "I"), conceptrank.Options{K: 2})
	if err != nil {
		log.Fatal(err)
	}
	for i, r := range results {
		fmt.Printf("  %d. %s  distance %.0f\n", i+1, coll.Doc(r.Doc).Name, r.Distance)
	}
	fmt.Printf("  (examined %d of %d documents before terminating)\n\n",
		metrics.DocsExamined, coll.NumDocs())

	fmt.Println("SDS: top-3 documents similar to {F, R, T, V}:")
	sims, _, err := eng.SDSContext(ctx, d, conceptrank.Options{K: 3})
	if err != nil {
		log.Fatal(err)
	}
	for i, r := range sims {
		fmt.Printf("  %d. %s  distance %.4f\n", i+1, coll.Doc(r.Doc).Name, r.Distance)
	}
}

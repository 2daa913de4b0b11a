// Gene-function similarity (the paper's Section 1 pointer to Lord et al.):
// genes annotated with Gene Ontology terms can be compared by the semantic
// similarity of their annotation sets rather than sequence similarity. A
// gene is then just a "document" whose concepts are GO terms, and SDS over
// the gene corpus predicts functional relatives.
//
// The example builds a small GO-like DAG, annotates a handful of genes,
// prints the pairwise distance matrix, and uses SDS to find the functional
// neighbors of one gene.
package main

import (
	"context"
	"fmt"
	"log"

	"conceptrank"
)

func main() {
	// A miniature molecular-function ontology (DAG: "kinase activity" has
	// two parents, mirroring GO's multiple inheritance).
	b := conceptrank.NewOntologyBuilder("molecular function")
	add := func(name string, parents ...conceptrank.ConceptID) conceptrank.ConceptID {
		id := b.AddConcept(name)
		for _, p := range parents {
			b.MustAddEdge(p, id)
		}
		return id
	}
	catalytic := add("catalytic activity", b.Root())
	binding := add("binding", b.Root())
	transferase := add("transferase activity", catalytic)
	hydrolase := add("hydrolase activity", catalytic)
	nucleotideBind := add("nucleotide binding", binding)
	atpBind := add("ATP binding", nucleotideBind)
	proteinBind := add("protein binding", binding)
	kinase := add("kinase activity", transferase, nucleotideBind) // two parents
	protKinase := add("protein kinase activity", kinase)
	tyrKinase := add("tyrosine kinase activity", protKinase)
	serKinase := add("serine threonine kinase activity", protKinase)
	peptidase := add("peptidase activity", hydrolase)
	metallopept := add("metallopeptidase activity", peptidase)
	dnaBind := add("DNA binding", binding)
	tfBind := add("transcription factor binding", proteinBind)
	o, err := b.Finalize()
	if err != nil {
		log.Fatal(err)
	}

	genes := conceptrank.NewCollection()
	annot := map[string][]conceptrank.ConceptID{
		"EGFR": {tyrKinase, atpBind, proteinBind},
		"SRC":  {tyrKinase, atpBind},
		"AKT1": {serKinase, atpBind, proteinBind},
		"MMP9": {metallopept},
		"MMP2": {metallopept, proteinBind},
		"TP53": {dnaBind, tfBind, proteinBind},
		"MYC":  {dnaBind, tfBind},
		"CDK2": {serKinase, atpBind},
	}
	order := []string{"EGFR", "SRC", "AKT1", "CDK2", "MMP9", "MMP2", "TP53", "MYC"}
	nameOf := map[conceptrank.DocID]string{}
	for _, g := range order {
		id := genes.Add(g, 0, annot[g])
		nameOf[id] = g
	}

	fmt.Println("pairwise semantic distance matrix (Melton/Lord-style, lower = more similar):")
	fmt.Printf("%8s", "")
	for _, g := range order {
		fmt.Printf("%7s", g)
	}
	fmt.Println()
	for i, gi := range order {
		fmt.Printf("%8s", gi)
		for j := range order {
			d := conceptrank.DocDocDistance(o, annot[gi], annot[order[j]])
			fmt.Printf("%7.2f", d)
			_ = i
		}
		fmt.Println()
	}

	eng := conceptrank.NewEngine(o, genes)
	fmt.Println("\nfunctional neighbors of EGFR (SDS, k=4):")
	results, _, err := eng.SDSContext(context.Background(), annot["EGFR"], conceptrank.Options{K: 4})
	if err != nil {
		log.Fatal(err)
	}
	for i, r := range results {
		fmt.Printf("  %d. %-6s distance %.3f\n", i+1, nameOf[r.Doc], r.Distance)
	}
	fmt.Println("\n(kinases cluster together; the peptidases and transcription factors are far)")
}

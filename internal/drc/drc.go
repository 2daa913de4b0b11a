// Package drc implements the DRC (D-Radix Construction) distance algorithm
// of Section 4 of Arvanitis et al. (EDBT 2014).
//
// Given a document d and a query q (or a second document), DRC builds a
// D-Radix DAG indexing every Dewey address of every concept in d and q,
// annotates each node with its distance from the nearest document concept
// and the nearest query concept, and propagates shortest distances with one
// bottom-up and one top-down traversal. Valid paths (up* down*, through a
// common ancestor) are exactly the paths those two sweeps can compose, which
// is the paper's correctness argument. The construction runs in
// O((|Pq|+|Pd|) log(|Pq|+|Pd|)) where Pq and Pd are the address sets —
// versus the O(nq*nd) pairwise baseline (package distance's BL).
//
// There is one construction. PrepareCached sorts the query side once. The
// document side is a Run: the document's addresses in sorted order. One
// build merges a run with the prepared query side into a D-Radix in a
// caller-owned Scratch. Prepared.BuildScratch (behind DocQueryScratch and
// DocDocScratch) makes the run afresh, which is the paper's full
// construction and what Figures 4-6 time. Prepared.BuildStored takes it
// from a RunStore, where the document's first probe left it, so an
// engine sorts each document once however many queries probe it.
package drc

import (
	"math"

	"conceptrank/internal/ontology"
	"conceptrank/internal/radix"
)

// Inf marks a not-yet-propagated distance inside the D-Radix.
const Inf = math.MaxInt32

// DRadix is a distance-annotated radix DAG over the concepts of a document
// and a query (Definition 3). DDoc[i] and DQuery[i] hold the distances of
// node index i from the nearest document and query concept respectively.
type DRadix struct {
	DAG    *radix.DAG
	DDoc   []int32
	DQuery []int32
	topo   []*radix.Node
}

// tune runs the bottom-up then top-down relaxation of Section 4.3 (Eq. 4)
// over both distance fields.
func (dr *DRadix) tune() {
	// Bottom-up: children relax parents (reverse topological order).
	for i := len(dr.topo) - 1; i >= 0; i-- {
		n := dr.topo[i]
		for _, e := range n.Edges {
			w := int32(e.Weight())
			ci := e.To.Index
			if dr.DDoc[ci] != Inf && dr.DDoc[ci]+w < dr.DDoc[n.Index] {
				dr.DDoc[n.Index] = dr.DDoc[ci] + w
			}
			if dr.DQuery[ci] != Inf && dr.DQuery[ci]+w < dr.DQuery[n.Index] {
				dr.DQuery[n.Index] = dr.DQuery[ci] + w
			}
		}
	}
	// Top-down: parents relax children (topological order).
	for _, n := range dr.topo {
		if dr.DDoc[n.Index] == Inf && dr.DQuery[n.Index] == Inf {
			continue
		}
		for _, e := range n.Edges {
			w := int32(e.Weight())
			ci := e.To.Index
			if dr.DDoc[n.Index] != Inf && dr.DDoc[n.Index]+w < dr.DDoc[ci] {
				dr.DDoc[ci] = dr.DDoc[n.Index] + w
			}
			if dr.DQuery[n.Index] != Inf && dr.DQuery[n.Index]+w < dr.DQuery[ci] {
				dr.DQuery[ci] = dr.DQuery[n.Index] + w
			}
		}
	}
}

// NodeDistances returns (distance from nearest document concept, distance
// from nearest query concept) for concept c, which must be indexed.
func (dr *DRadix) NodeDistances(c ontology.ConceptID) (dDoc, dQuery int, ok bool) {
	n, found := dr.DAG.Lookup(c)
	if !found {
		return 0, 0, false
	}
	return int(dr.DDoc[n.Index]), int(dr.DQuery[n.Index]), true
}

// DocQueryDistance evaluates Ddq(d,q) (Eq. 2) from the tuned D-Radix: the
// sum over query concepts of their nearest-document distances.
func (dr *DRadix) DocQueryDistance(query []ontology.ConceptID) float64 {
	total := 0.0
	for _, qc := range query {
		n, ok := dr.DAG.Lookup(qc)
		if !ok {
			total += float64(Inf)
			continue
		}
		total += float64(dr.DDoc[n.Index])
	}
	return total
}

// DocDocDistance evaluates the symmetric Melton distance Ddd (Eq. 3) from
// the tuned D-Radix.
func (dr *DRadix) DocDocDistance(doc, query []ontology.ConceptID) float64 {
	total := 0.0
	if len(doc) > 0 {
		sum := 0.0
		for _, c := range doc {
			n, ok := dr.DAG.Lookup(c)
			if !ok {
				sum += float64(Inf)
				continue
			}
			sum += float64(dr.DQuery[n.Index])
		}
		total += sum / float64(len(doc))
	}
	if len(query) > 0 {
		sum := 0.0
		for _, c := range query {
			n, ok := dr.DAG.Lookup(c)
			if !ok {
				sum += float64(Inf)
				continue
			}
			sum += float64(dr.DDoc[n.Index])
		}
		total += sum / float64(len(query))
	}
	return total
}

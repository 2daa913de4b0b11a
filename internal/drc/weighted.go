package drc

import (
	"conceptrank/internal/ontology"
)

// Weighted document distances. Melton et al.'s inter-patient distance is
// defined over weighted concepts; the paper "assumed that all concepts
// have equal weights" (Section 3.2). This file implements the general
// weighted form as the natural extension:
//
//	Ddd_w(d1,d2) = Σ_{c∈d1} w(c)·Ddc(d2,c) / Σ_{c∈d1} w(c)
//	             + Σ_{c∈d2} w(c)·Ddc(d1,c) / Σ_{c∈d2} w(c)
//
// with w ≡ 1 reducing exactly to Eq. 3. A common choice of w grows with
// a concept's specificity (its depth, or a corpus-derived information
// content), which discounts generic concepts — the same intuition as the
// paper's depth and collection-frequency filters, but soft.

// WeightFunc assigns a non-negative weight to a concept.
type WeightFunc func(ontology.ConceptID) float64

// DocQueryDistanceWeighted evaluates the weighted Eq. 2 analogue:
// Σ w(qi)·Ddc(d,qi) / Σ w(qi), from a tuned D-Radix.
func (dr *DRadix) DocQueryDistanceWeighted(query []ontology.ConceptID, w WeightFunc) float64 {
	var num, den float64
	for _, qc := range query {
		wt := w(qc)
		if wt <= 0 {
			continue
		}
		den += wt
		n, ok := dr.DAG.Lookup(qc)
		if !ok {
			num += wt * float64(Inf)
			continue
		}
		num += wt * float64(dr.DDoc[n.Index])
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// DocDocDistanceWeighted evaluates the weighted Eq. 3 analogue from a
// tuned D-Radix.
func (dr *DRadix) DocDocDistanceWeighted(doc, query []ontology.ConceptID, w WeightFunc) float64 {
	side := func(concepts []ontology.ConceptID, dists []int32) float64 {
		var num, den float64
		for _, c := range concepts {
			wt := w(c)
			if wt <= 0 {
				continue
			}
			den += wt
			n, ok := dr.DAG.Lookup(c)
			if !ok {
				num += wt * float64(Inf)
				continue
			}
			num += wt * float64(dists[n.Index])
		}
		if den == 0 {
			return 0
		}
		return num / den
	}
	return side(doc, dr.DQuery) + side(query, dr.DDoc)
}

// DocDocWeighted builds a D-Radix and evaluates the weighted distance in
// one call (convenience mirror of Calculator.DocDoc).
func (c *Calculator) DocDocWeighted(d1, d2 []ontology.ConceptID, w WeightFunc) (float64, error) {
	dr, err := Build(c.o, d1, d2, c.maxPaths)
	if err != nil {
		return 0, err
	}
	return dr.DocDocDistanceWeighted(d1, d2, w), nil
}

// DocQueryWeighted mirrors Calculator.DocQuery for the weighted form.
func (c *Calculator) DocQueryWeighted(d, q []ontology.ConceptID, w WeightFunc) (float64, error) {
	dr, err := Build(c.o, d, q, c.maxPaths)
	if err != nil {
		return 0, err
	}
	return dr.DocQueryDistanceWeighted(q, w), nil
}

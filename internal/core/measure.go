package core

// Generic-measure execution: the pieces that replace DRC when
// Options.Measure is set (see internal/measure for the contract).
//
// The staged pipeline is measure-agnostic by construction — traversal
// reveals concept pairs in valid-path-length order regardless of how a
// pair's distance is scored — so plugging a measure in only touches three
// seams:
//
//   - bounds: the bound table keeps per-origin running minima of the
//     measure and floors every unseen pair with LevelBound (pipeline.go);
//   - exact distances: examinations evaluate the generalized Eq. 2/3 from
//     per-origin valid-path distance vectors (one O(V+E) sweep per origin
//     at plan time) instead of probing DRC;
//   - caching: measure seed vectors — the float-valued counterpart of Ddc
//     seeds, keyed on (corpus, measure, concept) so warm entries never
//     cross measures — hold exact per-origin minima, so a fully seeded
//     query folds them and skips both the BFS and the vector sweeps,
//     exactly like Ddc seeds do for Rada. They are resolved, built,
//     extended and folded by the same code (seed.go), with Pair as the
//     per-concept transform.
//
// Rankings under measure.Rada() are bitwise identical to the default
// engine's (measure_equiv_test.go pins serial, parallel, sharded, cursor
// and cached tiers): the per-origin sums run over the same integer-valued
// float64 terms in the same order.

import (
	"fmt"
	"slices"

	"conceptrank/internal/corpus"
	"conceptrank/internal/measure"
	"conceptrank/internal/ontology"
)

// validPathVectors returns, per query concept, an owned copy of its
// valid-path distances to every concept — what measureDocDistance reads.
func validPathVectors(o *ontology.Ontology, q []ontology.ConceptID) [][]int32 {
	mvecs := make([][]int32, len(q))
	for i, c := range q {
		sw := validPathDistances(o, c)
		mvecs[i] = slices.Clone(sw.dist)
		sw.release()
	}
	return mvecs
}

// measureDocDistance evaluates the exact generalized Eq. 2 (RDS) or Eq. 3
// (SDS) distance of one document: per origin the minimum measure value
// over the document's concepts, using the per-origin valid-path vectors
// for path lengths. Read-only on its inputs, so full-scan workers may
// share one vector set.
func measureDocDistance(meas measure.Measure, q []ontology.ConceptID, mvecs [][]int32, concepts []ontology.ConceptID, sds bool) float64 {
	sumA := 0.0
	for i, qc := range q {
		vec := mvecs[i]
		best := measure.Unreachable
		for _, c := range concepts {
			if v := meas.Pair(qc, c, vec[c]); v < best {
				best = v
			}
		}
		sumA += best
	}
	if !sds {
		return sumA
	}
	total := sumA / float64(len(q))
	if len(concepts) == 0 {
		return total
	}
	sumB := 0.0
	for _, c := range concepts {
		best := measure.Unreachable
		for i, qc := range q {
			if v := meas.Pair(c, qc, mvecs[i][c]); v < best {
				best = v
			}
		}
		sumB += best
	}
	return total + sumB/float64(len(concepts))
}

// exactMeasure computes a candidate's exact distance in generic mode from
// the valid-path vectors.
func (x *executor) exactMeasure(doc corpus.DocID) (float64, error) {
	concepts, err := x.e.fwd.Concepts(doc)
	if err != nil {
		return 0, fmt.Errorf("core: forward(%d): %w", doc, err)
	}
	return measureDocDistance(x.p.meas, x.p.q, x.p.mvecs, concepts, x.p.sds), nil
}

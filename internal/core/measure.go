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
//     cross measures — inject exact per-origin minima and skip both the
//     BFS and the vector sweeps, exactly like Ddc seeds do for Rada. They
//     are resolved, built and extended by the same code (seed.go), with
//     Pair as the per-concept transform.
//
// Rankings under measure.Rada() are bitwise identical to the default
// engine's (measure_equiv_test.go pins serial, parallel, sharded, cursor
// and cached tiers): the per-origin sums run over the same integer-valued
// float64 terms in the same order.

import (
	"fmt"
	"math"
	"slices"

	"conceptrank/internal/cache"
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

// exactMeasure computes a candidate's exact distance in generic mode.
// When every origin was injected from a measure seed vector the running
// minima already are the true per-origin minima; otherwise the valid-path
// vectors are consulted.
func (x *executor) exactMeasure(doc corpus.DocID, st *docState) (float64, error) {
	if x.p.mseeded {
		// RDS only — measure seeds are never loaded for SDS.
		total := 0.0
		for _, v := range st.minA {
			if math.IsInf(v, 1) {
				total += measure.Unreachable // origin unreachable from doc
			} else {
				total += v
			}
		}
		return total, nil
	}
	concepts, err := x.e.fwd.Concepts(doc)
	if err != nil {
		return 0, fmt.Errorf("core: forward(%d): %w", doc, err)
	}
	return measureDocDistance(x.p.meas, x.p.q, x.p.mvecs, concepts, x.p.sds), nil
}

// injectMeasureSeed pre-covers origin from a measure seed vector: every
// listed document inside the plan's snapshot gets its exact per-origin
// minimum. Entries at or past totalDocs come from a vector refreshed
// beyond this query's snapshot and are skipped.
func (b *boundTable) injectMeasureSeed(origin int32, docs []cache.DocFDist, totalDocs int, m *Metrics) {
	for _, dd := range docs {
		if int(dd.Doc) >= totalDocs {
			break // ascending by Doc
		}
		st := b.state(dd.Doc)
		if st == nil {
			st = b.newDocState() // RDS only: no direction-B set to carve
			b.discover(dd.Doc, st, m)
		}
		if math.IsInf(st.minA[origin], 1) {
			st.minA[origin] = dd.Dist
			st.nCoveredA++
			st.sumAF += dd.Dist
		}
	}
}

package core

// Distance spaces: the one place a query knows which distance it ranks
// under. plan picks the space once — the paper's Rada distance on DRC
// (ddcSpace) when Options.Measure is nil, a pluggable measure over
// per-origin valid-path vectors (measureSpace) otherwise — and the bound
// table, the examination, the full scans and the seed fold run one code
// path over it (see internal/measure for the measure contract).
//
// Traversal reveals concept pairs in valid-path-length order however a
// pair is scored, so the two spaces differ in five things only:
//
//  1. the value of a popped BFS state: its depth under Rada,
//     Pair(q[origin], node, depth) under a measure;
//  2. the wave floor: the depth, or the measure's LevelBound (floor);
//  3. the lower-bound form: Rada's O(1) sum + uncovered·floor, valid
//     because a BFS first contact is final, and Σ min(running, floor)
//     under a measure, whose later contacts may still lower a term;
//  4. the exact distance at examination: Rada reuses a fully covered
//     candidate's partial distance (optimization 3, firstContactFinal)
//     and probes DRC otherwise; a measure evaluates the generalized
//     Eq. 2/3 over per-origin valid-path vectors (exact);
//  5. seeds: Ddc vectors or measure vectors, resolved and folded by the
//     same code (seeds, seed.go).
//
// Facts 1 and 3 run per BFS pop and per candidate bound. There an
// interface or type-parameter method call is an indirect call the
// compiler never inlines, about four times the cost of a predictable
// branch (3.6–4.3 ns against 0.9 ns a loop iteration, go1.24.0 on a
// 2-core Xeon), so the bound table branches on its meas field for them
// (pipeline.go). Facts 2, 4 and 5 run per wave, per examination or per
// query and dispatch through distanceSpace.
//
// Rankings under measure.Rada() are bitwise identical to the Rada space's
// (measure_equiv_test.go pins serial, parallel, sharded, cursor and cached
// tiers): the per-origin sums run over the same integer-valued float64
// terms in the same order.

import (
	"slices"

	"conceptrank/internal/cache"
	"conceptrank/internal/corpus"
	"conceptrank/internal/drc"
	"conceptrank/internal/measure"
	"conceptrank/internal/ontology"
)

// distanceSpace is the distance a query ranks under (facts 2, 4 and 5
// above). A space is built per query and is single-goroutine, except that
// a partitioned full scan shares one prepared space between its workers.
type distanceSpace interface {
	// measure is the space's measure, nil in the Rada space. The bound
	// table reads it once, for facts 1 and 3; nothing else asks which
	// distance is in use except through firstContactFinal.
	measure() measure.Measure
	// floor translates the wave stepper's traversal floor (a BFS depth,
	// +Inf once exhausted) into the distance floor every unseen pair is
	// subject to.
	floor(depth float64) float64
	// prepare builds the query side of exact, once: exact prepares on
	// first use, and a partitioned scan prepares before its workers share
	// the space.
	prepare()
	// exact is the exact Eq. 2 (RDS) or Eq. 3 (SDS) distance of document
	// doc, whose concepts are given; scr is the caller's DRC scratch.
	exact(sds bool, doc corpus.DocID, concepts []ontology.ConceptID, scr *drc.Scratch) (float64, error)
	// seeds resolves every origin's seed vector against cc at generation
	// n and folds them (loadSeeds).
	seeds(cc *cache.Cache, n int, ar *queryArena, tr *tracer, m *Metrics) ([]cand, error)
}

// firstContactFinal reports whether the values the traversal and the seed
// vectors accumulate in sp are final at first contact, as BFS depths are
// (the Rada space): then a fully covered candidate's partial distance is
// exact (optimization 3), neither it nor a seeded fold counts a DRC call,
// and the values are the path lengths WaveInfo.CoveredDist reports. Under
// a measure every examination evaluates the measure and counts one.
func firstContactFinal(sp distanceSpace) bool { return sp.measure() == nil }

// space picks the distance space of a query over the deduplicated
// concepts q.
func (e *Engine) space(meas measure.Measure, q []ontology.ConceptID) distanceSpace {
	if meas == nil {
		return &ddcSpace{e: e, q: q}
	}
	sp := newMeasureSpace(meas)
	sp.e, sp.q = e, q
	return sp
}

func (*ddcSpace) floor(depth float64) float64 { return depth }

func (*ddcSpace) measure() measure.Measure { return nil }

// prepare builds DRC's query side. A query whose examinations are all
// optimization 3, or that is fully seeded, never pays for it.
func (sp *ddcSpace) prepare() {
	if sp.prep == nil {
		sp.prep = drc.PrepareCached(sp.e.o, sp.q, 0, sp.e.addrCache)
	}
}

// exact probes DRC with the document's address run from the engine's run
// store, sorted by the document's first probe in this engine.
func (sp *ddcSpace) exact(sds bool, doc corpus.DocID, concepts []ontology.ConceptID, scr *drc.Scratch) (float64, error) {
	sp.prepare()
	dr, err := sp.prep.BuildStored(sp.e.runs, uint32(doc), concepts, scr)
	if err != nil {
		return 0, err
	}
	if sds {
		return dr.DocDocDistance(concepts, sp.q), nil
	}
	return dr.DocQueryDistance(sp.q), nil
}

func (sp *ddcSpace) seeds(cc *cache.Cache, n int, ar *queryArena, tr *tracer, m *Metrics) ([]cand, error) {
	return loadSeeds(sp.e, sp, cc, sp.q, n, ar, tr, m)
}

func (sp *measureSpace) floor(depth float64) float64 { return sp.meas.LevelBound(depth) }

func (sp *measureSpace) measure() measure.Measure { return sp.meas }

// prepare takes, per query concept, an owned copy of its valid-path
// distances to every concept (mvecs[i][c], infDist when unreachable): one
// O(V+E) sweep per origin, which a fully seeded query never pays.
func (sp *measureSpace) prepare() {
	if sp.mvecs != nil {
		return
	}
	sp.mvecs = make([][]int32, len(sp.q))
	for i, c := range sp.q {
		sw := validPathDistances(sp.e.o, c)
		sp.mvecs[i] = slices.Clone(sw.dist)
		sw.release()
	}
}

// exact evaluates the generalized Eq. 2 or Eq. 3: per origin the minimum
// measure value over the document's concepts, path lengths read from the
// valid-path vectors. Read-only once prepared, so full-scan workers may
// share one space.
func (sp *measureSpace) exact(sds bool, _ corpus.DocID, concepts []ontology.ConceptID, _ *drc.Scratch) (float64, error) {
	sp.prepare()
	sumA := 0.0
	for i, qc := range sp.q {
		vec := sp.mvecs[i]
		best := measure.Unreachable
		for _, c := range concepts {
			if v := sp.meas.Pair(qc, c, vec[c]); v < best {
				best = v
			}
		}
		sumA += best
	}
	if !sds {
		return sumA, nil
	}
	total := sumA / float64(len(sp.q))
	if len(concepts) == 0 {
		return total, nil
	}
	sumB := 0.0
	for _, c := range concepts {
		best := measure.Unreachable
		for i, qc := range sp.q {
			if v := sp.meas.Pair(c, qc, sp.mvecs[i][c]); v < best {
				best = v
			}
		}
		sumB += best
	}
	return total + sumB/float64(len(concepts)), nil
}

func (sp *measureSpace) seeds(cc *cache.Cache, n int, ar *queryArena, tr *tracer, m *Metrics) ([]cand, error) {
	return loadSeeds(sp.e, sp, cc, sp.q, n, ar, tr, m)
}

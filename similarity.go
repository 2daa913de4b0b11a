package conceptrank

// Ontology-based query expansion (related work: Lu et al., Matos et al.;
// distance merging per footnote 3 of the paper), hybrid text+concept
// ranking and weighted document distances. Other semantic distances (the
// paper's Section 2 survey and Section 7 future work) are the pluggable
// DistanceMeasure framework's job — see the package comment.

import (
	"context"
	"runtime"

	"conceptrank/internal/core"
	"conceptrank/internal/drc"
	"conceptrank/internal/expand"
	"conceptrank/internal/ir"
)

// Expansion is one query-expansion suggestion.
type Expansion = expand.Expansion

// ExpandQuery suggests concepts within radius of each seed concept,
// nearest first, at most maxPerSeed per seed (0 = unlimited).
func ExpandQuery(o *Ontology, seeds []ConceptID, radius, maxPerSeed int) []Expansion {
	return expand.Expand(o, seeds, radius, maxPerSeed)
}

// MergedResult is one entry of a multi-query merged ranking.
type MergedResult = expand.Result

// MergedRDS ranks the engine's collection against several queries at once,
// scoring each document with the normalized sum of per-query distances
// (footnote 3 of the paper). It scans the whole collection, folding the
// ranking out of per-concept distance columns — served from the engine's
// cache when one is installed with EnableCache (or passed with WithCache).
// WithK selects the result count (default 10), WithMeasure the distance
// measure, WithTrace a span hook; traversal knobs are ignored. Cancelling
// ctx stops the scan within a few thousand documents.
func (e *Engine) MergedRDS(ctx context.Context, queries [][]ConceptID, opts ...Option) ([]MergedResult, *Metrics, error) {
	o := e.withCache(core.NewOptions(opts...))
	done := e.instrument("merged", &o)
	res, m, err := e.inner.MergedRDS(ctx, queries, o)
	if done != nil {
		done(m, err)
	}
	out := make([]MergedResult, len(res))
	for i, r := range res {
		out[i] = MergedResult{Doc: r.Doc, Score: r.Score}
	}
	return out, m, err
}

// Text + concept hybrid retrieval (the paper's Section 7 future work:
// "combine our methods with IR ranking").

// TextIndex is a BM25 text index over document bodies.
type TextIndex = ir.Index

// BuildTextIndex indexes document texts; slice position is the DocID.
func BuildTextIndex(texts []string) *TextIndex { return ir.BuildIndex(texts) }

// HybridResult is one blended text+concept ranking entry.
type HybridResult = ir.Result

// HybridOption configures a HybridRDS query.
type HybridOption func(*hybridOpts)

type hybridOpts struct {
	alpha float64
	k     int
	tix   *TextIndex
	meas  DistanceMeasure
}

// WithFusionWeight sets the blend weight alpha in [0, 1]: 1 is pure
// semantic ranking, 0 pure BM25. The default is 0.5.
func WithFusionWeight(alpha float64) HybridOption {
	return func(h *hybridOpts) { h.alpha = alpha }
}

// WithTextIndex supplies the BM25 side of the blend. Without one,
// HybridRDS degrades to a pure semantic ranking (every document's BM25
// signal is zero).
func WithTextIndex(tix *TextIndex) HybridOption {
	return func(h *hybridOpts) { h.tix = tix }
}

// WithHybridK sets the number of results (default 10).
func WithHybridK(k int) HybridOption {
	return func(h *hybridOpts) { h.k = k }
}

// WithHybridMeasure selects the semantic distance measure of the blend's
// concept side; nil (the default) is the Rada distance.
func WithHybridMeasure(m DistanceMeasure) HybridOption {
	return func(h *hybridOpts) { h.meas = m }
}

// HybridRDS blends concept-based relevance with BM25 text relevance:
//
//	res, m, err := eng.HybridRDS(ctx, query, "chest pain",
//	        conceptrank.WithTextIndex(tix),
//	        conceptrank.WithFusionWeight(0.7),
//	        conceptrank.WithHybridK(20))
//
// Both signals are normalized per query and blended with the fusion
// weight (see internal/ir). The semantic side scans the collection —
// exact distances for every document, partitioned across GOMAXPROCS
// workers and served from the engine cache when one is installed — so
// this is an offline/analytics path rather than the kNDS fast path. The
// returned Metrics describe the semantic scan. Cancelling ctx stops the
// scan within a few thousand documents.
func (e *Engine) HybridRDS(ctx context.Context, query []ConceptID, textQuery string, opts ...HybridOption) ([]HybridResult, *Metrics, error) {
	h := hybridOpts{alpha: 0.5, k: 10}
	for _, fn := range opts {
		fn(&h)
	}
	o := e.withCache(core.Options{
		K:       e.numDocs(),
		Workers: runtime.GOMAXPROCS(0),
		Measure: h.meas,
	})
	done := e.instrument("hybrid", &o)
	scan, m, err := e.inner.FullScanRDSContext(ctx, query, o)
	if done != nil {
		done(m, err)
	}
	if err != nil {
		return nil, m, err
	}
	sem := make(map[DocID]float64, len(scan))
	for _, r := range scan {
		sem[r.Doc] = r.Distance
	}
	var bm25 map[DocID]float64
	if h.tix != nil {
		bm25 = h.tix.Scores(textQuery)
	}
	return ir.Hybrid(sem, bm25, h.alpha, h.k), m, nil
}

// Weighted document distances (Melton et al.'s general weighted form; the
// paper evaluates the equal-weight special case). A natural weight choice
// is information content: w = ic.IC.

// WeightFunc assigns a non-negative weight to a concept.
type WeightFunc = drc.WeightFunc

// DocDocDistanceWeighted computes the weighted symmetric document distance
// with per-concept weights; w ≡ 1 reduces to DocDocDistance. Like every
// distance helper of this package it returns a bare value: inputs whose
// D-Radix cannot be built yield the float64(MaxInt32) sentinel (see the
// package comment, "Distance helpers").
func DocDocDistanceWeighted(o *Ontology, d1, d2 []ConceptID, w WeightFunc) float64 {
	d, err := drc.NewCalculator(o, 0).DocDocWeighted(d1, d2, w)
	if err != nil {
		return float64(drc.Inf)
	}
	return d
}

// DocQueryDistanceWeighted computes the weighted, weight-normalized
// document-query distance; same conventions as DocDocDistanceWeighted.
func DocQueryDistanceWeighted(o *Ontology, d, q []ConceptID, w WeightFunc) float64 {
	v, err := drc.NewCalculator(o, 0).DocQueryWeighted(d, q, w)
	if err != nil {
		return float64(drc.Inf)
	}
	return v
}

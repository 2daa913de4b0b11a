package core

// Multi-query merged ranking (footnote 3 of the paper) as a core engine
// facility: score(d) = Σ_i Ddq(d, q_i) / |q_i|.
//
// Ddq decomposes per query concept (Eq. 2 over Eq. 1), so instead of
// building one D-Radix per document — expand.MergedRDS's approach — the
// engine folds the ranking out of per-concept Ddc columns: one valid-path
// sweep per distinct concept across all queries, served from the shared
// cache when one is attached (Options.Cache), built in memory otherwise.
// Scores are bitwise identical to the radix formulation: every per-query
// sum is integer-valued and integer float64 arithmetic is exact, and the
// division and cross-query addition run in the same order. Under a
// measure (Options.Measure) the same fold runs over measure seed columns,
// with per-query sums accumulated in query-concept order.

import (
	"context"
	"fmt"
	"time"

	"conceptrank/internal/cache"
	"conceptrank/internal/corpus"
	"conceptrank/internal/measure"
	"conceptrank/internal/ontology"
)

// MergedResult is one merged-ranking entry.
type MergedResult struct {
	Doc   corpus.DocID
	Score float64 // normalized merged distance; lower is better
}

// MergedRDS ranks every document of the collection against several
// queries simultaneously. Empty queries are skipped; if none remain the
// call fails with ErrNoQueries. The scan honors K, Cache, Measure and
// Trace; cancellation is observed every few thousand documents.
func (e *Engine) MergedRDS(ctx context.Context, queries [][]ontology.ConceptID, opts Options) ([]MergedResult, *Metrics, error) {
	m := &Metrics{}
	defer e.beginQuery(m)()
	tr := newTracer(opts.Trace)
	if opts.Workers < 0 {
		return nil, m, ErrNegativeWorkers
	}
	if opts.Measure != nil && opts.UseBL {
		return nil, m, ErrMeasureBL
	}

	var live [][]ontology.ConceptID
	var union []ontology.ConceptID
	seen := make(map[ontology.ConceptID]struct{})
	for _, q := range queries {
		if len(q) == 0 {
			continue
		}
		live = append(live, q)
		for _, c := range q {
			if _, ok := seen[c]; !ok {
				seen[c] = struct{}{}
				union = append(union, c)
			}
		}
	}
	if len(live) == 0 {
		return nil, m, ErrNoQueries
	}
	for _, c := range union {
		if int(c) >= e.o.NumConcepts() {
			return nil, m, fmt.Errorf("core: query concept %d outside ontology", c)
		}
	}
	k := opts.K
	if k <= 0 {
		k = 10
	}
	n := e.numDocs()

	// Dense Ddc column per distinct concept: cache-resolved when a cache
	// is attached (hit / refresh / build-and-store), built in memory
	// otherwise. A duplicated concept across queries costs one column but
	// still contributes to every query that lists it.
	t0 := time.Now()
	var colsI map[ontology.ConceptID][]int32
	var colsF map[ontology.ConceptID][]float64
	if opts.Measure == nil {
		colsI = make(map[ontology.ConceptID][]int32, len(union))
		for _, c := range union {
			var docs []cache.DocDist
			var err error
			if opts.Cache != nil {
				docs, err = querySeed(e, ddcSpace{}, opts.Cache, c, n, &tr, m)
			} else {
				docs, err = extend(e, ddcSpace{}, c, nil, 0, n)
			}
			if err != nil {
				return nil, m, err
			}
			col := make([]int32, n)
			for i := range col {
				col[i] = infDist
			}
			for _, dd := range docs {
				if int(dd.Doc) >= n {
					break
				}
				col[dd.Doc] = dd.Dist
			}
			colsI[c] = col
		}
	} else {
		colsF = make(map[ontology.ConceptID][]float64, len(union))
		sp := newMeasureSpace(opts.Measure)
		for _, c := range union {
			var docs []cache.DocFDist
			var err error
			if opts.Cache != nil {
				docs, err = querySeed(e, sp, opts.Cache, c, n, &tr, m)
			} else {
				docs, err = extend(e, sp, c, nil, 0, n)
			}
			if err != nil {
				return nil, m, err
			}
			col := make([]float64, n)
			for i := range col {
				col[i] = measure.Unreachable
			}
			for _, dd := range docs {
				if int(dd.Doc) >= n {
					break
				}
				col[dd.Doc] = dd.Dist
			}
			colsF[c] = col
		}
	}
	m.DistanceTime += time.Since(t0)

	tr.emit(TraceEvent{Kind: TraceWaveStart, N: n})
	hk := newTopK(k)
	for d := corpus.DocID(0); int(d) < n; d++ {
		if d%scanCancelStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, m, err
			}
		}
		nc, err := e.fwd.NumConcepts(d)
		if err != nil {
			return nil, m, err
		}
		if nc == 0 {
			continue
		}
		score := 0.0
		if colsI != nil {
			for _, q := range live {
				var s int64
				for _, c := range q {
					s += int64(colsI[c][d])
				}
				score += float64(s) / float64(len(q))
			}
		} else {
			for _, q := range live {
				s := 0.0
				for _, c := range q {
					s += colsF[c][d]
				}
				score += s / float64(len(q))
			}
		}
		m.DocsExamined++
		hk.offer(Result{Doc: d, Distance: score})
	}
	tr.emit(TraceEvent{Kind: TraceWaveEnd, N: m.DocsExamined})
	ranked := hk.sorted()
	m.ResultCount = len(ranked)
	tr.emit(TraceEvent{Kind: TraceTerminate, Value: 0, N: len(ranked)})
	out := make([]MergedResult, len(ranked))
	for i, r := range ranked {
		out[i] = MergedResult{Doc: r.Doc, Score: r.Distance}
	}
	return out, m, nil
}

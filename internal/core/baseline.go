package core

import (
	"context"
	"time"

	"conceptrank/internal/cache"
	"conceptrank/internal/corpus"
	"conceptrank/internal/distance"
	"conceptrank/internal/drc"
	"conceptrank/internal/measure"
	"conceptrank/internal/ontology"
)

// FullScan is the document-ranking baseline of Section 6.2: it computes the
// exact distance of every document in the collection (using DRC, so the
// comparison against kNDS isolates the pruning gains) and keeps the k best.
// Its cost is therefore independent of k, which is exactly the flat-line
// behaviour of the baseline curves in Figure 9.
//
// Both scans honor the Options subset that makes sense for a scan — K,
// UseBL (the pairwise ablation calculator), Workers (> 1 partitions the
// scan with results identical to serial, 0 and 1 scan serially; the BL
// calculator is not safe for concurrent use, so UseBL always scans
// serial), Measure (exact distances from per-origin valid-path vectors
// instead of DRC),
// Cache (an RDS scan with a cache attached folds the ranking from seed
// vectors without touching DRC or the vectors — rankings stay bitwise
// identical, and the scan reports CacheHits/CacheMisses with DRCCalls 0)
// and Trace. Traversal knobs (ErrorThreshold, QueueLimit, ...) are
// ignored: a scan has no traversal to tune. The serial scan emits one
// WaveStart/WaveEnd pair around the scan, a DRCProbe per examined document
// (N reports whether an exact-distance computation ran, 0 on the seeded
// fold), and a Terminate event with ε_d = 0 (a scan computes every
// distance exactly); the partitioned scan emits only the coarse events —
// per-document probes would have to cross worker goroutines, and the
// Trace contract is sequential delivery on the caller's goroutine.
//
// The Context variants observe cancellation every few thousand documents;
// a cancelled scan returns ctx.Err() with the metrics accumulated so far.

// FullScanRDS ranks every document by Ddq and returns the top opts.K.
func (e *Engine) FullScanRDS(q []ontology.ConceptID, opts Options) ([]Result, *Metrics, error) {
	return e.fullScanDispatch(context.Background(), false, q, opts)
}

// FullScanSDS ranks every document by Ddd and returns the top opts.K.
func (e *Engine) FullScanSDS(queryDoc []ontology.ConceptID, opts Options) ([]Result, *Metrics, error) {
	return e.fullScanDispatch(context.Background(), true, queryDoc, opts)
}

// FullScanRDSContext is FullScanRDS under a caller context.
func (e *Engine) FullScanRDSContext(ctx context.Context, q []ontology.ConceptID, opts Options) ([]Result, *Metrics, error) {
	return e.fullScanDispatch(ctx, false, q, opts)
}

// FullScanSDSContext is FullScanSDS under a caller context.
func (e *Engine) FullScanSDSContext(ctx context.Context, queryDoc []ontology.ConceptID, opts Options) ([]Result, *Metrics, error) {
	return e.fullScanDispatch(ctx, true, queryDoc, opts)
}

func (e *Engine) fullScanDispatch(ctx context.Context, sds bool, q []ontology.ConceptID, opts Options) ([]Result, *Metrics, error) {
	if opts.Workers < 0 {
		return nil, &Metrics{}, ErrNegativeWorkers
	}
	if opts.Measure != nil && opts.UseBL {
		return nil, &Metrics{}, ErrMeasureBL
	}
	if !sds && opts.Cache != nil && !opts.UseBL {
		return e.fullScanSeeded(ctx, q, opts)
	}
	if opts.Workers > 1 && !opts.UseBL {
		return e.fullScanParallel(ctx, sds, q, opts)
	}
	return e.fullScan(ctx, sds, q, opts)
}

// scanCancelStride is how many documents a scan processes between context
// checks: cheap enough to be invisible, frequent enough that cancellation
// latency stays far below any realistic deadline.
const scanCancelStride = 4096

func (e *Engine) fullScan(ctx context.Context, sds bool, rawQuery []ontology.ConceptID, opts Options) ([]Result, *Metrics, error) {
	m := &Metrics{}
	defer e.beginQuery(m)()
	tr := newTracer(opts.Trace)

	q := dedupConcepts(rawQuery)
	if len(q) == 0 {
		return nil, m, ErrEmptyQuery
	}
	k := opts.K
	if k <= 0 {
		k = 10
	}

	var prep *drc.Prepared
	var bl *distance.BL
	var mvecs [][]int32
	mk := time.Now()
	switch {
	case opts.Measure != nil:
		mvecs = validPathVectors(e.o, q)
	case opts.UseBL:
		bl = distance.NewBL(e.o, 0)
	default:
		prep = drc.PrepareCached(e.o, q, 0, e.addrCache)
	}
	m.DistanceTime += recordStage(m, StagePlan, mk)

	n := e.numDocs()
	tr.emit(TraceEvent{Kind: TraceWaveStart, N: n})
	hk := newTopK(k)
	mk = time.Now()
	var scr drc.Scratch
	for d := corpus.DocID(0); int(d) < n; d++ {
		if d%scanCancelStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, m, err
			}
		}
		concepts, err := e.fwd.Concepts(d)
		if err != nil {
			return nil, m, err
		}
		if len(concepts) == 0 {
			continue
		}
		t1 := time.Now()
		var dist float64
		switch {
		case opts.Measure != nil:
			dist = measureDocDistance(opts.Measure, q, mvecs, concepts, sds)
		case opts.UseBL && sds:
			dist = bl.DocDoc(concepts, q)
		case opts.UseBL:
			dist = bl.DocQuery(concepts, q)
		case sds:
			dist, err = prep.DocDocScratch(concepts, &scr)
		default:
			dist, err = prep.DocQueryScratch(concepts, &scr)
		}
		m.DistanceTime += time.Since(t1)
		if err != nil {
			return nil, m, err
		}
		m.DocsExamined++
		m.DRCCalls++
		tr.emit(TraceEvent{Kind: TraceDRCProbe, Doc: d, Value: dist, N: 1})
		hk.offer(Result{Doc: d, Distance: dist})
	}
	recordStage(m, StageExam, mk)
	tr.emit(TraceEvent{Kind: TraceWaveEnd, N: m.DocsExamined})
	mk = time.Now()
	results := hk.sorted()
	m.ResultCount = len(results)
	recordStage(m, StageCollect, mk)
	tr.emit(TraceEvent{Kind: TraceTerminate, Value: 0, N: len(results)})
	return results, m, nil
}

// fullScanSeeded is the cache-accelerated RDS scan: Ddq(d, q) decomposes
// as Σ_i Ddc(d, q_i) (Eq. 2 over Eq. 1), so the whole ranking folds out of
// the per-origin seed vectors — no DRC, no valid-path sweeps beyond what
// seed resolution itself needs on a miss. Rankings are bitwise identical
// to the unseeded scan: on the default path every per-document sum is
// integer-valued (path lengths, with MaxInt32 per unreachable origin) and
// integer float64 arithmetic is exact; in measure mode the fold adds the
// same per-origin values in the same origin order as measureDocDistance.
func (e *Engine) fullScanSeeded(ctx context.Context, rawQuery []ontology.ConceptID, opts Options) ([]Result, *Metrics, error) {
	m := &Metrics{}
	defer e.beginQuery(m)()
	tr := newTracer(opts.Trace)

	q := dedupConcepts(rawQuery)
	if len(q) == 0 {
		return nil, m, ErrEmptyQuery
	}
	k := opts.K
	if k <= 0 {
		k = 10
	}
	n := e.numDocs()
	cc := opts.Cache

	// Resolve the per-origin vectors (hit / refresh / build, like the kNDS
	// plan stage) and fold them into a dense per-document accumulator.
	mk := time.Now()
	var dists []float64 // complete per-document distance
	if opts.Measure == nil {
		acc := make([]int64, n)
		cnt := make([]int32, n)
		for _, c := range q {
			docs, err := querySeed(e, ddcSpace{}, cc, c, n, &tr, m)
			if err != nil {
				return nil, m, err
			}
			for _, dd := range docs {
				if int(dd.Doc) >= n {
					break
				}
				acc[dd.Doc] += int64(dd.Dist)
				cnt[dd.Doc]++
			}
		}
		dists = make([]float64, n)
		for d := range dists {
			dists[d] = float64(acc[d] + int64(len(q)-int(cnt[d]))*int64(infDist))
		}
	} else {
		sp := newMeasureSpace(opts.Measure)
		vecs := make([][]cache.DocFDist, len(q))
		for i, c := range q {
			docs, err := querySeed(e, sp, cc, c, n, &tr, m)
			if err != nil {
				return nil, m, err
			}
			vecs[i] = docs
		}
		// Positional merge in origin order: each document's sum adds its
		// per-origin terms in exactly measureDocDistance's order, so the
		// warm scan is bitwise identical to the cold one.
		dists = make([]float64, n)
		idx := make([]int, len(q))
		for d := 0; d < n; d++ {
			sum := 0.0
			for i := range vecs {
				v := measure.Unreachable
				for idx[i] < len(vecs[i]) && int(vecs[i][idx[i]].Doc) < d {
					idx[i]++
				}
				if idx[i] < len(vecs[i]) && int(vecs[i][idx[i]].Doc) == d {
					v = vecs[i][idx[i]].Dist
				}
				sum += v
			}
			dists[d] = sum
		}
	}
	m.DistanceTime += recordStage(m, StageSeed, mk)

	tr.emit(TraceEvent{Kind: TraceWaveStart, N: n})
	hk := newTopK(k)
	mk = time.Now()
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
		m.DocsExamined++
		tr.emit(TraceEvent{Kind: TraceDRCProbe, Doc: d, Value: dists[d], N: 0})
		hk.offer(Result{Doc: d, Distance: dists[d]})
	}
	recordStage(m, StageExam, mk)
	tr.emit(TraceEvent{Kind: TraceWaveEnd, N: m.DocsExamined})
	mk = time.Now()
	results := hk.sorted()
	m.ResultCount = len(results)
	recordStage(m, StageCollect, mk)
	tr.emit(TraceEvent{Kind: TraceTerminate, Value: 0, N: len(results)})
	return results, m, nil
}

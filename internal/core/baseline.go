package core

import (
	"context"
	"sort"
	"time"

	"conceptrank/internal/corpus"
	"conceptrank/internal/drc"
	"conceptrank/internal/ontology"
	"conceptrank/internal/pool"
)

// FullScan is the document-ranking baseline of Section 6.2: it computes the
// exact distance of every document in the collection (using DRC, so the
// comparison against kNDS isolates the pruning gains) and keeps the k best.
// Its cost is therefore independent of k, which is exactly the flat-line
// behaviour of the baseline curves in Figure 9.
//
// Both scans honor the Options subset that makes sense for a scan — K,
// Workers (> 1 partitions the scan with results identical to one
// partition), Measure (exact distances from the measure's distance space
// instead of DRC: measure.go) and Trace. An RDS scan on an engine with a
// cache (EnableCache) folds the ranking from seed vectors without
// touching DRC — rankings stay bitwise identical, and the scan reports
// CacheHits/CacheMisses with DRCCalls 0. Traversal
// knobs (ErrorThreshold, QueueLimit, ...) are ignored: a scan has no
// traversal to tune. A scan emits one WaveStart/WaveEnd pair around the
// scan and a Terminate event with ε_d = 0 (a scan computes every distance
// exactly). A single-partition scan also emits a DRCProbe per examined
// document (N reports whether an exact-distance computation ran, 0 on the
// seeded fold); a partitioned scan does not — per-document probes would
// have to cross worker goroutines, and the Trace contract is sequential
// delivery on the caller's goroutine.
//
// Scans observe cancellation every few thousand documents; a cancelled
// scan returns ctx.Err() with the metrics accumulated so far.

// FullScanRDSContext ranks every document by Ddq and returns the top
// opts.K.
func (e *Engine) FullScanRDSContext(ctx context.Context, q []ontology.ConceptID, opts Options) ([]Result, *Metrics, error) {
	return e.fullScanDispatch(ctx, false, q, opts)
}

// FullScanSDSContext ranks every document by Ddd and returns the top
// opts.K.
func (e *Engine) FullScanSDSContext(ctx context.Context, queryDoc []ontology.ConceptID, opts Options) ([]Result, *Metrics, error) {
	return e.fullScanDispatch(ctx, true, queryDoc, opts)
}

func (e *Engine) fullScanDispatch(ctx context.Context, sds bool, rawQuery []ontology.ConceptID, opts Options) ([]Result, *Metrics, error) {
	if opts.Workers < 0 {
		return nil, &Metrics{}, ErrNegativeWorkers
	}
	q, err := QueryConcepts(rawQuery, e.o.NumConcepts())
	if err != nil {
		return nil, &Metrics{}, err
	}
	if opts.K <= 0 {
		opts.K = 10
	}
	sp := e.space(opts.Measure, q)
	if !sds && e.cache != nil {
		return e.fullScanSeeded(ctx, sp, opts)
	}
	return e.fullScan(ctx, sds, sp, opts)
}

// scanCancelStride is how many documents a scan processes between context
// checks: cheap enough to be invisible, frequent enough that cancellation
// latency stays far below any realistic deadline.
const scanCancelStride = 4096

// scanPart is one partition's output: its private top-k and counters.
type scanPart struct {
	items    []Result
	examined int
	distTime time.Duration
}

// fullScan ranks every document exactly. The DocID range splits into
// opts.Workers contiguous partitions (at least one, at most one per
// document), each ranked into a private top-k with its own calculator
// state; the partial results merge by (distance, doc) — the total order
// the top-k heap itself induces — so the ranking does not depend on the
// partition count. With one partition the scan runs on the caller's
// goroutine and traces every probe. Every partition shares the space,
// prepared up front and read-only from then on.
func (e *Engine) fullScan(ctx context.Context, sds bool, sp distanceSpace, opts Options) ([]Result, *Metrics, error) {
	m := &Metrics{}
	defer e.beginQuery(m)()
	tr := newTracer(opts.Trace)

	mk := time.Now()
	sp.prepare()
	m.DistanceTime += recordStage(m, StagePlan, mk)

	n := e.numDocs()
	parts := min(opts.Workers, n)
	if parts < 1 {
		parts = 1
	}
	out := make([]scanPart, parts)
	// scan ranks the documents [lo, hi) into part; probe, when non-nil,
	// sees every exact distance as it is computed.
	scan := func(ctx context.Context, lo, hi corpus.DocID, part *scanPart, probe *tracer) error {
		hk := newTopK[Result](opts.K)
		var scr drc.Scratch
		for d := lo; d < hi; d++ {
			if (d-lo)%scanCancelStride == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			concepts, err := e.fwd.Concepts(d)
			if err != nil {
				return err
			}
			if len(concepts) == 0 {
				continue
			}
			t1 := time.Now()
			dist, err := sp.exact(sds, d, concepts, &scr)
			part.distTime += time.Since(t1)
			if err != nil {
				return err
			}
			part.examined++
			if probe != nil {
				probe.emit(TraceEvent{Kind: TraceDRCProbe, Doc: d, Value: dist, N: 1})
			}
			hk.offer(Result{Doc: d, Distance: dist})
		}
		part.items = hk.sorted()
		return nil
	}

	tr.emit(TraceEvent{Kind: TraceWaveStart, N: n})
	mk = time.Now()
	var err error
	if parts == 1 {
		err = scan(ctx, 0, corpus.DocID(n), &out[0], &tr)
	} else {
		g, gctx := pool.GroupWithContext(ctx)
		for w := range out {
			lo, hi := corpus.DocID(w*n/parts), corpus.DocID((w+1)*n/parts)
			part := &out[w]
			g.Go(func() error { return scan(gctx, lo, hi, part, nil) })
		}
		err = g.Wait()
	}
	for i := range out {
		m.DocsExamined += out[i].examined
		m.DistanceTime += out[i].distTime
	}
	m.DRCCalls = m.DocsExamined
	if err != nil {
		return nil, m, err
	}
	recordStage(m, StageExam, mk)
	tr.emit(TraceEvent{Kind: TraceWaveEnd, N: m.DocsExamined})

	mk = time.Now()
	var results []Result
	for i := range out {
		results = append(results, out[i].items...)
	}
	sort.Slice(results, func(i, j int) bool { return results[j].worse(results[i]) })
	if len(results) > opts.K {
		results = results[:opts.K]
	}
	m.ResultCount = len(results)
	recordStage(m, StageCollect, mk)
	tr.emit(TraceEvent{Kind: TraceTerminate, Value: 0, N: len(results)})
	return results, m, nil
}

// fullScanSeeded is the cache-accelerated RDS scan: Ddq(d, q) decomposes
// as Σ_i Ddc(d, q_i) (Eq. 2 over Eq. 1), so the whole ranking folds out of
// the per-origin seed vectors — no DRC, no valid-path sweeps beyond what
// seed resolution itself needs on a miss. It is the seeded kNDS query's
// fold (foldSeeds), offered whole instead of popped up to k, so rankings
// are bitwise identical to the unseeded scan for the same reasons.
func (e *Engine) fullScanSeeded(ctx context.Context, sp distanceSpace, opts Options) ([]Result, *Metrics, error) {
	m := &Metrics{}
	defer e.beginQuery(m)()
	tr := newTracer(opts.Trace)
	n := e.numDocs()
	ar := e.acquireArena()
	defer e.releaseArena(ar)

	mk := time.Now()
	folded, err := sp.seeds(e.cache, n, ar, &tr, m)
	m.DistanceTime += recordStage(m, StageSeed, mk)
	if err != nil {
		return nil, m, err
	}

	tr.emit(TraceEvent{Kind: TraceWaveStart, N: n})
	hk := newTopK[Result](opts.K)
	mk = time.Now()
	for i, c := range folded {
		if i%scanCancelStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, m, err
			}
		}
		m.DocsExamined++
		tr.emit(TraceEvent{Kind: TraceDRCProbe, Doc: c.doc, Value: c.lb, N: 0})
		hk.offer(Result{Doc: c.doc, Distance: c.lb})
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

package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"conceptrank/internal/corpus"
	"conceptrank/internal/drc"
	"conceptrank/internal/ontology"
	"conceptrank/internal/pool"
)

// Intra-query parallel execution (see DESIGN.md, "Parallel execution").
//
// kNDS spends the bulk of a query inside DRC examinations (Figures 7-9
// attribute 60-95% of query time to distance calculation), and those are
// independent per candidate — but the *decision* which candidate to examine
// next depends on the evolving top-k heap, and with early termination the
// paper's pruning is fragile under reordering. The engine therefore splits
// examination into:
//
//  1. a speculative prefetch: before the commit loop of a wave runs, the
//     prefix of candidates the serial loop COULD examine is computed with
//     the heap's k-th distance frozen at its wave-start value. Because kth
//     only ever decreases within a wave, the frozen selection is a superset
//     of the serial selection: every skipped candidate (lb > frozen kth
//     with a full heap) would have been pruned by the serial loop too. The
//     distances of the selected candidates are computed concurrently on a
//     bounded worker pool and cached on the candidate (a document's exact
//     distance never changes, so a cached value also serves later waves);
//
//  2. the unchanged serial commit loop, which re-makes every prune /
//     examine / stop decision with the evolving heap exactly as the
//     Workers=1 engine does, consuming cached distances where present and
//     computing inline where speculation skipped (or was disabled).
//
// The decision sequence — heap evolution, tie-breaks, pruned flags,
// Progressive emission, every Metrics counter except SpeculativeDRC — is
// therefore identical at every Workers setting, which is what
// parallel_equiv_test.go asserts case by case. The only cost of the frozen
// selection is wasted speculative work (SpeculativeDRC - cache hits).

// cand is one unexamined candidate in a wave's examination order.
type cand struct {
	doc     corpus.DocID
	st      *docState
	lb      float64
	partial float64
}

// examineNow is the paper's examination rule: pay for this candidate's
// exact distance once its error estimate ε_d = 1 - partial/lower (Eq. 9)
// is within the threshold ε_θ — and regardless of it on a forced
// (queue-limit) examination or once traversal is exhausted and bounds can
// tighten no further. Candidates are offered in commit order, so a false
// defers the whole rest of the wave. The commit loop and the speculative
// prefetch both decide through this one function, which is what keeps
// the prefetch a superset of the serial choice.
func (c *cand) examineNow(epsTheta float64, forced, exhausted bool) bool {
	eps := 0.0
	if c.lb > 0 {
		eps = 1 - c.partial/c.lb
	}
	return forced || exhausted || eps <= epsTheta
}

// speculator owns the per-query worker pool for speculative examinations.
// It is inert (every method a no-op) when the query runs serial: Workers
// <= 1, the UseBL ablation path (whose pairwise calculator is not safe for
// concurrent use), or the generic measure path — prep is nil there, exact
// distances come from in-memory vectors and are too cheap to overlap.
type speculator struct {
	e    *Engine
	sds  bool
	prep *drc.Prepared
	nq   int32
	opts Options
	m    *Metrics
	pool *pool.Pool // lazily created on the first wave with >= 2 tasks
	// scratches is a free list of per-probe DRC state, one per worker;
	// tasks borrow a scratch for the duration of a probe, so a warmed pool
	// performs speculative examinations without heap allocation.
	scratches chan *drc.Scratch
}

func newSpeculator(e *Engine, sds bool, prep *drc.Prepared, nq int32, opts Options, m *Metrics) *speculator {
	if opts.Workers <= 1 || opts.UseBL || prep == nil {
		return &speculator{}
	}
	return &speculator{e: e, sds: sds, prep: prep, nq: nq, opts: opts, m: m}
}

func (s *speculator) close() {
	if s.pool != nil {
		s.pool.Close()
		s.pool = nil
	}
}

// prefetch mirrors the commit loop's selection conditions with the heap
// frozen at its wave-start state and fans the selected candidates'
// distance computations out to the pool. cands must already be sorted in
// commit order (lower bound, then doc ID).
func (s *speculator) prefetch(cands []cand, hk *topK, bound float64, forced bool) {
	if s.e == nil {
		return
	}
	kth := hk.kth()
	full := hk.full()
	var worstDoc corpus.DocID
	if full && hk.k > 0 {
		worstDoc = hk.worst().Doc
	}
	infBound := math.IsInf(bound, 1)
	var tasks []*cand
	for i := range cands {
		c := &cands[i]
		if full && c.lb > kth {
			// The serial loop prunes this candidate: its kth at decision
			// time is <= the frozen kth, so the condition holds there too.
			continue
		}
		if full && c.lb == kth && c.doc > worstDoc {
			// The serial loop prunes this tie-loser too: the heap's k-th
			// entry only improves canonically within a wave, so if it loses
			// the (distance, doc) tie-break against the frozen k-th result
			// it also loses at decision time.
			continue
		}
		if !c.examineNow(s.opts.ErrorThreshold, forced, infBound) {
			break
		}
		st := c.st
		if st.specHas {
			continue // cached by an earlier wave's speculation
		}
		if st.nCoveredA == s.nq && (!s.sds || len(st.coveredB) == int(st.sizeB)) && !s.opts.NoSkipWhenCovered {
			continue // optimization 3 commits the partial sum; no DRC needed
		}
		tasks = append(tasks, c)
	}
	if len(tasks) < 2 {
		return // nothing to overlap; the commit loop computes inline
	}
	if s.pool == nil {
		s.pool = pool.New(s.opts.Workers)
		s.scratches = make(chan *drc.Scratch, s.opts.Workers)
		for i := 0; i < s.opts.Workers; i++ {
			s.scratches <- &drc.Scratch{}
		}
	}
	// Each task writes only its own candidate's spec fields and duration
	// slot; Run's barrier publishes them to the coordinator (no atomics
	// needed, and the -race equivalence suite holds this to account).
	durs := make([]time.Duration, len(tasks))
	fns := make([]func(), len(tasks))
	for i, c := range tasks {
		i, c := i, c
		fns[i] = func() {
			st := c.st
			concepts, err := s.e.fwd.Concepts(c.doc)
			if err != nil {
				st.specErr = fmt.Errorf("core: forward(%d): %w", c.doc, err)
				st.specHas = true
				return
			}
			scr := <-s.scratches
			t0 := time.Now()
			var dist float64
			if s.sds {
				dist, err = s.prep.DocDocScratch(concepts, scr)
			} else {
				dist, err = s.prep.DocQueryScratch(concepts, scr)
			}
			durs[i] = time.Since(t0)
			s.scratches <- scr
			st.specDist, st.specErr, st.specHas = dist, err, true
		}
	}
	s.pool.Run(fns)
	for _, d := range durs {
		s.m.DistanceTime += d
	}
	s.m.SpeculativeDRC += len(tasks)
}

// Parallel full scans: the baseline partitioned across workers. Unlike
// kNDS, a full scan has no cross-document decisions, so this is a plain
// deterministic map-reduce: each worker ranks a contiguous DocID range
// into a private top-k, and the partial results merge by (distance, doc) —
// the same total order the serial scan's strict-eviction heap induces, so
// results are identical to FullScanRDS/FullScanSDS.

// fullScanParallel is the partitioned scan; the dispatcher guarantees
// opts.Workers > 1 and !opts.UseBL. With a measure, every worker shares
// the read-only valid-path vectors prepared up front; the per-document
// evaluation is measureDocDistance, so results match the serial scan
// exactly here too.
func (e *Engine) fullScanParallel(ctx context.Context, sds bool, rawQuery []ontology.ConceptID, opts Options) ([]Result, *Metrics, error) {
	workers := opts.Workers
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
	smp := newStageSampler(opts.StageAllocs)
	mk := smp.mark()
	var prep *drc.Prepared
	var mvecs [][]int32
	if opts.Measure != nil {
		mvecs = validPathVectors(e.o, q)
	} else {
		prep = drc.PrepareCached(e.o, q, 0, e.addrCache)
	}
	m.DistanceTime += smp.record(m, StagePlan, mk)

	n := e.numDocs()
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	type chunkResult struct {
		items    []Result
		examined int
		drcCalls int
		distTime time.Duration
	}
	chunks := make([]chunkResult, workers)
	tr.emit(TraceEvent{Kind: TraceWaveStart, N: n})
	mk = smp.mark()
	g, gctx := pool.GroupWithContext(ctx)
	for w := 0; w < workers; w++ {
		w := w
		lo := corpus.DocID(w * n / workers)
		hi := corpus.DocID((w + 1) * n / workers)
		g.Go(func() error {
			hk := newTopK(k)
			cr := &chunks[w]
			var scr drc.Scratch
			for d := lo; d < hi; d++ {
				if (d-lo)%scanCancelStride == 0 {
					if err := gctx.Err(); err != nil {
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
				var dist float64
				switch {
				case opts.Measure != nil:
					dist = measureDocDistance(opts.Measure, q, mvecs, concepts, sds)
				case sds:
					dist, err = prep.DocDocScratch(concepts, &scr)
				default:
					dist, err = prep.DocQueryScratch(concepts, &scr)
				}
				cr.distTime += time.Since(t1)
				if err != nil {
					return err
				}
				cr.examined++
				cr.drcCalls++
				hk.offer(Result{Doc: d, Distance: dist})
			}
			cr.items = hk.sorted()
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		return nil, m, err
	}
	smp.record(m, StageExam, mk)
	mk = smp.mark()
	var all []Result
	for i := range chunks {
		all = append(all, chunks[i].items...)
		m.DocsExamined += chunks[i].examined
		m.DRCCalls += chunks[i].drcCalls
		m.DistanceTime += chunks[i].distTime
	}
	sort.Slice(all, func(i, j int) bool { return worse(all[j], all[i]) })
	if len(all) > k {
		all = all[:k]
	}
	m.ResultCount = len(all)
	smp.record(m, StageCollect, mk)
	tr.emit(TraceEvent{Kind: TraceWaveEnd, N: m.DocsExamined})
	tr.emit(TraceEvent{Kind: TraceTerminate, Value: 0, N: len(all)})
	return all, m, nil
}

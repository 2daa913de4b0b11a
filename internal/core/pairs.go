package core

// Top-k similar document pairs: a bounded all-pairs semantic join under
// the symmetric distance Ddd (Eq. 3), following the top-k similar pairs
// problem of Bhattacharya & Bhowmick (arXiv:1001.2625) recast onto this
// repo's kNDS machinery.
//
// The join reuses the cache-aware seed builder (seed.go): for every
// corpus concept c, the seed vector holds the exact Ddc(d, c) (Eq. 1) for
// every document d. Bucketing each vector by distance turns the join into
// a level-synchronous reveal — at level L, every (concept c, document y
// with Ddc(y,c) = L) bucket entry covers, for each document x containing
// c, the pair {x,y}'s x-side term for concept c at its exact final value.
// After level L every uncovered term is >= L+1, which yields the same
// monotone per-level lower bound the SDS bound table uses (Eq. 8):
//
//	lb({a,b}) = [sumA + uncoveredA*(L+1)] / |C_a|
//	          + [sumB + uncoveredB*(L+1)] / |C_b|
//
// and a floor of 2*(L+1) for pairs not yet discovered at all. Candidates
// are pruned against the global k-th best pair under the canonical
// (distance, DocID, DocID) total order, examined when their Eq. 9 error
// estimate drops to the threshold (fully covered pairs are exact for
// free), and the join terminates when the heap is full and its k-th
// distance is strictly below everything still outstanding.
//
// With PairOptions.Workers > 1 the DocID space splits into contiguous
// ranges, the way the partitioned full scan splits it, and the pair
// universe into the disjoint range-pair tasks (i,i) and (i,j), i < j.
// Every task reads the one prepared block, cut to its two ranges, and
// offers into one shared heap whose k-th distance only falls, so a pair
// pruned against any snapshot of it is outside the final top-k. Because
// the heap order is total, the retained top-k is a pure function of the
// offered set: the ranged join is bitwise identical to the serial join
// and both to the naive O(n^2) oracle; only its examined and pruned
// counts depend on how the tasks interleave.
//
// Documents with empty concept sets have no Ddd terms and are excluded
// from the pair universe by every tier. Pairs whose concept sets share no
// valid path never accumulate a finite term and are never discovered;
// with a rooted ontology every concept pair is connected, so this arises
// only on degenerate inputs.

import (
	"context"
	"math"
	"sort"
	"sync"
	"time"

	"conceptrank/internal/cache"
	"conceptrank/internal/corpus"
	"conceptrank/internal/drc"
	"conceptrank/internal/ontology"
	"conceptrank/internal/pool"
)

// PairResult is one ranked document pair, canonical: A < B.
type PairResult struct {
	A, B     corpus.DocID
	Distance float64
}

// PairOptions configures a TopKPairs join. The zero value selects the
// defaults.
type PairOptions struct {
	// K is the number of pairs to return (default 10).
	K int
	// ErrorThreshold is ε_θ of Eq. 9 applied to pair bounds: 0 examines a
	// pair only once every term is covered (the exact distance is then
	// free); larger values trade early exact computations for fewer
	// levels. Results are identical at every setting.
	ErrorThreshold float64
	// Workers > 1 splits the join into that many contiguous document
	// ranges and runs the range-pair tasks concurrently, results
	// identical to the serial join; its examined and pruned counts then
	// depend on scheduling. 0 and 1 run the serial join on the caller's
	// goroutine. Negative values are rejected (ErrNegativeWorkers).
	Workers int
}

// PairMetrics describes one TopKPairs join. The ranged join merges
// per-task metrics with the same conventions as Metrics: counters and
// component times sum, Levels merges by max, TotalTime and ResultCount
// are owned by the top-level caller.
type PairMetrics struct {
	SeedTime  time.Duration // concept-vector construction (cache-aware)
	JoinTime  time.Duration // level loop: reveals, bounds, examinations
	TotalTime time.Duration

	TotalPairs      int64 // the candidate universe: eligible-doc pairs
	PairsDiscovered int64 // pairs that accumulated at least one term
	PairsExamined   int64 // pairs whose exact Ddd was computed
	PairsPruned     int64 // pairs discarded by the k-th-best bound
	Levels          int   // reveal levels processed (deepest task)
	Blocks          int   // join tasks executed (1 for the serial join)
	CancelledBlocks int   // tasks stopped early by the global threshold

	// CacheHits / CacheMisses count seed-vector lookups against the
	// engine's cache (EnableCache), one per vocabulary concept. Zero when
	// no cache is attached.
	CacheHits   int
	CacheMisses int

	ResultCount int
}

// EvaluatedFraction returns PairsExamined / TotalPairs — the fraction of
// the O(n^2) candidate universe whose exact distance was computed. The
// naive oracle reports 1; the bounded join's headline number.
func (m *PairMetrics) EvaluatedFraction() float64 {
	if m.TotalPairs == 0 {
		return 0
	}
	return float64(m.PairsExamined) / float64(m.TotalPairs)
}

// add accumulates src into m with the conventions on PairMetrics (task
// pair universes are disjoint, so TotalPairs sums to the whole universe).
// It is the ranged join's one merge; TestMergePairMetricsCoversAllFields
// fails when a field is added without a rule here.
func (m *PairMetrics) add(src *PairMetrics) {
	m.SeedTime += src.SeedTime
	m.JoinTime += src.JoinTime
	m.TotalPairs += src.TotalPairs
	m.PairsDiscovered += src.PairsDiscovered
	m.PairsExamined += src.PairsExamined
	m.PairsPruned += src.PairsPruned
	if src.Levels > m.Levels {
		m.Levels = src.Levels
	}
	m.Blocks += src.Blocks
	m.CancelledBlocks += src.CancelledBlocks
	m.CacheHits += src.CacheHits
	m.CacheMisses += src.CacheMisses
}

// worse is the canonical total order on pairs: by distance, then DocID
// A, then DocID B — the pair analogue of Result.worse. Totality makes the
// retained top-k a pure function of the offered set, independent of offer
// order and task interleaving.
func (a PairResult) worse(b PairResult) bool {
	if a.Distance != b.Distance {
		return a.Distance > b.Distance
	}
	if a.A != b.A {
		return a.A > b.A
	}
	return a.B > b.B
}

func (a PairResult) dist() float64 { return a.Distance }

// pairKey packs a canonical pair into one comparable word; key order on
// equal distances matches PairResult.worse.
func pairKey(a, b corpus.DocID) uint64 { return uint64(a)<<32 | uint64(b) }

// pairMerger is the mutex-guarded global top-k pair heap shared by every
// join task. offer canonicalizes (a,b) to (min,max) and rejects
// self-pairs, so any orientation may be offered. Because the heap's
// eviction order is total, the final content — and therefore the k-th
// threshold every task prunes against — is independent of the
// interleaving of concurrent offers.
type pairMerger struct {
	mu sync.Mutex
	h  topK[PairResult]
}

func newPairMerger(k int) *pairMerger { return &pairMerger{h: topK[PairResult]{k: k}} }

// offer submits one exact pair distance. Self-pairs are ignored;
// (a,b) and (b,a) are the same pair.
func (m *pairMerger) offer(p PairResult) {
	if p.A == p.B {
		return
	}
	if p.B < p.A {
		p.A, p.B = p.B, p.A
	}
	m.mu.Lock()
	m.h.offer(p)
	m.mu.Unlock()
}

// snapshot returns the heap state a join task prunes against: whether
// the heap is full, the k-th distance (+Inf while not full), and the
// canonically largest retained pair (meaningful only when full). The
// k-th distance is monotonically non-increasing over a join's lifetime,
// which is what makes pruning against a snapshot sound under any task
// interleaving.
func (m *pairMerger) snapshot() (full bool, kth float64, worst PairResult) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.h.full() {
		return false, math.Inf(1), PairResult{}
	}
	return true, m.h.kth(), m.h.worst()
}

// sorted returns the retained pairs in canonical ascending order.
func (m *pairMerger) sorted() []PairResult {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.h.sorted()
}

// levelReveal is one (concept, documents) bucket of the reveal schedule:
// every listed document is at exactly the bucket's level from the
// concept.
type levelReveal struct {
	c    ontology.ConceptID
	docs []corpus.DocID // ascending
}

// pairBlock is the engine's documents prepared for the pair join: the
// snapshot's concept sets and postings, and — for every vocabulary
// concept — the exact Ddc vector over the documents, bucketed by distance
// level. It is immutable once built, and every task of a ranged join
// reads it, cut to the task's two document ranges.
type pairBlock struct {
	concepts [][]ontology.ConceptID                 // doc -> sorted concept set (nil: excluded)
	postings map[ontology.ConceptID][]corpus.DocID  // docs containing c, ascending
	vecs     map[ontology.ConceptID][]cache.DocDist // exact Ddc per vocabulary concept, ascending Doc
	byLevel  [][]levelReveal                        // reveal schedule, indexed by level
}

// pairRange is the contiguous document range [lo, hi) of a join task.
type pairRange struct{ lo, hi corpus.DocID }

// within cuts an ascending DocID list to the range.
func (r pairRange) within(docs []corpus.DocID) []corpus.DocID {
	i := sort.Search(len(docs), func(i int) bool { return docs[i] >= r.lo })
	j := i + sort.Search(len(docs)-i, func(j int) bool { return docs[i+j] >= r.hi })
	return docs[i:j]
}

// eligible counts the range's documents with a non-empty concept set.
func (b *pairBlock) eligible(r pairRange) int64 {
	n := int64(0)
	for _, cs := range b.concepts[r.lo:r.hi] {
		if cs != nil {
			n++
		}
	}
	return n
}

// ddc returns the exact Ddc(d, c), or infDist when no valid path exists
// (matching drc's unreachable sentinel).
func (b *pairBlock) ddc(c ontology.ConceptID, d corpus.DocID) int32 {
	v := b.vecs[c]
	i := sort.Search(len(v), func(i int) bool { return v[i].Doc >= d })
	if i < len(v) && v[i].Doc == d {
		return v[i].Dist
	}
	return infDist
}

// buildPairBlock prepares this engine's documents [0, n) for the pair
// join, resolving every vocabulary concept's seed vector in one batch
// (resolveSeeds): served from the engine's cache exactly as for RDS
// queries, whose entries they share, or built concurrently when there is
// no cache or the entry is missing or stale. Vector
// entries at or past n (from cache vectors refreshed beyond this
// snapshot) are ignored, so the block is exactly the n-document snapshot
// regardless of cache state.
func (e *Engine) buildPairBlock(n int, m *PairMetrics) (*pairBlock, error) {
	b := &pairBlock{
		concepts: make([][]ontology.ConceptID, n),
		postings: make(map[ontology.ConceptID][]corpus.DocID),
		vecs:     make(map[ontology.ConceptID][]cache.DocDist),
	}
	for d := 0; d < n; d++ {
		cs, err := e.fwd.Concepts(corpus.DocID(d))
		if err != nil {
			return nil, err
		}
		if len(cs) == 0 {
			continue
		}
		b.concepts[d] = cs
		for _, c := range cs {
			b.postings[c] = append(b.postings[c], corpus.DocID(d))
		}
	}
	vocab := make([]ontology.ConceptID, 0, len(b.postings))
	for c := range b.postings {
		vocab = append(vocab, c)
	}
	sort.Slice(vocab, func(i, j int) bool { return vocab[i] < vocab[j] })
	vecs, err := resolveSeeds(e, &ddcSpace{}, e.cache, vocab, n, seedTally{hits: &m.CacheHits, misses: &m.CacheMisses})
	if err != nil {
		return nil, err
	}
	for i, vec := range vecs {
		c := vocab[i]
		b.vecs[c] = vec
		// Bucket the vector into the reveal schedule. Levels appear in
		// vector (ascending-Doc) order; docs within a bucket stay ascending.
		var perLevel [][]corpus.DocID
		for _, dd := range vec {
			if int(dd.Doc) >= n {
				break // ascending by Doc; the rest is past the snapshot
			}
			l := int(dd.Dist)
			for len(perLevel) <= l {
				perLevel = append(perLevel, nil)
			}
			perLevel[l] = append(perLevel[l], dd.Doc)
		}
		for l, docs := range perLevel {
			if docs == nil {
				continue
			}
			for len(b.byLevel) <= l {
				b.byLevel = append(b.byLevel, nil)
			}
			b.byLevel[l] = append(b.byLevel[l], levelReveal{c: c, docs: docs})
		}
	}
	return b, nil
}

// pairState is the join's per-discovered-pair bookkeeping: a is the
// canonical first document (a < b).
type pairState struct {
	a, b       corpus.DocID
	covA, covB int32 // covered terms per side
	sumA, sumB int64 // sum of covered term distances per side
	examined   bool
	pruned     bool
}

// exact recomputes the pair's exact Ddd from the block's vectors:
// integer term sums (<= 2^53, so the float64 conversions are exact)
// divided once per side — bit-for-bit the arithmetic drc's
// DocDocDistance performs, which is what pins the bounded join to the
// naive oracle. Uncovered terms resolve by binary search; absent entries
// are the unreachable sentinel, matching drc.Inf.
func (b *pairBlock) exact(st *pairState) float64 {
	ca, cb := b.concepts[st.a], b.concepts[st.b]
	if st.covA == int32(len(ca)) && st.covB == int32(len(cb)) {
		return float64(st.sumA)/float64(len(ca)) + float64(st.sumB)/float64(len(cb))
	}
	var sa, sb int64
	for _, c := range ca {
		sa += int64(b.ddc(c, st.b)) // Ddc(b, c) for c in C_a
	}
	for _, c := range cb {
		sb += int64(b.ddc(c, st.a))
	}
	return float64(sa)/float64(len(ca)) + float64(sb)/float64(len(cb))
}

// bounds returns the pair's Eq. 8-style lower bound and partial distance
// given that every uncovered term is >= bound.
func (b *pairBlock) bounds(st *pairState, bound float64) (lb, partial float64) {
	la := float64(len(b.concepts[st.a]))
	lbn := float64(len(b.concepts[st.b]))
	termA := float64(st.sumA)
	termB := float64(st.sumB)
	partial = termA/la + termB/lbn
	// Guard the uncovered==0 cases: 0 * +Inf is NaN.
	if unc := la - float64(st.covA); unc > 0 {
		termA += unc * bound
	}
	if unc := lbn - float64(st.covB); unc > 0 {
		termB += unc * bound
	}
	lb = termA/la + termB/lbn
	return lb, partial
}

// pairCand is one level's examination candidate.
type pairCand struct {
	st          *pairState
	lb, partial float64
}

// join runs the bounded level-synchronous join over the pairs with one
// document in range ra and the other in range rb (the same range: the
// pairs within it), offering exact distances to mg, which concurrently
// running tasks share, and pruning against its global k-th threshold.
// Metrics accumulate into m, which a ranged join keeps task-local.
func (b *pairBlock) join(ctx context.Context, ra, rb pairRange, opts PairOptions, mg *pairMerger, m *PairMetrics) error {
	same := ra == rb
	var totalPairs int64
	if same {
		e := b.eligible(ra)
		totalPairs = e * (e - 1) / 2
	} else {
		totalPairs = b.eligible(ra) * b.eligible(rb)
	}
	m.Blocks++
	m.TotalPairs += totalPairs
	if totalPairs == 0 {
		return nil
	}

	states := make(map[uint64]*pairState)
	var live []*pairState
	discovered := int64(0)

	// cover accumulates one revealed term: a concept of document x against
	// partner y, at distance l.
	cover := func(x, y corpus.DocID, l int32) {
		var key uint64
		if x < y {
			key = pairKey(x, y)
		} else {
			key = pairKey(y, x)
		}
		st := states[key]
		if st == nil {
			st = &pairState{a: min(x, y), b: max(x, y)}
			states[key] = st
			live = append(live, st)
			discovered++
			m.PairsDiscovered++
		}
		if st.examined || st.pruned {
			return
		}
		if x < y {
			st.covA++
			st.sumA += int64(l)
		} else {
			st.covB++
			st.sumB += int64(l)
		}
	}

	// reveal plays the level-L buckets of range levels against the
	// postings of range post: each bucket document y is at exactly
	// distance l from c, covering the c term of every c-containing
	// document x.
	reveal := func(levels, post pairRange, l int) {
		if l >= len(b.byLevel) {
			return
		}
		for _, rv := range b.byLevel[l] {
			xs := post.within(b.postings[rv.c])
			if len(xs) == 0 {
				continue
			}
			for _, y := range levels.within(rv.docs) {
				for _, x := range xs {
					if same && x == y {
						continue
					}
					cover(x, y, int32(l))
				}
			}
		}
	}

	maxL := len(b.byLevel) - 1
	var cands []pairCand
	for l := 0; l <= maxL; l++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		reveal(rb, ra, l)
		if !same {
			reveal(ra, rb, l)
		}
		exhausted := l == maxL
		bound := float64(l + 1)
		if exhausted {
			// Every reachable term is revealed; what remains has no valid
			// path, the same unreachable sentinel drc uses.
			bound = math.Inf(1)
		}
		if m.Levels < l+1 {
			m.Levels = l + 1
		}

		// Collect the undecided pairs, compacting out settled ones.
		cands = cands[:0]
		kept := live[:0]
		for _, st := range live {
			if st.examined || st.pruned {
				continue
			}
			kept = append(kept, st)
			lb, partial := b.bounds(st, bound)
			cands = append(cands, pairCand{st: st, lb: lb, partial: partial})
		}
		live = kept
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].lb != cands[j].lb {
				return cands[i].lb < cands[j].lb
			}
			return pairKey(cands[i].st.a, cands[i].st.b) < pairKey(cands[j].st.a, cands[j].st.b)
		})

		// Examine in ascending-bound order, pruning against the global
		// k-th threshold, which only tightens while we iterate.
		for _, cand := range cands {
			full, kth, worst := mg.snapshot()
			if full && cand.lb > kth {
				cand.st.pruned = true
				m.PairsPruned++
				continue
			}
			if full && cand.lb == kth && pairKey(cand.st.a, cand.st.b) > pairKey(worst.A, worst.B) {
				// An exact distance can only meet the bound; at the k-th
				// distance the canonical order says it cannot displace.
				cand.st.pruned = true
				m.PairsPruned++
				continue
			}
			if !exhausted {
				eps := 0.0
				if cand.lb > 0 {
					eps = 1 - cand.partial/cand.lb
				}
				if eps > opts.ErrorThreshold {
					break // sorted by lb: later candidates are no riper
				}
			}
			d := b.exact(cand.st)
			cand.st.examined = true
			m.PairsExamined++
			mg.offer(PairResult{A: cand.st.a, B: cand.st.b, Distance: d})
		}

		// Termination floor: the smallest bound any undecided or
		// undiscovered pair could still attain.
		dMinus := math.Inf(1)
		for _, cand := range cands {
			if cand.st.examined || cand.st.pruned {
				continue
			}
			if cand.lb < dMinus {
				dMinus = cand.lb
			}
		}
		if discovered < totalPairs && 2*bound < dMinus {
			dMinus = 2 * bound
		}
		if full, kth, _ := mg.snapshot(); full && dMinus > kth {
			if !exhausted {
				m.CancelledBlocks++
			}
			break
		}
	}
	return nil
}

// joinRanges runs the join over documents [0, n): serially on the
// caller's goroutine for one worker, otherwise split into opts.Workers
// contiguous ranges (at most one per document) whose range-pair tasks
// run concurrently against mg, opts.Workers at a time, with task-local
// metrics merged into m.
func (b *pairBlock) joinRanges(ctx context.Context, n int, opts PairOptions, mg *pairMerger, m *PairMetrics) error {
	parts := min(opts.Workers, n)
	if parts <= 1 {
		all := pairRange{0, corpus.DocID(n)}
		return b.join(ctx, all, all, opts, mg, m)
	}
	ranges := make([]pairRange, parts)
	for w := range ranges {
		ranges[w] = pairRange{corpus.DocID(w * n / parts), corpus.DocID((w + 1) * n / parts)}
	}
	tms := make([]PairMetrics, parts*(parts+1)/2)
	g, gctx := pool.GroupWithContext(ctx)
	g.SetLimit(parts)
	t := 0
	for i := range ranges {
		for j := i; j < parts; j++ {
			ra, rb, tm := ranges[i], ranges[j], &tms[t]
			t++
			g.Go(func() error { return b.join(gctx, ra, rb, opts, mg, tm) })
		}
	}
	err := g.Wait()
	for i := range tms {
		m.add(&tms[i])
	}
	if err != nil && ctx.Err() != nil {
		return ctx.Err()
	}
	return err
}

// TopKPairs returns the k document pairs with the smallest symmetric
// distance Ddd (Eq. 3), in ascending canonical (distance, A, B) order,
// without evaluating all O(n^2) candidates: per-concept exact Ddc
// vectors (cache-aware, shared with RDS seeding) drive a level-
// synchronous reveal whose monotone lower bounds prune candidates
// against the running k-th best pair. opts.Workers > 1 splits the join
// into document ranges joined concurrently. Results are bitwise
// identical to the naive oracle for every option setting.
func (e *Engine) TopKPairs(ctx context.Context, opts PairOptions) ([]PairResult, *PairMetrics, error) {
	if opts.Workers < 0 {
		return nil, &PairMetrics{}, ErrNegativeWorkers
	}
	opts = opts.normalize()
	m := &PairMetrics{}
	start := time.Now()
	n := e.numDocs()

	t0 := time.Now()
	blk, err := e.buildPairBlock(n, m)
	m.SeedTime = time.Since(t0)
	if err != nil {
		m.TotalTime = time.Since(start)
		return nil, m, err
	}

	mg := newPairMerger(opts.K)
	t1 := time.Now()
	err = blk.joinRanges(ctx, n, opts, mg, m)
	m.JoinTime = time.Since(t1)
	if err != nil {
		m.TotalTime = time.Since(start)
		return nil, m, err
	}
	res := mg.sorted()
	m.ResultCount = len(res)
	m.TotalTime = time.Since(start)
	return res, m, nil
}

// normalize fills in the default K.
func (o PairOptions) normalize() PairOptions {
	if o.K <= 0 {
		o.K = 10
	}
	return o
}

// TopKPairsNaive is the O(n^2) reference join: every eligible pair's
// exact Ddd via DRC, offered to the same canonical merger. It is the
// oracle the equivalence grid pins TopKPairs against, computed through
// an independent code path (the D-Radix calculator rather than seed
// vectors). It ignores opts.Workers.
func (e *Engine) TopKPairsNaive(ctx context.Context, opts PairOptions) ([]PairResult, *PairMetrics, error) {
	opts = opts.normalize()
	m := &PairMetrics{Blocks: 1}
	start := time.Now()
	n := e.numDocs()
	concepts := make([][]ontology.ConceptID, n)
	for d := 0; d < n; d++ {
		cs, err := e.fwd.Concepts(corpus.DocID(d))
		if err != nil {
			m.TotalTime = time.Since(start)
			return nil, m, err
		}
		if len(cs) > 0 {
			concepts[d] = cs
		}
	}
	// TotalPairs: eligible choose 2.
	eligible := int64(0)
	for _, cs := range concepts {
		if cs != nil {
			eligible++
		}
	}
	m.TotalPairs = eligible * (eligible - 1) / 2
	m.PairsDiscovered = m.TotalPairs

	mg := newPairMerger(opts.K)
	t0 := time.Now()
	var scr drc.Scratch
	for a := 0; a < n; a++ {
		if concepts[a] == nil {
			continue
		}
		if err := ctx.Err(); err != nil {
			m.TotalTime = time.Since(start)
			return nil, m, err
		}
		prep := drc.PrepareCached(e.o, concepts[a], 0, e.addrCache)
		for b := a + 1; b < n; b++ {
			if concepts[b] == nil {
				continue
			}
			d, err := prep.DocDocScratch(concepts[b], &scr)
			if err != nil {
				m.TotalTime = time.Since(start)
				return nil, m, err
			}
			m.PairsExamined++
			mg.offer(PairResult{A: corpus.DocID(a), B: corpus.DocID(b), Distance: d})
		}
	}
	m.JoinTime = time.Since(t0)
	res := mg.sorted()
	m.ResultCount = len(res)
	m.TotalTime = time.Since(start)
	return res, m, nil
}

package core

// The staged kNDS query pipeline. What used to be one monolithic search
// function is decomposed into explicit stages so the executor can pause,
// resume and grow a query without re-running it (see DESIGN.md, "Query
// pipeline"):
//
//	plan        query normalization, dedup, validation and the choice of
//	            distance space — everything immutable for the query's
//	            lifetime (queryPlan). The space (measure.go) is the only
//	            piece that knows whether the query ranks under Rada on DRC
//	            or under a pluggable measure; it prepares its exact side on
//	            the first examination that needs it.
//	stepper     the valid-path BFS frontier; expands exactly one depth
//	            level per step, descending only into live concepts (at or
//	            above some document concept), with the queue-limit pause
//	            for forced examinations (waveStepper).
//	bounds      the paper's Ld table: per-document partial distances and
//	            lower bounds, Eqs. 5-8, handed to the commit loop as a
//	            heap in commit order (boundTable, candHeap) — one table for
//	            every distance space.
//	policy      the examine-now-or-defer decision, ε_d ≤ ε_θ (Eq. 9;
//	            cand.examineNow).
//	collector   the canonical tie-broken top-k plus the exact-distance
//	            archive that makes GrowK possible (collector).
//
// The executor wires the stages into the paper's wave loop. One stepWave
// call is one wave: traverse a BFS level, refresh candidate bounds, run
// the serial commit loop, which pops candidates lazily and stops at the
// first one it defers, then publish the termination floor d⁻ — the
// smaller of that candidate's lower bound and the undiscovered bound (why
// the loop is serial: DESIGN.md, "Why kNDS is serial"). Because every
// piece of mutable query state lives on the executor, a query is
// resumable: a context cancellation observed at a wave boundary leaves the
// state intact, and growK widens the collector and revives pruned
// candidates so the same traversal continues toward a larger k (the Cursor
// API in cursor.go).
//
// A fully seeded query (an RDS query on an engine with a cache: seed.go) skips the middle
// stages: the seed vectors already give every document's exact distance,
// so the executor folds them into one (distance, doc) heap and pops it
// straight into the collector, with no wave stepper and no bound table.
//
// Resumability imposes two deliberate deviations from the monolith, both
// invisible to a fixed-k query:
//
//  1. the bound table keeps accumulating coverage for *pruned* documents
//     (only examined ones stop). A pruned document is out of the live
//     list, so fixed-k decisions never see the extra coverage — but after
//     growK revives it, its lower bound is exactly what an un-pruned run
//     would have accumulated, which is what makes GrowK bitwise-identical
//     to a fresh larger-k query.
//  2. the collector archives every examined result, not just the current
//     top-k, so a grown heap can be rebuilt from exact distances without
//     re-probing DRC.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"conceptrank/internal/corpus"
	"conceptrank/internal/measure"
	"conceptrank/internal/ontology"
)

// queryPlan is the immutable output of the plan stage.
type queryPlan struct {
	sds       bool
	q         []ontology.ConceptID // deduplicated query concepts
	nq        int32
	opts      Options
	totalDocs int // collection size snapshot: concurrent adds wait for the next query
	space     distanceSpace
}

// plan validates and normalizes the query and picks its distance space.
func (e *Engine) plan(sds bool, rawQuery []ontology.ConceptID, opts Options) (*queryPlan, error) {
	if opts.Workers < 0 {
		return nil, ErrNegativeWorkers
	}
	q, err := QueryConcepts(rawQuery, e.o.NumConcepts())
	if err != nil {
		return nil, err
	}
	return &queryPlan{sds: sds, q: q, nq: int32(len(q)), opts: opts, totalDocs: e.numDocs(),
		space: e.space(opts.Measure, q)}, nil
}

// bfsState is one queued traversal step: node reached from origin q[origin]
// at the given distance; down records whether the path has started
// descending (valid paths are up* down*, Section 3.1).
type bfsState struct {
	node   ontology.ConceptID
	origin int32
	depth  int32
	down   bool
}

// visitPageNodes is the number of concepts one visited-bit page covers.
// At 2 bits per concept a page is 512 bytes: small enough that a sparse
// traversal touching a handful of ontology regions allocates little, big
// enough that the page-table indirection stays cheap.
const visitPageNodes = 2048

// waveStepper owns the valid-path BFS frontier. Each executor wave pops
// exactly one depth level (or a queue-limit-bounded prefix of it) and
// pushes the next level's states.
type waveStepper struct {
	o *ontology.Ontology
	// live is the engine's live set (vocab.go), covering at least the
	// plan's snapshot and read without a lock: a down-phase state is
	// pushed only at a live concept.
	live  []atomic.Uint64
	queue []bfsState
	head  int
	// visited: per (origin, node) phase bits, held in lazily allocated
	// 2-bit pages (visited[origin][node/visitPageNodes]). Bit 1: reached
	// while still allowed to ascend (up phase); bit 2: reached in descent.
	// An up-phase visit dominates any later down-phase visit at equal or
	// larger depth. Pages and page tables are arena-carved; a nil outer
	// slice means dedup is off.
	visited  [][][]byte
	numPages int
	ar       *queryArena
}

// newWaveStepper seeds the frontier with every query origin.
func newWaveStepper(o *ontology.Ontology, live []atomic.Uint64, q []ontology.ConceptID, dedup bool, ar *queryArena) *waveStepper {
	w := &waveStepper{o: o, live: live, ar: ar, queue: ar.queueBuf[:0]}
	if dedup {
		w.visited = make([][][]byte, len(q))
		w.numPages = (o.NumConcepts() + visitPageNodes - 1) / visitPageNodes
	}
	for i, qi := range q {
		w.push(bfsState{node: qi, origin: int32(i), depth: 0, down: false})
	}
	return w
}

func (w *waveStepper) push(s bfsState) {
	if w.visited != nil {
		pt := w.visited[s.origin]
		if pt == nil {
			pt = w.ar.tables.AllocN(w.numPages)
			w.visited[s.origin] = pt
		}
		pg := pt[int(s.node)/visitPageNodes]
		if pg == nil {
			pg = w.ar.pages.AllocN(visitPageNodes / 4)
			pt[int(s.node)/visitPageNodes] = pg
		}
		bi := (int(s.node) % visitPageNodes) >> 2
		shift := uint(s.node&3) * 2
		bits := (pg[bi] >> shift) & 3
		if s.down {
			if bits != 0 { // up or down already seen
				return
			}
			pg[bi] |= 2 << shift
		} else {
			if bits&1 != 0 {
				return
			}
			pg[bi] |= 3 << shift // up dominates future down visits
		}
	}
	w.queue = append(w.queue, s)
}

func (w *waveStepper) exhausted() bool { return w.head >= len(w.queue) }

func (w *waveStepper) pending() int { return len(w.queue) - w.head }

// nextDepth is the depth of the next pending state; only valid while not
// exhausted.
func (w *waveStepper) nextDepth() int32 { return w.queue[w.head].depth }

// bound is the smallest depth still pending — the traversal floor every
// uncovered term contributes at least (+Inf once exhausted).
func (w *waveStepper) bound() float64 {
	if w.exhausted() {
		return math.Inf(1)
	}
	return float64(w.nextDepth())
}

func (w *waveStepper) pop() bfsState {
	s := w.queue[w.head]
	w.head++
	return s
}

// expand pushes s's valid-path neighbors: ascending is only allowed before
// the first descent (Example 4: {G,F} is never pushed because J was
// reached from F by descending), and descending only into live children.
// A dead child has no document concept at or below it, and every state
// after a descent stays below it, so none of its successors could ever
// contact a document: skipping it changes no contact, and the pending
// floor (bound) stays a lower bound on every future one.
func (w *waveStepper) expand(s bfsState) {
	if !s.down {
		for _, p := range w.o.Parents(s.node) {
			w.push(bfsState{node: p, origin: s.origin, depth: s.depth + 1, down: false})
		}
	}
	for _, c := range w.o.Children(s.node) {
		if isLive(w.live, c) {
			w.push(bfsState{node: c, origin: s.origin, depth: s.depth + 1, down: true})
		}
	}
}

// reclaim drops the consumed queue prefix once it dominates the slice.
func (w *waveStepper) reclaim() {
	if w.head > 4096 && w.head > len(w.queue)/2 {
		w.queue = append(w.queue[:0], w.queue[w.head:]...)
		w.head = 0
	}
}

// docState is the paper's Ld entry: per-candidate accumulated distances,
// as running minima of the values of contacting BFS states (fact 1 of
// measure.go). In the Rada space depths arrive in non-decreasing order —
// through the queue-limit pause, NoDedup revisits and GrowK revival too —
// so the update reduces to first contact, and the float sums of integer
// depths are exact. Under a measure a later contact may still lower a
// term: a longer path through different endpoints can score smaller.
// Every slice field is carved from the query's arena: minA at discovery
// (length nq), the direction-B sets at capacity sizeB — a contacted
// concept is by construction one of the document's concepts, so the
// sorted insert below can never outgrow that capacity.
type docState struct {
	minA      []float64 // per query origin; +Inf = not covered (Md)
	nCoveredA int32
	sumA      float64 // over covered origins
	// SDS direction B (M'd): covered candidate-document concepts, sorted
	// ascending, each one's running minimum, and their sum.
	nodesB []ontology.ConceptID
	minB   []float64
	sumB   float64
	sizeB  int32 // |d|

	examined bool
	pruned   bool
}

// boundTable accumulates partial distances and lower bounds (Eqs. 5-8)
// for every discovered document, every uncovered term floored by the
// distance floor the executor passes in.
type boundTable struct {
	sds bool
	nq  int32
	// meas is the query space's measure (distanceSpace.measure), nil in
	// the Rada space: facts 1 and 3 of measure.go branch on it, once per
	// BFS pop and once per bound.
	meas measure.Measure
	ar   *queryArena
	// states is dense, indexed by DocID over the plan's snapshot (and grown
	// past it if a concurrently appended document surfaces in postings);
	// nil = not discovered. all lists discovered documents in discovery
	// order — the deterministic iteration surface the old map lacked.
	// states, all and live are carved from the arena at the snapshot's
	// size and candBuf at the live count, so none of them regrows on the
	// heap unless a concurrently appended document is discovered.
	states  []*docState
	all     []corpus.DocID
	live    []corpus.DocID // discovered, not yet examined or pruned
	candBuf []cand         // wave-local candidate buffer, reused across waves
	distBuf []int32        // backs coveredDist's slices, reused across waves
}

func newBoundTable(sds bool, nq int32, meas measure.Measure, ar *queryArena, totalDocs int) *boundTable {
	return &boundTable{sds: sds, nq: nq, meas: meas, ar: ar,
		states: ar.ptrs.AllocN(totalDocs),
		all:    ar.docIDs.AllocN(totalDocs)[:0],
		live:   ar.docIDs.AllocN(totalDocs)[:0]}
}

// state returns doc's entry, nil if undiscovered.
func (b *boundTable) state(doc corpus.DocID) *docState {
	if int(doc) >= len(b.states) {
		return nil
	}
	return b.states[doc]
}

// discover registers a fresh docState for doc, growing the dense table if
// the document was appended after the plan snapshot.
func (b *boundTable) discover(doc corpus.DocID, st *docState, m *Metrics) {
	if n := int(doc) + 1; n > len(b.states) {
		grown := make([]*docState, n+n/4)
		copy(grown, b.states)
		b.states = grown[:n]
	}
	b.states[doc] = st
	b.all = append(b.all, doc)
	b.live = append(b.live, doc)
	m.DocsDiscovered++
}

// newDocState carves a docState with its direction-A coverage array from
// the arena (direction B is carved by observe, which knows sizeB).
func (b *boundTable) newDocState() *docState {
	st := b.ar.docs.Alloc()
	st.minA = b.ar.f64.AllocN(int(b.nq))
	for i := range st.minA {
		st.minA[i] = math.Inf(1)
	}
	return st
}

// findConcept binary-searches a sorted concept slice, returning the
// insertion index for c and whether c is already present.
func findConcept(a []ontology.ConceptID, c ontology.ConceptID) (int, bool) {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < c {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(a) && a[lo] == c
}

// insertAt inserts v at index i of a sorted slice. The direction-B sets
// are carved at capacity sizeB, so the append stays in arena storage.
func insertAt[T any](a []T, i int, v T) []T {
	var zero T
	a = append(a, zero)
	copy(a[i+1:], a[i:])
	a[i] = v
	return a
}

// observe records one contact of BFS state s, of value v, with doc.
// Coverage keeps accumulating for pruned documents — they are out of the
// live list, so fixed-k decisions are unaffected, but growK can revive
// them with bounds as tight as an un-pruned run's (examined documents are
// final and stop).
func (b *boundTable) observe(e *Engine, doc corpus.DocID, s bfsState, v float64, m *Metrics) error {
	st := b.state(doc)
	if st == nil {
		var sizeB int
		if b.sds {
			n, err := e.fwd.NumConcepts(doc)
			if err != nil {
				return fmt.Errorf("core: forward(%d): %w", doc, err)
			}
			sizeB = n
		}
		st = b.newDocState()
		if b.sds {
			st.sizeB = int32(sizeB)
			st.nodesB = b.ar.cids.AllocN(sizeB)[:0]
			st.minB = b.ar.f64.AllocN(sizeB)[:0]
		}
		b.discover(doc, st, m)
	}
	if st.examined {
		return nil
	}
	if old := st.minA[s.origin]; v < old {
		if math.IsInf(old, 1) {
			st.nCoveredA++
			st.sumA += v
		} else {
			st.sumA += v - old
		}
		st.minA[s.origin] = v
	}
	if b.sds {
		// Distances are symmetric, so the same value covers direction B.
		if i, ok := findConcept(st.nodesB, s.node); !ok {
			st.nodesB = insertAt(st.nodesB, i, s.node)
			st.minB = insertAt(st.minB, i, v)
			st.sumB += v
		} else if v < st.minB[i] {
			st.sumB += v - st.minB[i]
			st.minB[i] = v
		}
	}
	return nil
}

// covered reports whether every term of st has been contacted.
func (b *boundTable) covered(st *docState) bool {
	return st.nCoveredA == b.nq && (!b.sds || len(st.nodesB) == int(st.sizeB))
}

// partialOf is the accumulated partial distance (Eqs. 5, 7).
func (b *boundTable) partialOf(st *docState) float64 {
	if !b.sds {
		return st.sumA
	}
	p := st.sumA / float64(b.nq)
	if st.sizeB > 0 {
		p += st.sumB / float64(st.sizeB)
	}
	return p
}

// lowerOf is the lower bound (Eqs. 6, 8): every uncovered term contributes
// at least floor (fact 2 of measure.go). In the Rada space a covered term
// is final, so the bound is O(1): the sums plus floor per uncovered term.
// Under a measure a covered term's running minimum only bounds its true
// contribution from above (a longer path may still score smaller), so
// each covered term contributes min(running, floor) — every unseen pair is
// at least floor — in O(nq + |d|).
func (b *boundTable) lowerOf(st *docState, floor float64) float64 {
	termA, termB := st.sumA, st.sumB
	// Guard the uncovered terms: at traversal exhaustion floor is +Inf
	// and a fully covered term must contribute exactly its sum
	// (0 * Inf would be NaN).
	uncoveredA := float64(b.nq - st.nCoveredA)
	if b.meas != nil {
		// An uncovered origin's +Inf contributes floor here, so it is not
		// added again below; at floor = +Inf, as in the Rada form, the
		// bound is +Inf until every origin is covered.
		termA, termB, uncoveredA = 0, 0, 0
		for _, v := range st.minA {
			termA += math.Min(v, floor)
		}
		for _, v := range st.minB {
			termB += math.Min(v, floor)
		}
	}
	if uncoveredA > 0 {
		termA += uncoveredA * floor
	}
	if !b.sds {
		return termA
	}
	lb := termA / float64(b.nq)
	if st.sizeB > 0 {
		if uncoveredB := float64(int(st.sizeB) - len(st.nodesB)); uncoveredB > 0 {
			termB += uncoveredB * floor
		}
		lb += termB / float64(st.sizeB)
	}
	return lb
}

// coveredDist is WaveInfo.CoveredDist in the Rada space: per live
// document, its per-origin first-contact depths, -1 where an origin is
// not covered yet. The slices share one buffer, reused by the next wave.
func (b *boundTable) coveredDist() map[corpus.DocID][]int32 {
	out := make(map[corpus.DocID][]int32, len(b.all))
	if n := len(b.all) * int(b.nq); cap(b.distBuf) < n {
		b.distBuf = make([]int32, n)
	}
	buf := b.distBuf[:0]
	for _, doc := range b.all {
		st := b.states[doc]
		if st.examined || st.pruned {
			continue
		}
		start := len(buf)
		for _, v := range st.minA {
			d := int32(-1)
			if !math.IsInf(v, 1) {
				d = int32(v)
			}
			buf = append(buf, d)
		}
		out[doc] = buf[start:len(buf):len(buf)]
	}
	return out
}

// undiscoveredLB bounds any document the traversal has not touched yet;
// floor has the same meaning as in lowerOf.
func (b *boundTable) undiscoveredLB(floor float64, totalDocs int) float64 {
	if len(b.all) >= totalDocs {
		return math.Inf(1)
	}
	if !b.sds {
		return float64(b.nq) * floor
	}
	return 2 * floor
}

// cand is one unexamined candidate of a wave, with its bounds at the
// wave's floor.
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
// defers the whole rest of the wave.
func (c *cand) examineNow(epsTheta float64, forced, exhausted bool) bool {
	eps := 0.0
	if c.lb > 0 {
		eps = 1 - c.partial/c.lb
	}
	return forced || exhausted || eps <= epsTheta
}

// candidates compacts the live list and returns the unexamined, unpruned
// candidates as a heap in commit order (lower bound, then doc ID). The
// commit loop only ever consumes a prefix of that order, so it is built
// in O(n) and popped lazily instead of sorted.
func (b *boundTable) candidates(floor float64) candHeap {
	if cap(b.candBuf) < len(b.live) {
		b.candBuf = b.ar.cands.AllocN(len(b.live))
	}
	cands := b.candBuf[:0]
	compacted := b.live[:0]
	for _, doc := range b.live {
		st := b.states[doc]
		if st.examined || st.pruned {
			continue
		}
		compacted = append(compacted, doc)
		cands = append(cands, cand{doc: doc, st: st, lb: b.lowerOf(st, floor), partial: b.partialOf(st)})
	}
	b.live = compacted
	h := candHeap(cands)
	h.init()
	return h
}

// candHeap is a binary min-heap of candidates in commit order. Document
// IDs are unique, so the order is strict and successive pops yield
// exactly the sorted sequence.
type candHeap []cand

// before is the commit order: lower bound, then doc ID.
func (a *cand) before(b *cand) bool {
	if a.lb != b.lb {
		return a.lb < b.lb
	}
	return a.doc < b.doc
}

func (h candHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h candHeap) down(i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && h[r].before(&h[c]) {
			c = r
		}
		if !h[c].before(&h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// pop removes and returns the first candidate in commit order.
func (h *candHeap) pop() cand {
	old := *h
	c := old[0]
	last := len(old) - 1
	old[0] = old[last]
	*h = old[:last]
	h.down(0)
	return c
}

// revivePruned clears every prune mark and rebuilds the live list from
// scratch (growK widened the heap, so the old kth-distance prunes no
// longer hold). Rebuilding rather than appending keeps live duplicate-free
// even for documents pruned after the final compaction of the previous
// epoch.
func (b *boundTable) revivePruned() {
	b.live = b.live[:0]
	for _, doc := range b.all {
		st := b.states[doc]
		st.pruned = false
		if !st.examined {
			b.live = append(b.live, doc)
		}
	}
}

// executor drives the staged pipeline. All mutable query state lives here,
// which is what makes a query steppable (Cursor) and growable (GrowK).
type executor struct {
	e  *Engine
	p  *queryPlan
	m  *Metrics
	tr tracer
	// step and bt are nil on a fully seeded query, which ranks from folded
	// instead: every listed document with its exact distance as its
	// bound, a heap in commit order that run pops into the collector.
	step   *waveStepper
	bt     *boundTable
	folded candHeap
	coll   *collector
	// ar backs all per-query state above; acquired from the engine's pool
	// at plan time, released on close (a cursor's arena survives GrowK and
	// Next — its lifetime is the cursor's).
	ar *queryArena

	wave       int // global wave index for trace events
	epochWaves int // waves in the current termination epoch (growK resets)
	maxWaves   int
	lastPause  int32   // last depth level paused by the queue limit
	lastDMinus float64 // d⁻ of the latest wave, for TerminalEps and run's stop
	results    []Result
	done       bool
	failed     error // sticky non-context error: the state is mid-wave
}

// newExecutor runs the plan stage and either folds the query's seed
// vectors or seeds the frontier. The returned Metrics is non-nil even on
// error, matching the monolith's contract.
func (e *Engine) newExecutor(sds bool, rawQuery []ontology.ConceptID, opts Options) (*executor, *Metrics, error) {
	m := &Metrics{}
	defer e.beginQuery(m)()
	tr := newTracer(opts.Trace)
	mk := time.Now()
	p, err := e.plan(sds, rawQuery, opts)
	recordStage(m, StagePlan, mk)
	if err != nil {
		return nil, m, err
	}
	ar := e.acquireArena()
	x := &executor{
		e:          e,
		p:          p,
		m:          m,
		tr:         tr,
		ar:         ar,
		coll:       newCollector(opts.K),
		lastPause:  -1,
		lastDMinus: math.Inf(1),
	}
	if e.cache != nil && !sds {
		// Every origin is served from a cached vector of the query's
		// space (an empty vector is a valid seed: no document contains a
		// concept reachable from that origin, which is exactly what its
		// BFS would have found). SDS never seeds: the symmetric distance
		// needs direction-B coverage a seed vector lacks.
		mk = time.Now()
		x.folded, err = p.space.seeds(e.cache, p.totalDocs, ar, &x.tr, m)
		if err != nil {
			x.close()
			return nil, m, err
		}
		x.folded.init()
		m.DocsDiscovered = len(x.folded)
		m.TraversalTime += recordStage(m, StageSeed, mk)
		return x, m, nil
	}
	// The live set must cover the snapshot before its first descent; it
	// grows here, once per batch of new documents, and never on the
	// seeded path above.
	mk = time.Now()
	live, err := e.liveFor(p.totalDocs)
	recordStage(m, StagePlan, mk)
	if err != nil {
		x.close()
		return nil, m, err
	}
	x.step = newWaveStepper(e.o, live, p.q, !opts.NoDedup, ar)
	x.bt = newBoundTable(sds, p.nq, p.space.measure(), ar, p.totalDocs)
	// Each BFS depth level yields at most two waves (one if the queue
	// limit pauses it for a forced examination); the guard is a safety
	// net against implementation bugs, not a tuning knob.
	x.maxWaves = 2*(2*e.o.MaxDepth()+4) + 8
	return x, m, nil
}

// run steps waves until the query terminates (true), waves waves have run
// (no cap when waves <= 0) or stop, called with every wave's d⁻, reports
// true; a terminating wave is done whatever stop says. The budget, the
// stop and a context error leave the state intact for a later resume; any
// other error poisons the executor (the wave aborted midway, so its state
// is not consistent).
func (x *executor) run(ctx context.Context, waves int, stop func(dMinus float64) bool) (bool, error) {
	if x.failed != nil {
		return false, x.failed
	}
	if x.done {
		return true, nil
	}
	defer x.e.beginQuery(x.m)()
	if x.step == nil {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		x.drainFolded()
		x.finish()
		if stop != nil {
			stop(x.lastDMinus)
		}
		return true, nil
	}
	for n := 1; ; n++ {
		done, err := x.stepWave(ctx)
		if err != nil {
			if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
				x.failed = err
			}
			return false, err
		}
		halt := stop != nil && stop(x.lastDMinus)
		if done {
			x.finish()
			return true, nil
		}
		if halt || n == waves {
			return false, nil
		}
	}
}

// stepWave executes one wave of the pipeline and reports whether the
// query terminated.
func (x *executor) stepWave(ctx context.Context) (bool, error) {
	if x.epochWaves > x.maxWaves {
		return false, fmt.Errorf("core: kNDS failed to terminate after %d waves", x.epochWaves)
	}
	x.epochWaves++
	// Cancellation is checked once per wave: waves are short relative to
	// query latency, and at a wave boundary the state is consistent, so
	// the wave can be retried under a fresh context.
	if err := ctx.Err(); err != nil {
		return false, err
	}
	forced := x.step.exhausted()

	// --- Traversal stage: expand one BFS depth level.
	if !x.step.exhausted() {
		if err := x.traverse(&forced); err != nil {
			return false, err
		}
	}
	bound := x.step.bound()
	floor := x.p.space.floor(bound)

	// --- Bound stage: refresh candidate bounds into a commit-order heap.
	mk := time.Now()
	cands := x.bt.candidates(floor)
	x.m.TraversalTime += recordStage(x.m, StageBound, mk)

	// --- Examination stage: the serial commit loop, popping candidates
	// in commit order. stopLB is the lower bound of the candidate the loop
	// deferred at, the smallest one left outstanding (+Inf if none was).
	mk = time.Now()
	exhausted := math.IsInf(bound, 1)
	stopLB := math.Inf(1)
	for len(cands) > 0 {
		c := cands.pop()
		if hk := x.coll.hk; hk.full() && (Result{Doc: c.doc, Distance: c.lb}).worse(hk.worst()) {
			// Optimization 1: this candidate can never enter the top-k —
			// its distance is at least lb, and even at lb it ranks after
			// the k-th result in the canonical (distance, doc) order
			// (pruning the tie lets d⁻ rise strictly above kth and
			// terminate the query). Every later pop follows c in commit
			// order and the top-k only changes on an examination, so the
			// rest of the heap is pruned with it.
			c.st.pruned = true
			for i := range cands {
				cands[i].st.pruned = true
			}
			break
		}
		if !c.examineNow(x.p.opts.ErrorThreshold, forced, exhausted) {
			stopLB = c.lb
			break
		}
		if err := x.examine(c.doc, c.st); err != nil {
			return false, err
		}
	}
	recordStage(x.m, StageExam, mk)

	// --- Collect stage: termination floor, early output (optimization 4).
	// d⁻ is the smaller of the undiscovered bound and stopLB: every
	// candidate popped before the stop was examined or pruned, and every
	// one still in the heap has a lower bound of at least stopLB.
	dMinus := x.bt.undiscoveredLB(floor, x.p.totalDocs)
	if stopLB < dMinus {
		dMinus = stopLB
	}
	x.publish(dMinus)
	// Strict comparison: at dMinus == kth an outstanding candidate (or
	// an undiscovered document) could still reach exactly the k-th
	// distance with a smaller doc ID and win the canonical tie-break.
	if x.coll.hk.full() && dMinus > x.coll.hk.kth() {
		return true, nil
	}
	if x.step.exhausted() {
		// Traversal exhausted; the forced examination above drained
		// every candidate that could still matter.
		return true, nil
	}
	return false, nil
}

// publish ends a wave: it records the termination floor d⁻, emits what
// it makes provable (optimization 4) and reports it to the trace.
func (x *executor) publish(dMinus float64) {
	mk := time.Now()
	if x.p.opts.Progressive != nil {
		x.coll.emitProvable(dMinus, x.p.opts.Progressive)
	}
	x.lastDMinus = dMinus
	x.tr.emit(TraceEvent{Kind: TraceBound, Wave: x.wave, Value: dMinus})
	recordStage(x.m, StageCollect, mk)
	x.wave++
}

// drainFolded is a fully seeded query's one wave per run: every
// candidate's bound is its exact distance, so the commit loop reduces to
// popping the folded heap into the collector until the next candidate
// cannot enter the top-k. That candidate stays on the heap for growK, and
// nothing is left to discover, so d⁻ is +Inf. Each pop counts as an
// examination, and as a DRC call only where every examination counts one
// (firstContactFinal).
func (x *executor) drainFolded() {
	mk := time.Now()
	drcCall := 1
	if firstContactFinal(x.p.space) {
		drcCall = 0
	}
	for len(x.folded) > 0 {
		c := &x.folded[0]
		r := Result{Doc: c.doc, Distance: c.lb}
		if hk := x.coll.hk; hk.full() && r.worse(hk.worst()) {
			break
		}
		x.folded.pop()
		x.m.DocsExamined++
		x.m.DRCCalls += drcCall
		x.tr.emit(TraceEvent{Kind: TraceDRCProbe, Doc: r.Doc, Value: r.Distance, N: drcCall})
		x.coll.offer(r)
	}
	recordStage(x.m, StageExam, mk)
	x.publish(math.Inf(1))
}

// traverse pops one BFS depth level (pausing once per level when the
// queue limit forces an examination), feeding document contacts to the
// bound table and neighbor states back to the stepper.
func (x *executor) traverse(forced *bool) error {
	mk := time.Now()
	waveDepth := x.step.nextDepth()
	var waveVisited []VisitedNode
	popBase := x.m.NodesVisited
	x.tr.emit(TraceEvent{Kind: TraceWaveStart, Wave: x.wave, Depth: int(waveDepth), N: x.step.pending()})
	meas := x.bt.meas
	for !x.step.exhausted() && x.step.nextDepth() == waveDepth {
		if ql := x.p.opts.QueueLimit; ql > 0 && x.step.pending() > ql && x.lastPause != waveDepth {
			x.lastPause = waveDepth
			*forced = true
			x.m.ForcedExams++
			x.tr.emit(TraceEvent{Kind: TraceForcedExam, Wave: x.wave, Depth: int(waveDepth), N: x.step.pending()})
			break
		}
		s := x.step.pop()
		x.m.NodesVisited++
		if x.p.opts.OnWave != nil {
			waveVisited = append(waveVisited, VisitedNode{Node: s.node, Origin: int(s.origin)})
		}
		postings, err := x.e.inv.Postings(s.node)
		if err != nil {
			return fmt.Errorf("core: postings(%d): %w", s.node, err)
		}
		// The state's value (fact 1 of measure.go), once per pop.
		v := float64(s.depth)
		if meas != nil && len(postings) > 0 {
			v = meas.Pair(x.p.q[s.origin], s.node, s.depth)
		}
		for _, doc := range postings {
			if err := x.bt.observe(x.e, doc, s, v, x.m); err != nil {
				return err
			}
		}
		x.step.expand(s)
	}
	x.m.Iterations++
	x.tr.emit(TraceEvent{Kind: TraceWaveEnd, Wave: x.wave, Depth: int(waveDepth), N: int(x.m.NodesVisited - popBase)})
	if x.p.opts.OnWave != nil {
		info := WaveInfo{Depth: int(waveDepth), Visited: waveVisited}
		if firstContactFinal(x.p.space) {
			info.CoveredDist = x.bt.coveredDist()
		}
		x.p.opts.OnWave(info)
	}
	x.step.reclaim()
	x.m.TraversalTime += recordStage(x.m, StageWave, mk)
	return nil
}

// examine computes the exact distance of a candidate and offers it to the
// collector (the paper's lines 17-27).
func (x *executor) examine(doc corpus.DocID, st *docState) error {
	st.examined = true
	x.m.DocsExamined++
	var dist float64
	drcRan := 1
	if x.bt.covered(st) && !x.p.opts.NoSkipWhenCovered && firstContactFinal(x.p.space) && int(doc) < x.p.totalDocs {
		// Optimization 3: first contacts are exact, so the accumulated
		// partial distance is the true distance. Under a measure a running
		// minimum is only an upper bound, so the distance is recomputed. So
		// is a document appended after the plan's snapshot: the live set
		// may predate it, and a pruned subtree may hide its nearest contact.
		dist = x.bt.partialOf(st)
		drcRan = 0
	} else {
		concepts, err := x.e.fwd.Concepts(doc)
		if err != nil {
			return fmt.Errorf("core: forward(%d): %w", doc, err)
		}
		t0 := time.Now()
		dist, err = x.p.space.exact(x.p.sds, doc, concepts, &x.ar.scr)
		x.m.DistanceTime += time.Since(t0)
		if err != nil {
			return err
		}
		x.m.DRCCalls++
	}
	x.tr.emit(TraceEvent{Kind: TraceDRCProbe, Doc: doc, Value: dist, N: drcRan})
	x.coll.offer(Result{Doc: doc, Distance: dist})
	return nil
}

// finish materializes the results of the current epoch: canonical order,
// terminal metrics, the Terminate trace event and the final progressive
// flush.
func (x *executor) finish() {
	mk := time.Now()
	x.results = x.coll.hk.sorted()
	x.m.ResultCount = len(x.results)
	x.m.TerminalEps = terminalEps(x.coll.hk.kth(), x.lastDMinus)
	x.tr.emit(TraceEvent{Kind: TraceTerminate, Value: x.m.TerminalEps, N: len(x.results)})
	if x.p.opts.Progressive != nil {
		x.coll.flushFinal(x.results, x.p.opts.Progressive)
	}
	recordStage(x.m, StageCollect, mk)
	x.done = true
}

// growK widens the collector to k and revives pruned candidates so the
// next run continues the saved traversal toward the larger k. A no-op for
// k within the current capacity.
func (x *executor) growK(k int) {
	if k <= x.coll.capacity() || x.failed != nil {
		return
	}
	x.coll.grow(k)
	if x.bt != nil {
		x.bt.revivePruned()
	}
	x.epochWaves = 0 // fresh termination epoch for the maxWaves guard
	x.results = nil
	x.done = false
}

// close returns the query's arena to the engine for reuse. The executor
// must not run again: every docState, coverage array and visited page it
// held is recycled storage now.
func (x *executor) close() {
	if x.ar != nil {
		if x.step != nil {
			x.ar.queueBuf = x.step.queue[:0]
		}
		x.e.releaseArena(x.ar)
		x.ar = nil
	}
}

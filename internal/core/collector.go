package core

import (
	"math"
	"sort"

	"conceptrank/internal/corpus"
)

// The collector stage: the canonical tie-broken top-k heap, the archive
// of every exact distance the query has paid for, and the progressive
// emission bookkeeping. The archive is what makes GrowK cheap — a grown
// heap is rebuilt from archived exact results without re-probing DRC, and
// because the canonical order is total, the rebuilt top-k' is exactly
// what a fresh k' query would return over the same examined set.
type collector struct {
	hk *topK[Result]
	// archive holds every examined result, in examination order. Each
	// document is examined at most once, so the archive is duplicate-free.
	archive []Result
	// emitted tracks progressive emission across waves and epochs so a
	// resumed query never re-emits a result.
	emitted map[corpus.DocID]bool
}

func newCollector(k int) *collector {
	return &collector{hk: newTopK[Result](k), emitted: make(map[corpus.DocID]bool)}
}

// capacity is the heap bound k.
func (c *collector) capacity() int { return c.hk.k }

// offer archives an examined result and offers it to the heap.
func (c *collector) offer(r Result) {
	c.archive = append(c.archive, r)
	c.hk.offer(r)
}

// grow rebuilds the heap at the larger capacity k from the archive. The
// old top-k is a subset of the archive's canonical top-k', so every
// previously emitted result stays retained.
func (c *collector) grow(k int) {
	hk := newTopK[Result](k)
	for _, r := range c.archive {
		hk.offer(r)
	}
	c.hk = hk
}

// emitProvable emits retained results that are provably final: strictly
// below d⁻, so any future offer has distance >= d⁻ and under the
// canonical (distance, doc) eviction order an emitted result can never be
// displaced.
func (c *collector) emitProvable(dMinus float64, fn func(Result)) {
	for _, r := range c.hk.items {
		if !c.emitted[r.Doc] && r.Distance < dMinus {
			c.emitted[r.Doc] = true
			fn(r)
		}
	}
}

// flushFinal emits the not-yet-emitted remainder of the final results.
func (c *collector) flushFinal(results []Result, fn func(Result)) {
	for _, r := range results {
		if !c.emitted[r.Doc] {
			c.emitted[r.Doc] = true
			fn(r)
		}
	}
}

// topK is a bounded max-heap keeping the k canonically smallest elements,
// where the canonical total order is T's worse — for results (distance,
// then doc ID), for pairs (distance, then A, then B). Because the order
// is total, the final heap content is a pure function of the offered set —
// independent of offer order — which is what lets the sharded engine merge
// per-shard heaps into exactly the single-engine answer (see DESIGN.md,
// "Sharded execution"), lets GrowK resume into exactly a fresh larger-k
// query's answer, and makes the pair join's top-k independent of task
// interleaving. Progressive emission stays safe because a result is only
// emitted once its distance is strictly below every outstanding lower
// bound.
type topK[T ranked[T]] struct {
	k     int
	items []T
}

// ranked is what a topK heap needs of its elements: the canonical total
// order (a.worse(b) when a ranks after b) and the distance kth reports.
type ranked[T any] interface {
	worse(T) bool
	dist() float64
}

func newTopK[T ranked[T]](k int) *topK[T] { return &topK[T]{k: k} }

func (h *topK[T]) full() bool { return len(h.items) >= h.k }

// kth returns the current k-th smallest distance (+Inf while not full).
func (h *topK[T]) kth() float64 {
	if !h.full() {
		return math.Inf(1)
	}
	return h.items[0].dist()
}

// worst returns the canonically largest retained element — the current
// k-th. Only meaningful while full() is true.
func (h *topK[T]) worst() T { return h.items[0] }

// worse is the canonical total order on results: by distance, then doc ID.
func (a Result) worse(b Result) bool {
	if a.Distance != b.Distance {
		return a.Distance > b.Distance
	}
	return a.Doc > b.Doc
}

func (a Result) dist() float64 { return a.Distance }

func (h *topK[T]) offer(r T) {
	if len(h.items) < h.k {
		h.items = append(h.items, r)
		h.up(len(h.items) - 1)
		return
	}
	// Canonical eviction: r displaces the current k-th element exactly
	// when r precedes it in the total order. Distance ties therefore
	// resolve toward the smaller ID no matter in which order candidates
	// were examined or which shard or join task offered them.
	if h.k == 0 || !h.items[0].worse(r) {
		return
	}
	h.items[0] = r
	h.down(0)
}

func (h *topK[T]) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.items[i].worse(h.items[p]) {
			break
		}
		h.items[i], h.items[p] = h.items[p], h.items[i]
		i = p
	}
}

func (h *topK[T]) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && h.items[l].worse(h.items[largest]) {
			largest = l
		}
		if r < n && h.items[r].worse(h.items[largest]) {
			largest = r
		}
		if largest == i {
			return
		}
		h.items[i], h.items[largest] = h.items[largest], h.items[i]
		i = largest
	}
}

func (h *topK[T]) sorted() []T {
	out := append([]T(nil), h.items...)
	sort.Slice(out, func(i, j int) bool { return out[j].worse(out[i]) })
	return out
}

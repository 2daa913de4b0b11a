package core

// Merger accumulates Results and keeps the k canonically smallest, where
// the canonical total order is the engine's own (distance, then doc ID).
// It wraps the same bounded heap the kNDS engine commits into, so merging
// per-shard top-k lists through a Merger reproduces the single-engine
// answer exactly — same members, same tie-breaks (the equivalence argument
// is in DESIGN.md, "Sharded execution").
//
// A Merger is not safe for concurrent use; callers serialising offers from
// multiple goroutines must hold their own lock.
type Merger struct {
	h *topK[Result]
}

// NewMerger returns a Merger retaining the k canonically smallest results.
func NewMerger(k int) *Merger { return &Merger{h: newTopK[Result](k)} }

// Offer considers one result for the top-k.
func (m *Merger) Offer(r Result) { m.h.offer(r) }

// Full reports whether k results have been retained.
func (m *Merger) Full() bool { return m.h.full() }

// Kth returns the current k-th smallest distance, or +Inf while not full.
// Together with Full it drives the sharded engine's cross-shard bound: a
// shard whose termination floor exceeds Kth cannot contribute anymore.
func (m *Merger) Kth() float64 { return m.h.kth() }

// Len returns the number of results currently retained.
func (m *Merger) Len() int { return len(m.h.items) }

// Sorted returns the retained results in canonical ascending order.
func (m *Merger) Sorted() []Result { return m.h.sorted() }

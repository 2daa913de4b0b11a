package core

// The vocabulary ancestor index: the third exact source of D(c, ·) for
// seed vectors, beside distance.Prober and the whole-ontology sweep.
//
// D(c, v) = min over common ancestors a of up(c, a) + up(v, a), the form
// distance.Prober evaluates. A seed vector reads D(c, ·) only at document
// concepts, so for each ancestor a of c it needs only the *vocabulary* —
// the concepts of the indexed documents — at or below a, each with its
// up-distance to a. Row a of the index lists exactly those (v, up(v, a))
// pairs, v itself included at 0. An origin's pass ascends from c and
// relaxes dist[v] = min(dist[v], up(c, a) + up(v, a)) over its ancestors'
// rows: the cost is the rows' summed length, read off the offsets during
// the ascent, instead of every concept and edge of the ontology.
//
// The index is ontology structure over the vocabulary, not per-document
// distances: a write whose concepts are all known leaves it untouched.
// New concepts are listed by the first pass that needs them, which
// appends their ancestor entries to an overflow list; every pass scans
// the overflow whole, and it is folded into the rows once it outgrows an
// eighth of them — growth costs what the new concepts' ancestors cost,
// amortized, never a rebuild per write. Readers take an immutable
// snapshot without locking; growth is serialized.

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"conceptrank/internal/corpus"
	"conceptrank/internal/ontology"
)

// vocabIndex is one immutable snapshot of an engine's index. Growth shares
// the append-only backing arrays of ovA/ovC/ovH and vocab with older
// snapshots, writing only past their lengths.
type vocabIndex struct {
	off []uint32 // row a is cs[off[a]:off[a+1]], hs parallel; len NumConcepts()+1
	cs  []ontology.ConceptID
	hs  []uint8 // up-distance of cs[i] to its row's concept
	// The overflow: entries of concepts listed since the last fold, as
	// (ancestor, concept, up-distance) triples.
	ovA, ovC []ontology.ConceptID
	ovH      []uint8
	vocab    []ontology.ConceptID // every listed concept
}

// vocabState is an engine's handle on its index.
type vocabState struct {
	snap atomic.Pointer[vocabIndex] // nil: no index (no vocabulary yet, or too deep)
	docs atomic.Int64               // documents [0, docs) whose concepts snap lists
	mu   sync.Mutex                 // serializes growth
	seen []uint64                   // bitset of listed concepts, under mu
}

// vocabFor returns a snapshot listing the vocabulary of at least
// documents [0, gen), first growing the index by the concepts documents
// added since its last growth brought. nil means there is no index: no
// document has a concept yet, or an up-distance exceeded what an entry
// holds (the ontology is deeper than 255).
func (e *Engine) vocabFor(gen int) (*vocabIndex, error) {
	v := &e.vocab
	if int(v.docs.Load()) >= gen {
		return v.snap.Load(), nil
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	from := int(v.docs.Load())
	if from >= gen {
		return v.snap.Load(), nil
	}
	n := e.o.NumConcepts()
	if v.seen == nil {
		v.seen = make([]uint64, (n+63)/64)
	}
	var added []ontology.ConceptID
	for doc := from; doc < gen; doc++ {
		concepts, err := e.fwd.Concepts(corpus.DocID(doc))
		if err != nil {
			for _, c := range added { // unseen again: a retry must list them
				v.seen[c/64] &^= 1 << (c % 64)
			}
			return nil, fmt.Errorf("core: forward(%d): %w", doc, err)
		}
		for _, c := range concepts {
			if w, bit := c/64, uint64(1)<<(c%64); v.seen[w]&bit == 0 {
				v.seen[w] |= bit
				added = append(added, c)
			}
		}
	}
	if len(added) > 0 {
		next := v.snap.Load().grow(e.o, added)
		if next == nil { // too deep to index: stop trying for good
			v.snap.Store(nil)
			v.docs.Store(math.MaxInt)
			return nil, nil
		}
		v.snap.Store(next)
	}
	v.docs.Store(int64(gen))
	return v.snap.Load(), nil
}

// grow returns the snapshot that also lists added (concepts not listed
// yet), or nil when an up-distance does not fit an entry. vi may be nil:
// the first growth, which goes straight into the rows.
func (vi *vocabIndex) grow(o *ontology.Ontology, added []ontology.ConceptID) *vocabIndex {
	s := sweepPool.Get().(*sweep)
	defer s.release()
	if vi == nil {
		next := &vocabIndex{vocab: added}
		if !next.fold(o, added, s) {
			return nil
		}
		return next
	}
	next := *vi
	// Sized for the mean ancestry of the concepts listed so far.
	n := len(added) * len(vi.cs) / max(len(vi.vocab), 1)
	next.ovA, next.ovC = slices.Grow(next.ovA, n), slices.Grow(next.ovC, n)
	next.ovH = slices.Grow(next.ovH, n)
	for _, v := range added {
		s.ascend(o, v)
		for i, a := range s.up {
			if s.upd[i] > math.MaxUint8 {
				return nil
			}
			next.ovA = append(next.ovA, a)
			next.ovC = append(next.ovC, v)
			next.ovH = append(next.ovH, uint8(s.upd[i]))
		}
	}
	next.vocab = append(next.vocab, added...)
	if len(next.ovA) > len(next.cs)/8 {
		next.fold(o, nil, s)
	}
	return &next
}

// fold rebuilds the rows from the current rows, the overflow and the
// entries of added, and empties the overflow; false when an up-distance
// of added does not fit an entry. Entries are counted per row, then
// filled back to front: each row's end offset steps down to its start,
// so the fill needs no cursor array and the only garbage is the old rows.
func (vi *vocabIndex) fold(o *ontology.Ontology, added []ontology.ConceptID, s *sweep) bool {
	deep := false
	each := func(f func(a, v ontology.ConceptID, h uint8)) {
		for a := 0; a+1 < len(vi.off); a++ {
			for j := vi.off[a]; j < vi.off[a+1]; j++ {
				f(ontology.ConceptID(a), vi.cs[j], vi.hs[j])
			}
		}
		for i, a := range vi.ovA {
			f(a, vi.ovC[i], vi.ovH[i])
		}
		for _, v := range added {
			s.ascend(o, v)
			if s.upd[len(s.upd)-1] > math.MaxUint8 { // farthest last
				deep = true
				return
			}
			for i, a := range s.up {
				f(a, v, uint8(s.upd[i]))
			}
		}
	}
	n := o.NumConcepts()
	off := make([]uint32, n+1)
	if each(func(a, _ ontology.ConceptID, _ uint8) { off[a+1]++ }); deep {
		return false
	}
	for a := range n {
		off[a+1] += off[a]
	}
	cs := make([]ontology.ConceptID, off[n])
	hs := make([]uint8, off[n])
	each(func(a, v ontology.ConceptID, h uint8) {
		off[a+1]--
		cs[off[a+1]], hs[off[a+1]] = v, h
	})
	copy(off, off[1:]) // off[a+1] held row a's start
	off[n] = uint32(len(cs))
	vi.off, vi.cs, vi.hs = off, cs, hs
	vi.ovA, vi.ovC, vi.ovH = nil, nil, nil
	return true
}

// passCost is the number of entries an origin's pass reads: its
// ancestors' rows (s.up, from s.ascend) and the whole overflow.
func (vi *vocabIndex) passCost(s *sweep) int {
	n := len(vi.ovA)
	for _, a := range s.up {
		n += int(vi.off[a+1] - vi.off[a])
	}
	return n
}

// pass returns s.dist holding D(c, v) at every listed concept v, for the
// origin c whose ascent s holds. Entries at other concepts are
// meaningless: a seed fold reads only document concepts, all listed.
// Allocation-free once s.dist has grown to n.
func (vi *vocabIndex) pass(s *sweep, n int) []int32 {
	dist := s.dense(n)
	for _, v := range vi.vocab {
		dist[v] = infDist
	}
	for i, a := range s.up {
		dist[a] = s.upd[i]
	}
	for i, a := range s.up {
		du := s.upd[i]
		lo, hi := vi.off[a], vi.off[a+1]
		cs, hs := vi.cs[lo:hi], vi.hs[lo:hi]
		hs = hs[:len(cs)]
		for j, v := range cs {
			dist[v] = min(dist[v], du+int32(hs[j]))
		}
	}
	// An overflow entry's ancestor may have been lowered below its
	// up-distance by a row above; what it holds is still the length of a
	// valid path from c, which the entry extends downward, so the minimum
	// is unchanged.
	for i, a := range vi.ovA {
		if s.seen[a] == s.epoch {
			if d := dist[a] + int32(vi.ovH[i]); d < dist[vi.ovC[i]] {
				dist[vi.ovC[i]] = d
			}
		}
	}
	return dist
}

// bytes is the snapshot's footprint: offsets, rows, overflow and the
// vocabulary list.
func (vi *vocabIndex) bytes() int {
	return 4*len(vi.off) + 5*len(vi.cs) + 9*len(vi.ovA) + 4*len(vi.vocab)
}

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
// New concepts are indexed by the first pass that needs them, which
// appends their ancestor entries to an overflow list; every pass scans
// the overflow whole, and it is folded into the rows once it outgrows an
// eighth of them — growth costs what the new concepts' ancestors cost,
// amortized, never a rebuild per write. Readers take an immutable
// snapshot without locking; growth is serialized.
//
// The same listing of document concepts also grows the engine's live set
// (liveFor): every concept at or above some document concept. The wave
// stepper descends only into live concepts, since below a dead one no
// document can be contacted.

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
	vocab    []ontology.ConceptID // a prefix of the engine's listing, shared with it
}

// vocabState is an engine's handle on its index, on the vocabulary
// listing the index is grown from, and on the live set the wave stepper
// prunes with. The listing is one append-only list of concepts in order of
// first occurrence; the index rows and the live set each consume a prefix
// of it, so the rows are still grown only by seeds and the live set only
// where a wave stepper is made.
type vocabState struct {
	snap atomic.Pointer[vocabIndex] // nil: no index (no vocabulary yet, or too deep)
	docs atomic.Int64               // documents [0, docs) whose concepts snap lists
	// live is one bit per concept: set iff the concept is at or above a
	// listed concept — some indexed document's concept or one of its
	// ancestors. It only ever gains bits, is written under mu and is read
	// by wave steppers without a lock. liveDocs is its watermark: the
	// documents [0, liveDocs) whose concepts it covers.
	live     []atomic.Uint64
	liveDocs atomic.Int64
	mu       sync.Mutex // serializes listing and both growths
	// Under mu: the listed concepts' bitset, the listing in order, the
	// documents [0, listedDocs) it covers, the prefix listed[:marked] whose
	// ancestors live holds, and the marking's stack.
	seen       []uint64
	listed     []ontology.ConceptID
	listedDocs int
	marked     int
	stack      []ontology.ConceptID
}

// vocabLister is an inverted index over a fixed document set that lists
// its vocabulary — the concepts that have postings — without reading a
// document (store.DiskInverted, from its key directory).
type vocabLister interface {
	Vocabulary() []ontology.ConceptID
}

// listVocab extends the listing by the concepts of documents [listedDocs, gen)
// that no earlier document carried. The first listing of an engine's whole
// document set comes from the inverted index when it is a vocabLister;
// otherwise each document's forward entry is read. A forward read error
// stops the listing at the unreadable document, which the next call
// retries. The caller holds v.mu.
func (e *Engine) listVocab(gen int) error {
	v := &e.vocab
	if v.seen == nil {
		v.seen = make([]uint64, (e.o.NumConcepts()+63)/64)
	}
	list := func(concepts []ontology.ConceptID) {
		for _, c := range concepts {
			if w, bit := c/64, uint64(1)<<(c%64); v.seen[w]&bit == 0 {
				v.seen[w] |= bit
				v.listed = append(v.listed, c)
			}
		}
	}
	if vl, ok := e.inv.(vocabLister); ok && v.listedDocs == 0 && gen == e.numDocs() {
		list(vl.Vocabulary())
		v.listedDocs = gen
	}
	for ; v.listedDocs < gen; v.listedDocs++ {
		concepts, err := e.fwd.Concepts(corpus.DocID(v.listedDocs))
		if err != nil {
			return fmt.Errorf("core: forward(%d): %w", v.listedDocs, err)
		}
		list(concepts)
	}
	return nil
}

// vocabFor returns a snapshot listing the vocabulary of at least
// documents [0, gen), first growing the index by the concepts listed
// since its last growth. nil means there is no index: no document has a
// concept yet, or an up-distance exceeded what an entry holds (the
// ontology is deeper than 255).
func (e *Engine) vocabFor(gen int) (*vocabIndex, error) {
	v := &e.vocab
	if int(v.docs.Load()) >= gen {
		return v.snap.Load(), nil
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if int(v.docs.Load()) >= gen {
		return v.snap.Load(), nil
	}
	if err := e.listVocab(gen); err != nil {
		return nil, err
	}
	vi := v.snap.Load()
	indexed := 0
	if vi != nil {
		indexed = len(vi.vocab)
	}
	if len(v.listed) > indexed {
		next := vi.grow(e.o, v.listed)
		if next == nil { // too deep to index: stop trying for good
			v.snap.Store(nil)
			v.docs.Store(math.MaxInt)
			return nil, nil
		}
		v.snap.Store(next)
	}
	v.docs.Store(int64(v.listedDocs))
	return v.snap.Load(), nil
}

// liveFor returns the live set covering at least documents [0, gen),
// first marking the ancestors of the concepts listed since its last
// growth. A live concept's ancestors are live too, so a marking ascent
// stops at the first live concept it meets: growth costs what the newly
// live concepts and their parent edges cost, once per engine. Liveness
// needs no up-distances, so unlike the index it has no depth limit.
func (e *Engine) liveFor(gen int) ([]atomic.Uint64, error) {
	v := &e.vocab
	if int(v.liveDocs.Load()) >= gen {
		return v.live, nil
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if int(v.liveDocs.Load()) >= gen {
		return v.live, nil
	}
	if err := e.listVocab(gen); err != nil {
		return nil, err
	}
	for _, c := range v.listed[v.marked:] {
		v.stack = append(v.stack[:0], c)
		for len(v.stack) > 0 {
			a := v.stack[len(v.stack)-1]
			v.stack = v.stack[:len(v.stack)-1]
			if isLive(v.live, a) {
				continue
			}
			w := &v.live[a/64] // writers hold mu, so no bit is lost
			w.Store(w.Load() | uint64(1)<<(a%64))
			v.stack = append(v.stack, e.o.Parents(a)...)
		}
	}
	v.marked = len(v.listed)
	v.liveDocs.Store(int64(v.listedDocs))
	return v.live, nil
}

// isLive reads c's bit of a live set.
func isLive(live []atomic.Uint64, c ontology.ConceptID) bool {
	return live[c/64].Load()&(uint64(1)<<(c%64)) != 0
}

// grow returns the snapshot that lists vocab, a listing whose prefix
// vi.vocab is listed already, or nil when an up-distance does not fit an
// entry. vi may be nil: the first growth, which goes straight into the
// rows.
func (vi *vocabIndex) grow(o *ontology.Ontology, vocab []ontology.ConceptID) *vocabIndex {
	s := sweepPool.Get().(*sweep)
	defer s.release()
	if vi == nil {
		next := &vocabIndex{vocab: vocab}
		if !next.fold(o, vocab, s) {
			return nil
		}
		return next
	}
	added := vocab[len(vi.vocab):]
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
	next.vocab = vocab
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

package core

// The plan stage's attachment to the shared semantic-distance cache
// (internal/cache): concept→Ddc seed vectors and their generation-based
// invalidation.
//
// A seed vector for query concept c is the exact Eq. 1 distance from c to
// every document of the corpus — precisely the coverage the origin's BFS
// would accumulate at first contact, because a breadth-first traversal
// over valid (up* down*) paths reaches each concept at its minimal valid-
// path distance. With every origin seeded, Eq. 2 is known for every
// document, so a cached query runs no traversal and keeps no bound table:
// the vectors fold into one exact distance per listed document
// (foldSeeds), and the executor pops those in (distance, doc) order into
// the same collector an uncached run fills. The top-k is the canonical
// (distance, doc ID) one over the same exact distances, so cached and
// cold rankings are bitwise identical even though the examination
// schedule (and thus the counters) differ.
//
// Invalidation is generational: a corpus is append-only (DynamicEngine
// only adds documents), so the document count is the generation. A vector
// built at generation g is complete for documents [0, g); when a query
// plans against a larger snapshot, only the new documents' components are
// computed and the vector is copied once with them appended, so a write
// costs a cached vector what it adds and nothing more. Building is the
// same fold from generation 0 (extend). Concurrent refreshers race
// benignly: vectors for the same (engine, concept, generation) are
// deterministic, and the cache keeps the newest generation.

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"conceptrank/internal/cache"
	"conceptrank/internal/corpus"
	"conceptrank/internal/distance"
	"conceptrank/internal/index"
	"conceptrank/internal/measure"
	"conceptrank/internal/ontology"
)

// nextCacheID hands every engine a distinct identity for its seed keys in
// a shared cache (see Engine.cacheID).
var nextCacheID atomic.Uint64

// infDist marks "no valid path" during seed construction. Matches
// drc.Inf's magnitude but stays int32-typed for the dense arrays.
const infDist = int32(math.MaxInt32)

// sweep is the pooled scratch of one origin's distances — the ascent
// every source starts from, and the result of validPathDistances or of
// an index pass: dist is dense, indexed by ConceptID, and valid until
// release.
type sweep struct {
	dist []int32
	up   []ontology.ConceptID // the origin and its ancestors, nearest first
	upd  []int32              // up-distance of up[i]
	fifo []ontology.ConceptID // the descent's frontiers, level after level
	seen []uint32             // seen[a] == epoch: a is in up
	// epoch stamps the current ascent's marks, so an ascent clears seen
	// by incrementing it.
	epoch uint32
}

var sweepPool = sync.Pool{New: func() any { return &sweep{} }}

func (s *sweep) release() { sweepPool.Put(s) }

// ascend fills up/upd with c and its ancestors, nearest first, each at
// its minimal number of up-edges from c: a BFS via Parents that touches
// nothing but the ancestors.
func (s *sweep) ascend(o *ontology.Ontology, c ontology.ConceptID) {
	if n := o.NumConcepts(); len(s.seen) < n {
		s.seen, s.epoch = make([]uint32, n), 0
	}
	if s.epoch++; s.epoch == 0 { // wrapped: stale marks could alias
		clear(s.seen)
		s.epoch = 1
	}
	up, upd := append(s.up[:0], c), append(s.upd[:0], 0)
	s.seen[c] = s.epoch
	for head := 0; head < len(up); head++ {
		du := upd[head] + 1
		for _, p := range o.Parents(up[head]) {
			if s.seen[p] != s.epoch {
				s.seen[p] = s.epoch
				up, upd = append(up, p), append(upd, du)
			}
		}
	}
	s.up, s.upd = up, upd
}

// dense returns dist resized to n entries, whatever they hold.
func (s *sweep) dense(n int) []int32 {
	if cap(s.dist) < n {
		s.dist = make([]int32, n)
	}
	s.dist = s.dist[:n]
	return s.dist
}

// validPathDistances computes, for every concept v, the length of the
// shortest valid (up* down*) path from c to v, or infDist when none
// exists. Two phases, both linear: an ascend-only BFS via Parents fixes
// the up-distances, then one level-synchronous BFS descends via Children,
// every ancestor joining the frontier at its up-distance. The result over
// all v is exactly the first-contact depth the pipeline's waveStepper
// would record for origin c. Allocation-free once the pool is warm; the
// caller releases the sweep when done with dist.
func validPathDistances(o *ontology.Ontology, c ontology.ConceptID) *sweep {
	s := sweepPool.Get().(*sweep)
	s.ascend(o, c)
	s.descend(o)
	return s
}

// descend completes the sweep of the origin s.ascend left in up/upd.
func (s *sweep) descend(o *ontology.Ontology) {
	dist := s.dense(o.NumConcepts())
	for i := range dist {
		dist[i] = infDist
	}
	up, upd := s.up, s.upd
	for i, a := range up {
		dist[a] = upd[i]
	}
	// Level d of the frontier is what level d-1 pushed plus the ancestors
	// at up-distance d. A shortcut edge can make an ancestor a child of a
	// nearer one, so descent may already have given it less than its
	// up-distance: it was expanded then and does not join again. Every
	// concept enters the FIFO at most once, at its final distance.
	q := s.fifo[:0]
	for d, lo, ui := int32(0), 0, 0; ; d++ {
		for ; ui < len(up) && upd[ui] == d; ui++ {
			if dist[up[ui]] == d {
				q = append(q, up[ui])
			}
		}
		hi := len(q)
		if lo == hi && ui == len(up) {
			break
		}
		for ; lo < hi; lo++ {
			for _, ch := range o.Children(q[lo]) {
				if d+1 < dist[ch] {
					dist[ch] = d + 1
					q = append(q, ch)
				}
			}
		}
	}
	s.fifo = q
}

// seedSpace binds the seed resolver to one kind of vector — Ddc seeds
// (ddcSpace) or a measure's float-valued seeds (measureSpace): where the
// cache keeps it and how one document's component is folded.
type seedSpace[E any] interface {
	get(cc *cache.Cache, corpusID uint64, c ontology.ConceptID) (docs []E, gen int, ok bool)
	put(cc *cache.Cache, corpusID uint64, c ontology.ConceptID, docs []E, gen int)
	// fold returns doc's component for origin c — the minimum over the
	// document's concepts, dist[dc] being the valid-path distance from c
	// to concept dc — and false when c reaches none of them.
	fold(c ontology.ConceptID, doc corpus.DocID, concepts []ontology.ConceptID, dist []int32) (E, bool)
	// doc is the document an entry describes.
	doc(E) corpus.DocID
	// sum is doc's distance over every origin's vector, adding the terms
	// in origin order; it advances heads[i] past doc where vector i lists
	// it, and an origin that does not contributes its unreachable value.
	sum(seeds [][]E, heads []int32, doc corpus.DocID) float64
}

type ddcSpace struct{}

func (ddcSpace) get(cc *cache.Cache, corpusID uint64, c ontology.ConceptID) ([]cache.DocDist, int, bool) {
	s, ok := cc.GetSeed(corpusID, uint32(c))
	return s.Docs, s.Gen, ok
}

func (ddcSpace) put(cc *cache.Cache, corpusID uint64, c ontology.ConceptID, docs []cache.DocDist, gen int) {
	cc.PutSeed(corpusID, uint32(c), cache.Seed{Gen: gen, Docs: docs})
}

func (ddcSpace) fold(_ ontology.ConceptID, doc corpus.DocID, concepts []ontology.ConceptID, dist []int32) (cache.DocDist, bool) {
	best := infDist
	for _, dc := range concepts {
		best = min(best, dist[dc])
	}
	return cache.DocDist{Doc: doc, Dist: best}, best != infDist
}

func (ddcSpace) doc(dd cache.DocDist) corpus.DocID { return dd.Doc }

// sum adds path lengths as integers, infDist per missing origin: the sum
// is exact, and so is its float64 (nq * MaxInt32 < 2^53).
func (ddcSpace) sum(seeds [][]cache.DocDist, heads []int32, doc corpus.DocID) float64 {
	var total int64
	for i, v := range seeds {
		d := infDist
		if h := heads[i]; int(h) < len(v) && v[h].Doc == doc {
			d = v[h].Dist
			heads[i]++
		}
		total += int64(d)
	}
	return float64(total)
}

// measureSpace keys its vectors on (corpus, measure, concept), so warm
// entries never cross measures.
type measureSpace struct {
	meas measure.Measure
	id   uint32
}

func newMeasureSpace(meas measure.Measure) measureSpace {
	return measureSpace{meas: meas, id: measure.ID(meas)}
}

func (sp measureSpace) get(cc *cache.Cache, corpusID uint64, c ontology.ConceptID) ([]cache.DocFDist, int, bool) {
	s, ok := cc.GetMeasureSeed(corpusID, sp.id, uint32(c))
	return s.Docs, s.Gen, ok
}

func (sp measureSpace) put(cc *cache.Cache, corpusID uint64, c ontology.ConceptID, docs []cache.DocFDist, gen int) {
	cc.PutMeasureSeed(corpusID, sp.id, uint32(c), cache.MSeed{Gen: gen, Docs: docs})
}

func (sp measureSpace) fold(c ontology.ConceptID, doc corpus.DocID, concepts []ontology.ConceptID, dist []int32) (cache.DocFDist, bool) {
	best := math.Inf(1)
	for _, dc := range concepts {
		if d := dist[dc]; d != infDist {
			best = min(best, sp.meas.Pair(c, dc, d))
		}
	}
	return cache.DocFDist{Doc: doc, Dist: best}, !math.IsInf(best, 1)
}

func (measureSpace) doc(dd cache.DocFDist) corpus.DocID { return dd.Doc }

// sum adds the per-origin minima in origin order, as measureDocDistance
// does, so a folded distance is bitwise the cold one.
func (measureSpace) sum(seeds [][]cache.DocFDist, heads []int32, doc corpus.DocID) float64 {
	total := 0.0
	for i, v := range seeds {
		d := measure.Unreachable
		if h := heads[i]; int(h) < len(v) && v[h].Doc == doc {
			d = v[h].Dist
			heads[i]++
		}
		total += d
	}
	return total
}

// seedSource is where extend learns D(c, ·) from. All three are exact and
// give the same numbers; they differ only in cost.
type seedSource int

const (
	probeSource seedSource = iota // a distance.Prober call per document concept
	indexSource                   // one pass over the vocabulary ancestor index
	sweepSource                   // one sweep of the whole ontology
)

// seedCosts prices each source for one extension, in concepts swept.
type seedCosts [3]int

// The prices, read off BenchmarkSeedBuild and BenchmarkSeedRefresh on a
// 2-core Xeon: a sweep is ~19 ns a concept, a probe ~0.65 µs
// (Refresh/uniform/1doc: ~60 probes in 41 µs), a ratio of 34 — probeCost
// — and an index entry ~1.7 ns (Build/*/index minus Build/*/sweep over
// the two fixtures' 237 675 and 26 095 entries a pass), a ratio of 11,
// priced at indexEntries = 10 entries a concept swept.
const (
	probeCost    = 32
	indexEntries = 10
)

// cheapest is extend's choice: the lowest price, a tie going to the
// earlier source.
func cheapest(k seedCosts) seedSource {
	src := probeSource
	for s := indexSource; s <= sweepSource; s++ {
		if k[s] < k[src] {
			src = s
		}
	}
	return src
}

// seedCosts prices extending a vector over the documents of run for the
// origin whose ascent s holds: probeCost per concept those documents
// carry, the index pass's entries over indexEntries, and NumConcepts()
// for the sweep. Probes are counted only until they exceed both other
// prices. The index is priced from its current snapshot, which may lag
// run.gen: growing it by new concepts waits until a pass needs it. The
// first seed builds it.
func (e *Engine) seedCosts(s *sweep, run *forwardRun) (seedCosts, error) {
	k := seedCosts{indexSource: math.MaxInt, sweepSource: e.o.NumConcepts()}
	vi := e.vocab.snap.Load()
	if vi == nil {
		var err error
		if vi, err = e.vocabFor(run.gen); err != nil {
			return k, err
		}
	}
	if vi != nil {
		k[indexSource] = vi.passCost(s) / indexEntries
	}
	budget := min(k[indexSource], k[sweepSource])
	for doc := run.from; doc < run.gen && k[probeSource] <= budget; doc++ {
		concepts, err := run.concepts(doc)
		if err != nil {
			return k, err
		}
		k[probeSource] += len(concepts) * probeCost
	}
	return k, nil
}

// forwardRun reads the forward entries of one extension's documents
// [from, gen): from a single locked read where the index offers one
// (index.Dynamic, whose entries are immutable and whose document list is
// append-only), or by one Concepts call per document.
type forwardRun struct {
	fwd       index.Forward
	from, gen int
	docs      [][]ontology.ConceptID // nil: read through fwd
}

// conceptsRanger is a forward index that hands out a run of entries under
// one lock.
type conceptsRanger interface {
	ConceptsRange(from, to corpus.DocID) ([][]ontology.ConceptID, error)
}

func (e *Engine) forwardRun(from, gen int) (forwardRun, error) {
	run := forwardRun{fwd: e.fwd, from: from, gen: gen}
	if r, ok := e.fwd.(conceptsRanger); ok {
		docs, err := r.ConceptsRange(corpus.DocID(from), corpus.DocID(gen))
		if err != nil {
			return run, fmt.Errorf("core: forward[%d, %d): %w", from, gen, err)
		}
		run.docs = docs
	}
	return run, nil
}

// concepts returns doc's entry; doc must lie in the run.
func (r *forwardRun) concepts(doc int) ([]ontology.ConceptID, error) {
	if r.docs != nil {
		return r.docs[doc-r.from], nil
	}
	concepts, err := r.fwd.Concepts(corpus.DocID(doc))
	if err != nil {
		return nil, fmt.Errorf("core: forward(%d): %w", doc, err)
	}
	return concepts, nil
}

// extend returns the seed vector of origin c over documents [0, gen)
// given old, its vector over [0, from): each new document's component is
// folded from its forward-index entry and appended to one copy of old
// (document IDs are assigned in insertion order, so the result stays
// sorted, and readers of old are undisturbed). extend(nil, 0, gen) builds
// from scratch — build and refresh are this one function. Documents
// indexed past gen (concurrent AddDocument) are excluded: the vector must
// be complete for exactly [0, gen) to honor its generation stamp.
//
// Distances to a document's concepts come from the cheapest source for
// what is being added: a Prober for a vector stale by a few writes, the
// vocabulary ancestor index when c's ancestors list fewer document
// concepts than a sweep visits, one sweep of the ontology otherwise.
func extend[E any](e *Engine, sp seedSpace[E], c ontology.ConceptID, old []E, from, gen int) ([]E, error) {
	return extendWith(e, sp, c, old, from, gen, cheapest)
}

// extendWith is extend with the choice of source made by pick.
func extendWith[E any](e *Engine, sp seedSpace[E], c ontology.ConceptID, old []E, from, gen int, pick func(seedCosts) seedSource) ([]E, error) {
	s := sweepPool.Get().(*sweep)
	defer s.release()
	s.ascend(e.o, c)
	run, err := e.forwardRun(from, gen)
	if err != nil {
		return nil, err
	}
	k, err := e.seedCosts(s, &run)
	if err != nil {
		return nil, err
	}
	src := pick(k)
	var vi *vocabIndex
	if src == indexSource {
		if vi, err = e.vocabFor(gen); err != nil {
			return nil, err
		}
		if vi == nil {
			src = sweepSource // nothing to index yet, or too deep to
		}
	}
	var (
		pr      distance.Prober
		probing bool
		dist    []int32
	)
	switch src {
	case probeSource:
		pr, probing = distance.NewProber(e.o, c), true
		defer pr.Close()
		dist = s.dense(e.o.NumConcepts()) // written at each document's concepts
	case indexSource:
		dist = vi.pass(s, e.o.NumConcepts())
	default:
		s.descend(e.o)
		dist = s.dist
	}
	out := make([]E, len(old), len(old)+gen-from)
	copy(out, old)
	for doc := from; doc < gen; doc++ {
		concepts, err := run.concepts(doc)
		if err != nil {
			return nil, err
		}
		if probing {
			for _, dc := range concepts {
				dist[dc] = pr.Distance(dc)
			}
		}
		if v, ok := sp.fold(c, corpus.DocID(doc), concepts, dist); ok {
			out = append(out, v)
		}
	}
	return out, nil
}

// resolveSeed serves one concept's seed vector from the cache: hit,
// extension of a stale entry to gen, or miss-build-and-store. hit reports whether an entry of any generation was found.
// Shared by the kNDS plan stage, the seeded full scan, the merged ranker
// and the pair join; callers own counters and time attribution.
func resolveSeed[E any](e *Engine, sp seedSpace[E], cc *cache.Cache, c ontology.ConceptID, gen int) (docs []E, hit bool, err error) {
	docs, from, hit := sp.get(cc, e.cacheID, c)
	if hit && from >= gen {
		return docs, true, nil
	}
	if docs, err = extend(e, sp, c, docs, from, gen); err != nil {
		return nil, hit, err
	}
	sp.put(cc, e.cacheID, c, docs, gen)
	return docs, hit, nil
}

// querySeed is resolveSeed with a query's accounting: the hit or miss is
// counted in m and traced.
func querySeed[E any](e *Engine, sp seedSpace[E], cc *cache.Cache, c ontology.ConceptID, gen int, tr *tracer, m *Metrics) ([]E, error) {
	docs, hit, err := resolveSeed(e, sp, cc, c, gen)
	if err != nil {
		return nil, err
	}
	kind := TraceCacheMiss
	if hit {
		m.CacheHits++
		kind = TraceCacheHit
	} else {
		m.CacheMisses++
	}
	tr.emit(TraceEvent{Kind: kind, N: int(c), Value: float64(len(docs))})
	return docs, nil
}

// loadSeeds resolves every origin of an RDS query against cc at
// generation n and folds the vectors (foldSeeds): the exact distance of
// every listed document, carved from ar in ascending document order.
// Shared by the kNDS executor and the seeded full scan; callers own the
// time attribution.
func loadSeeds[E any](e *Engine, sp seedSpace[E], cc *cache.Cache, q []ontology.ConceptID, n int, ar *queryArena, tr *tracer, m *Metrics) ([]cand, error) {
	seeds := make([][]E, len(q))
	for i, c := range q {
		docs, err := querySeed(e, sp, cc, c, n, tr, m)
		if err != nil {
			return nil, err
		}
		seeds[i] = docs
	}
	return foldSeeds(sp, seeds, n, ar), nil
}

// foldSeeds sums the per-origin seed vectors into one exact Eq. 2
// distance per document below n that any vector lists: Ddq(d, q) is
// Σ_i Ddc(d, q_i), and the vectors hold the Ddc terms. The ontology is
// rooted, so every origin reaches every concept and a document is
// rankable iff a vector lists it. Each candidate's bound is its exact
// distance, so commit order is the canonical (distance, doc) order.
// Entries at or past n come from a vector refreshed beyond the caller's
// snapshot and are skipped: the snapshot decides what a query can see.
func foldSeeds[E any](sp seedSpace[E], seeds [][]E, n int, ar *queryArena) []cand {
	listed := 0
	for _, v := range seeds {
		listed += len(v)
	}
	out := ar.cands.AllocN(min(listed, n))[:0]
	heads := ar.i32.AllocN(len(seeds))
	for {
		doc := n
		for i, v := range seeds {
			if h := heads[i]; int(h) < len(v) {
				doc = min(doc, int(sp.doc(v[h])))
			}
		}
		if doc == n {
			return out
		}
		out = append(out, cand{doc: corpus.DocID(doc), lb: sp.sum(seeds, heads, corpus.DocID(doc))})
	}
}

// Package distance implements the semantic distance measures of Section 3.2
// of Arvanitis et al. (EDBT 2014) by direct graph computation, without the
// D-Radix index. It provides:
//
//   - the concept-concept shortest valid path distance of Rada et al.
//     (a path is valid only if it passes through a common ancestor,
//     i.e. has the shape up* down*),
//   - document-concept (Eq. 1), document-query (Eq. 2) and the symmetric
//     document-document distance of Melton et al. (Eq. 3),
//   - the BL baseline of Section 4.1/6.2: an O(nq*nd) pairwise calculator
//     used as the comparison point for DRC in Figure 6.
//
// These implementations are deliberately simple; they are the ground truth
// the DRC and kNDS test suites verify against, and the baseline the
// benchmark harness measures against.
//
// The kernel is allocation-free in the steady state: ancestor BFS runs over
// epoch-stamped dense arrays (a generation stamp per concept makes "clear
// the visited set" a single counter increment instead of an O(n) wipe) and
// materialized ancestor sets are flat sorted arrays (UpSet) intersected by
// two-pointer merge, not maps.
package distance

import (
	"math"
	"sort"
	"sync"

	"conceptrank/internal/ontology"
)

// Infinite marks an unreachable distance (cannot occur in a single-rooted
// ontology, but callers may pass concept sets from different ontologies).
const Infinite = math.MaxInt32

// UpSet is the flat-array form of a concept's ancestor closure: Nodes lists
// the concept and every ancestor in ascending ConceptID order, and Dists is
// parallel to Nodes with the minimum number of up edges to each. Two UpSets
// intersect by two-pointer merge in O(|a|+|b|) with no hashing.
type UpSet struct {
	Nodes []ontology.ConceptID
	Dists []int32
}

// Len returns the number of ancestors, including the concept itself.
func (u UpSet) Len() int { return len(u.Nodes) }

// Dist returns the up-distance to ancestor a, or Infinite if a is not an
// ancestor, by binary search.
func (u UpSet) Dist(a ontology.ConceptID) int32 {
	i := sort.Search(len(u.Nodes), func(i int) bool { return u.Nodes[i] >= a })
	if i < len(u.Nodes) && u.Nodes[i] == a {
		return u.Dists[i]
	}
	return Infinite
}

// scratch is the pooled per-call BFS state of the distance kernel. stamp and
// dist are dense, indexed by ConceptID; an entry is valid only when its
// stamp equals the current generation, so successive calls reuse the arrays
// without clearing them.
type scratch struct {
	stamp1 []uint32 // up-BFS from the first concept
	dist1  []int32
	stamp2 []uint32 // up-BFS from the second concept
	queue  []ontology.ConceptID
	gen    uint32
}

var scratchPool = sync.Pool{New: func() any { return &scratch{} }}

func getScratch(n int) *scratch {
	s := scratchPool.Get().(*scratch)
	if len(s.stamp1) < n {
		s.stamp1 = make([]uint32, n)
		s.dist1 = make([]int32, n)
		s.stamp2 = make([]uint32, n)
		s.gen = 0
	}
	s.nextEpoch()
	return s
}

// nextEpoch invalidates every stamp by advancing the generation. On
// wraparound stale stamps could alias the new generation, so both arrays
// are wiped once every 2^32 epochs; it reports whether that happened (a
// holder of still-needed stamps must then rewrite them).
func (s *scratch) nextEpoch() bool {
	s.gen++
	if s.gen != 0 {
		return false
	}
	clear(s.stamp1)
	clear(s.stamp2)
	s.gen = 1
	return true
}

// upBFS runs the upward BFS from c, stamping stamp[x]=s.gen for every
// ancestor x. When dist is non-nil it records the up-distance per ancestor.
// The visit order (and therefore s.queue's contents, which callers may
// consume) is breadth-first with parents in CSR order.
func (s *scratch) upBFS(o *ontology.Ontology, c ontology.ConceptID, stamp []uint32, dist []int32) {
	q := append(s.queue[:0], c)
	stamp[c] = s.gen
	if dist != nil {
		dist[c] = 0
	}
	for i := 0; i < len(q); i++ {
		n := q[i]
		var dn int32
		if dist != nil {
			dn = dist[n]
		}
		for _, p := range o.Parents(n) {
			if stamp[p] != s.gen {
				stamp[p] = s.gen
				if dist != nil {
					dist[p] = dn + 1
				}
				q = append(q, p)
			}
		}
	}
	s.queue = q
}

// ComputeUpSet returns the ancestor closure of c as a flat sorted UpSet.
// The BFS itself is allocation-free (pooled dense scratch); the returned
// arrays are the only allocations.
func ComputeUpSet(o *ontology.Ontology, c ontology.ConceptID) UpSet {
	s := getScratch(o.NumConcepts())
	s.upBFS(o, c, s.stamp1, s.dist1)
	u := UpSet{
		Nodes: make([]ontology.ConceptID, len(s.queue)),
		Dists: make([]int32, len(s.queue)),
	}
	copy(u.Nodes, s.queue)
	sort.Slice(u.Nodes, func(i, j int) bool { return u.Nodes[i] < u.Nodes[j] })
	for i, n := range u.Nodes {
		u.Dists[i] = s.dist1[n]
	}
	scratchPool.Put(s)
	return u
}

// ConceptDistance returns the shortest valid path distance D(ci,cj),
// Infinite if the concepts share no ancestor. It is symmetric, zero iff
// ci == cj, and allocation-free in the steady state: a one-target Prober.
func ConceptDistance(o *ontology.Ontology, ci, cj ontology.ConceptID) int {
	if ci == cj {
		return 0
	}
	p := NewProber(o, ci)
	d := p.Distance(cj)
	p.Close()
	return int(d)
}

// Prober answers D(origin, ·) for many targets. The origin's upward BFS —
// the first half of a pair distance — runs once at construction; each
// Distance call runs only the second half, under an epoch of its own, so
// a target costs its own ancestor walk and nothing proportional to the
// ontology. A Prober holds a pooled scratch until Close and is not safe
// for concurrent use.
type Prober struct {
	o      *ontology.Ontology
	origin ontology.ConceptID
	s      *scratch
	epoch  uint32 // generation the origin's marks in stamp1 carry
}

// NewProber runs the upward BFS from origin. Close must be called.
func NewProber(o *ontology.Ontology, origin ontology.ConceptID) Prober {
	s := getScratch(o.NumConcepts())
	s.upBFS(o, origin, s.stamp1, s.dist1)
	return Prober{o: o, origin: origin, s: s, epoch: s.gen}
}

// Close returns the scratch to the pool; the Prober is dead afterwards.
func (p *Prober) Close() {
	scratchPool.Put(p.s)
	p.s = nil
}

// Distance returns D(origin, t), Infinite if the two share no ancestor:
// two epoch-stamped BFS passes, with this second one scanning the
// origin's marks in place of an ancestor-set intersection.
func (p *Prober) Distance(t ontology.ConceptID) int32 {
	if t == p.origin {
		return 0
	}
	s, o := p.s, p.o
	if s.nextEpoch() {
		// The wipe took the origin's marks with it: redo them.
		s.upBFS(o, p.origin, s.stamp1, s.dist1)
		p.epoch = s.gen
		s.gen++
	}
	// BFS up from t; every node also stamped by the origin's pass is a
	// common ancestor, contributing up(origin,a) + up(t,a).
	best := int32(Infinite)
	q := append(s.queue[:0], t)
	s.stamp2[t] = s.gen
	var depth int32
	for lo := 0; lo < len(q); {
		hi := len(q)
		for i := lo; i < hi; i++ {
			n := q[i]
			if s.stamp1[n] == p.epoch {
				if d := depth + s.dist1[n]; d < best {
					best = d
				}
			}
			for _, par := range o.Parents(n) {
				if s.stamp2[par] != s.gen {
					s.stamp2[par] = s.gen
					q = append(q, par)
				}
			}
		}
		lo = hi
		depth++
		// Any common ancestor found at a deeper level costs at least depth;
		// once that cannot beat the best sum, stop.
		if depth >= best {
			break
		}
	}
	s.queue = q
	return best
}

// ConceptDistanceSets combines two precomputed ancestor closures by
// two-pointer merge over the sorted node arrays.
func ConceptDistanceSets(a, b UpSet) int {
	best := int32(math.MaxInt32)
	i, j := 0, 0
	for i < len(a.Nodes) && j < len(b.Nodes) {
		switch {
		case a.Nodes[i] < b.Nodes[j]:
			i++
		case a.Nodes[i] > b.Nodes[j]:
			j++
		default:
			if d := a.Dists[i] + b.Dists[j]; d < best {
				best = d
			}
			i++
			j++
		}
	}
	if best == math.MaxInt32 {
		return Infinite
	}
	return int(best)
}

// Cache memoizes ancestor closures per concept. The BL baseline computes
// every pairwise concept distance of a document pair; without memoization
// each pair would redo two BFS traversals. Not safe for concurrent use.
type Cache struct {
	o       *ontology.Ontology
	sets    map[ontology.ConceptID]UpSet
	maxSize int
}

// NewCache creates a Cache holding at most maxSize closures (0 = unbounded).
func NewCache(o *ontology.Ontology, maxSize int) *Cache {
	return &Cache{o: o, sets: make(map[ontology.ConceptID]UpSet), maxSize: maxSize}
}

// UpSet returns the memoized ancestor closure of c.
func (c *Cache) UpSet(id ontology.ConceptID) UpSet {
	if u, ok := c.sets[id]; ok {
		return u
	}
	u := ComputeUpSet(c.o, id)
	if c.maxSize > 0 && len(c.sets) >= c.maxSize {
		// Simple random-ish eviction: drop one arbitrary entry. The access
		// pattern of BL (documents scanned once) has little reuse locality,
		// so LRU buys nothing over this.
		for k := range c.sets {
			delete(c.sets, k)
			break
		}
	}
	c.sets[id] = u
	return u
}

// Distance returns the concept-concept distance using the cache.
func (c *Cache) Distance(ci, cj ontology.ConceptID) int {
	if ci == cj {
		return 0
	}
	return ConceptDistanceSets(c.UpSet(ci), c.UpSet(cj))
}

// BL is the baseline document-distance calculator of Section 4.1: it
// evaluates Eqs. 1-3 by computing all pairwise concept distances of the two
// concept sets (O(nq*nd) distance computations).
type BL struct {
	cache *Cache
}

// NewBL returns a baseline calculator over o. cacheSize bounds the closure
// cache (0 = unbounded).
func NewBL(o *ontology.Ontology, cacheSize int) *BL {
	return &BL{cache: NewCache(o, cacheSize)}
}

// DocConcept evaluates Ddc(d, c) = min_{ci in d} D(ci, c) (Eq. 1).
func (b *BL) DocConcept(d []ontology.ConceptID, c ontology.ConceptID) int {
	best := Infinite
	cm := b.cache.UpSet(c)
	for _, ci := range d {
		if ci == c {
			return 0
		}
		if dist := ConceptDistanceSets(b.cache.UpSet(ci), cm); dist < best {
			best = dist
		}
	}
	return best
}

// DocQuery evaluates Ddq(d, q) = sum_i Ddc(d, q_i) (Eq. 2).
func (b *BL) DocQuery(d, q []ontology.ConceptID) float64 {
	total := 0.0
	for _, qi := range q {
		total += float64(b.DocConcept(d, qi))
	}
	return total
}

// DocDoc evaluates the symmetric Melton distance (Eq. 3):
//
//	Ddd(d1,d2) = sum_{ci in d1} Ddc(d2,ci)/|C1| + sum_{cj in d2} Ddc(d1,cj)/|C2|
//
// Documents with no concepts have distance 0 to everything by convention
// (the sums are empty).
func (b *BL) DocDoc(d1, d2 []ontology.ConceptID) float64 {
	total := 0.0
	if len(d1) > 0 {
		sum := 0.0
		for _, ci := range d1 {
			sum += float64(b.DocConcept(d2, ci))
		}
		total += sum / float64(len(d1))
	}
	if len(d2) > 0 {
		sum := 0.0
		for _, cj := range d2 {
			sum += float64(b.DocConcept(d1, cj))
		}
		total += sum / float64(len(d2))
	}
	return total
}

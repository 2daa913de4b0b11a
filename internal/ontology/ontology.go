// Package ontology models concept hierarchies as rooted, labeled DAGs in the
// style of SNOMED-CT / MeSH / Gene Ontology, the substrate of Arvanitis et
// al. (EDBT 2014). Concepts are nodes, is-a relationships are edges, and
// every root-to-concept path carries a Dewey Decimal address (Section 3.1 of
// the paper): the j-th child of a node whose path label is l gets label l.j.
//
// The package provides construction (Builder), Dewey path enumeration and
// resolution, structural validation, traversal helpers, aggregate statistics
// matching the ones the paper reports for SNOMED-CT, and a compact binary
// serialization so generated ontologies can be stored on disk and reloaded
// by the command-line tools.
package ontology

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"conceptrank/internal/dewey"
)

// ConceptID identifies a concept within one Ontology. IDs are dense and
// start at 0; the root always exists. The zero value therefore names a valid
// concept, and Invalid is provided as an explicit sentinel.
type ConceptID uint32

// Invalid is a sentinel ConceptID that never names a concept.
const Invalid ConceptID = math.MaxUint32

// Ontology is an immutable rooted DAG of concepts. Construct one with a
// Builder (or a generator such as internal/ontogen) and treat it as
// read-only afterwards; all methods are safe for concurrent use.
//
// Adjacency is stored in CSR (compressed sparse row) form: one contiguous
// backing array per relation plus an n+1-entry offset table, so traversal
// touches two flat arrays instead of a slice-of-slices, and the per-node
// accessors are subslice views with no per-call allocation. At the paper's
// SNOMED-CT scale (296K concepts, ~440K edges) this removes ~600K slice
// headers and collapses the adjacency into a handful of GC-opaque arrays.
type Ontology struct {
	names    []string   // primary term per concept
	synonyms [][]string // additional terms per concept (may be nil)

	root     ConceptID
	maxDepth int32 // the largest entry of depth

	// CSR child relation: childArr[childOff[c]:childOff[c+1]] lists c's
	// children in Dewey order (the j-th entry has Dewey component j+1).
	childArr []ConceptID
	childOff []int32
	// CSR parent relation: parentArr[parentOff[c]:parentOff[c+1]] lists c's
	// parents; parentDig is parallel to parentArr and holds the 1-based
	// Dewey component of c under that parent, so path enumeration does not
	// have to rescan the parent's child list.
	parentArr []ConceptID
	parentDig []dewey.Component
	parentOff []int32

	depth   []int32 // minimum edge distance from the root
	topo    []ConceptID
	topoPos []int32 // inverse of topo: topoPos[topo[i]] == i

	// termOnce guards the lazily built term → concept index behind
	// LookupTerm; the Ontology stays effectively immutable (the index is
	// derived purely from names and synonyms) and concurrent first lookups
	// are safe.
	termOnce sync.Once
	termIdx  map[string]ConceptID

	// scratch recycles the per-call traversal state (visited marks, BFS
	// queue, path counts) used by NumPathAddresses, keeping it
	// allocation-free in the steady state while staying safe for
	// concurrent use.
	scratch sync.Pool
}

// ontScratch is the pooled per-traversal state. seen and counts are dense,
// indexed by ConceptID, and are un-marked by walking the visited list after
// each use, so a pooled scratch is clean O(|visited|) rather than O(n).
type ontScratch struct {
	seen   []bool
	anc    []ConceptID
	counts []int64
}

func (o *Ontology) getScratch() *ontScratch {
	s := o.scratch.Get().(*ontScratch)
	if len(s.seen) < o.NumConcepts() {
		s.seen = make([]bool, o.NumConcepts())
		s.counts = make([]int64, o.NumConcepts())
	}
	return s
}

// Errors reported by Builder.Finalize and ReadFrom.
var (
	ErrCycle        = errors.New("ontology: concept graph contains a cycle")
	ErrMultipleRoot = errors.New("ontology: graph must have exactly one root")
	ErrUnreachable  = errors.New("ontology: concept unreachable from the root")
)

// NumConcepts returns the number of concepts, including the root.
func (o *Ontology) NumConcepts() int { return len(o.names) }

// Root returns the unique root concept.
func (o *Ontology) Root() ConceptID { return o.root }

// Name returns the primary term of c.
func (o *Ontology) Name(c ConceptID) string { return o.names[c] }

// Synonyms returns the additional terms of c (possibly empty). The returned
// slice is owned by the ontology and must not be modified.
func (o *Ontology) Synonyms(c ConceptID) []string { return o.synonyms[c] }

// LookupTerm resolves a primary term or synonym (case-sensitive) to its
// ConceptID. The underlying index is built once, on first use; when a term
// names several concepts the lowest ConceptID wins, with a concept's
// primary name taking precedence over its own synonyms — the same answer a
// linear scan in concept order would give. Safe for concurrent use.
func (o *Ontology) LookupTerm(term string) (ConceptID, bool) {
	o.termOnce.Do(o.buildTermIndex)
	id, ok := o.termIdx[term]
	return id, ok
}

func (o *Ontology) buildTermIndex() {
	idx := make(map[string]ConceptID, len(o.names)*2)
	for c := range o.names {
		id := ConceptID(c)
		if _, taken := idx[o.names[c]]; !taken {
			idx[o.names[c]] = id
		}
		for _, s := range o.synonyms[c] {
			if _, taken := idx[s]; !taken {
				idx[s] = id
			}
		}
	}
	o.termIdx = idx
}

// Children returns c's children in Dewey order. The slice is a view into the
// ontology's CSR storage and must not be modified.
func (o *Ontology) Children(c ConceptID) []ConceptID {
	return o.childArr[o.childOff[c]:o.childOff[c+1]]
}

// Parents returns c's parents. The slice is a view into the ontology's CSR
// storage and must not be modified.
func (o *Ontology) Parents(c ConceptID) []ConceptID {
	return o.parentArr[o.parentOff[c]:o.parentOff[c+1]]
}

// parentDigits returns, parallel to Parents(c), the 1-based Dewey component
// of c under each parent.
func (o *Ontology) parentDigits(c ConceptID) []dewey.Component {
	return o.parentDig[o.parentOff[c]:o.parentOff[c+1]]
}

// Depth returns the minimum number of is-a edges between the root and c.
// The paper's experiments exclude concepts shallower than a depth threshold
// (default 4) as too generic.
func (o *Ontology) Depth(c ConceptID) int { return int(o.depth[c]) }

// MaxDepth returns the largest Depth over all concepts.
func (o *Ontology) MaxDepth() int { return int(o.maxDepth) }

// NumEdges returns the number of is-a edges.
func (o *Ontology) NumEdges() int { return len(o.childArr) }

// TopoOrder returns the concepts in a topological order (parents before
// children). The slice is owned by the ontology and must not be modified.
func (o *Ontology) TopoOrder() []ConceptID { return o.topo }

// PathAddresses enumerates every Dewey address of c, one per distinct
// root-to-c path, in no particular order. For DAGs with many multi-parent
// ancestors the number of addresses can be large (SNOMED-CT averages 9.78
// per concept); callers that need bounded work should cap via
// PathAddressesLimit.
func (o *Ontology) PathAddresses(c ConceptID) []dewey.Path {
	return o.PathAddressesLimit(c, 0)
}

// PathAddressesLimit is PathAddresses with an optional cap on the number of
// addresses returned; limit <= 0 means unlimited.
func (o *Ontology) PathAddressesLimit(c ConceptID, limit int) []dewey.Path {
	var out []dewey.Path
	// Iterative DFS over parent links, accumulating reversed suffixes.
	type frame struct {
		node   ConceptID
		suffix dewey.Path // components from below node down to c, reversed
	}
	stack := []frame{{node: c, suffix: nil}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if f.node == o.root {
			p := make(dewey.Path, len(f.suffix))
			for i, comp := range f.suffix {
				p[len(f.suffix)-1-i] = comp
			}
			out = append(out, p)
			if limit > 0 && len(out) >= limit {
				return out
			}
			continue
		}
		ps := o.Parents(f.node)
		dg := o.parentDigits(f.node)
		for i, parent := range ps {
			suffix := make(dewey.Path, len(f.suffix)+1)
			copy(suffix, f.suffix)
			suffix[len(f.suffix)] = dg[i]
			stack = append(stack, frame{node: parent, suffix: suffix})
		}
	}
	return out
}

// NumPathAddresses counts the Dewey addresses of c without materializing
// them: a dynamic program over c's ancestor subgraph in topological order,
// linear in the number of ancestor edges and allocation-free in the steady
// state (pooled dense scratch).
func (o *Ontology) NumPathAddresses(c ConceptID) int {
	s := o.getScratch()
	anc := o.ancestorsScratch(s, c)
	// Sweep ancestors in topological order so every parent's count is final
	// before its children read it.
	sort.Slice(anc, func(i, j int) bool { return o.topoPos[anc[i]] < o.topoPos[anc[j]] })
	for _, n := range anc {
		if n == o.root {
			s.counts[n] = 1
			continue
		}
		var total int64
		for _, p := range o.Parents(n) {
			total += s.counts[p]
		}
		s.counts[n] = total
	}
	res := s.counts[c]
	for _, n := range anc {
		s.counts[n] = 0
	}
	s.anc = anc[:0]
	o.scratch.Put(s)
	return int(res)
}

// ancestorsScratch lists c and all its ancestors, in BFS discovery order
// starting at c, in the scratch's own buffer, leaving the seen marks
// cleared but the list in s.anc for the caller.
func (o *Ontology) ancestorsScratch(s *ontScratch, c ConceptID) []ConceptID {
	anc := append(s.anc[:0], c)
	s.seen[c] = true
	for i := 0; i < len(anc); i++ {
		for _, p := range o.Parents(anc[i]) {
			if !s.seen[p] {
				s.seen[p] = true
				anc = append(anc, p)
			}
		}
	}
	for _, x := range anc {
		s.seen[x] = false
	}
	return anc
}

// ResolveAddress maps a Dewey address back to the concept it denotes by
// walking child ordinals from the root (the paper's FindNodeByDewey). It
// returns Invalid,false if the address walks off the graph.
func (o *Ontology) ResolveAddress(p dewey.Path) (ConceptID, bool) {
	cur := o.root
	for _, comp := range p {
		ch := o.Children(cur)
		if int(comp) > len(ch) || comp == 0 {
			return Invalid, false
		}
		cur = ch[comp-1]
	}
	return cur, true
}

// Stats aggregates the structural statistics the paper reports for
// SNOMED-CT in Section 6.1: 296,433 concepts, 4.53 average children (over
// internal nodes), 9.78 path addresses per concept with average length 14.1.
type Stats struct {
	Concepts            int
	Edges               int
	Leaves              int
	MaxDepth            int
	AvgChildrenInternal float64 // average child count over non-leaf nodes
	AvgParents          float64 // average parent count over non-root nodes
	AvgPathsPerConcept  float64
	AvgPathLen          float64
}

// ComputeStats derives Stats. Path counts are computed with a single
// topological sweep (number of paths and total path length per node), so the
// call is O(V+E) even for ontologies with astronomically many paths.
func (o *Ontology) ComputeStats() Stats {
	s := Stats{Concepts: o.NumConcepts(), Edges: o.NumEdges(), MaxDepth: o.MaxDepth()}
	internal := 0
	childSum := 0
	for c := 0; c < o.NumConcepts(); c++ {
		n := int(o.childOff[c+1] - o.childOff[c])
		if n == 0 {
			s.Leaves++
			continue
		}
		internal++
		childSum += n
	}
	if internal > 0 {
		s.AvgChildrenInternal = float64(childSum) / float64(internal)
	}
	if o.NumConcepts() > 1 {
		s.AvgParents = float64(len(o.parentArr)) / float64(o.NumConcepts()-1)
	}
	// paths[x]: number of root->x paths; lenSum[x]: sum of their lengths.
	paths := make([]float64, o.NumConcepts())
	lenSum := make([]float64, o.NumConcepts())
	paths[o.root] = 1
	var totPaths, totLen float64
	for _, n := range o.topo {
		if n != o.root {
			for _, p := range o.Parents(n) {
				paths[n] += paths[p]
				lenSum[n] += lenSum[p] + paths[p]
			}
		}
		totPaths += paths[n]
		totLen += lenSum[n]
	}
	s.AvgPathsPerConcept = totPaths / float64(o.NumConcepts())
	if totPaths > 0 {
		s.AvgPathLen = totLen / totPaths
	}
	return s
}

// String summarizes the ontology for logs.
func (o *Ontology) String() string {
	return fmt.Sprintf("ontology{concepts=%d edges=%d maxDepth=%d}", o.NumConcepts(), o.NumEdges(), o.MaxDepth())
}

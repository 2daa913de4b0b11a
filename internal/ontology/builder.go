package ontology

import (
	"fmt"

	"conceptrank/internal/dewey"
)

// Builder assembles an Ontology incrementally. The zero value is not usable;
// call NewBuilder, which creates the root concept with ID 0.
//
// Child order is insertion order of AddEdge calls and determines Dewey
// component numbering, exactly as in the paper's Figure 3.
type Builder struct {
	names    []string
	synonyms [][]string
	children [][]ConceptID
	parents  [][]ConceptID
	digits   [][]dewey.Component
}

// NewBuilder returns a Builder whose root concept carries rootName.
func NewBuilder(rootName string) *Builder {
	b := &Builder{}
	b.names = append(b.names, rootName)
	b.synonyms = append(b.synonyms, nil)
	b.children = append(b.children, nil)
	b.parents = append(b.parents, nil)
	b.digits = append(b.digits, nil)
	return b
}

// Root returns the root's ConceptID (always 0 for built ontologies).
func (b *Builder) Root() ConceptID { return 0 }

// NumConcepts returns the number of concepts added so far, including root.
func (b *Builder) NumConcepts() int { return len(b.names) }

// AddConcept registers a new concept with a primary term and optional
// synonyms and returns its ID. The concept is not connected until AddEdge is
// called for it.
func (b *Builder) AddConcept(name string, synonyms ...string) ConceptID {
	id := ConceptID(len(b.names))
	b.names = append(b.names, name)
	if len(synonyms) == 0 {
		b.synonyms = append(b.synonyms, nil)
	} else {
		s := make([]string, len(synonyms))
		copy(s, synonyms)
		b.synonyms = append(b.synonyms, s)
	}
	b.children = append(b.children, nil)
	b.parents = append(b.parents, nil)
	b.digits = append(b.digits, nil)
	return id
}

// AddEdge records an is-a edge from parent to child. The child receives the
// next free Dewey component under the parent. Duplicate edges are rejected.
func (b *Builder) AddEdge(parent, child ConceptID) error {
	if int(parent) >= len(b.names) || int(child) >= len(b.names) {
		return fmt.Errorf("ontology: AddEdge(%d,%d): concept out of range", parent, child)
	}
	if parent == child {
		return fmt.Errorf("ontology: AddEdge: self edge on %d", parent)
	}
	if child == 0 {
		return fmt.Errorf("ontology: AddEdge: root cannot have a parent")
	}
	for _, p := range b.parents[child] {
		if p == parent {
			return fmt.Errorf("ontology: AddEdge(%d,%d): duplicate edge", parent, child)
		}
	}
	b.children[parent] = append(b.children[parent], child)
	b.parents[child] = append(b.parents[child], parent)
	b.digits[child] = append(b.digits[child], dewey.Component(len(b.children[parent])))
	return nil
}

// MustAddEdge is AddEdge for trusted construction code; it panics on error.
func (b *Builder) MustAddEdge(parent, child ConceptID) {
	if err := b.AddEdge(parent, child); err != nil {
		panic(err)
	}
}

// Finalize validates the graph (single root, acyclic, fully reachable) and
// returns the immutable Ontology. The Builder must not be used afterwards.
func (b *Builder) Finalize() (*Ontology, error) {
	n := len(b.names)
	// Every concept except the root must have a parent; only the root may
	// have none.
	for id := 1; id < n; id++ {
		if len(b.parents[id]) == 0 {
			return nil, fmt.Errorf("%w: %q (id %d) has no parent", ErrMultipleRoot, b.names[id], id)
		}
	}

	// Kahn's algorithm: topological order doubles as the cycle check, and
	// reaching every node from the root doubles as the reachability check
	// (since all non-roots have parents, in-degree-0 start set is {root}).
	indeg := make([]int, n)
	for id := 0; id < n; id++ {
		indeg[id] = len(b.parents[id])
	}
	topo := make([]ConceptID, 0, n)
	queue := []ConceptID{0}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		topo = append(topo, cur)
		for _, ch := range b.children[cur] {
			indeg[ch]--
			if indeg[ch] == 0 {
				queue = append(queue, ch)
			}
		}
	}
	if len(topo) != n {
		// Distinguish cycle from disconnect for better diagnostics.
		for id := 0; id < n; id++ {
			if indeg[id] > 0 && indeg[id] == len(b.parents[id]) {
				// Never decremented at all: unreachable component.
				return nil, fmt.Errorf("%w: %q (id %d)", ErrUnreachable, b.names[id], id)
			}
		}
		return nil, ErrCycle
	}

	// Flatten the builder's slice-of-slices adjacency into CSR form: one
	// contiguous backing array plus an n+1 offset table per relation.
	nEdges := 0
	for id := 0; id < n; id++ {
		nEdges += len(b.children[id])
	}
	o := &Ontology{
		names:     b.names,
		synonyms:  b.synonyms,
		root:      0,
		childArr:  make([]ConceptID, 0, nEdges),
		childOff:  make([]int32, n+1),
		parentArr: make([]ConceptID, 0, nEdges),
		parentDig: make([]dewey.Component, 0, nEdges),
		parentOff: make([]int32, n+1),
		topo:      topo,
		topoPos:   make([]int32, n),
		depth:     make([]int32, n),
	}
	for id := 0; id < n; id++ {
		o.childArr = append(o.childArr, b.children[id]...)
		o.childOff[id+1] = int32(len(o.childArr))
		o.parentArr = append(o.parentArr, b.parents[id]...)
		o.parentDig = append(o.parentDig, b.digits[id]...)
		o.parentOff[id+1] = int32(len(o.parentArr))
	}
	for i, c := range topo {
		o.topoPos[c] = int32(i)
	}
	o.scratch.New = func() any {
		return &ontScratch{
			seen:   make([]bool, n),
			counts: make([]int64, n),
		}
	}
	// Minimum depth via the topological order (all parents precede children).
	for _, c := range topo {
		if c == 0 {
			o.depth[c] = 0
			continue
		}
		best := int32(1<<31 - 1)
		for _, p := range o.Parents(c) {
			if d := o.depth[p] + 1; d < best {
				best = d
			}
		}
		o.depth[c] = best
		o.maxDepth = max(o.maxDepth, best)
	}
	return o, nil
}

// MustFinalize is Finalize for trusted construction code.
func (b *Builder) MustFinalize() *Ontology {
	o, err := b.Finalize()
	if err != nil {
		panic(err)
	}
	return o
}

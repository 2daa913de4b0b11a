package radix

import (
	"conceptrank/internal/dewey"
	"conceptrank/internal/ontology"
	"conceptrank/internal/pool"
)

// Workspace recycles every piece of per-build DAG state — nodes, their edge
// and parent slices, the concept→node map, edge-label storage, and the
// topological-sort scratch — across DAG constructions. kNDS builds one
// D-Radix per candidate examination, all with the same shape class, so after
// a few probes a workspace-backed build performs no heap allocation at all:
// nodes come from the retained pool with their slice capacities intact,
// labels are carved from a slab arena, and the map keeps its buckets across
// clear(). NewDAG is the only way to get a DAG; a zero Workspace builds a
// one-off.
//
// A Workspace is not safe for concurrent use, and a DAG built in one is
// valid only until the workspace's next NewDAG (or Release): give each
// worker its own.
type Workspace struct {
	nodes  map[ontology.ConceptID]*Node
	pool   []*Node // every node ever created, reused in creation order
	used   int
	labels pool.Slab[dewey.Component]

	// topological-sort scratch, sized to the node count per build
	indeg   []int32
	topoQ   []*Node
	topoOut []*Node

	dag DAG // reused header so NewDAG itself does not allocate
}

// NewDAG resets the workspace and returns an empty DAG over o containing
// only the root node. The returned DAG (and every node, edge label, and
// TopoOrder slice derived from it) is invalidated by the next NewDAG call.
func (w *Workspace) NewDAG(o *ontology.Ontology) *DAG {
	if w.nodes == nil {
		w.nodes = make(map[ontology.ConceptID]*Node)
	} else {
		clear(w.nodes)
	}
	w.used = 0
	w.labels.Reset()
	w.dag = DAG{O: o, nodes: w.nodes, order: w.dag.order[:0], ws: w}
	w.dag.Root = w.dag.getOrCreate(o.Root())
	return &w.dag
}

// Release drops all retained memory; the workspace remains usable and
// regrows on demand.
func (w *Workspace) Release() {
	*w = Workspace{}
}

// newNode hands out a reset node from the retained pool, growing it only
// when this build has more nodes than any before.
func (w *Workspace) newNode() *Node {
	if w.used < len(w.pool) {
		n := w.pool[w.used]
		w.used++
		*n = Node{Edges: n.Edges[:0], Parents: n.Parents[:0]}
		return n
	}
	n := &Node{}
	w.pool = append(w.pool, n)
	w.used++
	return n
}

// cloneLabel copies a label into the workspace's slab arena; the copy lives
// until the next NewDAG.
func (w *Workspace) cloneLabel(p dewey.Path) dewey.Path {
	buf := w.labels.AllocN(len(p))
	copy(buf, p)
	return dewey.Path(buf)
}

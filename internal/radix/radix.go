// Package radix implements the path-compressed radix DAG over Dewey
// addresses from Sections 3.1 and 4.2 of Arvanitis et al. (EDBT 2014).
//
// A radix DAG indexes a set of "marked" ontology concepts by inserting every
// Dewey address of every marked concept. Chains of unmarked, non-branching
// concepts are compressed into single edges whose label is the full Dewey
// component run (Figure 4 of the paper); branch points and marked concepts
// become explicit nodes. Because a concept can have several Dewey addresses
// in a DAG-shaped ontology, the same concept node can be reachable through
// several tree paths, so the structure is a DAG, not a tree — node identity
// is the ontology concept. Where the paper's InsertPath resolves a new
// node's full address from the root (its FindNodeByDewey), an insertion
// here resolves only the remaining suffix, walked down from the concept of
// the node it stands on: a node's concept is what every one of its
// addresses resolves to, so the two agree, and the cost of a resolution is
// the new label's length rather than the address's depth.
//
// The D-Radix of Section 4.2 is this structure with two mark kinds (document
// and query) and per-node distance annotations; the distance machinery lives
// in package drc.
package radix

import (
	"fmt"
	"strings"

	"conceptrank/internal/dewey"
	"conceptrank/internal/ontology"
)

// Mark is a bitmask describing why a node is an explicit, non-compressible
// endpoint. The D-Radix keeps document and query concepts separate even
// when a plain radix tree would merge them (Section 4.2).
type Mark uint8

// Mark kinds.
const (
	MarkNone  Mark = 0
	MarkDoc   Mark = 1 << 0 // concept belongs to the document
	MarkQuery Mark = 1 << 1 // concept belongs to the query (or query document)
)

// Edge is a compressed child edge. Its semantic length — the number of
// ontology is-a edges it spans — is the number of Dewey components in its
// label.
type Edge struct {
	Label dewey.Path
	To    *Node
}

// Weight returns the semantic length of the edge.
func (e Edge) Weight() int { return len(e.Label) }

// Node is a radix DAG node: an ontology concept that is either marked, a
// branch point, or the root.
type Node struct {
	Concept ontology.ConceptID
	Marks   Mark
	Index   int // dense creation index, usable for side arrays
	Edges   []Edge
	Parents []*Node
}

// DAG is a radix DAG under construction or in use. Every DAG lives in a
// Workspace (Workspace.NewDAG), which owns its nodes, labels and scratch.
// It is not safe for concurrent mutation; a fully built DAG may be read
// concurrently, TopoOrder excepted.
type DAG struct {
	O     *ontology.Ontology
	Root  *Node
	nodes map[ontology.ConceptID]*Node
	order []*Node // creation order; Index fields index into it
	ws    *Workspace
}

// NumNodes returns the number of nodes including the root.
func (d *DAG) NumNodes() int { return len(d.order) }

// Nodes returns all nodes in creation order. The slice is owned by the DAG.
func (d *DAG) Nodes() []*Node { return d.order }

// Lookup returns the node of a concept, if present.
func (d *DAG) Lookup(c ontology.ConceptID) (*Node, bool) {
	n, ok := d.nodes[c]
	return n, ok
}

func (d *DAG) getOrCreate(c ontology.ConceptID) *Node {
	if n, ok := d.nodes[c]; ok {
		return n
	}
	n := d.ws.newNode()
	n.Concept = c
	n.Index = len(d.order)
	d.nodes[c] = n
	d.order = append(d.order, n)
	return n
}

// addEdge links parent -> child with the given label unless an identical
// edge already exists (re-inserting a shared address region, e.g. step 8 of
// the paper's Example 2, must not duplicate edges).
func (d *DAG) addEdge(parent *Node, label dewey.Path, child *Node) {
	for _, e := range parent.Edges {
		if e.To == child && dewey.Equal(e.Label, label) {
			return
		}
	}
	parent.Edges = append(parent.Edges, Edge{Label: d.ws.cloneLabel(label), To: child})
	child.Parents = append(child.Parents, parent)
}

// resolve walks suffix down from concept c, one child per Dewey
// component: the concept an edge of that label out of c's node leads to.
func (d *DAG) resolve(c ontology.ConceptID, suffix dewey.Path) (ontology.ConceptID, error) {
	cur := c
	for _, comp := range suffix {
		ch := d.O.Children(cur)
		if comp == 0 || int(comp) > len(ch) {
			return ontology.Invalid, fmt.Errorf("radix: suffix %v does not resolve below concept %d (%s)", suffix, c, d.O.Name(c))
		}
		cur = ch[comp-1]
	}
	return cur, nil
}

// removeEdge unlinks the edge with the given label from parent.
func (d *DAG) removeEdge(parent *Node, label dewey.Path) {
	for i, e := range parent.Edges {
		if dewey.Equal(e.Label, label) {
			child := e.To
			parent.Edges = append(parent.Edges[:i], parent.Edges[i+1:]...)
			for j, p := range child.Parents {
				if p == parent {
					child.Parents = append(child.Parents[:j], child.Parents[j+1:]...)
					break
				}
			}
			return
		}
	}
}

// Insert adds one Dewey address whose endpoint concept receives mark. It
// implements the paper's InsertPath function: walk matching edges, split on
// partial prefix overlap (creating or reusing the LCA node), and finally
// mark the endpoint. It returns the endpoint node.
func (d *DAG) Insert(addr dewey.Path, mark Mark) (*Node, error) {
	return d.insertFrom(d.Root, addr, mark)
}

// insertFrom inserts suffix v below node cn. Every concept it needs — a
// new edge's endpoint, a split point — is v's prefix walked down from
// cn's concept, which equals resolving cn's address extended by it from
// the root: an edge's label leads from its parent's concept to its
// child's. It is also used to re-link a detached subtree after an edge
// split: when the split point is a pre-existing node whose edges
// partially overlap the detached label, the recursion resolves the
// overlap instead of creating duplicate sibling prefixes.
func (d *DAG) insertFrom(cn *Node, v dewey.Path, mark Mark) (*Node, error) {
	for len(v) > 0 {
		// Seek the unique child edge sharing a prefix with v. Radix
		// invariant: child edge labels of one node start with distinct
		// components, so at most one edge can share a prefix.
		var match *Edge
		for i := range cn.Edges {
			if cn.Edges[i].Label[0] == v[0] {
				match = &cn.Edges[i]
				break
			}
		}
		if match == nil {
			// No overlap: v becomes a fresh edge to the endpoint concept.
			endpoint, err := d.resolve(cn.Concept, v)
			if err != nil {
				return nil, err
			}
			n := d.getOrCreate(endpoint)
			d.addEdge(cn, v, n)
			n.Marks |= mark
			return n, nil
		}
		l := dewey.LCPLen(v, match.Label)
		if l == len(match.Label) {
			// Full edge match: descend.
			v = v[l:]
			cn = match.To
			continue
		}
		// Partial match: split the edge at the longest common prefix. The
		// split point is a real ontology concept (the LCA of the two
		// addresses), possibly one that already has a node (Example 2,
		// step 8: address 3.1.1 resolves to the existing node J).
		lcaConcept, err := d.resolve(cn.Concept, v[:l])
		if err != nil {
			return nil, err
		}
		// Capture the label before removeEdge invalidates match (the Edges
		// array is compacted); the label's backing array itself is never
		// mutated, so the slice header is enough.
		oldLabel := match.Label
		d.removeEdge(cn, match.Label)
		lca := d.getOrCreate(lcaConcept)
		d.addEdge(cn, oldLabel[:l], lca)
		// Re-link the detached subtree below the LCA. When the LCA already
		// existed (shared concept reached through another address), its
		// existing edges may partially overlap the detached label; the
		// recursive insert performs any further splits needed instead of
		// creating two sibling edges with a shared prefix. Node identity is
		// preserved: re-insertion resolves to the detached child's concept.
		if _, err := d.insertFrom(lca, oldLabel[l:], MarkNone); err != nil {
			return nil, err
		}
		v = v[l:]
		cn = lca
		// Loop continues: if v is now empty the endpoint is the LCA itself
		// and the loop exit below marks it; otherwise the remaining suffix
		// is inserted under the LCA (and may match pre-existing edges).
	}
	cn.Marks |= mark
	return cn, nil
}

// InsertConcept inserts every Dewey address of concept c with the given
// mark. maxPaths caps the number of addresses (<=0 for all); capping trades
// exactness for speed on pathologically multi-parented concepts and is off
// everywhere in the reproduction experiments.
func (d *DAG) InsertConcept(c ontology.ConceptID, mark Mark, maxPaths int) error {
	for _, p := range d.O.PathAddressesLimit(c, maxPaths) {
		if _, err := d.Insert(p, mark); err != nil {
			return err
		}
	}
	return nil
}

// TopoOrder returns nodes ordered parents-before-children (Kahn's
// algorithm over a dense in-degree array indexed by Node.Index). The DAG
// must be fully built; insertion afterwards invalidates the result. The
// returned slice is workspace scratch, valid until the next NewDAG, so
// TopoOrder is the one read that is not safe to run concurrently.
func (d *DAG) TopoOrder() []*Node {
	w := d.ws
	n := len(d.order)
	if cap(w.indeg) < n {
		w.indeg = make([]int32, n)
		w.topoQ = make([]*Node, 0, n)
		w.topoOut = make([]*Node, 0, n)
	}
	indeg := w.indeg[:n]
	for i := range indeg {
		indeg[i] = 0
	}
	for _, nd := range d.order {
		for _, e := range nd.Edges {
			indeg[e.To.Index]++
		}
	}
	queue := w.topoQ[:0]
	for _, nd := range d.order {
		if indeg[nd.Index] == 0 {
			queue = append(queue, nd)
		}
	}
	out := w.topoOut[:0]
	for head := 0; head < len(queue); head++ {
		nd := queue[head]
		out = append(out, nd)
		for _, e := range nd.Edges {
			indeg[e.To.Index]--
			if indeg[e.To.Index] == 0 {
				queue = append(queue, e.To)
			}
		}
	}
	w.topoQ = queue[:0]
	w.topoOut = out
	return out
}

// CheckInvariants validates structural invariants; tests call it after
// randomized insertion batches. It verifies that (i) edge labels resolve to
// their target concepts, (ii) sibling edges start with distinct components,
// (iii) every non-root node is marked or a branch point (path compression),
// and (iv) the node set is acyclic and fully reachable from the root.
func (d *DAG) CheckInvariants() error {
	topo := d.TopoOrder()
	if len(topo) != len(d.order) {
		return fmt.Errorf("radix: cycle or unreachable nodes: topo %d of %d", len(topo), len(d.order))
	}
	// Walk every edge from the root, tracking the address, and confirm
	// resolution. BFS over (node, address) pairs would blow up on DAGs, so
	// instead check locally: for each node, for each of its addresses? Too
	// expensive; check per-edge resolution using any one address of parent.
	for _, n := range d.order {
		seen := make(map[dewey.Component]bool)
		for _, e := range n.Edges {
			if len(e.Label) == 0 {
				return fmt.Errorf("radix: empty edge label out of concept %d", n.Concept)
			}
			if seen[e.Label[0]] {
				return fmt.Errorf("radix: sibling edges share first component under concept %d", n.Concept)
			}
			seen[e.Label[0]] = true
			// Resolve label relative to n: walk ontology children by digit.
			cur := n.Concept
			for _, comp := range e.Label {
				ch := d.O.Children(cur)
				if int(comp) > len(ch) {
					return fmt.Errorf("radix: edge label %v invalid under concept %d", e.Label, n.Concept)
				}
				cur = ch[comp-1]
			}
			if cur != e.To.Concept {
				return fmt.Errorf("radix: edge label %v under %d leads to %d, node says %d",
					e.Label, n.Concept, cur, e.To.Concept)
			}
		}
		if n != d.Root && n.Marks == MarkNone && len(n.Edges) < 2 {
			return fmt.Errorf("radix: unmarked non-branch node %d not compressed", n.Concept)
		}
		if n != d.Root && len(n.Parents) == 0 {
			return fmt.Errorf("radix: node %d unreachable", n.Concept)
		}
	}
	return nil
}

// Dump renders the DAG for debugging and golden tests: one line per edge in
// DFS order from the root, each node shown by concept name and marks.
func (d *DAG) Dump() string {
	var b strings.Builder
	var walk func(n *Node, indent string, visited map[*Node]bool)
	walk = func(n *Node, indent string, visited map[*Node]bool) {
		for _, e := range n.Edges {
			fmt.Fprintf(&b, "%s-[%s]-> %s%s\n", indent, e.Label, d.O.Name(e.To.Concept), markSuffix(e.To.Marks))
			if !visited[e.To] {
				visited[e.To] = true
				walk(e.To, indent+"  ", visited)
			}
		}
	}
	fmt.Fprintf(&b, "%s\n", d.O.Name(d.Root.Concept))
	walk(d.Root, "  ", map[*Node]bool{d.Root: true})
	return b.String()
}

func markSuffix(m Mark) string {
	switch {
	case m&MarkDoc != 0 && m&MarkQuery != 0:
		return " [dq]"
	case m&MarkDoc != 0:
		return " [d]"
	case m&MarkQuery != 0:
		return " [q]"
	}
	return ""
}

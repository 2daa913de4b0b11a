package radix

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"conceptrank/internal/dewey"
	"conceptrank/internal/ontology"
)

// rootResolvingInsert is the oracle for insertFrom: the paper's InsertPath
// as written, carrying the address u of the node it stands on and
// resolving every new endpoint and split point from the root by the full
// address u+v (FindNodeByDewey). insertFrom must build the same DAG.
func (d *DAG) rootResolvingInsert(cn *Node, u, v dewey.Path, mark Mark) (*Node, error) {
	concat := func(a, b dewey.Path) dewey.Path {
		return append(append(dewey.Path{}, a...), b...)
	}
	for len(v) > 0 {
		var match *Edge
		for i := range cn.Edges {
			if cn.Edges[i].Label[0] == v[0] {
				match = &cn.Edges[i]
				break
			}
		}
		if match == nil {
			full := concat(u, v)
			endpoint, ok := d.O.ResolveAddress(full)
			if !ok {
				return nil, fmt.Errorf("radix: address %v does not resolve in ontology", full)
			}
			n := d.getOrCreate(endpoint)
			d.addEdge(cn, v, n)
			n.Marks |= mark
			return n, nil
		}
		l := dewey.LCPLen(v, match.Label)
		if l == len(match.Label) {
			u = concat(u, match.Label)
			v = v[l:]
			cn = match.To
			continue
		}
		lcaPath := concat(u, v[:l])
		lcaConcept, ok := d.O.ResolveAddress(lcaPath)
		if !ok {
			return nil, fmt.Errorf("radix: split address %v does not resolve in ontology", lcaPath)
		}
		oldLabel := match.Label
		d.removeEdge(cn, match.Label)
		lca := d.getOrCreate(lcaConcept)
		d.addEdge(cn, oldLabel[:l], lca)
		if _, err := d.rootResolvingInsert(lca, lcaPath, oldLabel[l:], MarkNone); err != nil {
			return nil, err
		}
		u = lcaPath
		v = v[l:]
		cn = lca
	}
	cn.Marks |= mark
	return cn, nil
}

// structure renders every node in creation order: its index, concept and
// marks, its edges in order (label and target index) and its parents.
func structure(d *DAG) string {
	var b strings.Builder
	for _, n := range d.Nodes() {
		fmt.Fprintf(&b, "%d c%d m%d:", n.Index, n.Concept, n.Marks)
		for _, e := range n.Edges {
			fmt.Fprintf(&b, " -[%s]->%d", e.Label, e.To.Index)
		}
		b.WriteString(" ^")
		for _, p := range n.Parents {
			fmt.Fprintf(&b, " %d", p.Index)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

type markedAddr struct {
	addr dewey.Path
	mark Mark
}

// checkAgainstOracle inserts addrs in order through Insert and through the
// oracle, each in its own workspace, and requires the same structure after
// every insertion and the same endpoint nodes.
func checkAgainstOracle(t *testing.T, label string, o *ontology.Ontology, addrs []markedAddr) {
	t.Helper()
	got, want := newDAG(o), newDAG(o)
	for i, a := range addrs {
		gn, gerr := got.Insert(a.addr, a.mark)
		wn, werr := want.rootResolvingInsert(want.Root, dewey.Path{}, a.addr, a.mark)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("%s: insert %d (%v): error %v, oracle %v", label, i, a.addr, gerr, werr)
		}
		if gerr != nil {
			continue
		}
		if gn.Index != wn.Index {
			t.Fatalf("%s: insert %d (%v): endpoint node %d, oracle %d", label, i, a.addr, gn.Index, wn.Index)
		}
		if g, w := structure(got), structure(want); g != w {
			t.Fatalf("%s: after insert %d (%v):\n got\n%s\noracle\n%s", label, i, a.addr, g, w)
		}
	}
	if got.Dump() != want.Dump() {
		t.Fatalf("%s: dumps differ:\n%s\n%s", label, got.Dump(), want.Dump())
	}
}

// conceptAddrs lists every address of each concept with its mark, in
// concept order — the way a D-Radix build inserts them.
func conceptAddrs(o *ontology.Ontology, concepts []ontology.ConceptID, mark Mark) []markedAddr {
	var out []markedAddr
	for _, c := range concepts {
		for _, p := range o.PathAddresses(c) {
			out = append(out, markedAddr{p, mark})
		}
	}
	return out
}

// TestInsertMatchesRootResolvingOracle: on the paper's fixtures — the
// Example 2 insertion sequence, the Figure 5 document and query in both
// orders — and on random DAG corpora, resolving from the node an
// insertion stands on builds bitwise the DAG that resolving every address
// from the root builds.
func TestInsertMatchesRootResolvingOracle(t *testing.T) {
	pf := ontology.NewPaperFig()
	var example2 []markedAddr
	for _, s := range []struct {
		addr string
		mark Mark
	}{
		{"1.1.1.1", MarkQuery}, {"1.1.1.2.1.1", MarkDoc}, {"1.1.1.2.1.1.1", MarkQuery},
		{"1.1.1.2.2.1.1", MarkDoc}, {"3.1", MarkDoc}, {"3.1.1.1.1", MarkDoc},
		{"3.1.1.1.1.1", MarkQuery}, {"3.1.1.2.1.1", MarkDoc}, {"3.1.2.1.1.1", MarkDoc},
		{"3.1.2.2", MarkQuery},
	} {
		example2 = append(example2, markedAddr{dewey.MustParse(s.addr), s.mark})
	}
	checkAgainstOracle(t, "Example 2", pf.O, example2)
	doc := conceptAddrs(pf.O, pf.Concepts("F", "R", "T", "V"), MarkDoc)
	query := conceptAddrs(pf.O, pf.Concepts("I", "L", "U"), MarkQuery)
	checkAgainstOracle(t, "Figure 5 doc then query", pf.O, append(append([]markedAddr{}, doc...), query...))
	checkAgainstOracle(t, "Figure 5 query then doc", pf.O, append(append([]markedAddr{}, query...), doc...))
	all := make([]ontology.ConceptID, pf.O.NumConcepts())
	for i := range all {
		all[i] = ontology.ConceptID(i)
	}
	checkAgainstOracle(t, "every paper concept", pf.O, conceptAddrs(pf.O, all, MarkDoc))

	r := rand.New(rand.NewSource(91))
	for iter := 0; iter < 60; iter++ {
		o := randomDAGOntology(r, 5+r.Intn(150), 0.35)
		var addrs []markedAddr
		for range 1 + r.Intn(25) {
			c := ontology.ConceptID(r.Intn(o.NumConcepts()))
			addrs = append(addrs, conceptAddrs(o, []ontology.ConceptID{c}, Mark(1+r.Intn(3)))...)
		}
		if iter%2 == 1 {
			r.Shuffle(len(addrs), func(i, j int) { addrs[i], addrs[j] = addrs[j], addrs[i] })
		}
		checkAgainstOracle(t, fmt.Sprintf("random corpus %d", iter), o, addrs)
	}
}

// TestInsertErrorNamesConceptAndSuffix: a failed insertion names the
// concept of the node it stood on and the suffix that did not resolve
// below it: the root, a node it descended to, or a split point it made.
// (A split point itself always resolves: it is a prefix of an existing
// edge's label.)
func TestInsertErrorNamesConceptAndSuffix(t *testing.T) {
	pf := ontology.NewPaperFig()
	for _, tc := range []struct {
		first, bad string
		at         ontology.ConceptID
		suffix     string
	}{
		{"", "9.9.9", pf.O.Root(), "9.9.9"},        // below the root
		{"3.1", "3.1.7.1", pf.Concept("F"), "7.1"}, // below F, reached by descent
		{"1.1.1.1", "1.1.7", pf.Concept("E"), "7"}, // below E, a split point it made
	} {
		d := newDAG(pf.O)
		if tc.first != "" {
			if _, err := d.Insert(dewey.MustParse(tc.first), MarkDoc); err != nil {
				t.Fatal(err)
			}
		}
		_, err := d.Insert(dewey.MustParse(tc.bad), MarkDoc)
		if err == nil {
			t.Fatalf("%s after %s accepted", tc.bad, tc.first)
		}
		if want := fmt.Sprintf("suffix %s does not resolve below concept %d", tc.suffix, tc.at); !strings.Contains(err.Error(), want) {
			t.Errorf("%s after %s: error %q, want it to name %q", tc.bad, tc.first, err, want)
		}
	}
}

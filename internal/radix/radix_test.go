package radix

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"conceptrank/internal/dewey"
	"conceptrank/internal/ontology"
)

// newDAG builds a DAG in its own workspace, so every test DAG outlives
// the others.
func newDAG(o *ontology.Ontology) *DAG { return new(Workspace).NewDAG(o) }

// edgeSet extracts "parent-[label]->child" triples for structural asserts.
func edgeSet(d *DAG) map[string]bool {
	out := map[string]bool{}
	for _, n := range d.Nodes() {
		for _, e := range n.Edges {
			out[d.O.Name(n.Concept)+"-["+e.Label.String()+"]->"+d.O.Name(e.To.Concept)] = true
		}
	}
	return out
}

func wantEdges(t *testing.T, d *DAG, want []string) {
	t.Helper()
	got := edgeSet(d)
	if len(got) != len(want) {
		t.Errorf("edge count = %d, want %d\ngot: %v\nwant: %v\ndump:\n%s",
			len(got), len(want), keys(got), want, d.Dump())
		return
	}
	for _, w := range want {
		if !got[w] {
			t.Errorf("missing edge %q\ndump:\n%s", w, d.Dump())
		}
	}
}

func keys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestFigure4PlainRadix reproduces Figure 4: the Radix DAG for document
// d = {F,R,T,V}, where the chain B,E,G,J is compressed into edge 1.1.1.2.
func TestFigure4PlainRadix(t *testing.T) {
	pf := ontology.NewPaperFig()
	d := newDAG(pf.O)
	for _, letter := range []string{"F", "R", "T", "V"} {
		if err := d.InsertConcept(pf.Concept(letter), MarkDoc, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	if d.NumNodes() != 6 {
		t.Errorf("node count = %d, want 6 (A,J + F,R,T,V)\n%s", d.NumNodes(), d.Dump())
	}
	wantEdges(t, d, []string{
		"A-[1.1.1.2]->J", // B, E, G merged away
		"J-[1.1]->R",
		"J-[2.1.1]->V",
		"A-[3.1]->F",
		"F-[1]->J",
		"F-[2.1.1.1]->T",
	})
}

// TestExample2StepByStep replays the exact insertion sequence of Table 1 /
// Example 2 and checks the D-Radix structure snapshots of Figure 5(a)-(d).
func TestExample2StepByStep(t *testing.T) {
	pf := ontology.NewPaperFig()
	d := newDAG(pf.O)

	steps := []struct {
		addr string
		mark Mark
	}{
		{"1.1.1.1", MarkQuery},       // 1: I
		{"1.1.1.2.1.1", MarkDoc},     // 2: R
		{"1.1.1.2.1.1.1", MarkQuery}, // 3: U
		{"1.1.1.2.2.1.1", MarkDoc},   // 4: V
		{"3.1", MarkDoc},             // 5: F
		{"3.1.1.1.1", MarkDoc},       // 6: R again
		{"3.1.1.1.1.1", MarkQuery},   // 7: U again (fully matched, no change)
		{"3.1.1.2.1.1", MarkDoc},     // 8: V again (edge F->R split at J)
		{"3.1.2.1.1.1", MarkDoc},     // 9: T
		{"3.1.2.2", MarkQuery},       // 10: L
	}
	snapshots := map[int][]string{
		2: { // Figure 5(a)
			"A-[1.1.1]->G", "G-[1]->I", "G-[2.1.1]->R",
		},
		4: { // Figure 5(b)
			"A-[1.1.1]->G", "G-[1]->I", "G-[2]->J",
			"J-[1.1]->R", "J-[2.1.1]->V", "R-[1]->U",
		},
		6: { // Figure 5(c)
			"A-[1.1.1]->G", "G-[1]->I", "G-[2]->J",
			"J-[1.1]->R", "J-[2.1.1]->V", "R-[1]->U",
			"A-[3.1]->F", "F-[1.1.1]->R",
		},
		8: { // Figure 5(d): F's edge re-routed through J, nothing duplicated
			"A-[1.1.1]->G", "G-[1]->I", "G-[2]->J",
			"J-[1.1]->R", "J-[2.1.1]->V", "R-[1]->U",
			"A-[3.1]->F", "F-[1]->J",
		},
		10: { // Figure 5(e) structure
			"A-[1.1.1]->G", "G-[1]->I", "G-[2]->J",
			"J-[1.1]->R", "J-[2.1.1]->V", "R-[1]->U",
			"A-[3.1]->F", "F-[1]->J",
			"F-[2]->H", "H-[1.1.1]->T", "H-[2]->L",
		},
	}

	for i, s := range steps {
		if _, err := d.Insert(dewey.MustParse(s.addr), s.mark); err != nil {
			t.Fatalf("step %d (%s): %v", i+1, s.addr, err)
		}
		if err := d.CheckInvariants(); err != nil {
			t.Fatalf("step %d (%s): invariants: %v\n%s", i+1, s.addr, err, d.Dump())
		}
		if want, ok := snapshots[i+1]; ok {
			wantEdges(t, d, want)
		}
	}

	// Final marks: squares (doc) F,R,T,V; triangles (query) I,L,U.
	for letter, want := range map[string]Mark{
		"F": MarkDoc, "R": MarkDoc, "T": MarkDoc, "V": MarkDoc,
		"I": MarkQuery, "L": MarkQuery, "U": MarkQuery,
		"A": MarkNone, "G": MarkNone, "J": MarkNone, "H": MarkNone,
	} {
		n, ok := d.Lookup(pf.Concept(letter))
		if !ok {
			t.Fatalf("node %s missing", letter)
		}
		if n.Marks != want {
			t.Errorf("marks of %s = %v, want %v", letter, n.Marks, want)
		}
	}
	if d.NumNodes() != 11 {
		t.Errorf("final node count = %d, want 11\n%s", d.NumNodes(), d.Dump())
	}
}

func TestInsertOrderIndependence(t *testing.T) {
	pf := ontology.NewPaperFig()
	var addrs []struct {
		a string
		m Mark
	}
	for _, s := range []string{"1.1.1.1", "1.1.1.2.1.1", "1.1.1.2.1.1.1", "1.1.1.2.2.1.1",
		"3.1", "3.1.1.1.1", "3.1.1.1.1.1", "3.1.1.2.1.1", "3.1.2.1.1.1", "3.1.2.2"} {
		addrs = append(addrs, struct {
			a string
			m Mark
		}{s, MarkDoc})
	}
	r := rand.New(rand.NewSource(3))
	var first map[string]bool
	for trial := 0; trial < 20; trial++ {
		r.Shuffle(len(addrs), func(i, j int) { addrs[i], addrs[j] = addrs[j], addrs[i] })
		d := newDAG(pf.O)
		for _, a := range addrs {
			if _, err := d.Insert(dewey.MustParse(a.a), a.m); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.CheckInvariants(); err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, d.Dump())
		}
		es := edgeSet(d)
		if first == nil {
			first = es
			continue
		}
		if len(es) != len(first) {
			t.Fatalf("trial %d: structure depends on insertion order:\n%v\nvs\n%v", trial, keys(es), keys(first))
		}
		for k := range es {
			if !first[k] {
				t.Fatalf("trial %d: edge %q not in reference structure", trial, k)
			}
		}
	}
}

func TestTopoOrder(t *testing.T) {
	pf := ontology.NewPaperFig()
	d := newDAG(pf.O)
	for _, letter := range []string{"F", "R", "T", "V", "I", "L", "U"} {
		if err := d.InsertConcept(pf.Concept(letter), MarkDoc, 0); err != nil {
			t.Fatal(err)
		}
	}
	topo := d.TopoOrder()
	if len(topo) != d.NumNodes() {
		t.Fatalf("topo covers %d of %d nodes", len(topo), d.NumNodes())
	}
	pos := map[*Node]int{}
	for i, n := range topo {
		pos[n] = i
	}
	for _, n := range d.Nodes() {
		for _, e := range n.Edges {
			if pos[n] >= pos[e.To] {
				t.Fatalf("topo violated: %s !< %s", d.O.Name(n.Concept), d.O.Name(e.To.Concept))
			}
		}
	}
}

func randomDAGOntology(r *rand.Rand, n int, extraEdgeProb float64) *ontology.Ontology {
	b := ontology.NewBuilder("n0")
	ids := []ontology.ConceptID{0}
	for i := 1; i < n; i++ {
		c := b.AddConcept("n" + itoa(i))
		parent := ids[r.Intn(len(ids))]
		b.MustAddEdge(parent, c)
		if r.Float64() < extraEdgeProb && len(ids) > 2 {
			p2 := ids[r.Intn(len(ids)-1)]
			if p2 != parent {
				_ = b.AddEdge(p2, c)
			}
		}
		ids = append(ids, c)
	}
	return b.MustFinalize()
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

// TestQuickRandomInsertInvariants fuzzes insertion over random DAG
// ontologies and random concept sets, asserting structural invariants and
// that every marked concept's node carries the right marks.
func TestQuickRandomInsertInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for iter := 0; iter < 40; iter++ {
		o := randomDAGOntology(r, 5+r.Intn(120), 0.35)
		d := newDAG(o)
		marked := map[ontology.ConceptID]Mark{}
		for j := 0; j < 1+r.Intn(20); j++ {
			c := ontology.ConceptID(r.Intn(o.NumConcepts()))
			m := Mark(1 << (r.Intn(2)))
			if err := d.InsertConcept(c, m, 0); err != nil {
				t.Fatal(err)
			}
			marked[c] |= m
		}
		if err := d.CheckInvariants(); err != nil {
			t.Fatalf("iter %d: %v\n%s", iter, err, d.Dump())
		}
		for c, m := range marked {
			n, ok := d.Lookup(c)
			if !ok {
				t.Fatalf("iter %d: marked concept %d has no node", iter, c)
			}
			if n.Marks&m != m {
				t.Fatalf("iter %d: concept %d marks %v missing %v", iter, c, n.Marks, m)
			}
		}
		// Node count sanity: the DAG cannot contain more nodes than the
		// number of addresses inserted plus one per split, which is bounded
		// by twice the address count plus the root.
		total := 0
		for c := range marked {
			total += o.NumPathAddresses(c)
		}
		if d.NumNodes() > 2*total+1 {
			t.Fatalf("iter %d: %d nodes for %d addresses", iter, d.NumNodes(), total)
		}
	}
}

func TestInsertRejectsBogusAddress(t *testing.T) {
	pf := ontology.NewPaperFig()
	d := newDAG(pf.O)
	if _, err := d.Insert(dewey.MustParse("9.9.9"), MarkDoc); err == nil {
		t.Fatal("bogus address accepted")
	}
}

func TestDumpMentionsMarks(t *testing.T) {
	pf := ontology.NewPaperFig()
	d := newDAG(pf.O)
	if err := d.InsertConcept(pf.Concept("F"), MarkDoc, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.InsertConcept(pf.Concept("L"), MarkQuery, 0); err != nil {
		t.Fatal(err)
	}
	dump := d.Dump()
	if !strings.Contains(dump, "F [d]") || !strings.Contains(dump, "L [q]") {
		t.Errorf("dump lacks mark annotations:\n%s", dump)
	}
}

// TestInsertShorterAddressSplitsAtEndpoint covers the split case where the
// inserted address ends exactly at the split point: inserting 1.1.1 (G)
// after 1.1.1.1 (I) must split the existing edge with G itself as the LCA
// endpoint.
func TestInsertShorterAddressSplitsAtEndpoint(t *testing.T) {
	pf := ontology.NewPaperFig()
	d := newDAG(pf.O)
	if _, err := d.Insert(dewey.MustParse("1.1.1.1"), MarkDoc); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Insert(dewey.MustParse("1.1.1"), MarkQuery); err != nil {
		t.Fatal(err)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatalf("%v\n%s", err, d.Dump())
	}
	g, ok := d.Lookup(pf.Concept("G"))
	if !ok || g.Marks != MarkQuery {
		t.Fatalf("G node missing or unmarked: %v", g)
	}
	wantEdges(t, d, []string{"A-[1.1.1]->G", "G-[1]->I"})
}

// TestReinsertSameAddressIdempotent: re-inserting an identical address
// must not change the structure, only possibly add marks.
func TestReinsertSameAddressIdempotent(t *testing.T) {
	pf := ontology.NewPaperFig()
	d := newDAG(pf.O)
	for i := 0; i < 3; i++ {
		if _, err := d.Insert(dewey.MustParse("3.1.1.1.1"), MarkDoc); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.Insert(dewey.MustParse("3.1.1.1.1"), MarkQuery); err != nil {
		t.Fatal(err)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	r, _ := d.Lookup(pf.Concept("R"))
	if r.Marks != MarkDoc|MarkQuery {
		t.Fatalf("marks = %v", r.Marks)
	}
	if d.NumNodes() != 2 {
		t.Fatalf("nodes = %d, want root + R", d.NumNodes())
	}
}

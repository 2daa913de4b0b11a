package ontology

import (
	"bytes"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"conceptrank/internal/dewey"
)

func TestBuilderRejectsBadEdges(t *testing.T) {
	b := NewBuilder("root")
	a := b.AddConcept("a")
	if err := b.AddEdge(a, a); err == nil {
		t.Error("self edge accepted")
	}
	if err := b.AddEdge(a, 0); err == nil {
		t.Error("edge into root accepted")
	}
	if err := b.AddEdge(0, ConceptID(99)); err == nil {
		t.Error("out-of-range child accepted")
	}
	if err := b.AddEdge(0, a); err != nil {
		t.Fatalf("valid edge rejected: %v", err)
	}
	if err := b.AddEdge(0, a); err == nil {
		t.Error("duplicate edge accepted")
	}
}

func TestFinalizeDetectsCycle(t *testing.T) {
	b := NewBuilder("root")
	a := b.AddConcept("a")
	c := b.AddConcept("c")
	b.MustAddEdge(0, a)
	b.MustAddEdge(a, c)
	b.MustAddEdge(c, a) // cycle a -> c -> a
	if _, err := b.Finalize(); err == nil {
		t.Fatal("cycle not detected")
	}
}

func TestFinalizeDetectsOrphan(t *testing.T) {
	b := NewBuilder("root")
	b.AddConcept("orphan")
	if _, err := b.Finalize(); err == nil {
		t.Fatal("orphan concept not detected")
	}
}

func TestPaperFigAddresses(t *testing.T) {
	pf := NewPaperFig()
	o := pf.O

	// Table 1 of the paper lists these Dewey addresses exactly.
	want := map[string][]string{
		"I": {"1.1.1.1"},
		"U": {"1.1.1.2.1.1.1", "3.1.1.1.1.1"},
		"L": {"3.1.2.2"},
		"R": {"1.1.1.2.1.1", "3.1.1.1.1"},
		"V": {"1.1.1.2.2.1.1", "3.1.1.2.1.1"},
		"F": {"3.1"},
		"T": {"3.1.2.1.1.1"},
		"G": {"1.1.1"},
		"J": {"1.1.1.2", "3.1.1"},
		"H": {"3.1.2"},
		"A": {""},
	}
	for letter, addrs := range want {
		got := o.PathAddresses(pf.Concept(letter))
		var gotStr []string
		for _, p := range got {
			gotStr = append(gotStr, p.String())
		}
		sort.Strings(gotStr)
		sort.Strings(addrs)
		if len(gotStr) != len(addrs) {
			t.Fatalf("%s: addresses %v, want %v", letter, gotStr, addrs)
		}
		for i := range addrs {
			if gotStr[i] != addrs[i] {
				t.Errorf("%s: addresses %v, want %v", letter, gotStr, addrs)
				break
			}
		}
		if n := o.NumPathAddresses(pf.Concept(letter)); n != len(addrs) {
			t.Errorf("%s: NumPathAddresses = %d, want %d", letter, n, len(addrs))
		}
	}
}

func TestPaperFigResolveAddress(t *testing.T) {
	pf := NewPaperFig()
	o := pf.O
	cases := map[string]string{
		"":            "A",
		"1.1.1":       "G",
		"1.1.1.2":     "J",
		"3.1.1":       "J",
		"3.1.2":       "H",
		"3.1.1.1.1":   "R",
		"1.1.1.2.1.1": "R",
		"3.1.2.2":     "L",
	}
	for addr, letter := range cases {
		got, ok := o.ResolveAddress(dewey.MustParse(addr))
		if !ok || got != pf.Concept(letter) {
			t.Errorf("ResolveAddress(%q) = %v,%v want %s", addr, got, ok, letter)
		}
	}
	if _, ok := o.ResolveAddress(dewey.MustParse("9.9")); ok {
		t.Error("ResolveAddress accepted a bogus address")
	}
	if _, ok := o.ResolveAddress(dewey.MustParse("1.1.1.1.1.1.1.1")); ok {
		t.Error("ResolveAddress accepted an overlong address")
	}
}

func TestPaperFigDepths(t *testing.T) {
	pf := NewPaperFig()
	o := pf.O
	want := map[string]int{
		"A": 0, "B": 1, "D": 1, "E": 2, "F": 2, "G": 3,
		"I": 4, "J": 3, // J's min depth is via F (3.1.1)
		"H": 3, "R": 5, "U": 6, "L": 4, "T": 6,
	}
	for letter, d := range want {
		if got := o.Depth(pf.Concept(letter)); got != d {
			t.Errorf("Depth(%s) = %d, want %d", letter, got, d)
		}
	}
}

// TestChildDigit: the Dewey component a child carries under each of its
// parents, as the address enumeration reads it.
func TestChildDigit(t *testing.T) {
	pf := NewPaperFig()
	o := pf.O
	digit := func(parent, child string) (dewey.Component, bool) {
		c := pf.Concept(child)
		for i, p := range o.Parents(c) {
			if p == pf.Concept(parent) {
				return o.parentDigits(c)[i], true
			}
		}
		return 0, false
	}
	if d, ok := digit("G", "J"); !ok || d != 2 {
		t.Errorf("digit(G,J) = %d,%v want 2,true", d, ok)
	}
	if d, ok := digit("F", "J"); !ok || d != 1 {
		t.Errorf("digit(F,J) = %d,%v want 1,true", d, ok)
	}
	if _, ok := digit("A", "J"); ok {
		t.Error("digit(A,J) should not exist")
	}
}

// TestIsAncestor: the ancestor walk NumPathAddresses counts over holds a
// concept itself and exactly its ancestors.
func TestIsAncestor(t *testing.T) {
	pf := NewPaperFig()
	o := pf.O
	isAncestor := func(a, c string) bool {
		s := o.getScratch()
		anc := o.ancestorsScratch(s, pf.Concept(c))
		found := slices.Contains(anc, pf.Concept(a))
		s.anc = anc[:0]
		o.scratch.Put(s)
		return found
	}
	if !isAncestor("A", "V") {
		t.Error("root must be ancestor of V")
	}
	if !isAncestor("F", "R") {
		t.Error("F must be ancestor of R via J")
	}
	if isAncestor("I", "R") {
		t.Error("I is not an ancestor of R")
	}
	if !isAncestor("K", "K") {
		t.Error("a concept is in its own ancestor walk")
	}
}

func TestTopoOrder(t *testing.T) {
	pf := NewPaperFig()
	o := pf.O
	pos := make(map[ConceptID]int)
	for i, c := range o.TopoOrder() {
		pos[c] = i
	}
	if len(pos) != o.NumConcepts() {
		t.Fatalf("topo order has %d entries, want %d", len(pos), o.NumConcepts())
	}
	for c := 0; c < o.NumConcepts(); c++ {
		for _, ch := range o.Children(ConceptID(c)) {
			if pos[ConceptID(c)] >= pos[ch] {
				t.Fatalf("topo order violated: %s before %s", o.Name(ch), o.Name(ConceptID(c)))
			}
		}
	}
}

func TestComputeStatsPaperFig(t *testing.T) {
	pf := NewPaperFig()
	s := pf.O.ComputeStats()
	if s.Concepts != 22 {
		t.Errorf("Concepts = %d, want 22", s.Concepts)
	}
	if s.Edges != 22 {
		t.Errorf("Edges = %d, want 22", s.Edges)
	}
	// Leaves: C, M, N, U, V, T, L = 7.
	if s.Leaves != 7 {
		t.Errorf("Leaves = %d, want 7", s.Leaves)
	}
	if s.MaxDepth != 6 {
		t.Errorf("MaxDepth = %d, want 6", s.MaxDepth)
	}
	// Total path addresses: every concept except J's descendants has 1;
	// J,K,O,R,S,U,V each have 2. Total = 22-7(+7*2)=15+14=29 paths over 22
	// concepts.
	if got := s.AvgPathsPerConcept * float64(s.Concepts); got < 28.9 || got > 29.1 {
		t.Errorf("total paths = %v, want 29", got)
	}
}

// randomDAG builds a random ontology: a random tree plus extra DAG edges.
func randomDAG(r *rand.Rand, n int, extraEdgeProb float64) *Ontology {
	b := NewBuilder("root")
	ids := []ConceptID{0}
	for i := 1; i < n; i++ {
		c := b.AddConcept("c")
		parent := ids[r.Intn(len(ids))]
		b.MustAddEdge(parent, c)
		ids = append(ids, c)
		// Possible extra parent from earlier nodes (keeps the graph acyclic
		// because edges always go old -> new).
		if r.Float64() < extraEdgeProb && len(ids) > 2 {
			p2 := ids[r.Intn(len(ids)-1)]
			if p2 != parent && p2 != c {
				_ = b.AddEdge(p2, c)
			}
		}
	}
	return b.MustFinalize()
}

func TestQuickPathAddressesResolveBack(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for iter := 0; iter < 30; iter++ {
		o := randomDAG(r, 2+r.Intn(80), 0.3)
		for c := ConceptID(0); int(c) < o.NumConcepts(); c++ {
			addrs := o.PathAddresses(c)
			if len(addrs) == 0 {
				t.Fatalf("concept %d has no path address", c)
			}
			if got := o.NumPathAddresses(c); got != len(addrs) {
				t.Fatalf("NumPathAddresses(%d) = %d, enumeration found %d", c, got, len(addrs))
			}
			minLen := 1 << 30
			for _, p := range addrs {
				back, ok := o.ResolveAddress(p)
				if !ok || back != c {
					t.Fatalf("address %v of concept %d resolves to %v,%v", p, c, back, ok)
				}
				if p.Len() < minLen {
					minLen = p.Len()
				}
			}
			if minLen != o.Depth(c) {
				t.Fatalf("concept %d: min address length %d != depth %d", c, minLen, o.Depth(c))
			}
		}
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for iter := 0; iter < 10; iter++ {
		o := randomDAG(r, 2+r.Intn(200), 0.25)
		var buf bytes.Buffer
		if _, err := o.WriteTo(&buf); err != nil {
			t.Fatalf("WriteTo: %v", err)
		}
		got, err := ReadFrom(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("ReadFrom: %v", err)
		}
		if got.NumConcepts() != o.NumConcepts() || got.NumEdges() != o.NumEdges() {
			t.Fatalf("round trip changed shape: %v vs %v", got, o)
		}
		for c := ConceptID(0); int(c) < o.NumConcepts(); c++ {
			if got.Name(c) != o.Name(c) || got.Depth(c) != o.Depth(c) {
				t.Fatalf("concept %d changed on round trip", c)
			}
			a, b := o.Children(c), got.Children(c)
			if len(a) != len(b) {
				t.Fatalf("children of %d changed", c)
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("children order of %d changed", c)
				}
			}
		}
	}
}

func TestSerializePreservesSynonyms(t *testing.T) {
	b := NewBuilder("root")
	c := b.AddConcept("myocardial infarction", "heart attack", "MI")
	b.MustAddEdge(0, c)
	o := b.MustFinalize()
	var buf bytes.Buffer
	if _, err := o.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	syn := got.Synonyms(c)
	if len(syn) != 2 || syn[0] != "heart attack" || syn[1] != "MI" {
		t.Fatalf("synonyms lost: %v", syn)
	}
}

func TestSerializeDetectsCorruption(t *testing.T) {
	pf := NewPaperFig()
	var buf bytes.Buffer
	if _, err := pf.O.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	// Flip a byte in the middle.
	corrupted := append([]byte(nil), data...)
	corrupted[len(corrupted)/2] ^= 0xFF
	if _, err := ReadFrom(bytes.NewReader(corrupted)); err == nil {
		t.Error("corrupted payload accepted")
	}

	// Truncate.
	if _, err := ReadFrom(bytes.NewReader(data[:len(data)-3])); err == nil {
		t.Error("truncated payload accepted")
	}

	// Bad magic.
	bad := append([]byte(nil), data...)
	bad[0] = 'X'
	if _, err := ReadFrom(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestPathAddressesLimit(t *testing.T) {
	pf := NewPaperFig()
	// V has 2 addresses; a limit of 1 must return exactly one valid one.
	got := pf.O.PathAddressesLimit(pf.Concept("V"), 1)
	if len(got) != 1 {
		t.Fatalf("limit ignored: %v", got)
	}
	back, ok := pf.O.ResolveAddress(got[0])
	if !ok || back != pf.Concept("V") {
		t.Fatalf("capped address invalid: %v", got[0])
	}
	// Limit larger than the count returns everything.
	if got := pf.O.PathAddressesLimit(pf.Concept("V"), 10); len(got) != 2 {
		t.Fatalf("over-limit changed count: %v", got)
	}
}

package distance

import (
	"math"
	"math/rand"
	"testing"

	"conceptrank/internal/ontology"
)

func paperFig(t *testing.T) *ontology.PaperFig {
	t.Helper()
	return ontology.NewPaperFig()
}

func TestConceptDistancePaperExamples(t *testing.T) {
	pf := paperFig(t)
	o := pf.O
	c := pf.Concept

	// Section 3.2: D(G,F) is not 2 but 5 because a valid path must pass
	// through a common ancestor (A).
	if got := ConceptDistance(o, c("G"), c("F")); got != 5 {
		t.Errorf("D(G,F) = %d, want 5", got)
	}
	if got := ConceptDistance(o, c("F"), c("G")); got != 5 {
		t.Errorf("D(F,G) = %d, want 5 (symmetry)", got)
	}

	// Example 1 distances: Ddc(d, I)=4 via I->G->J->K->R.
	if got := ConceptDistance(o, c("I"), c("R")); got != 4 {
		t.Errorf("D(I,R) = %d, want 4", got)
	}
	// U's parent is R.
	if got := ConceptDistance(o, c("U"), c("R")); got != 1 {
		t.Errorf("D(U,R) = %d, want 1", got)
	}
	// L to F goes up through H.
	if got := ConceptDistance(o, c("L"), c("F")); got != 2 {
		t.Errorf("D(L,F) = %d, want 2", got)
	}
	// Identity.
	if got := ConceptDistance(o, c("V"), c("V")); got != 0 {
		t.Errorf("D(V,V) = %d, want 0", got)
	}
	// Ancestor relationship: pure up path.
	if got := ConceptDistance(o, c("A"), c("V")); got != 6 {
		t.Errorf("D(A,V) = %d, want 6", got)
	}
	// Multi-parent shortcut: R to F can go up via J to F (R->K->J->F = 3).
	if got := ConceptDistance(o, c("R"), c("F")); got != 3 {
		t.Errorf("D(R,F) = %d, want 3", got)
	}
}

func TestUpSetPaperFig(t *testing.T) {
	pf := paperFig(t)
	u := ComputeUpSet(pf.O, pf.Concept("R"))
	want := map[string]int32{
		"R": 0, "K": 1, "J": 2, "G": 3, "F": 3, "E": 4, "D": 4, "B": 5, "A": 5,
	}
	if u.Len() != len(want) {
		t.Fatalf("up-set has %d entries, want %d: %v", u.Len(), len(want), u)
	}
	for letter, d := range want {
		if got := u.Dist(pf.Concept(letter)); got != d {
			t.Errorf("up(R,%s) = %d, want %d", letter, got, d)
		}
	}
	// Nodes must be sorted: ConceptDistanceSets merges by two pointers.
	for i := 1; i < len(u.Nodes); i++ {
		if u.Nodes[i-1] >= u.Nodes[i] {
			t.Fatalf("UpSet.Nodes not strictly ascending at %d: %v", i, u.Nodes)
		}
	}
	// Non-ancestor lookup.
	if got := u.Dist(pf.Concept("V")); got != Infinite {
		t.Errorf("up(R,V) = %d, want Infinite", got)
	}
}

func TestDocConceptAndDocQuery(t *testing.T) {
	pf := paperFig(t)
	bl := NewBL(pf.O, 0)
	d := pf.Concepts("F", "R", "T", "V")

	// Example 1: Ddq(d,q) = Ddc(d,I)+Ddc(d,L)+Ddc(d,U) = 4+2+1 = 7.
	if got := bl.DocConcept(d, pf.Concept("I")); got != 4 {
		t.Errorf("Ddc(d,I) = %d, want 4", got)
	}
	if got := bl.DocConcept(d, pf.Concept("L")); got != 2 {
		t.Errorf("Ddc(d,L) = %d, want 2", got)
	}
	if got := bl.DocConcept(d, pf.Concept("U")); got != 1 {
		t.Errorf("Ddc(d,U) = %d, want 1", got)
	}
	q := pf.Concepts("I", "L", "U")
	if got := bl.DocQuery(d, q); got != 7 {
		t.Errorf("Ddq(d,q) = %v, want 7", got)
	}
	// A concept contained in the document has distance 0.
	if got := bl.DocConcept(d, pf.Concept("T")); got != 0 {
		t.Errorf("Ddc(d,T) = %d, want 0", got)
	}
}

func TestDocDocSymmetryAndNormalization(t *testing.T) {
	pf := paperFig(t)
	bl := NewBL(pf.O, 0)
	d1 := pf.Concepts("F", "R", "T", "V")
	d2 := pf.Concepts("I", "L", "U")

	got := bl.DocDoc(d1, d2)
	if sym := bl.DocDoc(d2, d1); math.Abs(got-sym) > 1e-12 {
		t.Errorf("DocDoc not symmetric: %v vs %v", got, sym)
	}
	// Hand computation: direction d1->d2 (nearest concept of d2 for each of
	// F,R,T,V): F: D(F,U)=? F up to ... use known: D(F,I)? Let's rely on
	// DocConcept which is tested above.
	sum1 := 0.0
	for _, ci := range d1 {
		sum1 += float64(bl.DocConcept(d2, ci))
	}
	sum2 := 0.0
	for _, cj := range d2 {
		sum2 += float64(bl.DocConcept(d1, cj))
	}
	want := sum1/4 + sum2/3
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("DocDoc = %v, want %v", got, want)
	}
	// Identity: distance of a document to itself is 0.
	if self := bl.DocDoc(d1, d1); self != 0 {
		t.Errorf("DocDoc(d,d) = %v, want 0", self)
	}
}

func randomDAG(r *rand.Rand, n int, extraEdgeProb float64) *ontology.Ontology {
	b := ontology.NewBuilder("root")
	ids := []ontology.ConceptID{0}
	for i := 1; i < n; i++ {
		c := b.AddConcept("c")
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

// bruteValidPath computes the shortest valid (up* down*) path by explicit
// state-space BFS over (node, phase), an independent implementation to
// cross-check the up-map intersection method.
func bruteValidPath(o *ontology.Ontology, from, to ontology.ConceptID) int {
	type state struct {
		n    ontology.ConceptID
		down bool
	}
	dist := map[state]int{{from, false}: 0}
	frontier := []state{{from, false}}
	for len(frontier) > 0 {
		var next []state
		for _, s := range frontier {
			d := dist[s]
			if s.n == to {
				return d
			}
			if !s.down {
				for _, p := range o.Parents(s.n) {
					ns := state{p, false}
					if _, ok := dist[ns]; !ok {
						dist[ns] = d + 1
						next = append(next, ns)
					}
				}
			}
			for _, c := range o.Children(s.n) {
				ns := state{c, true}
				if _, ok := dist[ns]; !ok {
					dist[ns] = d + 1
					next = append(next, ns)
				}
			}
		}
		frontier = next
	}
	// Check whether `to` was reached in either phase.
	best := Infinite
	for s, d := range dist {
		if s.n == to && d < best {
			best = d
		}
	}
	return best
}

func TestQuickConceptDistanceAgainstStateBFS(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for iter := 0; iter < 25; iter++ {
		o := randomDAG(r, 3+r.Intn(60), 0.35)
		n := o.NumConcepts()
		for trial := 0; trial < 40; trial++ {
			ci := ontology.ConceptID(r.Intn(n))
			cj := ontology.ConceptID(r.Intn(n))
			want := bruteValidPath(o, ci, cj)
			got := ConceptDistance(o, ci, cj)
			if got != want {
				t.Fatalf("D(%d,%d) = %d, want %d (ontology %v)", ci, cj, got, want, o)
			}
		}
	}
}

func TestQuickDistanceProperties(t *testing.T) {
	r := rand.New(rand.NewSource(123))
	for iter := 0; iter < 10; iter++ {
		o := randomDAG(r, 3+r.Intn(50), 0.3)
		cache := NewCache(o, 0)
		n := o.NumConcepts()
		for trial := 0; trial < 50; trial++ {
			ci := ontology.ConceptID(r.Intn(n))
			cj := ontology.ConceptID(r.Intn(n))
			dij := cache.Distance(ci, cj)
			dji := cache.Distance(cj, ci)
			if dij != dji {
				t.Fatalf("symmetry violated: D(%d,%d)=%d D(%d,%d)=%d", ci, cj, dij, cj, ci, dji)
			}
			if (dij == 0) != (ci == cj) {
				t.Fatalf("identity violated for %d,%d: %d", ci, cj, dij)
			}
			// Single-rooted ontology: everything is connected through root.
			if dij >= Infinite {
				t.Fatalf("unreachable pair in single-rooted DAG: %d,%d", ci, cj)
			}
			// Distance bounded by going through the root.
			bound := o.Depth(ci) + o.Depth(cj)
			if dij > bound {
				t.Fatalf("D(%d,%d)=%d exceeds via-root bound %d", ci, cj, dij, bound)
			}
		}
	}
}

func TestCacheEviction(t *testing.T) {
	pf := paperFig(t)
	c := NewCache(pf.O, 2)
	// Fill beyond capacity; correctness must be unaffected.
	letters := []string{"A", "B", "D", "F", "G", "R", "V", "T"}
	for _, l1 := range letters {
		for _, l2 := range letters {
			d1 := c.Distance(pf.Concept(l1), pf.Concept(l2))
			d2 := ConceptDistance(pf.O, pf.Concept(l1), pf.Concept(l2))
			if d1 != d2 {
				t.Fatalf("cache with eviction returned %d for (%s,%s), want %d", d1, l1, l2, d2)
			}
		}
	}
	if len(c.sets) > 2 {
		t.Errorf("cache grew to %d entries, cap is 2", len(c.sets))
	}
}

func TestDocDocEmptyDocuments(t *testing.T) {
	pf := paperFig(t)
	bl := NewBL(pf.O, 0)
	if got := bl.DocDoc(nil, pf.Concepts("F")); got != 0 {
		// Direction 2 sums Ddc(nil, F) which is Infinite; empty docs are a
		// degenerate input. Direction 1 is empty. We accept the convention
		// that Ddc against an empty doc is Infinite.
		if got < float64(Infinite) {
			t.Errorf("DocDoc(empty, {F}) = %v; want 0 or Infinite-scale", got)
		}
	}
}

// A Prober that lives through the 2^32 epoch wraparound loses its origin
// marks to the wipe and must rebuild them, not read zeroed stamps.
func TestProberSurvivesEpochWraparound(t *testing.T) {
	pf := paperFig(t)
	g, f := pf.Concept("G"), pf.Concept("F")
	p := NewProber(pf.O, g)
	defer p.Close()
	if got := p.Distance(f); got != 5 {
		t.Fatalf("D(G,F) = %d, want 5", got)
	}
	p.s.gen = math.MaxUint32
	for i := 0; i < 3; i++ {
		if got := p.Distance(f); got != 5 {
			t.Fatalf("D(G,F) = %d after wraparound (call %d), want 5", got, i)
		}
	}
}

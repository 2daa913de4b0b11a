package distance

import (
	"testing"

	"conceptrank/internal/ontology"
)

// FuzzConceptDistanceDense cross-checks the two distance implementations the
// package now carries over randomized DAGs: the epoch-stamped dense BFS
// kernel (ConceptDistance, with its best-bound frontier cutoff) and the
// flat sorted-array closure intersection (ComputeUpSet +
// ConceptDistanceSets). Any divergence — including the Infinite sentinel —
// is a bug in one of them. A Prober held across a whole row must agree too:
// its origin marks have to survive the per-target epochs.
func FuzzConceptDistanceDense(f *testing.F) {
	f.Add([]byte{1, 0, 2, 1, 0, 3})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{7, 3, 1, 9, 4, 0, 2, 6, 5, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := len(data)/2 + 1
		if n > 40 {
			n = 40
		}
		// Deterministic DAG from the fuzz bytes: concept i gets primary
		// parent data[2(i-1)] mod i (guarantees single-rooted connectivity)
		// and sometimes a second parent, exercising multi-parent closures.
		b := ontology.NewBuilder("root")
		for i := 1; i < n; i++ {
			c := b.AddConcept("c")
			p := ontology.ConceptID(int(data[2*(i-1)]) % i)
			b.MustAddEdge(p, c)
			if x := int(data[2*(i-1)+1]); x%3 == 0 && i > 1 {
				if p2 := ontology.ConceptID(x % i); p2 != p {
					_ = b.AddEdge(p2, c)
				}
			}
		}
		o := b.MustFinalize()
		sets := make([]UpSet, n)
		for c := 0; c < n; c++ {
			sets[c] = ComputeUpSet(o, ontology.ConceptID(c))
		}
		for ci := 0; ci < n; ci++ {
			row := NewProber(o, ontology.ConceptID(ci))
			for cj := 0; cj < n; cj++ {
				want := ConceptDistanceSets(sets[ci], sets[cj])
				if got := row.Distance(ontology.ConceptID(cj)); int(got) != want {
					t.Fatalf("D(%d,%d): prober %d, set merge %d (n=%d)", ci, cj, got, want, n)
				}
			}
			row.Close()
			for cj := ci; cj < n; cj++ {
				want := ConceptDistanceSets(sets[ci], sets[cj])
				got := ConceptDistance(o, ontology.ConceptID(ci), ontology.ConceptID(cj))
				if got != want {
					t.Fatalf("D(%d,%d): dense kernel %d, set merge %d (n=%d)", ci, cj, got, want, n)
				}
				if rev := ConceptDistance(o, ontology.ConceptID(cj), ontology.ConceptID(ci)); rev != got {
					t.Fatalf("D(%d,%d)=%d not symmetric with D(%d,%d)=%d", ci, cj, got, cj, ci, rev)
				}
			}
		}
	})
}

package drc

import (
	"math/rand"
	"testing"

	"conceptrank/internal/distance"
	"conceptrank/internal/ontogen"
	"conceptrank/internal/ontology"
)

func benchSetup(b *testing.B, docSize, querySize int) (*ontology.Ontology, []ontology.ConceptID, []ontology.ConceptID) {
	b.Helper()
	o, err := ontogen.Generate(ontogen.Config{NumConcepts: 20_000, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(2))
	pick := func(n int) []ontology.ConceptID {
		seen := map[ontology.ConceptID]bool{}
		out := make([]ontology.ConceptID, 0, n)
		for len(out) < n {
			c := ontology.ConceptID(r.Intn(o.NumConcepts()))
			if !seen[c] {
				seen[c] = true
				out = append(out, c)
			}
		}
		return out
	}
	return o, pick(docSize), pick(querySize)
}

// BenchmarkDRCDocDoc measures one cold D-Radix construction: query-side
// preparation, build, tune and aggregate, with a fresh scratch.
func BenchmarkDRCDocDoc(b *testing.B) {
	o, d, q := benchSetup(b, 100, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PrepareCached(o, q, 0, nil).DocDocScratch(d, new(Scratch)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBLDocDoc is the pairwise baseline at the same size (Figure 6's
// other curve).
func BenchmarkBLDocDoc(b *testing.B) {
	o, d, q := benchSetup(b, 100, 100)
	bl := distance.NewBL(o, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = bl.DocDoc(d, q)
	}
}

// BenchmarkPreparedBuild isolates the per-document cost kNDS pays per DRC
// probe, with and without the shared address cache.
func BenchmarkPreparedBuild(b *testing.B) {
	o, d, q := benchSetup(b, 100, 100)
	b.Run("uncached", func(b *testing.B) {
		prep := PrepareCached(o, q, 0, nil)
		var s Scratch
		for i := 0; i < b.N; i++ {
			if _, err := prep.BuildScratch(d, &s); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		cache := NewAddressCache(o, 0, 0)
		prep := PrepareCached(o, q, 0, cache)
		var s Scratch
		for i := 0; i < b.N; i++ {
			if _, err := prep.BuildScratch(d, &s); err != nil {
				b.Fatal(err)
			}
		}
	})
}

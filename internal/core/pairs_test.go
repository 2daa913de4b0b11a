package core

import (
	"context"
	"math/rand"
	"testing"

	"conceptrank/internal/cache"
	"conceptrank/internal/corpus"
	"conceptrank/internal/distance"
	"conceptrank/internal/index"
	"conceptrank/internal/ontology"
)

// pairCollection builds a random corpus for the pair-join tests: like
// randomCollection but with a controllable share of empty documents,
// which must be excluded from the pair universe by every tier.
func pairCollection(r *rand.Rand, o *ontology.Ontology, docs, maxConcepts int, emptyProb float64) *corpus.Collection {
	c := corpus.New()
	for i := 0; i < docs; i++ {
		if r.Float64() < emptyProb {
			c.Add("empty", 0, nil)
			continue
		}
		n := 1 + r.Intn(maxConcepts)
		concepts := make([]ontology.ConceptID, n)
		for j := range concepts {
			concepts[j] = ontology.ConceptID(r.Intn(o.NumConcepts()))
		}
		c.Add("doc", 0, concepts)
	}
	return c
}

func assertPairsIdentical(t *testing.T, label string, want, got []PairResult) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: got %d pairs, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] { // bitwise: float64 ==, canonical IDs
			t.Fatalf("%s: rank %d: got {%d,%d %v}, want {%d,%d %v}",
				label, i, got[i].A, got[i].B, got[i].Distance, want[i].A, want[i].B, want[i].Distance)
		}
	}
}

// TestTopKPairsEquivalenceGrid is the tentpole's correctness harness:
// across random corpora (varying ontology size and shape, document
// count, annotation density, empty-document share), k, error threshold,
// and cache state (cold, cache-filling, cache-warm), the bounded join
// must return results bitwise identical to the naive O(n^2) DRC oracle.
// Well over 100 comparisons; run under -race in CI.
func TestTopKPairsEquivalenceGrid(t *testing.T) {
	r := rand.New(rand.NewSource(2625))
	ctx := context.Background()
	const kMax = 25
	cases := 0
	for ci := 0; ci < 9; ci++ {
		shape := []float64{0, 0.15, 0.4}[ci%3]
		o := randomDAGOntology(r, 10+r.Intn(110), shape)
		docs := ci // 0, 1, 2 documents: the degenerate corpora
		if ci >= 3 {
			docs = 5 + r.Intn(35)
		}
		coll := pairCollection(r, o, docs, 1+ci%8, 0.15)
		e := memEngine(o, coll)

		naive, nm, err := e.TopKPairsNaive(ctx, PairOptions{K: kMax})
		if err != nil {
			t.Fatalf("corpus %d: naive: %v", ci, err)
		}
		if nm.TotalPairs > 0 && nm.PairsExamined != nm.TotalPairs {
			t.Fatalf("corpus %d: naive examined %d of %d pairs", ci, nm.PairsExamined, nm.TotalPairs)
		}

		for _, k := range []int{1, 3, 10, kMax} {
			want := naive
			if len(want) > k {
				want = want[:k] // canonical prefix property of the total order
			}
			for _, eps := range []float64{0, 0.5, 1} {
				opts := PairOptions{K: k, ErrorThreshold: eps}
				cold, cm, err := e.TopKPairs(ctx, opts)
				if err != nil {
					t.Fatalf("corpus %d k=%d eps=%v: cold: %v", ci, k, eps, err)
				}
				assertPairsIdentical(t, "cold", want, cold)
				if cm.TotalPairs != nm.TotalPairs {
					t.Fatalf("corpus %d: bounded universe %d != naive %d", ci, cm.TotalPairs, nm.TotalPairs)
				}
				cases++

				ce := cachedView(e, cache.New(cache.Config{}))
				fill, fm, err := ce.TopKPairs(ctx, opts)
				if err != nil {
					t.Fatalf("corpus %d k=%d eps=%v: cache-fill: %v", ci, k, eps, err)
				}
				assertPairsIdentical(t, "cache-fill", want, fill)
				warm, wm, err := ce.TopKPairs(ctx, opts)
				if err != nil {
					t.Fatalf("corpus %d k=%d eps=%v: warm: %v", ci, k, eps, err)
				}
				assertPairsIdentical(t, "warm", want, warm)
				if fm.CacheMisses == 0 && nm.TotalPairs > 0 {
					t.Fatalf("corpus %d: cache-fill run recorded no misses", ci)
				}
				if wm.CacheHits == 0 && nm.TotalPairs > 0 {
					t.Fatalf("corpus %d: warm run recorded no hits", ci)
				}
				cases += 2
			}
		}
	}
	if cases < 100 {
		t.Fatalf("grid ran %d equivalence cases, want >= 100", cases)
	}
	t.Logf("grid ran %d equivalence cases", cases)
}

// TestTopKPairsNaiveAgainstBL cross-checks the DRC-backed oracle itself
// against the independent brute-force BL calculator on one corpus, so
// the grid is not two implementations agreeing on a shared mistake.
func TestTopKPairsNaiveAgainstBL(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	o := randomDAGOntology(r, 60, 0.25)
	coll := pairCollection(r, o, 25, 5, 0.1)
	e := memEngine(o, coll)
	res, _, err := e.TopKPairsNaive(context.Background(), PairOptions{K: 15})
	if err != nil {
		t.Fatal(err)
	}
	bl := distance.NewBL(o, 0)
	for i, p := range res {
		want := bl.DocDoc(coll.Doc(p.A).Concepts, coll.Doc(p.B).Concepts)
		if p.Distance != want {
			t.Fatalf("rank %d pair (%d,%d): naive %v, BL %v", i, p.A, p.B, p.Distance, want)
		}
	}
}

// TestTopKPairsPrunes verifies the join actually bounds work: on a
// corpus large enough for the threshold to bite, the bounded join must
// examine strictly fewer pairs than the universe (the crbench pairs
// experiment reports the measured fraction; this is the floor).
func TestTopKPairsPrunes(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	o := randomDAGOntology(r, 150, 0.2)
	coll := pairCollection(r, o, 120, 4, 0)
	e := memEngine(o, coll)
	_, m, err := e.TopKPairs(context.Background(), PairOptions{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if m.TotalPairs == 0 {
		t.Fatal("empty pair universe")
	}
	if m.PairsExamined >= m.TotalPairs {
		t.Fatalf("bounded join examined %d of %d pairs: no pruning", m.PairsExamined, m.TotalPairs)
	}
	if m.PairsPruned == 0 {
		t.Fatal("bounded join pruned nothing")
	}
	t.Logf("examined %d / %d pairs (%.1f%%), pruned %d, levels %d",
		m.PairsExamined, m.TotalPairs, 100*m.EvaluatedFraction(), m.PairsPruned, m.Levels)
}

// TestTopKPairsWarmCacheBitwise: a warm shared cache changes the seed
// source, never the answer — and the warm run's lookups must actually
// hit. (The grid covers this per cell; this test is the focused,
// larger-corpus version with an RDS query pre-warming shared entries.)
func TestTopKPairsWarmCacheBitwise(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	o := randomDAGOntology(r, 100, 0.3)
	coll := pairCollection(r, o, 60, 6, 0.05)
	e := memEngine(o, coll)
	ctx := context.Background()

	cold, _, err := e.TopKPairs(ctx, PairOptions{K: 12})
	if err != nil {
		t.Fatal(err)
	}
	e.EnableCache(cache.New(cache.Config{}))
	// Pre-warm part of the cache through the RDS path: seed vectors are
	// shared between query seeding and the pair join.
	if _, _, err := e.RDSContext(context.Background(), []ontology.ConceptID{1, 5, 9}, Options{K: 5}); err != nil {
		t.Fatal(err)
	}
	fill, _, err := e.TopKPairs(ctx, PairOptions{K: 12})
	if err != nil {
		t.Fatal(err)
	}
	warm, wm, err := e.TopKPairs(ctx, PairOptions{K: 12})
	if err != nil {
		t.Fatal(err)
	}
	assertPairsIdentical(t, "cache-fill vs cold", cold, fill)
	assertPairsIdentical(t, "warm vs cold", cold, warm)
	if wm.CacheHits == 0 {
		t.Fatal("warm run recorded no cache hits")
	}
	if wm.CacheMisses != 0 {
		t.Fatalf("warm run recorded %d misses, want 0", wm.CacheMisses)
	}
}

// TestTopKPairsCacheInvalidation: after AddDocument grows the corpus,
// cached seed vectors are stale by generation; the join must refresh
// them incrementally and return exactly what a fresh engine over the
// grown corpus returns cold.
func TestTopKPairsCacheInvalidation(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	o := randomDAGOntology(r, 80, 0.2)
	ctx := context.Background()

	dyn := index.NewDynamic()
	e := NewEngineDynamic(o, dyn, dyn, dyn.NumDocs, nil)
	e.EnableCache(cache.New(cache.Config{}))

	docSet := func(n int) [][]ontology.ConceptID {
		sets := make([][]ontology.ConceptID, n)
		for i := range sets {
			m := 1 + r.Intn(5)
			cs := make([]ontology.ConceptID, m)
			for j := range cs {
				cs[j] = ontology.ConceptID(r.Intn(o.NumConcepts()))
			}
			sets[i] = cs
		}
		return sets
	}
	first := docSet(30)
	for _, cs := range first {
		dyn.AddDocument("doc", cs)
	}
	if _, _, err := e.TopKPairs(ctx, PairOptions{K: 8}); err != nil {
		t.Fatal(err)
	}

	// Grow the corpus: every cached vector is now one generation behind.
	second := docSet(15)
	for _, cs := range second {
		dyn.AddDocument("doc", cs)
	}
	stale, sm, err := e.TopKPairs(ctx, PairOptions{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	if sm.CacheHits == 0 {
		t.Fatal("grown-corpus run refreshed no cached vectors (expected generation-stale hits)")
	}

	// Reference: a fresh engine over the same grown corpus, no cache.
	coll := corpus.New()
	for _, cs := range append(append([][]ontology.ConceptID{}, first...), second...) {
		coll.Add("doc", 0, cs)
	}
	fresh, _, err := memEngine(o, coll).TopKPairs(ctx, PairOptions{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	assertPairsIdentical(t, "stale-refresh vs fresh", fresh, stale)
}

// TestTopKPairsContextCancellation: a cancelled context surfaces as an
// error at a level boundary, with no results.
func TestTopKPairsContextCancellation(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	o := randomDAGOntology(r, 60, 0.2)
	coll := pairCollection(r, o, 40, 5, 0)
	e := memEngine(o, coll)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if res, _, err := e.TopKPairs(ctx, PairOptions{K: 5}); err != context.Canceled {
		t.Fatalf("err = %v (res %v), want context.Canceled", err, res)
	}
}

// FuzzPairMerge holds the pair merger to its contract under adversarial
// offer sequences: duplicate distances, (a,b) vs (b,a) orientation, and
// self-pairs. The retained top-k must equal the reference "canonicalize,
// drop self-pairs, sort by (distance, A, B), take k" for any offer order
// — the invariant the block-partitioned join's interleaving-independence
// rests on. Mirrors FuzzCollectorTieBreak.
func FuzzPairMerge(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(20), uint8(3))
	f.Add(int64(2), uint8(1), uint8(2), uint8(1))
	f.Add(int64(3), uint8(8), uint8(60), uint8(2))
	f.Add(int64(4), uint8(0), uint8(9), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, k, n, distLevels uint8) {
		r := rand.New(rand.NewSource(seed))
		if distLevels == 0 {
			distLevels = 1
		}
		docs := int(n%32) + 2
		mg := NewPairMerger(int(k))
		var ref []PairResult
		// Every unordered pair (including self-pairs) once, in shuffled
		// order, random orientation, heavily colliding distances.
		type ab struct{ a, b int }
		var all []ab
		for a := 0; a < docs; a++ {
			for b := a; b < docs; b++ {
				all = append(all, ab{a, b})
			}
		}
		r.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
		for _, p := range all {
			d := float64(r.Intn(int(distLevels))) / float64(distLevels)
			a, b := corpus.DocID(p.a), corpus.DocID(p.b)
			if r.Intn(2) == 0 {
				a, b = b, a // orientation must not matter
			}
			mg.Offer(PairResult{A: a, B: b, Distance: d})
			if p.a != p.b { // self-pairs must be ignored
				ref = append(ref, PairResult{A: corpus.DocID(p.a), B: corpus.DocID(p.b), Distance: d})
			}
		}
		for i := 1; i < len(ref); i++ { // insertion sort by canonical order
			for j := i; j > 0 && pairWorse(ref[j-1], ref[j]); j-- {
				ref[j-1], ref[j] = ref[j], ref[j-1]
			}
		}
		if len(ref) > int(k) {
			ref = ref[:k]
		}
		got := mg.Sorted()
		if len(got) != len(ref) {
			t.Fatalf("kept %d pairs, want %d", len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("rank %d: got {%d,%d %v}, want {%d,%d %v}",
					i, got[i].A, got[i].B, got[i].Distance, ref[i].A, ref[i].B, ref[i].Distance)
			}
		}
		for _, p := range got {
			if p.A >= p.B {
				t.Fatalf("retained pair (%d,%d) is not canonical", p.A, p.B)
			}
		}
	})
}

// BenchmarkTopKPairs measures the three join tiers on one mid-size corpus.
// CI runs it with a tiny -benchtime as a smoke test; `crbench -exp pairs`
// records the full comparison in EXPERIMENTS.md.
func BenchmarkTopKPairs(b *testing.B) {
	r := rand.New(rand.NewSource(9))
	o := randomDAGOntology(r, 120, 0.2)
	coll := pairCollection(r, o, 150, 6, 0.1)
	e := memEngine(o, coll)
	ctx := context.Background()
	opts := PairOptions{K: 10}

	b.Run("Bounded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := e.TopKPairs(ctx, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("BoundedWarm", func(b *testing.B) {
		ce := cachedView(e, cache.New(cache.Config{}))
		if _, _, err := ce.TopKPairs(ctx, opts); err != nil {
			b.Fatal(err) // fill pass, outside the timed loop
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := ce.TopKPairs(ctx, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := e.TopKPairsNaive(ctx, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

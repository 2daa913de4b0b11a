package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

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

// pairWorkerGrid is the PairOptions.Workers axis of the equivalence
// grid: 1 is the serial join, the rest split it into document ranges
// (3 leaves uneven ranges, 8 more ranges than some corpora have docs).
var pairWorkerGrid = []int{1, 2, 3, 4, 8}

// TestTopKPairsEquivalenceGrid is the pair join's correctness harness:
// across random corpora (varying ontology size and shape, document
// count, annotation density, empty-document share), k, error threshold,
// Workers, and cache state (cold, cache-filling, cache-warm), the
// bounded join must return results bitwise identical to the naive O(n^2)
// DRC oracle. At Workers 1 every counter must equal the Workers 0 run
// (both are the serial join); above 1 the range-pair tasks must cover
// the whole pair universe exactly once. Well over 100 comparisons; run
// under -race at several scheduler widths in CI.
func TestTopKPairsEquivalenceGrid(t *testing.T) {
	type corpusCase struct {
		coll *corpus.Collection
		o    *ontology.Ontology
		ks   []int
		epss []float64
	}
	// Two corpus sets, one subtest each: "mixed" covers 0-39 documents at
	// four k and three ε; "sparse" covers up to 60 documents with a tenth
	// of them empty, at k 2 and 10.
	var mixed, sparse []corpusCase
	r := rand.New(rand.NewSource(2625))
	for ci := 0; ci < 9; ci++ {
		shape := []float64{0, 0.15, 0.4}[ci%3]
		o := randomDAGOntology(r, 10+r.Intn(110), shape)
		docs := ci // 0, 1, 2 documents: the degenerate corpora
		if ci >= 3 {
			docs = 5 + r.Intn(35)
		}
		mixed = append(mixed, corpusCase{pairCollection(r, o, docs, 1+ci%8, 0.15), o,
			[]int{1, 3, 10, 25}, []float64{0, 0.5, 1}})
	}
	r = rand.New(rand.NewSource(1001))
	for ci := 0; ci < 5; ci++ {
		o := randomDAGOntology(r, 20+r.Intn(100), []float64{0, 0.2, 0.4}[ci%3])
		docs := []int{0, 3, 17, 30 + r.Intn(30), 25}[ci]
		sparse = append(sparse, corpusCase{pairCollection(r, o, docs, 1+r.Intn(6), 0.1), o,
			[]int{2, 10}, []float64{0}})
	}

	ctx := context.Background()
	cases := 0
	runCorpora := func(t *testing.T, corpora []corpusCase) {
		for ci, cc := range corpora {
			e := memEngine(cc.o, cc.coll)
			naive, nm, err := e.TopKPairsNaive(ctx, PairOptions{K: 25})
			if err != nil {
				t.Fatalf("corpus %d: naive: %v", ci, err)
			}
			if nm.TotalPairs > 0 && nm.PairsExamined != nm.TotalPairs {
				t.Fatalf("corpus %d: naive examined %d of %d pairs", ci, nm.PairsExamined, nm.TotalPairs)
			}

			for _, k := range cc.ks {
				want := naive
				if len(want) > k {
					want = want[:k] // canonical prefix property of the total order
				}
				for _, eps := range cc.epss {
					_, serial, err := e.TopKPairs(ctx, PairOptions{K: k, ErrorThreshold: eps})
					if err != nil {
						t.Fatalf("corpus %d k=%d eps=%v: serial: %v", ci, k, eps, err)
					}
					for _, w := range pairWorkerGrid {
						label := fmt.Sprintf("corpus %d k=%d eps=%v workers=%d", ci, k, eps, w)
						opts := PairOptions{K: k, ErrorThreshold: eps, Workers: w}
						cold, cm, err := e.TopKPairs(ctx, opts)
						if err != nil {
							t.Fatalf("%s: cold: %v", label, err)
						}
						assertPairsIdentical(t, label+" cold", want, cold)
						if cm.TotalPairs != nm.TotalPairs {
							t.Fatalf("%s: bounded universe %d != naive %d", label, cm.TotalPairs, nm.TotalPairs)
						}
						if parts := min(w, cc.coll.NumDocs()); parts > 1 && cm.Blocks != parts*(parts+1)/2 {
							t.Fatalf("%s: ran %d range-pair tasks, want %d", label, cm.Blocks, parts*(parts+1)/2)
						}
						// Every examined pair was discovered first, by the one task
						// whose range pair holds it, so the tasks' counts sum to a
						// value between the examined pairs and the universe.
						if cm.PairsDiscovered < cm.PairsExamined || cm.PairsDiscovered > cm.TotalPairs {
							t.Fatalf("%s: %d pairs discovered, want between the %d examined and the %d in the universe",
								label, cm.PairsDiscovered, cm.PairsExamined, cm.TotalPairs)
						}
						if w == 1 && pairCounters(cm) != pairCounters(serial) {
							t.Fatalf("%s: counters %s, Workers 0 %s", label, pairCounters(cm), pairCounters(serial))
						}
						cases++

						ce := cachedView(e, cache.New(cache.Config{}))
						fill, fm, err := ce.TopKPairs(ctx, opts)
						if err != nil {
							t.Fatalf("%s: cache-fill: %v", label, err)
						}
						assertPairsIdentical(t, label+" cache-fill", want, fill)
						warm, wm, err := ce.TopKPairs(ctx, opts)
						if err != nil {
							t.Fatalf("%s: warm: %v", label, err)
						}
						assertPairsIdentical(t, label+" warm", want, warm)
						if fm.CacheMisses == 0 && nm.TotalPairs > 0 {
							t.Fatalf("%s: cache-fill run recorded no misses", label)
						}
						if wm.CacheHits == 0 && nm.TotalPairs > 0 {
							t.Fatalf("%s: warm run recorded no hits", label)
						}
						if wm.CacheMisses != 0 {
							t.Fatalf("%s: warm run recorded %d misses, want 0", label, wm.CacheMisses)
						}
						cases += 2
					}
				}
			}
		}
	}
	t.Run("mixed", func(t *testing.T) { runCorpora(t, mixed) })
	t.Run("sparse", func(t *testing.T) { runCorpora(t, sparse) })
	if cases < 100 {
		t.Fatalf("grid ran %d equivalence cases, want >= 100", cases)
	}
	t.Logf("grid ran %d equivalence cases", cases)
}

// pairCounters renders every deterministic PairMetrics counter (all but
// the times) for comparison.
func pairCounters(m *PairMetrics) string {
	return fmt.Sprintf("%d %d %d %d %d %d %d %d %d %d", m.TotalPairs, m.PairsDiscovered,
		m.PairsExamined, m.PairsPruned, m.Levels, m.Blocks, m.CancelledBlocks,
		m.CacheHits, m.CacheMisses, m.ResultCount)
}

// TestTopKPairsSerialCounters pins the serial join's counters (Workers 1),
// cold, cache-filling and warm, to fixed values: the range windows every
// task reads through must not change what the serial join reveals,
// examines or prunes. Fields: TotalPairs, PairsDiscovered,
// PairsExamined, PairsPruned, Levels, Blocks, CancelledBlocks,
// CacheHits, CacheMisses, ResultCount.
func TestTopKPairsSerialCounters(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		seed       int64
		concepts   int
		shape      float64
		docs, maxC int
		empty      float64
		vocab      int       // seed vectors resolved: the fill's misses, the warm run's hits
		want       [4]string // k=3 at eps 0 and 0.5, then k=10 at eps 0 and 0.5
	}{
		{99, 150, 0.2, 120, 4, 0, 124, [4]string{
			"7140 4364 3 4361 5 1 1 0 0 3", "7140 4364 3 4361 5 1 1 0 0 3",
			"7140 5298 10 5288 6 1 1 0 0 10", "7140 5298 10 5288 6 1 1 0 0 10"}},
		{7, 100, 0.3, 60, 6, 0.05, 92, [4]string{
			"1653 1556 3 1553 6 1 1 0 0 3", "1653 1556 4 1552 6 1 1 0 0 3",
			"1653 1650 10 1640 9 1 1 0 0 10", "1653 1619 10 1609 7 1 1 0 0 10"}},
		{1001, 80, 0.4, 45, 5, 0.1, 61, [4]string{
			"630 583 3 580 5 1 1 0 0 3", "630 583 3 580 5 1 1 0 0 3",
			"630 628 10 618 7 1 1 0 0 10", "630 628 10 618 7 1 1 0 0 10"}},
	} {
		r := rand.New(rand.NewSource(tc.seed))
		o := randomDAGOntology(r, tc.concepts, tc.shape)
		e := memEngine(o, pairCollection(r, o, tc.docs, tc.maxC, tc.empty))
		for _, c := range []struct {
			k    int
			eps  float64
			want string
		}{{3, 0, tc.want[0]}, {3, 0.5, tc.want[1]}, {10, 0, tc.want[2]}, {10, 0.5, tc.want[3]}} {
			opts := PairOptions{K: c.k, ErrorThreshold: c.eps, Workers: 1}
			ce := cachedView(e, cache.New(cache.Config{}))
			for tier, eng := range []*Engine{e, ce, ce} {
				_, m, err := eng.TopKPairs(ctx, opts)
				if err != nil {
					t.Fatal(err)
				}
				want := *m
				want.CacheHits, want.CacheMisses = 0, 0
				if got := pairCounters(&want); got != c.want {
					t.Fatalf("seed %d k=%d eps=%v tier %d: counters %s, want %s", tc.seed, c.k, c.eps, tier, got, c.want)
				}
				wantHits, wantMisses := []int{0, 0, tc.vocab}[tier], []int{0, tc.vocab, 0}[tier]
				if m.CacheHits != wantHits || m.CacheMisses != wantMisses {
					t.Fatalf("seed %d k=%d eps=%v tier %d: cache %d hits %d misses, want %d and %d",
						tc.seed, c.k, c.eps, tier, m.CacheHits, m.CacheMisses, wantHits, wantMisses)
				}
			}
		}
	}
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

// TestTopKPairsContextCancellation: a cancelled or expired context
// surfaces as ctx.Err() at a level boundary, with no results — serially
// and with four workers, whose range-pair tasks must all have returned
// (no goroutine outlives the call).
func TestTopKPairsContextCancellation(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	o := randomDAGOntology(r, 60, 0.2)
	coll := pairCollection(r, o, 40, 5, 0)
	e := memEngine(o, coll)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	before := runtime.NumGoroutine()
	for _, ctx := range []context.Context{cancelled, expired} {
		for _, w := range []int{0, 4} {
			res, _, err := e.TopKPairs(ctx, PairOptions{K: 5, Workers: w})
			if err != ctx.Err() || res != nil {
				t.Fatalf("workers=%d: err = %v (res %v), want %v", w, err, res, ctx.Err())
			}
		}
	}
	// A task goroutine may still be returning after Wait saw it done (and
	// another test's may still be winding down), so allow the count a
	// moment to settle, as leak checkers do; a leaked task never does.
	after := runtime.NumGoroutine()
	for end := time.Now().Add(2 * time.Second); after > before && time.Now().Before(end); after = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	if after > before {
		t.Fatalf("%d goroutines after the cancelled joins, %d before", after, before)
	}
	if _, _, err := e.TopKPairs(context.Background(), PairOptions{Workers: -1}); !errors.Is(err, ErrNegativeWorkers) {
		t.Fatalf("Workers -1: %v, want ErrNegativeWorkers", err)
	}
}

// TestMergePairMetricsCoversAllFields fails when a field is added to
// PairMetrics without a merge rule in PairMetrics.add — the pair
// analogue of the sharded engine's TestMergeMetricsCoversAllFields, so
// the ranged join cannot silently drop a task's counter.
func TestMergePairMetricsCoversAllFields(t *testing.T) {
	callerOwned := map[string]bool{
		"TotalTime":   true, // wall-clock of the join, not a task sum
		"ResultCount": true, // merged result count, set after sorted
	}

	var src, dst PairMetrics
	sv := reflect.ValueOf(&src).Elem()
	for i := 0; i < sv.NumField(); i++ {
		f := sv.Field(i)
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(i) + 1)
		case reflect.Float64:
			f.SetFloat(float64(i) + 0.5)
		default:
			t.Fatalf("PairMetrics field %s has kind %v: teach this test how to populate it",
				sv.Type().Field(i).Name, f.Kind())
		}
	}

	dst.add(&src)

	dv := reflect.ValueOf(dst)
	for i := 0; i < dv.NumField(); i++ {
		name := dv.Type().Field(i).Name
		if callerOwned[name] {
			continue
		}
		if dv.Field(i).IsZero() {
			t.Errorf("PairMetrics.%s is not aggregated by PairMetrics.add; add a merge rule "+
				"(or, if it is caller-owned like TotalTime, exempt it here with a justification)", name)
		}
	}

	// Second merge: additive fields keep summing; Levels stays a max.
	shallower := src
	shallower.Levels = 1
	dst.add(&shallower)
	if dst.PairsExamined != 2*src.PairsExamined || dst.TotalPairs != 2*src.TotalPairs {
		t.Errorf("pair counters after two merges = %d/%d, want %d/%d",
			dst.PairsExamined, dst.TotalPairs, 2*src.PairsExamined, 2*src.TotalPairs)
	}
	if dst.SeedTime != 2*src.SeedTime {
		t.Errorf("SeedTime after two merges = %v, want %v", dst.SeedTime, 2*src.SeedTime)
	}
	if dst.Levels != src.Levels {
		t.Errorf("Levels after merging a shallower value = %d, want max %d", dst.Levels, src.Levels)
	}
}

// FuzzPairMerge holds the pair merger to its contract under adversarial
// offer sequences: duplicate distances, (a,b) vs (b,a) orientation, and
// self-pairs. The retained top-k must equal the reference "canonicalize,
// drop self-pairs, sort by (distance, A, B), take k" for any offer order
// — the invariant the ranged join's interleaving-independence rests on.
// Mirrors FuzzCollectorTieBreak.
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
		mg := newPairMerger(int(k))
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
			mg.offer(PairResult{A: a, B: b, Distance: d})
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
		got := mg.sorted()
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

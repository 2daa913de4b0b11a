package shard

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"conceptrank/internal/cache"
	"conceptrank/internal/core"
	"conceptrank/internal/corpus"
	"conceptrank/internal/ontology"
)

// pairCollection mirrors the core package's helper: a random corpus with
// a share of empty documents, which every tier must exclude.
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

func assertPairsIdentical(t *testing.T, label string, want, got []core.PairResult) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: got %d pairs, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: rank %d: got {%d,%d %v}, want {%d,%d %v}",
				label, i, got[i].A, got[i].B, got[i].Distance, want[i].A, want[i].B, want[i].Distance)
		}
	}
}

// TestShardedTopKPairsEquivalenceGrid pins the block-partitioned join to
// the single-engine join bitwise across corpora, shard counts, placement
// policies, worker widths, k, and cache state — 100+ comparisons, run
// under -race in CI. (The core grid pins single-engine to the naive
// oracle, so transitively all three tiers agree.)
func TestShardedTopKPairsEquivalenceGrid(t *testing.T) {
	r := rand.New(rand.NewSource(1001))
	ctx := context.Background()
	cases := 0
	for ci := 0; ci < 5; ci++ {
		o := randomDAGOntology(r, 20+r.Intn(100), []float64{0, 0.2, 0.4}[ci%3])
		docs := []int{0, 3, 17, 30 + r.Intn(30), 25}[ci]
		coll := pairCollection(r, o, docs, 1+r.Intn(6), 0.1)
		single := singleEngine(o, coll)

		want := map[int][]core.PairResult{}
		for _, k := range []int{2, 10} {
			res, _, err := single.TopKPairs(ctx, core.PairOptions{K: k})
			if err != nil {
				t.Fatalf("corpus %d k=%d: single: %v", ci, k, err)
			}
			want[k] = res
		}

		for si, shards := range []int{1, 2, 3, 5, 8} {
			placement := RoundRobin
			if si%2 == 1 {
				placement = SizeBalanced
			}
			se, err := New(o, coll, Config{Shards: shards, Placement: placement})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				for _, k := range []int{2, 10} {
					got, gm, err := se.TopKPairs(ctx, core.PairOptions{K: k, Workers: workers})
					if err != nil {
						t.Fatalf("corpus %d shards=%d workers=%d k=%d: %v", ci, shards, workers, k, err)
					}
					assertPairsIdentical(t, "sharded vs single", want[k], got)
					if wantBlocks := shards * (shards + 1) / 2; gm.Blocks != wantBlocks {
						t.Fatalf("corpus %d shards=%d: ran %d block tasks, want %d", ci, shards, gm.Blocks, wantBlocks)
					}
					cases++
				}
			}
		}
	}
	if cases < 100 {
		t.Fatalf("grid ran %d equivalence cases, want >= 100", cases)
	}
	t.Logf("grid ran %d equivalence cases", cases)
}

// TestShardedTopKPairsSharedCache: shards sharing one cache (each under
// its own corpus ID) must stay bitwise identical to the single engine,
// cold and warm, and the task pair universes must partition the global
// one.
func TestShardedTopKPairsSharedCache(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	o := randomDAGOntology(r, 90, 0.25)
	coll := pairCollection(r, o, 55, 5, 0.1)
	ctx := context.Background()

	single := singleEngine(o, coll)
	want, wm, err := single.TopKPairs(ctx, core.PairOptions{K: 12})
	if err != nil {
		t.Fatal(err)
	}

	se, err := New(o, coll, Config{Shards: 4, Placement: RoundRobin})
	if err != nil {
		t.Fatal(err)
	}
	cc := cache.New(cache.Config{})
	fill, fm, err := se.TopKPairs(ctx, core.PairOptions{K: 12, Cache: cc})
	if err != nil {
		t.Fatal(err)
	}
	warm, hm, err := se.TopKPairs(ctx, core.PairOptions{K: 12, Cache: cc})
	if err != nil {
		t.Fatal(err)
	}
	assertPairsIdentical(t, "sharded cache-fill", want, fill)
	assertPairsIdentical(t, "sharded warm", want, warm)
	if fm.TotalPairs != wm.TotalPairs {
		t.Fatalf("task universes sum to %d pairs, single engine has %d", fm.TotalPairs, wm.TotalPairs)
	}
	if fm.CacheMisses == 0 || hm.CacheHits == 0 {
		t.Fatalf("cache counters: fill misses %d, warm hits %d — expected both non-zero",
			fm.CacheMisses, hm.CacheHits)
	}
	if hm.CacheMisses != 0 {
		t.Fatalf("warm run recorded %d misses, want 0", hm.CacheMisses)
	}
}

// TestMergePairMetricsCoversAllFields fails when a field is added to
// core.PairMetrics without a merge rule in PairMetrics.Add — the pair
// analogue of TestMergeMetricsCoversAllFields, so the sharded pair join
// cannot silently drop a counter.
func TestMergePairMetricsCoversAllFields(t *testing.T) {
	callerOwned := map[string]bool{
		"TotalTime":   true, // wall-clock of the fan-out, not a task sum
		"ResultCount": true, // merged result count, set after Sorted
	}

	var src, dst core.PairMetrics
	sv := reflect.ValueOf(&src).Elem()
	for i := 0; i < sv.NumField(); i++ {
		f := sv.Field(i)
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(i) + 1)
		case reflect.Float64:
			f.SetFloat(float64(i) + 0.5)
		default:
			t.Fatalf("core.PairMetrics field %s has kind %v: teach this test how to populate it",
				sv.Type().Field(i).Name, f.Kind())
		}
	}

	dst.Add(&src)

	dv := reflect.ValueOf(dst)
	for i := 0; i < dv.NumField(); i++ {
		name := dv.Type().Field(i).Name
		if callerOwned[name] {
			continue
		}
		if dv.Field(i).IsZero() {
			t.Errorf("core.PairMetrics.%s is not aggregated by PairMetrics.Add; add a merge rule "+
				"(or, if it is caller-owned like TotalTime, exempt it here with a justification)", name)
		}
	}

	// Second merge: additive fields keep summing; Levels stays a max.
	shallower := src
	shallower.Levels = 1
	dst.Add(&shallower)
	if dst.PairsExamined != 2*src.PairsExamined || dst.TotalPairs != 2*src.TotalPairs {
		t.Errorf("pair counters after two merges = %d/%d, want %d/%d",
			dst.PairsExamined, dst.TotalPairs, 2*src.PairsExamined, 2*src.TotalPairs)
	}
	if dst.SeedTime != 2*src.SeedTime {
		t.Errorf("SeedTime after two merges = %v, want %v", dst.SeedTime, time.Duration(2*src.SeedTime))
	}
	if dst.Levels != src.Levels {
		t.Errorf("Levels after merging a shallower value = %d, want max %d", dst.Levels, src.Levels)
	}
}

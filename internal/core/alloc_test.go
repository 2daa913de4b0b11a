package core

import (
	"context"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"conceptrank/internal/cache"
	"conceptrank/internal/ontology"
)

// Steady-state allocation guards: a warm engine recycles its query
// arena, DRC scratch and radix workspace, so repeated queries must carve
// (almost) all of their mutable state from retained memory. The bound is
// a regression tripwire for the per-query constant — plan-stage objects
// (executor, prepared query entries, metrics, collector) still allocate,
// but per-candidate and per-probe state must not.

func warmQueryAllocs(t *testing.T, sds bool, cc *cache.Cache) (allocs float64, bytes uint64) {
	t.Helper()
	r := rand.New(rand.NewSource(99))
	o := randomDAGOntology(r, 300, 0.3)
	coll := randomCollection(r, o, 400, 8)
	e := memEngine(o, coll)
	if cc != nil {
		e.EnableCache(cc)
	}
	var q []ontology.ConceptID
	for _, d := range coll.Docs() {
		if len(d.Concepts) >= 3 {
			q = d.Concepts[:3]
			break
		}
	}
	if q == nil {
		t.Skip("no document with enough concepts")
	}
	opts := Options{K: 10, ErrorThreshold: 0.5}
	run := func() {
		var res []Result
		var err error
		if sds {
			res, _, err = e.SDSContext(context.Background(), q, opts)
		} else {
			res, _, err = e.RDSContext(context.Background(), q, opts)
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(res) == 0 {
			t.Fatal("no results")
		}
	}
	for i := 0; i < 5; i++ {
		run() // warm the arena pool, address cache, DRC scratch and seed cache
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	return testing.AllocsPerRun(runs, run), (after.TotalAlloc - before.TotalAlloc) / runs
}

func TestWarmSerialRDSAllocBound(t *testing.T) {
	allocs, _ := warmQueryAllocs(t, false, nil)
	t.Logf("warm serial RDS query: %.1f objects", allocs)
	if allocs > 150 {
		t.Errorf("warm serial RDS query allocates %.0f objects, want <= 150", allocs)
	}
}

// TestWarmSeededRDSAllocBound: a warm cached RDS query folds its seed
// vectors into arena memory, so neither its object count nor its bytes
// grow with the collection's 400 documents.
func TestWarmSeededRDSAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime makes sync.Pool drop items; alloc counts are meaningless")
	}
	allocs, bytes := warmQueryAllocs(t, false, cache.New(cache.Config{}))
	t.Logf("warm seeded RDS query: %.1f objects, %d B", allocs, bytes)
	if allocs > 32 {
		t.Errorf("warm seeded RDS query allocates %.0f objects, want <= 32", allocs)
	}
	if bytes > 4096 {
		t.Errorf("warm seeded RDS query allocates %d B, want <= 4096: something scales with the collection", bytes)
	}
}

func TestWarmSerialSDSAllocBound(t *testing.T) {
	allocs, _ := warmQueryAllocs(t, true, nil)
	t.Logf("warm serial SDS query: %.1f objects", allocs)
	if allocs > 150 {
		t.Errorf("warm serial SDS query allocates %.0f objects, want <= 150", allocs)
	}
}

// TestSeedMissAllocBound: a warm engine's five-origin cached query against
// an emptied cache builds all five vectors, four builders at a time. On
// a warm pool it allocates the five vectors, their cache entries and a
// constant per builder on top of a warm seeded query — no dense
// per-concept array: every sweep and prober is borrowed.
func TestSeedMissAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime makes sync.Pool drop items; alloc counts are meaningless")
	}
	const builders = 4
	r := rand.New(rand.NewSource(7))
	o := randomDAGOntology(r, 6000, 0.3)
	coll := randomCollection(r, o, 400, 8)
	e := memEngine(o, coll)
	cc := cache.New(cache.Config{})
	e.EnableCache(cc)
	e.seedWorkers = builders
	var q []ontology.ConceptID
	for _, d := range coll.Docs() {
		for _, c := range d.Concepts {
			if len(q) < 5 && !slices.Contains(q, c) {
				q = append(q, c)
			}
		}
	}
	run := func() {
		cc.Reset()
		if _, m, err := e.RDSContext(context.Background(), q, Options{K: 10}); err != nil || m.CacheMisses != len(q) {
			t.Fatalf("misses %d, err %v; want %d misses", m.CacheMisses, err, len(q))
		}
	}
	for range 5 {
		run()
	}
	vecBytes := 0
	for _, c := range q {
		s, _ := cc.GetSeed(e.cacheID, uint32(c))
		vecBytes += 8 * cap(s.Docs)
	}
	runtime.GC()
	run()
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		run()
	}
	runtime.ReadMemStats(&after)
	bytes := int((after.TotalAlloc - before.TotalAlloc) / runs)
	allocs := testing.AllocsPerRun(runs, run) - testing.AllocsPerRun(runs, cc.Reset)
	t.Logf("five-miss query: %.1f objects, %d B (vectors %d B, a dense array %d B)", allocs, bytes, vecBytes, 4*o.NumConcepts())
	if limit := 32 + 2*len(q) + 4*builders; allocs > float64(limit) {
		t.Errorf("five-miss query allocates %.0f objects, want <= %d", allocs, limit)
	}
	if limit := vecBytes + 8192; bytes > limit {
		t.Errorf("five-miss query allocates %d B, want <= %d: something scales with the ontology", bytes, limit)
	}
}

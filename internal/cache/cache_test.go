package cache

import (
	"math/rand"
	"sync"
	"testing"

	"conceptrank/internal/corpus"
)

func seedOf(gen, n int) Seed {
	docs := make([]DocDist, n)
	for i := range docs {
		docs[i] = DocDist{Doc: corpus.DocID(i), Dist: int32(i % 7)}
	}
	return Seed{Gen: gen, Docs: docs}
}

func TestSeedRoundTrip(t *testing.T) {
	c := New(Config{})
	if _, ok := c.GetSeed(1, 42); ok {
		t.Fatal("hit on empty cache")
	}
	want := seedOf(10, 10)
	if !c.PutSeed(1, 42, want) {
		t.Fatal("default config rejected a put")
	}
	got, ok := c.GetSeed(1, 42)
	if !ok || got.Gen != 10 || len(got.Docs) != 10 {
		t.Fatalf("GetSeed = %+v, %v", got, ok)
	}
	if _, ok := c.GetSeed(2, 42); ok {
		t.Fatal("seed leaked across corpus IDs")
	}
	st := c.Stats()
	if st.SeedHits != 1 || st.SeedMisses != 2 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Bytes != entryOverhead+80 {
		t.Fatalf("bytes = %d, want %d", st.Bytes, entryOverhead+80)
	}
}

func TestPutSeedGenerationGuard(t *testing.T) {
	c := New(Config{})
	c.PutSeed(1, 7, seedOf(20, 20))
	// A lower or equal generation never regresses the entry.
	c.PutSeed(1, 7, seedOf(10, 10))
	c.PutSeed(1, 7, seedOf(20, 5))
	got, _ := c.GetSeed(1, 7)
	if got.Gen != 20 || len(got.Docs) != 20 {
		t.Fatalf("entry regressed: %+v", got)
	}
	if r := c.Stats().SeedRefreshes; r != 0 {
		t.Fatalf("refreshes = %d, want 0", r)
	}
	// A newer generation replaces in place and counts as a refresh.
	c.PutSeed(1, 7, seedOf(30, 30))
	got, _ = c.GetSeed(1, 7)
	if got.Gen != 30 || len(got.Docs) != 30 {
		t.Fatalf("refresh not applied: %+v", got)
	}
	st := c.Stats()
	if st.SeedRefreshes != 1 || st.Entries != 1 {
		t.Fatalf("stats after refresh = %+v", st)
	}
	if st.Bytes != entryOverhead+30*8 {
		t.Fatalf("bytes after refresh = %d", st.Bytes)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	// One shard, room for exactly two seed entries of 10 docs each.
	c := New(Config{Shards: 1, MaxBytes: 2 * (entryOverhead + 80)})
	c.PutSeed(1, 1, seedOf(10, 10))
	c.PutSeed(1, 2, seedOf(10, 10))
	c.GetSeed(1, 1) // 1 is now most recent; 2 is the LRU tail
	c.PutSeed(1, 3, seedOf(10, 10))
	if _, ok := c.GetSeed(1, 2); ok {
		t.Fatal("LRU tail survived eviction")
	}
	if _, ok := c.GetSeed(1, 1); !ok {
		t.Fatal("recently used entry was evicted")
	}
	if _, ok := c.GetSeed(1, 3); !ok {
		t.Fatal("just-inserted entry was evicted")
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Bytes > 2*(entryOverhead+80) {
		t.Fatalf("over budget: %d bytes", st.Bytes)
	}
}

func TestOversizedEntryIsDropped(t *testing.T) {
	c := New(Config{Shards: 1, MaxBytes: entryOverhead + 40})
	c.PutSeed(1, 1, seedOf(100, 100)) // bigger than the whole budget
	if _, ok := c.GetSeed(1, 1); ok {
		t.Fatal("oversized entry retained")
	}
	st := c.Stats()
	if st.Bytes != 0 || st.Entries != 0 || st.Evictions != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDoorkeeperAdmitAfter(t *testing.T) {
	c := New(Config{AdmitAfter: 2})
	c.GetSeed(1, 5) // first miss
	if c.PutSeed(1, 5, seedOf(1, 1)) {
		t.Fatal("admitted on first miss with AdmitAfter=2")
	}
	if c.Stats().Rejected != 1 {
		t.Fatalf("rejected = %d", c.Stats().Rejected)
	}
	c.GetSeed(1, 5) // second miss
	if !c.PutSeed(1, 5, seedOf(1, 1)) {
		t.Fatal("not admitted on second miss")
	}
	if _, ok := c.GetSeed(1, 5); !ok {
		t.Fatal("admitted entry not retrievable")
	}
	// Refreshing an admitted entry bypasses the doorkeeper.
	if !c.PutSeed(1, 5, seedOf(2, 2)) {
		t.Fatal("refresh blocked by doorkeeper")
	}
}

func TestReset(t *testing.T) {
	c := New(Config{})
	c.PutSeed(1, 1, seedOf(5, 5))
	c.PutMeasureSeed(1, 2, 3, mseedOf(4, 4))
	c.Reset()
	st := c.Stats()
	if st.Bytes != 0 || st.Entries != 0 || c.Len() != 0 {
		t.Fatalf("stats after reset = %+v", st)
	}
	if _, ok := c.GetSeed(1, 1); ok {
		t.Fatal("seed survived reset")
	}
}

// TestConcurrentMixedOps hammers every operation from many goroutines;
// meaningful under -race. Invariants checked afterwards: non-negative
// accounting and budget compliance.
func TestConcurrentMixedOps(t *testing.T) {
	c := New(Config{Shards: 4, MaxBytes: 1 << 16, AdmitAfter: 2})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				concept := uint32(r.Intn(64))
				switch r.Intn(4) {
				case 0:
					c.GetSeed(1, concept)
				case 1:
					c.PutSeed(1, concept, seedOf(r.Intn(50)+1, r.Intn(30)))
				case 2:
					c.GetMeasureSeed(1, uint32(r.Intn(4)), concept)
				default:
					c.PutMeasureSeed(1, uint32(r.Intn(4)), concept, mseedOf(r.Intn(50)+1, r.Intn(30)))
				}
			}
		}(int64(g))
	}
	wg.Wait()
	st := c.Stats()
	if st.Bytes < 0 || st.Entries < 0 {
		t.Fatalf("negative accounting: %+v", st)
	}
	if st.Bytes > 1<<16 {
		t.Fatalf("over budget: %+v", st)
	}
	if got := int64(c.Len()); got != st.Entries {
		t.Fatalf("Len=%d, Entries=%d", got, st.Entries)
	}
}

// TestGenerationWinsUnderConcurrentRefresh verifies the newest-generation-
// wins contract when many goroutines race PutSeed on one key.
func TestGenerationWinsUnderConcurrentRefresh(t *testing.T) {
	c := New(Config{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(base int) {
			defer wg.Done()
			for gen := 1; gen <= 50; gen++ {
				c.PutSeed(7, 7, seedOf(gen, gen))
			}
		}(g)
	}
	wg.Wait()
	got, ok := c.GetSeed(7, 7)
	if !ok || got.Gen != 50 || len(got.Docs) != 50 {
		t.Fatalf("final entry = %+v, %v", got, ok)
	}
}

func mseedOf(gen, n int) MSeed {
	docs := make([]DocFDist, n)
	for i := range docs {
		docs[i] = DocFDist{Doc: corpus.DocID(i), Dist: float64(i%7) * 0.5}
	}
	return MSeed{Gen: gen, Docs: docs}
}

func TestMeasureSeedRoundTrip(t *testing.T) {
	c := New(Config{})
	if _, ok := c.GetMeasureSeed(1, 100, 42); ok {
		t.Fatal("hit on empty cache")
	}
	want := mseedOf(10, 10)
	if !c.PutMeasureSeed(1, 100, 42, want) {
		t.Fatal("default config rejected a put")
	}
	got, ok := c.GetMeasureSeed(1, 100, 42)
	if !ok || got.Gen != 10 || len(got.Docs) != 10 {
		t.Fatalf("GetMeasureSeed = %+v, %v", got, ok)
	}
	st := c.Stats()
	if st.Bytes != entryOverhead+160 {
		t.Fatalf("bytes = %d, want %d (16 bytes per DocFDist)", st.Bytes, entryOverhead+160)
	}
}

// TestMeasureSeedKeySeparation: entries are keyed per (corpus, measure,
// concept) — no axis leaks into another, and measure seeds never collide
// with plain seeds for the same concept.
func TestMeasureSeedKeySeparation(t *testing.T) {
	c := New(Config{})
	c.PutMeasureSeed(1, 100, 42, mseedOf(10, 3))
	if _, ok := c.GetMeasureSeed(1, 101, 42); ok {
		t.Fatal("vector leaked across measure IDs")
	}
	if _, ok := c.GetMeasureSeed(2, 100, 42); ok {
		t.Fatal("vector leaked across corpus IDs")
	}
	if _, ok := c.GetMeasureSeed(1, 100, 43); ok {
		t.Fatal("vector leaked across concepts")
	}
	if _, ok := c.GetSeed(1, 42); ok {
		t.Fatal("measure seed visible as a plain seed")
	}
	c.PutSeed(1, 42, seedOf(10, 3))
	got, ok := c.GetMeasureSeed(1, 100, 42)
	if !ok || len(got.Docs) != 3 {
		t.Fatalf("plain seed clobbered the measure seed: %+v, %v", got, ok)
	}
	// Concepts with the same low bits under different measures stay apart.
	c.PutMeasureSeed(1, 7, 9, mseedOf(5, 1))
	c.PutMeasureSeed(1, 9, 7, mseedOf(5, 2))
	a, _ := c.GetMeasureSeed(1, 7, 9)
	b, _ := c.GetMeasureSeed(1, 9, 7)
	if len(a.Docs) != 1 || len(b.Docs) != 2 {
		t.Fatalf("measure/concept packing collided: %d vs %d docs", len(a.Docs), len(b.Docs))
	}
}

func TestPutMeasureSeedGenerationGuard(t *testing.T) {
	c := New(Config{})
	c.PutMeasureSeed(1, 100, 7, mseedOf(20, 20))
	// A stale or same-generation put must not clobber the newer vector.
	c.PutMeasureSeed(1, 100, 7, mseedOf(10, 10))
	c.PutMeasureSeed(1, 100, 7, mseedOf(20, 5))
	got, _ := c.GetMeasureSeed(1, 100, 7)
	if got.Gen != 20 || len(got.Docs) != 20 {
		t.Fatalf("stale put won: %+v", got)
	}
	// A newer generation replaces.
	c.PutMeasureSeed(1, 100, 7, mseedOf(30, 30))
	got, _ = c.GetMeasureSeed(1, 100, 7)
	if got.Gen != 30 || len(got.Docs) != 30 {
		t.Fatalf("newer generation lost: %+v", got)
	}
}

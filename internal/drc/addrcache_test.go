package drc

import (
	"math/rand"
	"sync"
	"testing"

	"conceptrank/internal/ontology"
)

func TestAddressCacheCorrectness(t *testing.T) {
	pf := ontology.NewPaperFig()
	cache := NewAddressCache(pf.O, 0, 4) // tiny cap forces evictions
	for trial := 0; trial < 3; trial++ {
		for c := 0; c < pf.O.NumConcepts(); c++ {
			id := ontology.ConceptID(c)
			got := cache.Addresses(id)
			want := pf.O.PathAddresses(id)
			if len(got) != len(want) {
				t.Fatalf("concept %d: cached %d addresses, want %d", c, len(got), len(want))
			}
		}
	}
	if cache.Len() > 4 {
		t.Errorf("cache grew past cap: %d", cache.Len())
	}
}

func TestAddressCacheConcurrent(t *testing.T) {
	pf := ontology.NewPaperFig()
	cache := NewAddressCache(pf.O, 0, 0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 500; i++ {
				id := ontology.ConceptID(r.Intn(pf.O.NumConcepts()))
				if got := cache.Addresses(id); len(got) == 0 {
					t.Errorf("no addresses for %d", id)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
}

// TestAddressCacheConcurrentEviction hammers a tiny-capped cache from many
// goroutines so inserts, hits and evictions interleave on every shard; run
// under -race (CI does) this is the concurrency-soundness check for the
// sharded cache concurrent queries and scan workers share. Results must stay
// correct whether served from cache or re-enumerated after an eviction.
func TestAddressCacheConcurrentEviction(t *testing.T) {
	pf := ontology.NewPaperFig()
	cache := NewAddressCache(pf.O, 0, 3) // cap < concept count forces constant eviction
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 400; i++ {
				id := ontology.ConceptID(r.Intn(pf.O.NumConcepts()))
				got := cache.Addresses(id)
				want := pf.O.PathAddresses(id)
				if len(got) != len(want) {
					t.Errorf("concept %d: %d addresses, want %d", id, len(got), len(want))
					return
				}
			}
		}(int64(100 + g))
	}
	wg.Wait()
	if cache.Len() > 3 {
		t.Errorf("cache grew past cap under concurrency: %d", cache.Len())
	}
}

// TestCachedPreparedMatchesUncached is the safety net for the cache wiring:
// identical results with and without the cache.
func TestCachedPreparedMatchesUncached(t *testing.T) {
	r := rand.New(rand.NewSource(64))
	o := randomDAGOntology(r, 80, 0.35)
	cache := NewAddressCache(o, 0, 0)
	for trial := 0; trial < 20; trial++ {
		q := randomConcepts(r, o, 1+r.Intn(4))
		d := randomConcepts(r, o, 1+r.Intn(4))
		plain := PrepareCached(o, q, 0, nil)
		cached := PrepareCached(o, q, 0, cache)
		a, err := plain.DocDocScratch(d, new(Scratch))
		if err != nil {
			t.Fatal(err)
		}
		b, err := cached.DocDocScratch(d, new(Scratch))
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("trial %d: cached %v != plain %v", trial, b, a)
		}
	}
}

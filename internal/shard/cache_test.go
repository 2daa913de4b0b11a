package shard

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"conceptrank/internal/cache"
	"conceptrank/internal/core"
	"conceptrank/internal/ontology"
)

// TestShardedCachedMatchesCold extends the sharded equivalence guarantee
// to a cached engine: a sharded query with a shared cache — cold on the
// first pass, warm on the second — must stay bitwise identical to both
// the uncached sharded query and the single-engine answer, and the merged
// metrics must aggregate the per-shard cache counters additively.
func TestShardedCachedMatchesCold(t *testing.T) {
	r := rand.New(rand.NewSource(5150))
	for trial := 0; trial < 8; trial++ {
		o := randomDAGOntology(r, 20+r.Intn(100), 0.3)
		coll := randomCollection(r, o, 5+r.Intn(60), 8)
		single := singleEngine(o, coll)
		for _, n := range []int{1, 3, 5} {
			se, err := New(o, coll, Config{Shards: n})
			if err != nil {
				t.Fatal(err)
			}
			q := make([]ontology.ConceptID, 1+r.Intn(3))
			for j := range q {
				q[j] = ontology.ConceptID(r.Intn(o.NumConcepts()))
			}
			opts := core.Options{K: 1 + r.Intn(8), ErrorThreshold: []float64{0, 0.5, 1}[trial%3]}
			label := fmt.Sprintf("trial %d shards %d", trial, n)

			want, _, err := single.RDSContext(context.Background(), q, opts)
			if err != nil {
				t.Fatal(err)
			}
			coldSharded, _, err := se.RDSContext(context.Background(), q, opts)
			if err != nil {
				t.Fatal(err)
			}
			assertIdentical(t, label+" uncached sharded", want, coldSharded)

			se.enableCache(cache.New(cache.Config{}))
			first, m1, err := se.RDSContext(context.Background(), q, opts)
			if err != nil {
				t.Fatal(err)
			}
			assertIdentical(t, label+" first cached pass", want, first)
			warm, m2, err := se.RDSContext(context.Background(), q, opts)
			if err != nil {
				t.Fatal(err)
			}
			assertIdentical(t, label+" warm pass", want, warm)

			// Every shard resolves its own seed vectors: the first pass is
			// all misses, the warm pass all hits, and the merged counters
			// are the per-shard sums.
			if m1.Merged.CacheMisses == 0 {
				t.Fatalf("%s: first cached pass recorded no misses", label)
			}
			if m2.Merged.CacheMisses != 0 || m2.Merged.CacheHits != m1.Merged.CacheMisses {
				t.Fatalf("%s: warm pass hits=%d misses=%d, want hits=%d misses=0",
					label, m2.Merged.CacheHits, m2.Merged.CacheMisses, m1.Merged.CacheMisses)
			}
			sumHits, sumMisses := 0, 0
			for _, pm := range m2.PerShard {
				sumHits += pm.CacheHits
				sumMisses += pm.CacheMisses
			}
			if sumHits != m2.Merged.CacheHits || sumMisses != m2.Merged.CacheMisses {
				t.Fatalf("%s: merged cache counters %d/%d, per-shard sums %d/%d",
					label, m2.Merged.CacheHits, m2.Merged.CacheMisses, sumHits, sumMisses)
			}
		}
	}
}

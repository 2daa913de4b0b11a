package core

import (
	"context"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"conceptrank/internal/cache"
	"conceptrank/internal/distance"
	"conceptrank/internal/measure"
	"conceptrank/internal/ontogen"
	"conceptrank/internal/ontology"
)

// bucketValidPathDistances is the bucket-queue sweep validPathDistances
// replaced, kept as the fuzz oracle: an ascend-only BFS, then a Dijkstra
// with unit edges over a 2n+2 bucket array, every ancestor a source at its
// up-distance.
func bucketValidPathDistances(o *ontology.Ontology, c ontology.ConceptID) []int32 {
	n := o.NumConcepts()
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = infDist
	}
	up := []ontology.ConceptID{c}
	dist[c] = 0
	for head := 0; head < len(up); head++ {
		u := up[head]
		for _, p := range o.Parents(u) {
			if dist[p] == infDist {
				dist[p] = dist[u] + 1
				up = append(up, p)
			}
		}
	}
	buckets := make([][]ontology.ConceptID, 2*n+2)
	for _, u := range up {
		buckets[dist[u]] = append(buckets[dist[u]], u)
	}
	for d := 0; d < len(buckets); d++ {
		for i := 0; i < len(buckets[d]); i++ {
			v := buckets[d][i]
			if dist[v] != int32(d) {
				continue // superseded by a shorter path
			}
			nd := int32(d + 1)
			for _, ch := range o.Children(v) {
				if nd < dist[ch] && d+1 < len(buckets) {
					dist[ch] = nd
					buckets[d+1] = append(buckets[d+1], ch)
				}
			}
		}
	}
	return dist
}

// FuzzValidPathSweep pins the pooled level-synchronous sweep to the bucket
// queue it replaced and to distance.ConceptDistance per pair, on DAGs whose
// extra parents may be any earlier concept — including an ancestor of the
// primary parent, the shortcut edge that lets descent reach an ancestor at
// less than its up-distance. A sweep that spins on such an ancestor fails
// the watchdog instead of hanging the run.
func FuzzValidPathSweep(f *testing.F) {
	// c(4) -> x(3) -> y(2) -> A(1) -> B(0) plus the shortcut c -> B:
	// up(A) = 3, but B reaches A by one down edge, so D(c, A) = 2.
	f.Add([]byte{0, 1, 1, 1, 2, 1, 3, 0})
	f.Add([]byte{1, 0, 2, 1, 0, 3})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{7, 3, 1, 9, 4, 0, 2, 6, 5, 8, 0, 12, 3, 6, 1, 9, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := min(len(data)/2+1, 48)
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
		for c := 0; c < n; c++ {
			got := make(chan []int32, 1)
			go func() {
				sw := validPathDistances(o, ontology.ConceptID(c))
				got <- append([]int32(nil), sw.dist...)
				sw.release()
			}()
			var dist []int32
			select {
			case dist = <-got:
			case <-time.After(10 * time.Second):
				t.Fatalf("sweep from %d did not terminate (n=%d)", c, n)
			}
			want := bucketValidPathDistances(o, ontology.ConceptID(c))
			for v := range want {
				if dist[v] != want[v] {
					t.Fatalf("D(%d,%d): flat sweep %d, bucket queue %d (n=%d)", c, v, dist[v], want[v], n)
				}
				if pair := distance.ConceptDistance(o, ontology.ConceptID(c), ontology.ConceptID(v)); int(dist[v]) != pair {
					t.Fatalf("D(%d,%d): flat sweep %d, ConceptDistance %d (n=%d)", c, v, dist[v], pair, n)
				}
			}
		}
	})
}

func randomDocConcepts(r *rand.Rand, o *ontology.Ontology, maxConcepts int) []ontology.ConceptID {
	concepts := make([]ontology.ConceptID, 1+r.Intn(maxConcepts))
	for j := range concepts {
		concepts[j] = ontology.ConceptID(r.Intn(o.NumConcepts()))
	}
	return concepts
}

// checkBranchesAgree extends one origin's vector over the same documents
// twice — in one step, which sweeps, and one document at a time, which
// probes — and requires identical vectors: the choice in extend is a cost
// decision only.
func checkBranchesAgree[E comparable](t *testing.T, e *Engine, sp seedSpace[E], c ontology.ConceptID, n int) {
	t.Helper()
	if probe, err := e.probeWins(0, n); err != nil || probe {
		t.Fatalf("a build over %d documents did not sweep (probe=%v, err=%v)", n, probe, err)
	}
	swept, err := extend(e, sp, c, nil, 0, n)
	if err != nil {
		t.Fatal(err)
	}
	var probed []E
	for g := 1; g <= n; g++ {
		if probe, err := e.probeWins(g-1, g); err != nil || !probe {
			t.Fatalf("a one-document refresh did not probe (probe=%v, err=%v)", probe, err)
		}
		if probed, err = extend(e, sp, c, probed, g-1, g); err != nil {
			t.Fatal(err)
		}
	}
	if !slices.Equal(swept, probed) {
		t.Fatalf("origin %d: sweep and probe branches disagree\nsweep %v\nprobe %v", c, swept, probed)
	}
}

func TestSeedExtendBranchesAgree(t *testing.T) {
	r := rand.New(rand.NewSource(2718))
	for trial := 0; trial < 10; trial++ {
		// 6 concepts a document at most, under the probe budget of
		// NumConcepts()/probeCost >= 7.
		o := randomDAGOntology(r, 7*probeCost+r.Intn(200), 0.3)
		e, dyn := dynamicEngine(o)
		n := 20 + r.Intn(30)
		for i := 0; i < n; i++ {
			dyn.AddDocument("doc", randomDocConcepts(r, o, 6))
		}
		for i := 0; i < 5; i++ {
			c := ontology.ConceptID(r.Intn(o.NumConcepts()))
			checkBranchesAgree(t, e, ddcSpace{}, c, n)
			checkBranchesAgree(t, e, newMeasureSpace(measure.NewDensity(o)), c, n)
		}
	}
}

// checkCachedSeeds requires every cached vector of q's concepts to equal a
// from-scratch build at the generation it is stamped with.
func checkCachedSeeds[E comparable](t *testing.T, e *Engine, sp seedSpace[E], cc *cache.Cache, q []ontology.ConceptID) {
	t.Helper()
	for _, c := range dedupConcepts(q) {
		docs, gen, ok := sp.get(cc, e.cacheID, c)
		if !ok {
			t.Fatalf("concept %d: no cached vector after a cached query", c)
		}
		want, err := extend(e, sp, c, nil, 0, gen)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(docs, want) {
			t.Fatalf("concept %d at generation %d: cached vector differs from a rebuild\ncached  %v\nrebuilt %v", c, gen, docs, want)
		}
	}
}

// TestSeedRefreshEqualsRebuild drives random interleavings of AddDocument
// and cached RDS queries through a growable engine, under Rada (integer
// vectors) and the density measure (float vectors): after every query each
// cached vector equals a from-scratch build at its generation. Bursts of
// writes leave vectors stale long enough to take the sweep branch, single
// writes take the probe branch, and several goroutines refresh the same
// entries at once (meaningful under -race).
func TestSeedRefreshEqualsRebuild(t *testing.T) {
	r := rand.New(rand.NewSource(1618))
	for trial := 0; trial < 6; trial++ {
		o := randomDAGOntology(r, 7*probeCost+r.Intn(150), 0.3)
		e, dyn := dynamicEngine(o)
		cc := cache.New(cache.Config{})
		dens := measure.NewDensity(o)
		queries := make([][]ontology.ConceptID, 4)
		for i := range queries {
			queries[i] = randomDocConcepts(r, o, 3)
		}
		for i := 0; i < 10; i++ {
			dyn.AddDocument("doc", randomDocConcepts(r, o, 6))
		}
		probes, sweeps := 0, 0
		for step := 0; step < 60; step++ {
			writes := 0
			switch r.Intn(4) {
			case 0:
				writes = 1
			case 1:
				writes = 8 + r.Intn(8) // > the probe budget in concepts, almost surely
			}
			from := dyn.NumDocs()
			for i := 0; i < writes; i++ {
				dyn.AddDocument("doc", randomDocConcepts(r, o, 6))
			}
			if writes > 0 {
				if probe, err := e.probeWins(from, dyn.NumDocs()); err != nil {
					t.Fatal(err)
				} else if probe {
					probes++
				} else {
					sweeps++
				}
			}
			q := queries[r.Intn(len(queries))]
			opts := Options{K: 5, ErrorThreshold: 0.5, Cache: cc}
			mopts := opts
			mopts.Measure = dens
			var wg sync.WaitGroup
			for g := 0; g < 3; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, _, err := e.RDSContext(context.Background(), q, opts); err != nil {
						t.Errorf("trial %d step %d: %v", trial, step, err)
					}
					if _, _, err := e.RDSContext(context.Background(), q, mopts); err != nil {
						t.Errorf("trial %d step %d (density): %v", trial, step, err)
					}
				}()
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			checkCachedSeeds(t, e, ddcSpace{}, cc, q)
			checkCachedSeeds(t, e, newMeasureSpace(dens), cc, q)
		}
		if probes == 0 || sweeps == 0 {
			t.Fatalf("trial %d: write bursts took the probe branch %d times and the sweep branch %d times; want both", trial, probes, sweeps)
		}
	}
}

// seedBenchEngine is a RADIO-shaped fixture at the repository benchmark's
// size: 30 000 generated concepts, documents of 60 ± 25 concepts.
func seedBenchEngine(tb testing.TB, docs int) (*Engine, []ontology.ConceptID) {
	tb.Helper()
	o, err := ontogen.Generate(ontogen.Config{NumConcepts: 30_000, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	r := rand.New(rand.NewSource(5))
	e, dyn := dynamicEngine(o)
	for i := 0; i < docs; i++ {
		concepts := make([]ontology.ConceptID, 35+r.Intn(51))
		for j := range concepts {
			concepts[j] = ontology.ConceptID(r.Intn(o.NumConcepts()))
		}
		dyn.AddDocument("doc", concepts)
	}
	origins := make([]ontology.ConceptID, 64)
	for i := range origins {
		origins[i] = ontology.ConceptID(r.Intn(o.NumConcepts()))
	}
	return e, origins
}

// Allocation tripwires for the seed stage, beside the query-level ones in
// alloc_test.go: a warm sweep borrows everything it touches, and a
// one-document refresh allocates the new vector and a per-document
// distance buffer — nothing that grows with the ontology.
func TestSeedStageAllocBounds(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime makes sync.Pool drop items; alloc counts are meaningless")
	}
	const docs = 200
	e, origins := seedBenchEngine(t, docs)
	c := origins[0]
	validPathDistances(e.o, c).release() // warm the pool
	if allocs := testing.AllocsPerRun(20, func() { validPathDistances(e.o, c).release() }); allocs > 0 {
		t.Errorf("warm sweep allocates %.1f objects, want 0", allocs)
	}
	old, err := extend(e, ddcSpace{}, c, nil, 0, docs-1)
	if err != nil {
		t.Fatal(err)
	}
	refresh := func() {
		if _, err := extend(e, ddcSpace{}, c, old, docs-1, docs); err != nil {
			t.Fatal(err)
		}
	}
	refresh()
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, refresh)
	runtime.ReadMemStats(&after)
	// AllocsPerRun calls refresh runs+1 times.
	bytes := (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
	t.Logf("one-document refresh: %.1f objects, %d B (vector %d B, ontology %d concepts)", allocs, bytes, 8*len(old), e.o.NumConcepts())
	if allocs > 2 {
		t.Errorf("one-document refresh allocates %.0f objects, want <= 2 (vector, distance buffer)", allocs)
	}
	if limit := uint64(8*(len(old)+1) + 4096); bytes > limit {
		t.Errorf("one-document refresh allocates %d B, want <= %d: something scales with the ontology", bytes, limit)
	}
}

// BenchmarkSeedBuild and BenchmarkSeedRefresh price the two ways extend
// can learn distances — they are where probeCost is read from: a build
// is one sweep plus the fold of every document; Refresh/1doc is the probe
// branch (~60 probes), Refresh/64docs the sweep branch.
func BenchmarkSeedBuild(b *testing.B) {
	const docs = 1500
	e, origins := seedBenchEngine(b, docs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := extend(e, ddcSpace{}, origins[i%len(origins)], nil, 0, docs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSeedRefresh(b *testing.B) {
	const docs = 1500
	e, origins := seedBenchEngine(b, docs)
	for _, bc := range []struct {
		name  string
		stale int
	}{{"1doc", 1}, {"64docs", 64}} {
		b.Run(bc.name, func(b *testing.B) {
			olds := make([][]cache.DocDist, len(origins))
			for i, c := range origins {
				var err error
				if olds[i], err = extend(e, ddcSpace{}, c, nil, 0, docs-bc.stale); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i % len(origins)
				if _, err := extend(e, ddcSpace{}, origins[j], olds[j], docs-bc.stale, docs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

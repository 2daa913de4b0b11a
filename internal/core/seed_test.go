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
	"conceptrank/internal/corpus"
	"conceptrank/internal/distance"
	"conceptrank/internal/emrgen"
	"conceptrank/internal/index"
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

// fuzzDAG decodes a DAG of up to 48 concepts from data, two bytes a
// concept: a primary parent, and an extra parent when the second byte is
// a multiple of 3. Extra parents may be any earlier concept — including an
// ancestor of the primary parent, the shortcut edge that lets descent
// reach an ancestor at less than its up-distance. nil when data is too
// short.
func fuzzDAG(data []byte) *ontology.Ontology {
	if len(data) < 2 {
		return nil
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
	return b.MustFinalize()
}

func addFuzzDAGSeeds(f *testing.F) {
	// c(4) -> x(3) -> y(2) -> A(1) -> B(0) plus the shortcut c -> B:
	// up(A) = 3, but B reaches A by one down edge, so D(c, A) = 2.
	f.Add([]byte{0, 1, 1, 1, 2, 1, 3, 0})
	f.Add([]byte{1, 0, 2, 1, 0, 3})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{7, 3, 1, 9, 4, 0, 2, 6, 5, 8, 0, 12, 3, 6, 1, 9, 2, 0})
}

// FuzzValidPathSweep pins the pooled level-synchronous sweep to the bucket
// queue it replaced and to distance.ConceptDistance per pair, on fuzzDAG's
// DAGs, shortcut edges included. A sweep that spins on a shortcut ancestor
// fails the watchdog instead of hanging the run.
func FuzzValidPathSweep(f *testing.F) {
	addFuzzDAGSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		o := fuzzDAG(data)
		if o == nil {
			return
		}
		n := o.NumConcepts()
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

var allSources = [...]seedSource{probeSource, indexSource, sweepSource}

// force is a pick for extendWith that always takes src.
func force(src seedSource) func(seedCosts) seedSource {
	return func(seedCosts) seedSource { return src }
}

// chosenSource is the source extend takes for origin c over [from, gen).
func chosenSource(t testing.TB, e *Engine, c ontology.ConceptID, from, gen int) seedSource {
	t.Helper()
	s := sweepPool.Get().(*sweep)
	defer s.release()
	s.ascend(e.o, c)
	run, err := e.forwardRun(from, gen)
	if err != nil {
		t.Fatal(err)
	}
	k, err := e.seedCosts(s, &run)
	if err != nil {
		t.Fatal(err)
	}
	return cheapest(k)
}

// checkSourcesAgree builds one origin's vector over documents [from, gen)
// on top of old from every source, in one step and one document at a
// time, and requires them all to equal the sweep's one-step vector: the
// choice in extend is a cost decision only. It returns that vector.
func checkSourcesAgree[E comparable](t *testing.T, e *Engine, sp seedSpace[E], c ontology.ConceptID, old []E, from, gen int) []E {
	t.Helper()
	want, err := extendWith(e, sp, c, old, from, gen, force(sweepSource))
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range allSources {
		got, err := extendWith(e, sp, c, old, from, gen, force(src))
		if err != nil {
			t.Fatal(err)
		}
		stepped := old
		for g := from + 1; g <= gen; g++ {
			if stepped, err = extendWith(e, sp, c, stepped, g-1, g, force(src)); err != nil {
				t.Fatal(err)
			}
		}
		if !slices.Equal(got, want) || !slices.Equal(stepped, want) {
			t.Fatalf("origin %d over [%d, %d): source %d disagrees with the sweep\nsweep   %v\none step %v\nstepped %v", c, from, gen, src, want, got, stepped)
		}
	}
	return want
}

func TestSeedExtendBranchesAgree(t *testing.T) {
	r := rand.New(rand.NewSource(2718))
	for trial := 0; trial < 10; trial++ {
		o := randomDAGOntology(r, 7*probeCost+r.Intn(200), 0.3)
		e, dyn := dynamicEngine(o)
		n := 20 + r.Intn(30)
		for i := 0; i < n; i++ {
			dyn.AddDocument("doc", randomDocConcepts(r, o, 6))
		}
		for i := 0; i < 5; i++ {
			c := ontology.ConceptID(r.Intn(o.NumConcepts()))
			checkSourcesAgree(t, e, &ddcSpace{}, c, nil, 0, n)
			checkSourcesAgree(t, e, newMeasureSpace(measure.NewDensity(o)), c, nil, 0, n)
		}
	}
}

// FuzzSeedSources pins the three sources of D(c, ·) to each other on
// fuzzDAG's DAGs, with documents added in two batches: the second brings
// concepts the first never used, so the vocabulary index grows (through
// its overflow, or a fold) between the two rounds of checks. Every
// origin's vectors agree across sources for Ddc and the density measure,
// built and extended, and the index pass equals ConceptDistance at every
// vocabulary concept.
func FuzzSeedSources(f *testing.F) {
	addFuzzDAGSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		o := fuzzDAG(data)
		if o == nil {
			return
		}
		n := o.NumConcepts()
		e, dyn := dynamicEngine(o)
		// addDocs adds count documents of 1-6 concepts from [lo, hi).
		addDocs := func(count, lo, hi, salt int) {
			for d := 0; d < count; d++ {
				concepts := make([]ontology.ConceptID, 1+(d+salt)%6)
				for i := range concepts {
					b := int(data[(7*d+3*i+salt)%len(data)])
					concepts[i] = ontology.ConceptID(lo + (b+d+i)%(hi-lo))
				}
				dyn.AddDocument("doc", concepts)
			}
		}
		half := n / 2
		addDocs(8, 0, half, 0)
		g1 := dyn.NumDocs()
		dens := newMeasureSpace(measure.NewDensity(o))
		ddcOld := make([][]cache.DocDist, n)
		densOld := make([][]cache.DocFDist, n)
		for c := range n {
			ddcOld[c] = checkSourcesAgree(t, e, &ddcSpace{}, ontology.ConceptID(c), nil, 0, g1)
			densOld[c] = checkSourcesAgree(t, e, dens, ontology.ConceptID(c), nil, 0, g1)
		}
		dyn.AddDocument("new", []ontology.ConceptID{ontology.ConceptID(n - 1)}) // n-1 >= half: unseen
		addDocs(2, 0, n, 1)
		g2 := dyn.NumDocs()
		for c := range n {
			oc := ontology.ConceptID(c)
			got := checkSourcesAgree(t, e, &ddcSpace{}, oc, ddcOld[c], g1, g2)
			if built := checkSourcesAgree(t, e, &ddcSpace{}, oc, nil, 0, g2); !slices.Equal(got, built) {
				t.Fatalf("origin %d: extended %v, built %v", c, got, built)
			}
			gotD := checkSourcesAgree(t, e, dens, oc, densOld[c], g1, g2)
			if built := checkSourcesAgree(t, e, dens, oc, nil, 0, g2); !slices.Equal(gotD, built) {
				t.Fatalf("origin %d (density): extended %v, built %v", c, gotD, built)
			}
		}
		vi, err := e.vocabFor(g2)
		if err != nil || vi == nil {
			t.Fatalf("no index over %d documents (err %v)", g2, err)
		}
		vocab := map[ontology.ConceptID]bool{}
		for d := range g2 {
			cs, _ := dyn.Concepts(corpus.DocID(d))
			for _, v := range cs {
				vocab[v] = true
			}
		}
		if len(vi.vocab) != len(vocab) {
			t.Fatalf("index lists %d concepts, the documents carry %d", len(vi.vocab), len(vocab))
		}
		s := sweepPool.Get().(*sweep)
		defer s.release()
		for c := range n {
			s.ascend(o, ontology.ConceptID(c))
			dist := vi.pass(s, n)
			for _, v := range vi.vocab {
				if !vocab[v] {
					t.Fatalf("index lists %d, which no document carries", v)
				}
				if want := distance.ConceptDistance(o, ontology.ConceptID(c), v); int(dist[v]) != want {
					t.Fatalf("D(%d,%d): index pass %d, ConceptDistance %d (n=%d, overflow %d)", c, v, dist[v], want, n, len(vi.ovA))
				}
			}
		}
	})
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
// writes leave vectors stale long enough to leave the probes for the
// index or the sweep, single writes probe, and several goroutines refresh
// the same entries — and grow the vocabulary index — at once (meaningful
// under -race).
func TestSeedRefreshEqualsRebuild(t *testing.T) {
	r := rand.New(rand.NewSource(1618))
	var taken [len(allSources)]int
	for trial := 0; trial < 6; trial++ {
		o := randomDAGOntology(r, 7*probeCost+r.Intn(150), 0.3)
		e, dyn := dynamicEngine(o)
		cc := cache.New(cache.Config{})
		e.EnableCache(cc)
		dens := measure.NewDensity(o)
		queries := make([][]ontology.ConceptID, 4)
		for i := range queries {
			queries[i] = randomDocConcepts(r, o, 3)
		}
		for i := 0; i < 10; i++ {
			dyn.AddDocument("doc", randomDocConcepts(r, o, 6))
		}
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
			q := queries[r.Intn(len(queries))]
			if writes > 0 {
				taken[chosenSource(t, e, q[0], from, dyn.NumDocs())]++
			}
			opts := Options{K: 5, ErrorThreshold: 0.5}
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
			checkCachedSeeds(t, e, &ddcSpace{}, cc, q)
			checkCachedSeeds(t, e, newMeasureSpace(dens), cc, q)
		}
	}
	if taken[probeSource] == 0 || taken[indexSource] == 0 {
		t.Fatalf("refreshes took probe/index/sweep %v times; want probes and the index", taken)
	}
}

// seedBenchEngine is the uniform fixture at the repository benchmark's
// size: 30 000 generated concepts, documents of 60 ± 25 concepts drawn
// uniformly, so that 1 500 of them carry 95% of the ontology.
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
// one-document refresh allocates the new vector and nothing that grows
// with the ontology.
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
	old, err := extend(e, &ddcSpace{}, c, nil, 0, docs-1)
	if err != nil {
		t.Fatal(err)
	}
	refresh := func() {
		if _, err := extend(e, &ddcSpace{}, c, old, docs-1, docs); err != nil {
			t.Fatal(err)
		}
	}
	// The build above also built the vocabulary index, once per engine;
	// collect its garbage now, so that no cycle lands in the measured
	// refreshes and empties the pools they borrow from.
	runtime.GC()
	refresh()
	// Bytes are counted outside AllocsPerRun: its switch to GOMAXPROCS 1
	// can strand the pooled scratches on the other P, and its warm-up call
	// would then count their reallocation.
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		refresh()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	allocs := testing.AllocsPerRun(runs, refresh)
	t.Logf("one-document refresh: %.1f objects, %d B (vector %d B, ontology %d concepts)", allocs, bytes, 8*len(old), e.o.NumConcepts())
	if allocs > 2 {
		t.Errorf("one-document refresh allocates %.0f objects, want <= 2", allocs)
	}
	if limit := uint64(8*(len(old)+1) + 4096); bytes > limit {
		t.Errorf("one-document refresh allocates %d B, want <= %d: something scales with the ontology", bytes, limit)
	}
}

// clusteredSeedEngine is the repository benchmark's RADIO corpus: the
// emrgen profile with 4 000 distinct targets over the same 30 000
// generated concepts, filtered as in Section 6.1. Its vocabulary is a few
// thousand concepts, where seedBenchEngine's uniform documents cover 95%
// of the ontology. Origins come from the vocabulary, as the benchmark's
// queries do.
func clusteredSeedEngine(tb testing.TB) (*Engine, *index.Dynamic, []ontology.ConceptID) {
	tb.Helper()
	o, err := ontogen.Generate(ontogen.Config{NumConcepts: 30_000, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	raw, err := emrgen.GenerateConceptSets(o, emrgen.Profile{
		Name: "RADIO", NumDocs: 1500, ConceptsPerDoc: 60, ConceptsStdDev: 25,
		TokensPerDoc: 270, Clustering: 0.25, DistinctTargets: 4000, Seed: 102,
	})
	if err != nil {
		tb.Fatal(err)
	}
	coll, _ := index.ApplyFilter(raw, o, index.FilterConfig{MinDepth: 4, CFThreshold: index.MuSigmaCF(raw)})
	e, dyn := dynamicEngine(o)
	for _, d := range coll.Docs() {
		dyn.AddDocument(d.Name, d.Concepts)
	}
	elig := index.EligibleConcepts(coll, o, index.FilterConfig{MinDepth: 4})
	r := rand.New(rand.NewSource(5))
	origins := make([]ontology.ConceptID, 64)
	for i := range origins {
		origins[i] = elig[r.Intn(len(elig))]
	}
	return e, dyn, origins
}

// seedFixture is one of the two vocabulary regimes the seed benchmarks
// run on, at 1 500 documents.
type seedFixture struct {
	name    string
	e       *Engine
	dyn     *index.Dynamic
	origins []ontology.ConceptID
}

func seedFixtures(b *testing.B) []seedFixture {
	b.Helper()
	ue, uorigins := seedBenchEngine(b, 1500)
	ce, cdyn, corigins := clusteredSeedEngine(b)
	return []seedFixture{
		{"uniform", ue, ue.fwd.(*index.Dynamic), uorigins},
		{"clustered", ce, cdyn, corigins},
	}
}

// BenchmarkSeedBuild and BenchmarkSeedRefresh price the three sources
// extend can learn distances from; probeCost and indexEntries are read
// off them. A build is one source plus the fold of every document: "rule"
// is extend's own choice, "index" and "sweep" force a source (a build
// never probes: ~90 000 probes). Each row reports the index's size and
// the mean entries an origin's pass reads; with the same fold on both
// sources, (index − sweep) ns over (entries − NumConcepts()·indexEntries)
// prices an entry against a concept swept.
func BenchmarkSeedBuild(b *testing.B) {
	for _, fx := range seedFixtures(b) {
		docs := fx.dyn.NumDocs()
		vi, err := fx.e.vocabFor(docs)
		if err != nil {
			b.Fatal(err)
		}
		entries := 0
		s := sweepPool.Get().(*sweep)
		for _, c := range fx.origins {
			s.ascend(fx.e.o, c)
			entries += vi.passCost(s)
		}
		s.release()
		for _, pick := range []struct {
			name string
			pick func(seedCosts) seedSource
		}{{"rule", cheapest}, {"index", force(indexSource)}, {"sweep", force(sweepSource)}} {
			b.Run(fx.name+"/"+pick.name, func(b *testing.B) {
				b.ReportAllocs()
				b.ReportMetric(float64(vi.bytes()), "index-B")
				b.ReportMetric(float64(entries)/float64(len(fx.origins)), "entries/pass")
				for i := 0; i < b.N; i++ {
					if _, err := extendWith(fx.e, &ddcSpace{}, fx.origins[i%len(fx.origins)], nil, 0, docs, pick.pick); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkSeededQuery prices cached RDS queries, k = 10, on the
// clustered fixture. warm: two origins whose vectors both hit, so the
// query is one fold of them and one heap popped ten times. miss: five
// origins against a cache emptied before every iteration (the timer
// stopped), so every vector is built, the five builds spread over up to
// GOMAXPROCS goroutines (resolveSeeds); -cpu 1 prices them serially.
func BenchmarkSeededQuery(b *testing.B) {
	e, _, origins := clusteredSeedEngine(b)
	cc := cache.New(cache.Config{})
	e.EnableCache(cc)
	opts := Options{K: 10}
	run := func(b *testing.B, queries [][]ontology.ConceptID, reset bool) {
		for _, q := range queries {
			if _, _, err := e.RDSContext(context.Background(), q, opts); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if reset {
				b.StopTimer()
				cc.Reset()
				b.StartTimer()
			}
			if _, _, err := e.RDSContext(context.Background(), queries[i%len(queries)], opts); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("warm", func(b *testing.B) {
		queries := make([][]ontology.ConceptID, len(origins)/2)
		for i := range queries {
			queries[i] = origins[2*i : 2*i+2]
		}
		run(b, queries, false)
	})
	b.Run("miss", func(b *testing.B) {
		queries := make([][]ontology.ConceptID, len(origins)/5)
		for i := range queries {
			queries[i] = dedupConcepts(origins[5*i : 5*i+5])
		}
		run(b, queries, true)
	})
}

// BenchmarkSeedRefresh extends vectors stale by 1 document (probes), by
// 64 (the index or the sweep, whichever the rule prices lower), and by
// one document of concepts no document carried before (newvocab). There,
// an origin the rule serves from the index grows it by their ancestors
// first; the index is rewound after every iteration with the timer
// stopped, so every iteration pays that growth.
func BenchmarkSeedRefresh(b *testing.B) {
	for _, fx := range seedFixtures(b) {
		docs := fx.dyn.NumDocs()
		refresh := func(b *testing.B, from, gen int, rewind func()) {
			olds := make([][]cache.DocDist, len(fx.origins))
			for i, c := range fx.origins {
				var err error
				if olds[i], err = extend(fx.e, &ddcSpace{}, c, nil, 0, from); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if rewind != nil {
					b.StopTimer()
					rewind()
					b.StartTimer()
				}
				j := i % len(fx.origins)
				if _, err := extend(fx.e, &ddcSpace{}, fx.origins[j], olds[j], from, gen); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.Run(fx.name+"/1doc", func(b *testing.B) { refresh(b, docs-1, docs, nil) })
		b.Run(fx.name+"/64docs", func(b *testing.B) { refresh(b, docs-64, docs, nil) })
		// newvocab: the document is added once, outside the sub-benchmark,
		// which the framework runs several times.
		if _, err := fx.e.vocabFor(docs); err != nil {
			b.Fatal(err)
		}
		v := &fx.e.vocab
		snap, seen, listed := v.snap.Load(), slices.Clone(v.seen), len(v.listed)
		var unseen []ontology.ConceptID
		r := rand.New(rand.NewSource(7))
		for len(unseen) < 60 {
			if c := ontology.ConceptID(r.Intn(fx.e.o.NumConcepts())); seen[c/64]&(1<<(c%64)) == 0 && !slices.Contains(unseen, c) {
				unseen = append(unseen, c)
			}
		}
		fx.dyn.AddDocument("new", unseen)
		b.Run(fx.name+"/newvocab", func(b *testing.B) {
			refresh(b, docs, docs+1, func() {
				v.snap.Store(snap)
				v.docs.Store(int64(docs))
				copy(v.seen, seen)
				v.listed, v.listedDocs = v.listed[:listed], docs
			})
		})
	}
}

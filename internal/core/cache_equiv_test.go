package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"conceptrank/internal/cache"
	"conceptrank/internal/corpus"
	"conceptrank/internal/distance"
	"conceptrank/internal/index"
	"conceptrank/internal/ontology"
)

// The cached-vs-cold equivalence suite: attaching a cache must never
// change a ranking — not on a cold cache (miss-build path), not on a warm
// one (hit-inject path), not after incremental refresh (generation
// invalidation), not across cursor GrowK/Next resumes, and not under
// concurrent queries + AddDocument.

// cachedView returns a second engine over e's indexes with cc attached,
// so a test can put cold and cached answers over one corpus side by side.
func cachedView(e *Engine, cc *cache.Cache) *Engine {
	v := NewEngineDynamic(e.o, e.inv, e.fwd, e.numDocs, e.io)
	v.EnableCache(cc)
	return v
}

func sameRanking(t *testing.T, label string, want, got []Result) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d results, want %d\nwant %v\ngot  %v", label, len(got), len(want), want, got)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: result %d = %+v, want %+v\nwant %v\ngot  %v",
				label, i, got[i], want[i], want, got)
		}
	}
}

// TestSeedVectorMatchesBruteForce pins the seed builder to the
// independently computed valid-path distance: for every (query concept,
// document) pair, the vector's entry must equal the minimum
// distance.ConceptDistance over the document's concepts.
func TestSeedVectorMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 25; trial++ {
		o := randomDAGOntology(r, 10+r.Intn(90), 0.3)
		coll := randomCollection(r, o, 1+r.Intn(40), 6)
		e := memEngine(o, coll)
		c := ontology.ConceptID(r.Intn(o.NumConcepts()))
		vec, err := extend(e, &ddcSpace{}, c, nil, 0, coll.NumDocs())
		if err != nil {
			t.Fatal(err)
		}
		byDoc := make(map[corpus.DocID]int32, len(vec))
		for i, dd := range vec {
			if i > 0 && vec[i-1].Doc >= dd.Doc {
				t.Fatalf("trial %d: vector not ascending at %d: %v", trial, i, vec)
			}
			byDoc[dd.Doc] = dd.Dist
		}
		for _, d := range coll.Docs() {
			want := int32(infDist)
			for _, dc := range d.Concepts {
				if dist := int32(distance.ConceptDistance(o, c, dc)); dist < want {
					want = dist
				}
			}
			got, ok := byDoc[d.ID]
			if want == infDist {
				if ok {
					t.Fatalf("trial %d: doc %d unreachable from %d but in vector (dist %d)", trial, d.ID, c, got)
				}
				continue
			}
			if !ok || got != want {
				t.Fatalf("trial %d: Ddc(doc %d, concept %d) = %d (present=%v), want %d",
					trial, d.ID, c, got, ok, want)
			}
		}
	}
}

// canonicalRanking is every rankable document of e's collection in the
// canonical (distance, doc) order, from the full scan of the uncached
// engine e.
func canonicalRanking(t *testing.T, e *Engine, q []ontology.ConceptID, opts Options) []Result {
	t.Helper()
	opts.K = e.numDocs()
	all, _, err := e.FullScanRDSContext(context.Background(), q, opts)
	if err != nil {
		t.Fatal(err)
	}
	return all
}

// checkSeededCounters pins a fully seeded query's counters: it discovers
// every rankable document, runs no wave, and examines min(k, rankable)
// documents — a prefix of the canonical ranking all — counting a DRC call
// per examination only in generic mode (measure), never on the Rada path.
func checkSeededCounters(t *testing.T, label string, m *Metrics, examined, all []Result, k int, measure bool) {
	t.Helper()
	want := min(k, len(all))
	wantDRC := 0
	if measure {
		wantDRC = want
	}
	if m.DocsDiscovered != len(all) || m.DocsExamined != want || m.Iterations != 0 || m.DRCCalls != wantDRC {
		t.Fatalf("%s: discovered %d, examined %d, iterations %d, DRC calls %d; want %d, %d, 0, %d",
			label, m.DocsDiscovered, m.DocsExamined, m.Iterations, m.DRCCalls, len(all), want, wantDRC)
	}
	sameRanking(t, label+" examined", all[:want], examined)
}

// TestCachedMatchesColdGrid is the central equivalence property: the same
// query, cold vs cold-cache (miss path) vs warm-cache (hit path), across
// k / threshold / queue-limit / worker settings, must return bitwise-
// identical rankings — and the warm pass must be all hits with no BFS,
// examining the canonical prefix of the ranking.
func TestCachedMatchesColdGrid(t *testing.T) {
	r := rand.New(rand.NewSource(991))
	var (
		ks         = []int{1, 5, 25}
		thresholds = []float64{0, 0.5, 1}
	)
	cases := 0
	for trial := 0; trial < 12; trial++ {
		o := randomDAGOntology(r, 10+r.Intn(110), 0.3)
		coll := randomCollection(r, o, 5+r.Intn(50), 8)
		e := memEngine(o, coll)
		ce := cachedView(e, cache.New(cache.Config{}))
		for _, k := range ks {
			for _, eps := range thresholds {
				q := make([]ontology.ConceptID, 1+r.Intn(4))
				for j := range q {
					q[j] = ontology.ConceptID(r.Intn(o.NumConcepts()))
				}
				opts := Options{
					K:                 k,
					ErrorThreshold:    eps,
					QueueLimit:        []int{0, 7, 50000}[cases%3],
					NoSkipWhenCovered: cases%5 == 0,
				}
				label := fmt.Sprintf("case %d (k=%d eps=%v ql=%d)", cases, k, eps, opts.QueueLimit)
				cold, _, err := e.RDSContext(context.Background(), q, opts)
				if err != nil {
					t.Fatalf("%s: cold: %v", label, err)
				}
				first, m1, err := ce.RDSContext(context.Background(), q, opts)
				if err != nil {
					t.Fatalf("%s: cached first pass: %v", label, err)
				}
				sameRanking(t, label+" first cached pass", cold, first)
				cur, err := ce.OpenRDS(q, opts)
				if err != nil {
					t.Fatalf("%s: cached warm pass: %v", label, err)
				}
				warm, m2, err := cur.Run(context.Background())
				if err != nil {
					t.Fatalf("%s: cached warm pass: %v", label, err)
				}
				examined := cur.Examined()
				cur.Close()
				sameRanking(t, label+" warm pass", cold, warm)
				checkSeededCounters(t, label+" warm pass", m2, examined, canonicalRanking(t, e, q, opts), k, false)
				nq := len(dedupConcepts(q))
				if m1.CacheHits+m1.CacheMisses != nq || m2.CacheHits != nq || m2.CacheMisses != 0 {
					t.Fatalf("%s: cache counters first=%d/%d warm=%d/%d, nq=%d",
						label, m1.CacheHits, m1.CacheMisses, m2.CacheHits, m2.CacheMisses, nq)
				}
				if m2.NodesVisited != 0 {
					t.Fatalf("%s: warm pass visited %d BFS nodes, want 0", label, m2.NodesVisited)
				}
				checkTopK(t, o, coll, dedupConcepts(q), false, k, warm)
				cases++
			}
		}
	}
	if cases < 100 {
		t.Fatalf("grid covered only %d cases, floor is 100", cases)
	}
}

// TestCachedSDSIgnoresCache pins the documented SDS contract: the cache
// is a no-op for similarity queries — same results, no counters.
func TestCachedSDSIgnoresCache(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	o := randomDAGOntology(r, 80, 0.3)
	coll := randomCollection(r, o, 40, 6)
	e := memEngine(o, coll)
	cc := cache.New(cache.Config{})
	q := coll.Doc(3).Concepts
	cold, _, err := e.SDSContext(context.Background(), q, Options{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	cached, m, err := cachedView(e, cc).SDSContext(context.Background(), q, Options{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	sameRanking(t, "sds", cold, cached)
	if m.CacheHits != 0 || m.CacheMisses != 0 || cc.Len() != 0 {
		t.Fatalf("SDS touched the cache: hits=%d misses=%d entries=%d", m.CacheHits, m.CacheMisses, cc.Len())
	}
}

// TestCachedCursorGrowKAndNext: a warm-cache cursor grown from k to k'
// must match a fresh cold query at k', and Next pagination over a cached
// cursor must walk the same canonical order.
func TestCachedCursorGrowKAndNext(t *testing.T) {
	r := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 20; trial++ {
		o := randomDAGOntology(r, 20+r.Intn(100), 0.3)
		coll := randomCollection(r, o, 10+r.Intn(50), 8)
		e := memEngine(o, coll)
		ce := cachedView(e, cache.New(cache.Config{}))
		q := make([]ontology.ConceptID, 1+r.Intn(3))
		for j := range q {
			q[j] = ontology.ConceptID(r.Intn(o.NumConcepts()))
		}
		k1 := 1 + r.Intn(5)
		k2 := k1 + 1 + r.Intn(20)
		eps := []float64{0, 0.5, 1}[trial%3]

		// Warm the cache, then open a cached cursor at k1 and grow it.
		if _, _, err := ce.RDSContext(context.Background(), q, Options{K: 1, ErrorThreshold: eps}); err != nil {
			t.Fatal(err)
		}
		all := canonicalRanking(t, e, q, Options{})
		cur, err := ce.OpenRDS(q, Options{K: k1, ErrorThreshold: eps})
		if err != nil {
			t.Fatal(err)
		}
		small, m, err := cur.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		checkSeededCounters(t, fmt.Sprintf("trial %d k1", trial), m, cur.Examined(), all, k1, false)
		coldSmall, _, err := e.RDSContext(context.Background(), q, Options{K: k1, ErrorThreshold: eps})
		if err != nil {
			t.Fatal(err)
		}
		sameRanking(t, fmt.Sprintf("trial %d k1", trial), coldSmall, small)
		grown, err := cur.GrowK(context.Background(), k2)
		if err != nil {
			t.Fatal(err)
		}
		coldBig, _, err := e.RDSContext(context.Background(), q, Options{K: k2, ErrorThreshold: eps})
		if err != nil {
			t.Fatal(err)
		}
		sameRanking(t, fmt.Sprintf("trial %d grow %d->%d", trial, k1, k2), coldBig, grown)
		checkSeededCounters(t, fmt.Sprintf("trial %d grow", trial), m, cur.Examined(), all, k2, false)
		cur.Close()

		// Page a fresh warm cursor with Next: pagination auto-grows k, so
		// the full walk must equal a cold query over every rankable doc,
		// with coldBig as its prefix.
		cur2, err := ce.OpenRDS(q, Options{K: k2, ErrorThreshold: eps})
		if err != nil {
			t.Fatal(err)
		}
		var paged []Result
		for {
			page, err := cur2.Next(context.Background(), 3)
			if err != nil {
				t.Fatal(err)
			}
			if len(page) == 0 {
				break
			}
			paged = append(paged, page...)
		}
		checkSeededCounters(t, fmt.Sprintf("trial %d paged", trial), cur2.Metrics(), cur2.Examined(), all, len(all), false)
		cur2.Close()
		sameRanking(t, fmt.Sprintf("trial %d paged prefix", trial), coldBig, paged[:len(coldBig)])
		coldAll, _, err := e.RDSContext(context.Background(), q, Options{K: coll.NumDocs(), ErrorThreshold: eps})
		if err != nil {
			t.Fatal(err)
		}
		sameRanking(t, fmt.Sprintf("trial %d paged full walk", trial), coldAll, paged)
	}
}

// TestDRCPreparedOnlyWhenProbed: a query prepares DRC's query side — and
// with it fills the engine's Dewey address cache — only once an
// examination probes DRC. A cached RDS query probes none, cold or warm,
// and neither does an eps-0 query whose examinations are all
// optimization 3. Document runs are likewise made by probes only, never
// when the engine is built: one per probed document.
func TestDRCPreparedOnlyWhenProbed(t *testing.T) {
	r := rand.New(rand.NewSource(404))
	var covered, probed int
	for trial := 0; trial < 40; trial++ {
		o := randomDAGOntology(r, 40+r.Intn(80), 0.3)
		coll := randomCollection(r, o, 20+r.Intn(40), 6)
		q := make([]ontology.ConceptID, 1+r.Intn(3))
		for j := range q {
			q[j] = ontology.ConceptID(r.Intn(o.NumConcepts()))
		}
		e := memEngine(o, coll)
		e.EnableCache(cache.New(cache.Config{}))
		for pass := 0; pass < 2; pass++ { // miss-build, then warm hit
			_, m, err := e.RDSContext(context.Background(), q, Options{K: 5})
			if err != nil {
				t.Fatal(err)
			}
			if m.DRCCalls != 0 || e.addrCache.Len() != 0 || e.runs.Len() != 0 {
				t.Fatalf("trial %d pass %d: cached query made %d DRC calls, address cache holds %d concepts, run store %d runs; want 0, 0, 0",
					trial, pass, m.DRCCalls, e.addrCache.Len(), e.runs.Len())
			}
		}
		// eps 0 examines a document once it covers every origin, which is
		// optimization 3 unless the queue limit forces an examination; eps
		// 1 examines on first contact, which probes DRC.
		for _, eps := range []float64{0, 1} {
			e = memEngine(o, coll)
			_, m, err := e.RDSContext(context.Background(), q, Options{K: 5, ErrorThreshold: eps, QueueLimit: 20})
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case m.DRCCalls == 0 && m.DocsExamined > 0:
				covered++
				if n, runs := e.addrCache.Len(), e.runs.Len(); n != 0 || runs != 0 {
					t.Fatalf("trial %d eps %v: %d examinations, all optimization 3, left %d concepts in the address cache and %d runs",
						trial, eps, m.DocsExamined, n, runs)
				}
			case m.DRCCalls > 0:
				probed++
				if e.addrCache.Len() == 0 {
					t.Fatalf("trial %d eps %v: %d DRC calls left the address cache empty", trial, eps, m.DRCCalls)
				}
				if n := e.runs.Len(); n != m.DRCCalls {
					t.Fatalf("trial %d eps %v: %d DRC calls stored %d runs", trial, eps, m.DRCCalls, n)
				}
			}
		}
	}
	if covered == 0 || probed == 0 {
		t.Fatalf("grid reached %d all-optimization-3 queries and %d probing ones; want both", covered, probed)
	}
	t.Logf("%d all-optimization-3 queries, %d probing ones", covered, probed)
}

// dynamicEngine builds a growable engine plus its index for the
// invalidation tests.
func dynamicEngine(o *ontology.Ontology) (*Engine, *index.Dynamic) {
	dyn := index.NewDynamic()
	return NewEngineDynamic(o, dyn, dyn, dyn.NumDocs, nil), dyn
}

// TestCacheInvalidationOnAddDocument: entries cached at generation g must
// serve queries at generation g' > g through incremental refresh, with
// rankings identical to a cold engine over the grown corpus.
func TestCacheInvalidationOnAddDocument(t *testing.T) {
	r := rand.New(rand.NewSource(515))
	for trial := 0; trial < 15; trial++ {
		o := randomDAGOntology(r, 20+r.Intn(80), 0.3)
		e, dyn := dynamicEngine(o)
		cc := cache.New(cache.Config{})
		e.EnableCache(cc)
		coll := corpus.New()
		addDoc := func() {
			n := 1 + r.Intn(6)
			concepts := make([]ontology.ConceptID, n)
			for j := range concepts {
				concepts[j] = ontology.ConceptID(r.Intn(o.NumConcepts()))
			}
			dyn.AddDocument("doc", concepts)
			coll.Add("doc", 0, concepts)
		}
		for i := 0; i < 10+r.Intn(20); i++ {
			addDoc()
		}
		q := make([]ontology.ConceptID, 1+r.Intn(3))
		for j := range q {
			q[j] = ontology.ConceptID(r.Intn(o.NumConcepts()))
		}
		opts := Options{K: 8, ErrorThreshold: 0.5}
		if _, _, err := e.RDSContext(context.Background(), q, opts); err != nil {
			t.Fatal(err)
		}
		// Grow the corpus: the cached vectors are now stale.
		grow := 1 + r.Intn(15)
		for i := 0; i < grow; i++ {
			addDoc()
		}
		before := cc.Stats()
		cached, m, err := e.RDSContext(context.Background(), q, opts)
		if err != nil {
			t.Fatal(err)
		}
		after := cc.Stats()
		nq := len(dedupConcepts(q))
		if m.CacheHits != nq || m.CacheMisses != 0 {
			t.Fatalf("trial %d: stale entries not served as hits: %d/%d", trial, m.CacheHits, m.CacheMisses)
		}
		if got := after.SeedRefreshes - before.SeedRefreshes; got != int64(nq) {
			t.Fatalf("trial %d: %d refreshes, want %d", trial, got, nq)
		}
		coldEngine := memEngine(o, coll)
		cold, _, err := coldEngine.RDSContext(context.Background(), q, Options{K: 8, ErrorThreshold: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		sameRanking(t, fmt.Sprintf("trial %d post-add", trial), cold, cached)
		checkTopK(t, o, coll, dedupConcepts(q), false, 8, cached)
	}
}

// TestCacheConcurrentQueriesAndAddDocument races cached queries against
// AddDocument on one shared cache (run under -race). Each in-flight query
// answers over some consistent snapshot; after quiescing, a final cached
// query must match a cold engine over the final corpus.
func TestCacheConcurrentQueriesAndAddDocument(t *testing.T) {
	r := rand.New(rand.NewSource(333))
	o := randomDAGOntology(r, 120, 0.3)
	e, dyn := dynamicEngine(o)
	cc := cache.New(cache.Config{})
	e.EnableCache(cc)
	coll := corpus.New()
	var collMu sync.Mutex
	addDoc := func(rr *rand.Rand) {
		n := 1 + rr.Intn(6)
		concepts := make([]ontology.ConceptID, n)
		for j := range concepts {
			concepts[j] = ontology.ConceptID(rr.Intn(o.NumConcepts()))
		}
		collMu.Lock()
		dyn.AddDocument("doc", concepts)
		coll.Add("doc", 0, concepts)
		collMu.Unlock()
	}
	seedRand := rand.New(rand.NewSource(1))
	for i := 0; i < 30; i++ {
		addDoc(seedRand)
	}
	queries := make([][]ontology.ConceptID, 8)
	for i := range queries {
		queries[i] = []ontology.ConceptID{
			ontology.ConceptID(r.Intn(o.NumConcepts())),
			ontology.ConceptID(r.Intn(o.NumConcepts())),
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rr := rand.New(rand.NewSource(seed))
			for i := 0; i < 40; i++ {
				q := queries[rr.Intn(len(queries))]
				if _, _, err := e.RDSContext(context.Background(), q, Options{K: 5, ErrorThreshold: 0.5}); err != nil {
					t.Errorf("query: %v", err)
					return
				}
			}
		}(int64(100 + g))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rr := rand.New(rand.NewSource(7))
		for i := 0; i < 60; i++ {
			addDoc(rr)
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}
	st := cc.Stats()
	if st.SeedHits+st.SeedMisses == 0 {
		t.Fatal("cache never consulted")
	}
	coldEngine := memEngine(o, coll)
	for _, q := range queries {
		cached, _, err := e.RDSContext(context.Background(), q, Options{K: 5, ErrorThreshold: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		cold, _, err := coldEngine.RDSContext(context.Background(), q, Options{K: 5, ErrorThreshold: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		sameRanking(t, "quiesced", cold, cached)
	}
}

package drc

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"conceptrank/internal/ontology"
)

// runFixture is one ontology with documents and queries to probe them by.
type runFixture struct {
	name    string
	o       *ontology.Ontology
	docs    [][]ontology.ConceptID
	queries [][]ontology.ConceptID
}

func runFixtures() []runFixture {
	pf := ontology.NewPaperFig()
	fx := []runFixture{{
		name: "paperfig",
		o:    pf.O,
		docs: [][]ontology.ConceptID{
			pf.Concepts("F", "R", "T", "V"), pf.Concepts("I", "L", "U"),
			pf.Concepts("F", "R"), pf.Concepts("R", "L"), pf.Concepts("J"),
			pf.Concepts("A"), pf.Concepts("V", "U", "T", "F", "I"), {},
		},
		queries: [][]ontology.ConceptID{
			pf.Concepts("I", "L", "U"), pf.Concepts("F", "R", "T", "V"),
			pf.Concepts("R", "L"), pf.Concepts("A"),
		},
	}}
	for _, seed := range []int64{3, 17, 29} {
		r := rand.New(rand.NewSource(seed))
		o, docs := randomOntologyAndDocs(r, 80+r.Intn(120), 40, 2+r.Intn(10))
		fx = append(fx, runFixture{
			name: fmt.Sprintf("random-%d", seed), o: o,
			docs: docs[4:], queries: docs[:4],
		})
	}
	return fx
}

// sameDRadix fails unless a and b are bitwise the same tuned D-Radix: the
// same nodes in the same creation order with the same marks and edges,
// and the same distance annotations.
func sameDRadix(t *testing.T, label string, a, b *DRadix) {
	t.Helper()
	if a.DAG.Dump() != b.DAG.Dump() {
		t.Fatalf("%s: DAGs differ:\n%s\nvs\n%s", label, a.DAG.Dump(), b.DAG.Dump())
	}
	na, nb := a.DAG.Nodes(), b.DAG.Nodes()
	for i := range na {
		if na[i].Concept != nb[i].Concept || na[i].Marks != nb[i].Marks {
			t.Fatalf("%s: node %d is %d/%v vs %d/%v", label, i, na[i].Concept, na[i].Marks, nb[i].Concept, nb[i].Marks)
		}
	}
	if !slices.Equal(a.DDoc, b.DDoc) || !slices.Equal(a.DQuery, b.DQuery) {
		t.Fatalf("%s: annotations differ: %v/%v vs %v/%v", label, a.DDoc, a.DQuery, b.DDoc, b.DQuery)
	}
}

// probeBoth builds (doc, query) through a fresh run and through runs, and
// fails unless the D-Radixes and both distances are bitwise equal.
func probeBoth(t *testing.T, label string, p *Prepared, runs *RunStore, id uint32, doc []ontology.ConceptID, fresh, stored *Scratch) {
	t.Helper()
	want, err := p.BuildScratch(doc, fresh)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.BuildStored(runs, id, doc, stored)
	if err != nil {
		t.Fatal(err)
	}
	sameDRadix(t, label, want, got)
	for _, v := range [][2]float64{
		{want.DocQueryDistance(p.Query()), got.DocQueryDistance(p.Query())},
		{want.DocDocDistance(doc, p.Query()), got.DocDocDistance(doc, p.Query())},
	} {
		if math.Float64bits(v[0]) != math.Float64bits(v[1]) {
			t.Fatalf("%s: distance %v through a fresh run, %v through the store", label, v[0], v[1])
		}
	}
}

// TestStoredRunMatchesScratch: a probe through a stored run, made by the
// document's first probe under one query and reused by every later query,
// builds bitwise the D-Radix of the full construction, so RDS and SDS
// distances are bitwise unchanged.
func TestStoredRunMatchesScratch(t *testing.T) {
	for _, fx := range runFixtures() {
		runs := NewRunStore()
		ac := NewAddressCache(fx.o, 0, 0)
		var fresh, stored Scratch
		for round := 0; round < 2; round++ {
			for qi, q := range fx.queries {
				// Cached and uncached enumeration give the same lists, so
				// runs made under one resolve under the other.
				cache := ac
				if qi%2 == 1 {
					cache = nil
				}
				p := PrepareCached(fx.o, q, 0, cache)
				for id, d := range fx.docs {
					probeBoth(t, fmt.Sprintf("%s round %d query %d doc %d", fx.name, round, qi, id),
						p, runs, uint32(id), d, &fresh, &stored)
				}
				if runs.Len() != len(fx.docs) {
					t.Fatalf("%s: %d runs stored after probing %d documents", fx.name, runs.Len(), len(fx.docs))
				}
			}
		}
	}
}

// storedLen returns the number of positions the store holds, checked
// against the sum of its runs.
func storedLen(t *testing.T, runs *RunStore) int {
	t.Helper()
	sum := 0
	for _, r := range runs.m {
		sum += len(r)
	}
	if sum != runs.held {
		t.Fatalf("store counts %d positions, holds %d", runs.held, sum)
	}
	return sum
}

// TestRunStoreEviction: with a tiny cap the store evicts runs and stays
// within the cap; a probe of an evicted document makes its run again and
// still builds bitwise the full construction. A run larger than the cap
// is used but not kept.
func TestRunStoreEviction(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	o, docs := randomOntologyAndDocs(r, 150, 96, 6)
	p := PrepareCached(o, docs[0], 0, NewAddressCache(o, 0, 0))
	var fresh, stored Scratch

	longest := 0 // a run has one position per address
	for _, d := range docs {
		p.gather(d, &fresh)
		longest = max(longest, len(fresh.addrs))
	}
	runs := newRunStore(4 * longest) // four runs at most
	for id, d := range docs {
		probeBoth(t, fmt.Sprintf("doc %d", id), p, runs, uint32(id), d, &fresh, &stored)
		if n := storedLen(t, runs); n > runs.maxLen {
			t.Fatalf("store holds %d positions, cap %d", n, runs.maxLen)
		}
	}
	if runs.Len() >= len(docs) {
		t.Fatalf("%d runs kept for %d documents under a tiny cap", runs.Len(), len(docs))
	}
	evicted := 0
	for id, d := range docs {
		if _, ok := runs.load(uint32(id)); ok {
			continue
		}
		evicted++
		probeBoth(t, fmt.Sprintf("evicted doc %d", id), p, runs, uint32(id), d, &fresh, &stored)
		if _, ok := runs.load(uint32(id)); !ok {
			t.Fatalf("doc %d: run not stored again after its probe", id)
		}
	}
	if evicted == 0 {
		t.Fatal("no run was evicted")
	}

	none := newRunStore(1) // a one-reference cap: no run fits
	for id, d := range docs[:10] {
		probeBoth(t, fmt.Sprintf("oversized doc %d", id), p, none, uint32(id), d, &fresh, &stored)
	}
	if none.Len() != 0 {
		t.Fatalf("%d oversized runs kept", none.Len())
	}
}

// TestRunStoreConcurrent: goroutines probing shared documents through one
// store and one address cache, with their own scratches, all get the
// serial answers; a tiny store races eviction against reuse too. CI runs
// it under -race at -cpu 1,2,8.
func TestRunStoreConcurrent(t *testing.T) {
	r := rand.New(rand.NewSource(59))
	o, docs := randomOntologyAndDocs(r, 160, 48, 8)
	queries, docs := docs[:6], docs[6:]
	want := make([][]float64, len(queries))
	for qi, q := range queries {
		p := PrepareCached(o, q, 0, nil)
		for _, d := range docs {
			v, err := p.DocDocScratch(d, new(Scratch))
			if err != nil {
				t.Fatal(err)
			}
			want[qi] = append(want[qi], v)
		}
	}
	for _, runs := range []*RunStore{NewRunStore(), newRunStore(80)} {
		ac := NewAddressCache(o, 0, 0)
		preps := make([]*Prepared, len(queries))
		for qi, q := range queries {
			preps[qi] = PrepareCached(o, q, 0, ac)
		}
		const goroutines = 8
		var wg sync.WaitGroup
		errs := make(chan error, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				var s Scratch
				for round := 0; round < 3; round++ {
					for k := range queries {
						qi := (k + g) % len(queries)
						for id, d := range docs {
							dr, err := preps[qi].BuildStored(runs, uint32(id), d, &s)
							if err != nil {
								errs <- err
								return
							}
							if got := dr.DocDocDistance(d, queries[qi]); got != want[qi][id] {
								errs <- fmt.Errorf("goroutine %d query %d doc %d: %v, want %v", g, qi, id, got, want[qi][id])
								return
							}
						}
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
}

// After warm-up a probe through a stored run performs no heap allocation.
func TestStoredProbeAllocFree(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	o, docs := randomOntologyAndDocs(r, 150, 12, 10)
	p := PrepareCached(o, docs[0], 0, NewAddressCache(o, 0, 0))
	runs := NewRunStore()
	var s Scratch
	probe := func() {
		for id, d := range docs[1:] {
			if _, err := p.BuildStored(runs, uint32(id), d, &s); err != nil {
				t.Fatal(err)
			}
		}
	}
	probe()
	if perProbe := testing.AllocsPerRun(50, probe) / float64(len(docs)-1); perProbe > 1 {
		t.Errorf("stored probe allocates %.2f objects/probe in steady state, want <= 1", perProbe)
	}
}

package core

// The commit loop pops candidates off a heap instead of sorting them, and
// reads d⁻ off the candidate it stops at instead of rescanning the live
// list. These tests hold both to the sorted scan they replaced: the sort
// survives here, as the oracle.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"conceptrank/internal/corpus"
	"conceptrank/internal/emrgen"
	"conceptrank/internal/measure"
	"conceptrank/internal/ontogen"
	"conceptrank/internal/ontology"
)

// candSorter orders candidates by (lower bound, doc ID): the commit order
// the candidate heap must reproduce pop by pop.
type candSorter []cand

func (c candSorter) Len() int           { return len(c) }
func (c candSorter) Swap(i, j int)      { c[i], c[j] = c[j], c[i] }
func (c candSorter) Less(i, j int) bool { return c[i].before(&c[j]) }

// TestCandHeapPopsInSortOrder: with lower bounds drawn from a handful of
// values (ties everywhere, +Inf included), popping the heap to empty
// yields exactly the sorted sequence.
func TestCandHeapPopsInSortOrder(t *testing.T) {
	r := rand.New(rand.NewSource(25))
	lbs := []float64{0, 1, 1.5, 2, math.Inf(1)}
	for _, n := range []int{0, 1, 2, 3, 7, 64, 500} {
		for trial := 0; trial < 20; trial++ {
			cands := make([]cand, n)
			for i, doc := range r.Perm(n) {
				cands[i] = cand{doc: corpus.DocID(doc), lb: lbs[r.Intn(len(lbs))]}
			}
			want := append([]cand(nil), cands...)
			sort.Sort(candSorter(want))
			h := candHeap(cands)
			h.init()
			for i := range want {
				if got := h.pop(); got.doc != want[i].doc || got.lb != want[i].lb {
					t.Fatalf("n=%d trial %d: pop %d = (lb %v, doc %d), sort has (lb %v, doc %d)",
						n, trial, i, got.lb, got.doc, want[i].lb, want[i].doc)
				}
			}
			if len(h) != 0 {
				t.Fatalf("n=%d: %d candidates left after %d pops", n, len(h), n)
			}
		}
	}
}

// waveSnapshot is the executor state the sorted oracle needs from before
// a wave: which documents were already settled, the top-k heap, and how
// far the examination archive and the forced-exam count had got.
type waveSnapshot struct {
	settled   map[corpus.DocID]bool // examined or pruned before the wave
	hk        topK[Result]
	archived  int
	forced    int
	exhausted bool
}

func snapshotWave(x *executor) waveSnapshot {
	s := waveSnapshot{
		settled:   make(map[corpus.DocID]bool, len(x.bt.all)),
		hk:        topK[Result]{k: x.coll.hk.k, items: append([]Result(nil), x.coll.hk.items...)},
		archived:  len(x.coll.archive),
		forced:    x.m.ForcedExams,
		exhausted: x.step.exhausted(),
	}
	for _, doc := range x.bt.all {
		if st := x.bt.states[doc]; st.examined || st.pruned {
			s.settled[doc] = true
		}
	}
	return s
}

// waveTally counts what the grid exercised, so a passing run cannot be a
// vacuous one.
type waveTally struct{ waves, pruned, deferred, forced, revived int }

// checkWave replays one wave's commit loop as the sorted scan it replaced
// and asserts the heap loop examined the same documents in the same
// order, pruned the same ones, and published the brute-force d⁻.
func checkWave(t *testing.T, label string, x *executor, pre waveSnapshot, tally *waveTally) {
	t.Helper()
	bound := x.step.bound()
	floor := x.p.space.floor(bound)
	forced := pre.exhausted || x.m.ForcedExams > pre.forced
	exhausted := math.IsInf(bound, 1)

	var cands []cand
	for _, doc := range x.bt.all {
		if !pre.settled[doc] {
			st := x.bt.states[doc]
			cands = append(cands, cand{doc: doc, st: st, lb: x.bt.lowerOf(st, floor), partial: x.bt.partialOf(st)})
		}
	}
	sort.Sort(candSorter(cands))

	examined := x.coll.archive[pre.archived:]
	dist := make(map[corpus.DocID]float64, len(examined))
	for _, r := range examined {
		dist[r.Doc] = r.Distance
	}
	hk := pre.hk
	var wantExamined []corpus.DocID
	wantPruned := map[corpus.DocID]bool{}
	for i := range cands {
		c := &cands[i]
		kth := hk.kth()
		if hk.full() && c.lb > kth {
			wantPruned[c.doc] = true
			continue
		}
		if hk.full() && c.lb == kth && c.doc > hk.worst().Doc {
			wantPruned[c.doc] = true
			continue
		}
		if !c.examineNow(x.p.opts.ErrorThreshold, forced, exhausted) {
			tally.deferred++
			break
		}
		d, ok := dist[c.doc]
		if !ok {
			t.Fatalf("%s wave %d: the sorted scan examines doc %d, the heap loop did not (examined %v)",
				label, x.wave-1, c.doc, examined)
		}
		wantExamined = append(wantExamined, c.doc)
		hk.offer(Result{Doc: c.doc, Distance: d})
	}

	if len(examined) != len(wantExamined) {
		t.Fatalf("%s wave %d: heap loop examined %d documents %v, sorted scan %d %v",
			label, x.wave-1, len(examined), examined, len(wantExamined), wantExamined)
	}
	for i, r := range examined {
		if r.Doc != wantExamined[i] {
			t.Fatalf("%s wave %d: examination %d is doc %d, sorted scan examines doc %d",
				label, x.wave-1, i, r.Doc, wantExamined[i])
		}
	}
	dMinus := x.bt.undiscoveredLB(floor, x.p.totalDocs)
	pruned := 0
	for _, doc := range x.bt.all {
		st := x.bt.states[doc]
		if st.pruned && !pre.settled[doc] {
			pruned++
			if !wantPruned[doc] {
				t.Fatalf("%s wave %d: heap loop pruned doc %d, the sorted scan did not", label, x.wave-1, doc)
			}
		}
		if !st.examined && !st.pruned {
			if lb := x.bt.lowerOf(st, floor); lb < dMinus {
				dMinus = lb
			}
		}
	}
	if pruned != len(wantPruned) {
		t.Fatalf("%s wave %d: heap loop pruned %d documents, sorted scan %d", label, x.wave-1, pruned, len(wantPruned))
	}
	if math.Float64bits(x.lastDMinus) != math.Float64bits(dMinus) {
		t.Fatalf("%s wave %d: d⁻ = %v, brute-force minimum over the unsettled table is %v",
			label, x.wave-1, x.lastDMinus, dMinus)
	}
	tally.waves++
	tally.pruned += pruned
	if forced {
		tally.forced++
	}
}

// stepChecked steps x to termination, checking every wave.
func stepChecked(t *testing.T, label string, x *executor, tally *waveTally) {
	t.Helper()
	for {
		pre := snapshotWave(x)
		done, err := x.stepWave(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		checkWave(t, label, x, pre, tally)
		if done {
			x.finish()
			return
		}
	}
}

// commitGridCorpora builds a dense PATIENT-shaped and a sparse
// RADIO-shaped collection over one generated ontology.
func commitGridCorpora(t *testing.T) (*ontology.Ontology, map[string]*corpus.Collection) {
	t.Helper()
	o, err := ontogen.Generate(ontogen.Config{NumConcepts: 3000, Seed: 25})
	if err != nil {
		t.Fatal(err)
	}
	colls := map[string]*corpus.Collection{}
	for _, p := range []emrgen.Profile{
		{Name: "PATIENT", NumDocs: 40, ConceptsPerDoc: 30, ConceptsStdDev: 10, Clustering: 0.85, DistinctTargets: 600, Seed: 101},
		{Name: "RADIO", NumDocs: 300, ConceptsPerDoc: 10, ConceptsStdDev: 4, Clustering: 0.25, DistinctTargets: 800, Seed: 102},
	} {
		c, err := emrgen.GenerateConceptSets(o, p)
		if err != nil {
			t.Fatal(err)
		}
		colls[p.Name] = c
	}
	return o, colls
}

// TestStepWaveMatchesSortOracle steps the executor wave by wave over
// PATIENT/RADIO × RDS/SDS × ε_θ × measure × k × queue limit, then grows
// k to revive the pruned candidates and steps on; after every wave the
// heap loop must agree with the sorted scan and d⁻ with a brute-force
// minimum over the bound table.
func TestStepWaveMatchesSortOracle(t *testing.T) {
	o, colls := commitGridCorpora(t)
	r := rand.New(rand.NewSource(2500))
	measures := []struct {
		name string
		m    measure.Measure
	}{{"nil", nil}, {"rada", measure.Rada()}, {"density", measure.NewDensity(o)}}
	var tally waveTally
	cases := 0
	for _, corpusName := range []string{"PATIENT", "RADIO"} {
		coll := colls[corpusName]
		e := memEngine(o, coll)
		for _, sds := range []bool{false, true} {
			var q []ontology.ConceptID
			if sds {
				q = coll.Doc(corpus.DocID(r.Intn(coll.NumDocs()))).Concepts
			} else {
				for len(q) < 5 {
					d := coll.Doc(corpus.DocID(r.Intn(coll.NumDocs())))
					if len(d.Concepts) > 0 {
						q = append(q, d.Concepts[r.Intn(len(d.Concepts))])
					}
				}
			}
			for _, eps := range []float64{0, 0.5, 1} {
				for _, ms := range measures {
					for _, k := range []int{1, 10} {
						for _, ql := range []int{0, 16} {
							label := fmt.Sprintf("%s sds=%v eps=%v measure=%s k=%d queue=%d", corpusName, sds, eps, ms.name, k, ql)
							opts := Options{K: k, ErrorThreshold: eps, QueueLimit: ql, Measure: ms.m}.Normalize()
							x, _, err := e.newExecutor(sds, q, opts)
							if err != nil {
								t.Fatalf("%s: %v", label, err)
							}
							stepChecked(t, label, x, &tally)
							revived := 0
							for _, doc := range x.bt.all {
								if x.bt.states[doc].pruned {
									revived++
								}
							}
							x.growK(2 * k)
							tally.revived += revived
							stepChecked(t, label+" grown", x, &tally)
							x.close()
							cases++
						}
					}
				}
			}
		}
	}
	t.Logf("%d cases, %d waves: %d pruned, %d deferring waves, %d forced waves, %d revived by growK",
		cases, tally.waves, tally.pruned, tally.deferred, tally.forced, tally.revived)
	if tally.pruned == 0 || tally.deferred == 0 || tally.forced == 0 || tally.revived == 0 {
		t.Fatalf("grid exercised too little: %+v", tally)
	}
}

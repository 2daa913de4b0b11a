package core

import (
	"context"
	"testing"

	"conceptrank/internal/corpus"
	"conceptrank/internal/measure"
	"conceptrank/internal/ontology"
)

// TestExample3BFSTrace replays Example 3 of the paper: a parallel BFS from
// query q = {I, L, U} against document d = {F, R, T, V}. In the second
// iteration (depth 1) the traversal examines G, M, N, R and H; only R is
// contained in d, giving the exact distance Ddc(d,U) = 1, while I and L
// remain uncovered with lower bound 2. The paper's BFS descends into
// every child, so the engine runs with dead-subtree pruning off
// (TestExample3PrunedTrace pins the pruned trace).
func TestExample3BFSTrace(t *testing.T) {
	pf := ontology.NewPaperFig()
	coll := corpus.New()
	d := coll.Add("d", 0, pf.Concepts("F", "R", "T", "V"))
	e := memEngine(pf.O, coll)
	allLive(e)

	q := pf.Concepts("I", "L", "U") // origins 0, 1, 2
	var waves []WaveInfo
	type coverage struct {
		dists []int32
	}
	var covAfterDepth1 coverage
	_, _, err := e.RDSContext(context.Background(), q, Options{
		K: 1, ErrorThreshold: 0,
		OnWave: func(w WaveInfo) {
			cp := WaveInfo{Depth: w.Depth}
			cp.Visited = append(cp.Visited, w.Visited...)
			waves = append(waves, cp)
			if w.Depth == 1 {
				if cd, ok := w.CoveredDist[d]; ok {
					covAfterDepth1.dists = append([]int32(nil), cd...)
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(waves) < 2 {
		t.Fatalf("only %d waves observed", len(waves))
	}

	// Wave 0 visits exactly the query nodes.
	if waves[0].Depth != 0 || len(waves[0].Visited) != 3 {
		t.Fatalf("wave 0 = %+v", waves[0])
	}

	// Wave 1 (depth 1) visits the valid neighbors of I, L, U:
	// I's parent G and children M, N; L's parent H; U's parent R.
	if waves[1].Depth != 1 {
		t.Fatalf("wave 1 depth = %d", waves[1].Depth)
	}
	got := map[string]bool{}
	for _, v := range waves[1].Visited {
		got[pf.O.Name(v.Node)] = true
	}
	want := []string{"G", "M", "N", "H", "R"}
	if len(got) != len(want) {
		t.Fatalf("depth-1 nodes = %v, want %v", got, want)
	}
	for _, w := range want {
		if !got[w] {
			t.Fatalf("depth-1 nodes = %v, missing %s", got, w)
		}
	}

	// Coverage after depth 1: Ddc(d,U) = 1 found via R; I and L uncovered.
	if covAfterDepth1.dists == nil {
		t.Fatal("document d not discovered by depth 1")
	}
	if covAfterDepth1.dists[2] != 1 { // origin 2 = U
		t.Errorf("Md(U) = %d, want 1", covAfterDepth1.dists[2])
	}
	if covAfterDepth1.dists[0] != -1 || covAfterDepth1.dists[1] != -1 {
		t.Errorf("I and L should be uncovered at depth 1: %v", covAfterDepth1.dists)
	}
}

// TestCoveredDistRadaOnly: WaveInfo.CoveredDist reports path lengths, so
// it is Rada-only — every wave of a query under a measure, measure.Rada()
// included, delivers a nil map, while the Rada space's waves carry one.
func TestCoveredDistRadaOnly(t *testing.T) {
	pf := ontology.NewPaperFig()
	coll := corpus.New()
	coll.Add("d", 0, pf.Concepts("F", "R", "T", "V"))
	e := memEngine(pf.O, coll)
	q := pf.Concepts("I", "L", "U")
	for _, meas := range []measure.Measure{nil, measure.Rada(), measure.NewDensity(pf.O)} {
		name := "nil"
		if meas != nil {
			name = meas.Name()
		}
		waves, maps := 0, 0
		opts := Options{K: 1, Measure: meas, OnWave: func(w WaveInfo) {
			waves++
			if w.CoveredDist != nil {
				maps++
			}
		}}
		for _, run := range []func(context.Context, []ontology.ConceptID, Options) ([]Result, *Metrics, error){e.RDSContext, e.SDSContext} {
			if _, _, err := run(context.Background(), q, opts); err != nil {
				t.Fatal(err)
			}
		}
		if waves == 0 {
			t.Fatalf("measure %s: no wave observed", name)
		}
		want := 0
		if meas == nil {
			want = waves
		}
		if maps != want {
			t.Errorf("measure %s: %d of %d waves carry CoveredDist, want %d", name, maps, waves, want)
		}
	}
}

// TestExample4NeighborPruning verifies the valid-path rule called out in
// Example 4: expanding J (reached from F by descending) must not push J's
// parent G, while expanding D (reached from F by ascending) pushes D's
// parent A. As in TestExample3BFSTrace, dead-subtree pruning is off: the
// document {C} would leave only A and C live.
func TestExample4NeighborPruning(t *testing.T) {
	pf := ontology.NewPaperFig()
	coll := corpus.New()
	coll.Add("dummy", 0, pf.Concepts("C"))
	e := memEngine(pf.O, coll)
	allLive(e)

	q := pf.Concepts("F", "I")
	perDepth := map[int]map[string][]int{} // depth -> node letter -> origins
	_, _, err := e.RDSContext(context.Background(), q, Options{
		K: 1, ErrorThreshold: 0,
		OnWave: func(w WaveInfo) {
			m := map[string][]int{}
			for _, v := range w.Visited {
				name := pf.O.Name(v.Node)
				m[name] = append(m[name], v.Origin)
			}
			perDepth[w.Depth] = m
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Depth 1 from F: D (parent), J, H (children); from I: G, M, N.
	d1 := perDepth[1]
	for _, letter := range []string{"D", "J", "H", "G", "M", "N"} {
		if len(d1[letter]) == 0 {
			t.Errorf("depth 1 missing %s: %v", letter, d1)
		}
	}

	// Depth 2: the paper's Table 2 row 4 shows {A,F}{K,F}{L,F}{O,F}{P,F}
	// {E,I}{J,I} — critically, {G,F} is absent (J was reached downward).
	d2 := perDepth[2]
	if origins, ok := d2["G"]; ok {
		for _, o := range origins {
			if o == 0 { // origin 0 = F
				t.Errorf("invalid path: G visited from origin F at depth 2")
			}
		}
	}
	for _, letter := range []string{"A", "K", "L", "O", "P"} {
		found := false
		for _, o := range d2[letter] {
			if o == 0 {
				found = true
			}
		}
		if !found {
			t.Errorf("depth 2 from F missing %s: %v", letter, d2)
		}
	}
	// {E,I} and {J,I}.
	for _, letter := range []string{"E", "J"} {
		found := false
		for _, o := range d2[letter] {
			if o == 1 {
				found = true
			}
		}
		if !found {
			t.Errorf("depth 2 from I missing %s: %v", letter, d2)
		}
	}
}

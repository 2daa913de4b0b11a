package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"conceptrank/internal/corpus"
	"conceptrank/internal/ontology"
)

// Cursor-resume equivalence: the ISSUE's headline cursor acceptance check.
// Taking k results and then growing to k' = 2k must be bitwise identical —
// same documents, same float64 distances, same tie-breaks — to a fresh
// query opened at k', for RDS and SDS.

// TestCursorResumeEquivalenceGrid: RDS and SDS, across randomized
// ontologies/corpora and an option grid: Next(k) then GrowK(2k) == fresh
// k'=2k.
func TestCursorResumeEquivalenceGrid(t *testing.T) {
	r := rand.New(rand.NewSource(4242))
	ctx := context.Background()
	cases := 0
	for c := 0; c < 10; c++ {
		o := randomDAGOntology(r, 10+r.Intn(110), 0.3)
		coll := randomCollection(r, o, 5+r.Intn(50), 8)
		e := memEngine(o, coll)
		for _, k := range []int{1, 5, 10} {
			for _, eps := range []float64{0, 0.5, 0.9, 1} {
				for _, sds := range []bool{false, true} {
					var q []ontology.ConceptID
					if sds && coll.NumDocs() > 0 && r.Intn(2) == 0 {
						q = coll.Doc(corpus.DocID(r.Intn(coll.NumDocs()))).Concepts
					}
					if len(q) == 0 {
						q = make([]ontology.ConceptID, 1+r.Intn(5))
						for j := range q {
							q[j] = ontology.ConceptID(r.Intn(o.NumConcepts()))
						}
					}
					opts := Options{
						K:              k,
						ErrorThreshold: eps,
						QueueLimit:     []int{0, 7, 50000}[cases%3],
						NoDedup:        cases%7 == 0,
					}
					label := fmt.Sprintf("case %d (corpus %d, k=%d, eps=%v, sds=%v)",
						cases, c, k, eps, sds)
					cursorResumeCase(t, ctx, e, sds, q, opts, label)
					cases++
				}
			}
		}
	}
	if cases < 200 {
		t.Fatalf("grid covered only %d cases, acceptance floor is 200", cases)
	}
}

func cursorResumeCase(t *testing.T, ctx context.Context, e *Engine, sds bool, q []ontology.ConceptID, opts Options, label string) {
	t.Helper()
	k := opts.K
	open := e.OpenRDS
	runFresh := func(o Options) ([]Result, *Metrics, error) { return e.RDSContext(context.Background(), q, o) }
	if sds {
		open = e.OpenSDS
		runFresh = func(o Options) ([]Result, *Metrics, error) { return e.SDSContext(context.Background(), q, o) }
	}

	cur, err := open(q, opts)
	if err != nil {
		t.Fatalf("%s: open: %v", label, err)
	}
	defer cur.Close()

	// Page one: the first k results must match a fresh K=k query.
	page, err := cur.Next(ctx, k)
	if err != nil {
		t.Fatalf("%s: Next(%d): %v", label, k, err)
	}
	fresh, freshM, err := runFresh(opts)
	if err != nil {
		t.Fatalf("%s: fresh k: %v", label, err)
	}
	assertSameResults(t, fresh, page, label+" first page")
	assertSameCounters(t, freshM, cur.Metrics(), label+" first page")

	// Grow: the full k'=2k ranking must match a fresh K=2k query bitwise.
	grown, err := cur.GrowK(ctx, 2*k)
	if err != nil {
		t.Fatalf("%s: GrowK(%d): %v", label, 2*k, err)
	}
	big := opts
	big.K = 2 * k
	want, wantM, err := runFresh(big)
	if err != nil {
		t.Fatalf("%s: fresh 2k: %v", label, err)
	}
	assertSameResults(t, want, grown, label+" grown")

	// The resumed query must never pay for an exact distance twice, so its
	// probe count cannot exceed the fresh larger-k query's.
	if cm := cur.Metrics(); cm.DRCCalls > wantM.DRCCalls {
		t.Fatalf("%s: resumed cursor made %d DRC calls, fresh 2k query made %d",
			label, cm.DRCCalls, wantM.DRCCalls)
	}

	// Paging after the grow continues from position k without re-serving
	// (request exactly the remainder: a larger n would auto-grow past 2k).
	rest, err := cur.Next(ctx, len(want)-len(page))
	if err != nil {
		t.Fatalf("%s: Next after grow: %v", label, err)
	}
	if got := len(page) + len(rest); got != len(want) {
		t.Fatalf("%s: pages cover %d results, fresh 2k has %d", label, got, len(want))
	}
	for i, r := range rest {
		if want[len(page)+i] != r {
			t.Fatalf("%s: page 2 rank %d: got %+v, want %+v", label, i, r, want[len(page)+i])
		}
	}
}

func assertSameResults(t *testing.T, want, got []Result, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: rank %d: got {doc %d, %v}, want {doc %d, %v}",
				label, i, got[i].Doc, got[i].Distance, want[i].Doc, want[i].Distance)
		}
	}
}

// assertSameCounters compares the decision-sequence counters (everything
// except times) of a one-shot query and a cursor run
// that should have replayed the same decisions.
func assertSameCounters(t *testing.T, want, got *Metrics, label string) {
	t.Helper()
	type counters struct {
		disc, exam, drc, iter, forced, res int
		nodes                              int64
	}
	w := counters{want.DocsDiscovered, want.DocsExamined, want.DRCCalls, want.Iterations, want.ForcedExams, want.ResultCount, want.NodesVisited}
	g := counters{got.DocsDiscovered, got.DocsExamined, got.DRCCalls, got.Iterations, got.ForcedExams, got.ResultCount, got.NodesVisited}
	if w != g {
		t.Fatalf("%s: counters diverged: want %+v, got %+v", label, w, g)
	}
}

// TestCursorDrainAndSmallPages: paging in odd-sized chunks walks the whole
// ranking exactly once and then reports drained; the concatenation equals
// one full ranking of the union size.
func TestCursorDrainAndSmallPages(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	o := randomDAGOntology(r, 80, 0.3)
	coll := randomCollection(r, o, 30, 6)
	e := memEngine(o, coll)
	ctx := context.Background()
	q := []ontology.ConceptID{ontology.ConceptID(r.Intn(o.NumConcepts())), ontology.ConceptID(r.Intn(o.NumConcepts()))}

	cur, err := e.OpenRDS(q, Options{K: 3, ErrorThreshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	var all []Result
	for {
		page, err := cur.Next(ctx, 7)
		if err != nil {
			t.Fatal(err)
		}
		if len(page) == 0 {
			break
		}
		all = append(all, page...)
	}
	// Drained stays drained.
	if page, err := cur.Next(ctx, 7); err != nil || len(page) != 0 {
		t.Fatalf("drained cursor returned %v, %v", page, err)
	}

	want, _, err := e.RDSContext(context.Background(), q, Options{K: coll.NumDocs() + 5, ErrorThreshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, want, all, "drained concatenation")
}

// TestCursorContextErrorResumable: a cancelled Next leaves the cursor
// usable — retrying with a live context finishes the query with results
// identical to an uninterrupted run.
func TestCursorContextErrorResumable(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	o := randomDAGOntology(r, 150, 0.35)
	coll := randomCollection(r, o, 80, 8)
	e := memEngine(o, coll)
	q := []ontology.ConceptID{
		ontology.ConceptID(r.Intn(o.NumConcepts())),
		ontology.ConceptID(r.Intn(o.NumConcepts())),
	}
	opts := Options{K: 10, ErrorThreshold: 0} // eps 0 examines late: many waves

	cur, err := e.OpenRDS(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cur.Next(ctx, 5); !errors.Is(err, context.Canceled) {
		t.Fatalf("Next under cancelled ctx: %v, want context.Canceled", err)
	}

	page, err := cur.Next(context.Background(), 5)
	if err != nil {
		t.Fatalf("retry after cancellation: %v", err)
	}
	want, _, err := e.RDSContext(context.Background(), q, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, want[:len(page)], page, "resumed page")
}

// TestCursorClosed: every operation on a closed cursor fails with
// ErrCursorClosed, and double Close is a no-op.
func TestCursorClosed(t *testing.T) {
	pf := ontology.NewPaperFig()
	e := memEngine(pf.O, paperCorpus(pf))
	cur, err := e.OpenRDS(pf.Concepts("F"), Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	cur.Close()
	cur.Close()
	if _, err := cur.Next(context.Background(), 1); !errors.Is(err, ErrCursorClosed) {
		t.Fatalf("Next: %v, want ErrCursorClosed", err)
	}
	if _, err := cur.GrowK(context.Background(), 5); !errors.Is(err, ErrCursorClosed) {
		t.Fatalf("GrowK: %v, want ErrCursorClosed", err)
	}
	if _, _, err := cur.Run(context.Background()); !errors.Is(err, ErrCursorClosed) {
		t.Fatalf("Run: %v, want ErrCursorClosed", err)
	}
}

// TestCursorOpenValidation: plan-stage errors surface at Open, before any
// traversal state is allocated.
func TestCursorOpenValidation(t *testing.T) {
	pf := ontology.NewPaperFig()
	e := memEngine(pf.O, paperCorpus(pf))
	if _, err := e.OpenRDS(nil, Options{K: 2}); !errors.Is(err, ErrEmptyQuery) {
		t.Fatalf("empty query: %v, want ErrEmptyQuery", err)
	}
	if _, err := e.OpenRDS(pf.Concepts("F"), Options{K: 2, Workers: -1}); !errors.Is(err, ErrNegativeWorkers) {
		t.Fatalf("negative workers: %v, want ErrNegativeWorkers", err)
	}
}

// TestCursorResumeAfterMidFlightCancel: a context cancelled inside a run,
// at a wave boundary past the first, leaves the cursor mid-traversal; a
// second Run finishes the query with results and counters bitwise equal
// to an uninterrupted one. TestCursorContextErrorResumable covers a
// cancellation before the first wave.
func TestCursorResumeAfterMidFlightCancel(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	o := randomDAGOntology(r, 150, 0.35)
	coll := randomCollection(r, o, 80, 8)
	e := memEngine(o, coll)
	q := []ontology.ConceptID{
		ontology.ConceptID(r.Intn(o.NumConcepts())),
		ontology.ConceptID(r.Intn(o.NumConcepts())),
	}
	opts := Options{K: 10, ErrorThreshold: 0} // eps 0 examines late: many waves
	want, wm, err := e.RDSContext(context.Background(), q, opts)
	if err != nil {
		t.Fatal(err)
	}
	// The cancel fires inside wave 1 and is observed before wave 2, so the
	// query must run past wave 2.
	const cancelWave = 1
	if wm.Iterations <= cancelWave+1 {
		t.Fatalf("query runs %d waves; the test needs more than %d", wm.Iterations, cancelWave+1)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cancelled := false
	opts.Trace = func(ev TraceEvent) {
		if ev.Kind == TraceWaveStart && ev.Wave == cancelWave && !cancelled {
			cancelled = true
			cancel()
		}
	}
	cur, err := e.OpenRDS(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if _, _, err := cur.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("first Run: %v, want context.Canceled", err)
	}
	if !cancelled {
		t.Fatal("the cancel never fired")
	}
	got, gm, err := cur.Run(context.Background())
	if err != nil {
		t.Fatalf("resumed Run: %v", err)
	}
	assertSameResults(t, want, got, "resumed run")
	assertSameCounters(t, wm, gm, "resumed run")
	if gm.TerminalEps != wm.TerminalEps {
		t.Fatalf("TerminalEps %v, want %v", gm.TerminalEps, wm.TerminalEps)
	}
}

// TestCursorStepEndings checks each way a Cursor.Step segment can end —
// termination, a spent wave budget, the stop predicate, the caller's
// cancel — and that every ending but termination leaves the cursor
// resumable, one wave per Step, into the uninterrupted answer. The corpus
// is a chain, so the query needs one wave per level and every ending below
// falls mid-traversal.
func TestCursorStepEndings(t *testing.T) {
	const depth = 40
	b := ontology.NewBuilder("root")
	prev := ontology.ConceptID(0)
	for i := 0; i < depth; i++ {
		c := b.AddConcept("x")
		b.MustAddEdge(prev, c)
		prev = c
	}
	o := b.MustFinalize()
	coll := corpus.New()
	for i := 0; i < 4; i++ {
		coll.Add("deep", 0, []ontology.ConceptID{prev})
	}
	e := memEngine(o, coll)
	q := []ontology.ConceptID{0}
	opts := Options{K: 2, ErrorThreshold: 0}
	want, wm, err := e.RDSContext(context.Background(), q, opts)
	if err != nil {
		t.Fatal(err)
	}
	total := wm.Iterations
	if total < depth {
		t.Fatalf("query runs %d waves, want at least %d", total, depth)
	}
	never := func(float64) bool { return false }

	cases := []struct {
		name string
		// step runs the first segment; cancel ends the context it runs under.
		step      func(ctx context.Context, cur *Cursor, cancel context.CancelFunc) (bool, error)
		wantDone  bool
		wantErr   error
		wantWaves int
	}{
		{name: "done", step: func(ctx context.Context, cur *Cursor, _ context.CancelFunc) (bool, error) {
			return cur.Step(ctx, 0, never)
		}, wantDone: true, wantWaves: total},
		{name: "wave budget", step: func(ctx context.Context, cur *Cursor, _ context.CancelFunc) (bool, error) {
			return cur.Step(ctx, 5, nil)
		}, wantWaves: 5},
		{name: "stop predicate", step: func(ctx context.Context, cur *Cursor, _ context.CancelFunc) (bool, error) {
			calls := 0
			done, err := cur.Step(ctx, 0, func(dMinus float64) bool {
				calls++
				return dMinus > 3
			})
			if calls != cur.Metrics().Iterations {
				t.Errorf("stop called %d times over %d waves", calls, cur.Metrics().Iterations)
			}
			return done, err
		}, wantWaves: 4},
		{name: "stop before the budget", step: func(ctx context.Context, cur *Cursor, _ context.CancelFunc) (bool, error) {
			return cur.Step(ctx, 10, func(dMinus float64) bool { return dMinus > 3 })
		}, wantWaves: 4},
		{name: "stop on the terminating wave", step: func(ctx context.Context, cur *Cursor, _ context.CancelFunc) (bool, error) {
			if done, err := cur.Step(ctx, total-1, nil); done || err != nil {
				return done, err
			}
			return cur.Step(ctx, 0, func(float64) bool { return true })
		}, wantDone: true, wantWaves: total},
		{name: "caller cancel", step: func(ctx context.Context, cur *Cursor, cancel context.CancelFunc) (bool, error) {
			calls := 0
			return cur.Step(ctx, 0, func(float64) bool {
				if calls++; calls == 5 {
					cancel()
				}
				return false
			})
		}, wantErr: context.Canceled, wantWaves: 5},
		{name: "caller cancel beats a stop", step: func(ctx context.Context, cur *Cursor, cancel context.CancelFunc) (bool, error) {
			if _, err := cur.Step(ctx, 0, func(float64) bool { return true }); err != nil {
				return false, err
			}
			cancel()
			return cur.Step(ctx, 0, func(float64) bool { return true })
		}, wantErr: context.Canceled, wantWaves: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			cur, err := e.OpenRDS(q, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer cur.Close()
			done, err := tc.step(ctx, cur, cancel)
			if done != tc.wantDone || !errors.Is(err, tc.wantErr) {
				t.Fatalf("first segment = (%v, %v), want (%v, %v)", done, err, tc.wantDone, tc.wantErr)
			}
			if waves := cur.Metrics().Iterations; waves != tc.wantWaves {
				t.Fatalf("first segment ran %d waves, want %d", waves, tc.wantWaves)
			}
			for !done {
				before := cur.Metrics().Iterations
				if done, err = cur.Step(context.Background(), 1, never); err != nil {
					t.Fatalf("resumed segment: %v", err)
				}
				if ran := cur.Metrics().Iterations - before; ran != 1 {
					t.Fatalf("one-wave segment ran %d waves", ran)
				}
			}
			got, gm, err := cur.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			assertSameResults(t, want, got, tc.name)
			assertSameCounters(t, wm, gm, tc.name)
		})
	}
}

// FuzzCollectorTieBreak holds the collector stage to the canonical total
// order: for any offered set with unique doc IDs, the retained top-k must
// equal the reference "sort by (distance, then doc ID), take k" — the
// invariant both the sharded merge and GrowK resume are built on.
func FuzzCollectorTieBreak(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(30), uint8(4))
	f.Add(int64(2), uint8(1), uint8(1), uint8(1))
	f.Add(int64(3), uint8(10), uint8(100), uint8(2))
	f.Add(int64(4), uint8(0), uint8(10), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, k, n, distLevels uint8) {
		r := rand.New(rand.NewSource(seed))
		if distLevels == 0 {
			distLevels = 1
		}
		// Unique doc IDs, heavily colliding distances so ties dominate.
		docs := r.Perm(int(n) + 1)
		coll := newCollector(int(k))
		var offered []Result
		for _, d := range docs {
			res := Result{
				Doc:      corpus.DocID(d),
				Distance: float64(r.Intn(int(distLevels))) / float64(distLevels),
			}
			offered = append(offered, res)
			coll.offer(res)
		}
		got := coll.hk.sorted()

		ref := append([]Result(nil), offered...)
		for i := 1; i < len(ref); i++ { // insertion sort: no sort import games
			for j := i; j > 0 && ref[j-1].worse(ref[j]); j-- {
				ref[j-1], ref[j] = ref[j], ref[j-1]
			}
		}
		if len(ref) > int(k) {
			ref = ref[:k]
		}
		if len(got) != len(ref) {
			t.Fatalf("kept %d results, want %d", len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("rank %d: got {doc %d, %v}, want {doc %d, %v} (lowest DocID must win ties)",
					i, got[i].Doc, got[i].Distance, ref[i].Doc, ref[i].Distance)
			}
		}

		// Growing the collector must re-rank the archive under the same
		// canonical order.
		coll.grow(int(k) * 2)
		grown := coll.hk.sorted()
		ref2 := append([]Result(nil), offered...)
		for i := 1; i < len(ref2); i++ {
			for j := i; j > 0 && ref2[j-1].worse(ref2[j]); j-- {
				ref2[j-1], ref2[j] = ref2[j], ref2[j-1]
			}
		}
		if len(ref2) > int(k)*2 {
			ref2 = ref2[:int(k)*2]
		}
		if len(grown) != len(ref2) {
			t.Fatalf("grown collector kept %d, want %d", len(grown), len(ref2))
		}
		for i := range ref2 {
			if grown[i] != ref2[i] {
				t.Fatalf("grown rank %d: got %+v, want %+v", i, grown[i], ref2[i])
			}
		}
	})
}

// TestTerminalEpsFinite guards the executor's termination bookkeeping: a
// drained traversal reports TerminalEps in [0, 1], never NaN/Inf, through
// cursor growth as well.
func TestTerminalEpsFinite(t *testing.T) {
	pf := ontology.NewPaperFig()
	e := memEngine(pf.O, paperCorpus(pf))
	cur, err := e.OpenRDS(pf.Concepts("F"), Options{K: 2, ErrorThreshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	for _, k := range []int{2, 4, 50} {
		if _, err := cur.GrowK(context.Background(), k); err != nil {
			t.Fatal(err)
		}
		eps := cur.Metrics().TerminalEps
		if math.IsNaN(eps) || math.IsInf(eps, 0) || eps < 0 || eps > 1 {
			t.Fatalf("k=%d: TerminalEps = %v, want a value in [0,1]", k, eps)
		}
	}
}

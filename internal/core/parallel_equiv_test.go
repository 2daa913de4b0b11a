package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"conceptrank/internal/corpus"
	"conceptrank/internal/distance"
	"conceptrank/internal/measure"
	"conceptrank/internal/ontology"
)

// TestParallelEquivalenceTieBreaking pins deterministic tie-breaking: a
// corpus where every document is exactly equidistant from the query must
// rank by ascending DocID — in kNDS and in the one-partition and
// partitioned full-scan baselines.
func TestParallelEquivalenceTieBreaking(t *testing.T) {
	b := ontology.NewBuilder("root")
	var children []ontology.ConceptID
	for i := 0; i < 40; i++ {
		c := b.AddConcept(fmt.Sprintf("child%d", i))
		b.MustAddEdge(b.Root(), c)
		children = append(children, c)
	}
	o, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	coll := corpus.New()
	for i, c := range children {
		coll.Add(fmt.Sprintf("d%d", i), 0, []ontology.ConceptID{c}) // Ddq(root) = 1 for every doc
	}
	e := memEngine(o, coll)
	q := []ontology.ConceptID{0} // the root

	const k = 5
	check := func(results []Result, label string) {
		t.Helper()
		if len(results) != k {
			t.Fatalf("%s: %d results, want %d", label, len(results), k)
		}
		for i, r := range results {
			if r.Doc != corpus.DocID(i) || r.Distance != 1 {
				t.Fatalf("%s: rank %d = {doc %d, %v}, want {doc %d, 1} (ties must resolve by DocID)",
					label, i, r.Doc, r.Distance, i)
			}
		}
	}
	for _, eps := range []float64{0, 0.5, 1} {
		results, _, err := e.RDSContext(context.Background(), q, Options{K: k, ErrorThreshold: eps})
		if err != nil {
			t.Fatal(err)
		}
		check(results, fmt.Sprintf("kNDS eps=%v", eps))
	}
	scan, _, err := e.FullScanRDSContext(context.Background(), q, Options{K: k})
	if err != nil {
		t.Fatal(err)
	}
	check(scan, "full scan")
	pscan, _, err := e.FullScanRDSContext(context.Background(), q, Options{K: k, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	check(pscan, "parallel full scan")
}

// TestNegativeWorkersRejected pins the Options.Workers validation across
// every query entry point, the full scans — where Workers acts — included.
func TestNegativeWorkersRejected(t *testing.T) {
	pf := ontology.NewPaperFig()
	e := memEngine(pf.O, paperCorpus(pf))
	bad := Options{K: 2, Workers: -1}
	if _, _, err := e.RDSContext(context.Background(), pf.Concepts("F"), bad); !errors.Is(err, ErrNegativeWorkers) {
		t.Fatalf("RDSContext: %v, want ErrNegativeWorkers", err)
	}
	if _, _, err := e.SDSContext(context.Background(), pf.Concepts("F", "I"), bad); !errors.Is(err, ErrNegativeWorkers) {
		t.Fatalf("SDSContext: %v, want ErrNegativeWorkers", err)
	}
	if _, _, err := runBatch(context.Background(), e, false, [][]ontology.ConceptID{pf.Concepts("F")}, bad, 2); !errors.Is(err, ErrNegativeWorkers) {
		t.Fatalf("NewBatchRDS + Run: %v, want ErrNegativeWorkers", err)
	}
	if _, _, err := e.FullScanRDSContext(context.Background(), pf.Concepts("F"), bad); !errors.Is(err, ErrNegativeWorkers) {
		t.Fatalf("FullScanRDSContext: %v, want ErrNegativeWorkers", err)
	}
	if _, _, err := e.FullScanSDSContext(context.Background(), pf.Concepts("F", "I"), bad); !errors.Is(err, ErrNegativeWorkers) {
		t.Fatalf("FullScanSDSContext: %v, want ErrNegativeWorkers", err)
	}
}

// TestBatchContextCancellation: a context canceled before the batch
// starts aborts with the context's error; the returned partial slices are
// full length with every slot nil — nothing completed.
func TestBatchContextCancellation(t *testing.T) {
	pf := ontology.NewPaperFig()
	e := memEngine(pf.O, paperCorpus(pf))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	queries := [][]ontology.ConceptID{pf.Concepts("F"), pf.Concepts("I"), pf.Concepts("J")}
	res, mets, err := runBatch(ctx, e, false, queries, Options{K: 2}, 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(res) != len(queries) || len(mets) != len(queries) {
		t.Fatalf("partial slices have lengths %d/%d, want %d", len(res), len(mets), len(queries))
	}
	for i := range queries {
		if res[i] != nil || mets[i] != nil {
			t.Fatalf("query %d has output despite pre-cancelled context: %v %v", i, res[i], mets[i])
		}
	}
}

// TestBatchCancellationPreservesCompletedMetrics: when the batch is
// cancelled mid-flight, queries that already finished keep their results
// and a consistent Metrics; aborted and unscheduled queries have both
// slots nil. The cancel fires from the second query's first trace event,
// so with one scheduler worker query 0 is complete and query 2 never runs.
func TestBatchCancellationPreservesCompletedMetrics(t *testing.T) {
	pf := ontology.NewPaperFig()
	e := memEngine(pf.O, paperCorpus(pf))
	queries := [][]ontology.ConceptID{pf.Concepts("F", "I"), pf.Concepts("I"), pf.Concepts("J")}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started := 0
	opts := Options{K: 2, ErrorThreshold: 1, Trace: func(ev TraceEvent) {
		if ev.Kind == TraceWaveStart && ev.Wave == 0 {
			started++
			if started == 2 {
				cancel() // observed at the second query's next wave boundary
			}
		}
	}}
	res, mets, err := runBatch(ctx, e, false, queries, opts, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(res) != len(queries) || len(mets) != len(queries) {
		t.Fatalf("partial slices have lengths %d/%d, want %d", len(res), len(mets), len(queries))
	}

	// Query 0 completed before the cancel: results and metrics intact.
	if res[0] == nil || mets[0] == nil {
		t.Fatalf("completed query lost its output: res=%v mets=%v", res[0], mets[0])
	}
	if mets[0].TotalTime <= 0 || mets[0].ResultCount != len(res[0]) || mets[0].DocsExamined == 0 {
		t.Fatalf("completed query's metrics inconsistent: %+v", mets[0])
	}
	want, wm, err := e.RDSContext(context.Background(), queries[0], Options{K: 2, ErrorThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if res[0][i] != want[i] {
			t.Fatalf("completed query's results drifted: %v vs %v", res[0], want)
		}
	}
	if mets[0].DocsExamined != wm.DocsExamined || mets[0].TerminalEps != wm.TerminalEps {
		t.Fatalf("completed query's metrics drifted: %+v vs %+v", mets[0], wm)
	}

	// Query 1 was aborted mid-flight, query 2 never scheduled: both nil.
	for _, i := range []int{1, 2} {
		if res[i] != nil || mets[i] != nil {
			t.Fatalf("query %d should have nil output after cancellation: %v %v", i, res[i], mets[i])
		}
	}
}

// TestBatchErrorAnnotatesQueryIndex: the failing query's index is part of
// the batch error, and ErrEmptyQuery stays matchable through the wrap.
func TestBatchErrorAnnotatesQueryIndex(t *testing.T) {
	pf := ontology.NewPaperFig()
	e := memEngine(pf.O, paperCorpus(pf))
	queries := [][]ontology.ConceptID{pf.Concepts("F"), nil, pf.Concepts("I")}
	_, _, err := runBatch(context.Background(), e, false, queries, Options{K: 2}, 1)
	if !errors.Is(err, ErrEmptyQuery) {
		t.Fatalf("err = %v, want wrapped ErrEmptyQuery", err)
	}
}

// TestFullScanParallelMatchesSerial: the scan's ranking does not depend on
// its partition count. Every Workers setting returns exactly the
// one-partition output with the same counters, under the nil and a
// generic measure; the DRC ranking also agrees with the pairwise BL
// calculator's distances.
func TestFullScanParallelMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(2718))
	ctx := context.Background()
	for trial := 0; trial < 12; trial++ {
		o := randomDAGOntology(r, 20+r.Intn(100), 0.3)
		coll := randomCollection(r, o, 1+r.Intn(60), 6)
		e := memEngine(o, coll)
		sds := trial%2 == 1
		q := []ontology.ConceptID{
			ontology.ConceptID(r.Intn(o.NumConcepts())),
			ontology.ConceptID(r.Intn(o.NumConcepts())),
		}
		k := 1 + r.Intn(12)
		scan := e.FullScanRDSContext
		if sds {
			scan = e.FullScanSDSContext
		}
		for _, meas := range []measure.Measure{nil, measure.NewDensity(o)} {
			var ref []Result
			var refM *Metrics
			for _, workers := range []int{0, 1, 2, 8} {
				opts := Options{K: k, Workers: workers, Measure: meas}
				got, m, err := scan(ctx, q, opts)
				if err != nil {
					t.Fatalf("trial %d %+v: %v", trial, opts, err)
				}
				if ref == nil {
					ref, refM = got, m
					continue
				}
				if len(got) != len(ref) || m.DocsExamined != refM.DocsExamined || m.DRCCalls != refM.DRCCalls {
					t.Fatalf("trial %d %+v: %d results, %d/%d examined/calls; one partition: %d, %d/%d",
						trial, opts, len(got), m.DocsExamined, m.DRCCalls, len(ref), refM.DocsExamined, refM.DRCCalls)
				}
				for i := range ref {
					if got[i] != ref[i] {
						t.Fatalf("trial %d %+v rank %d: %v, one partition %v", trial, opts, i, got[i], ref[i])
					}
				}
			}
			if meas != nil {
				continue
			}
			bl, dq := distance.NewBL(o, 0), dedupConcepts(q)
			for i, res := range ref {
				concepts := coll.Doc(res.Doc).Concepts
				want := bl.DocQuery(concepts, dq)
				if sds {
					want = bl.DocDoc(concepts, dq)
				}
				if math.Abs(res.Distance-want) > 1e-9 {
					t.Fatalf("trial %d rank %d: DRC %v, BL %v", trial, i, res, want)
				}
			}
		}
	}
}

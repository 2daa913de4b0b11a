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
	if _, _, err := e.FullScanRDSContext(context.Background(), pf.Concepts("F"), bad); !errors.Is(err, ErrNegativeWorkers) {
		t.Fatalf("FullScanRDSContext: %v, want ErrNegativeWorkers", err)
	}
	if _, _, err := e.FullScanSDSContext(context.Background(), pf.Concepts("F", "I"), bad); !errors.Is(err, ErrNegativeWorkers) {
		t.Fatalf("FullScanSDSContext: %v, want ErrNegativeWorkers", err)
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

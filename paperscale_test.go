package conceptrank

import (
	"context"
	"math/rand"
	"os"
	"testing"
	"time"

	"conceptrank/internal/bench"
	"conceptrank/internal/core"
)

// TestPaperScaleSmoke generates the full published environment — a
// 296,433-concept ontology, the 983-document PATIENT corpus (~707 concepts
// per document) and the 12,373-document RADIO corpus — and runs default
// queries of both types on both collections, verifying kNDS against the
// full-scan baseline on RADIO RDS. It is minutes of work, so it only runs
// when CONCEPTRANK_PAPERSCALE=1 (the CI-sized suites cover the same code
// paths at small scale).
func TestPaperScaleSmoke(t *testing.T) {
	if os.Getenv("CONCEPTRANK_PAPERSCALE") == "" {
		t.Skip("set CONCEPTRANK_PAPERSCALE=1 to run the full-scale smoke test")
	}
	start := time.Now()
	env, err := bench.NewEnv(bench.PaperScale(), 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("paper-scale environment built in %v", time.Since(start))
	s := env.O.ComputeStats()
	t.Logf("ontology: %d concepts, %.2f avg children, %.2f paths/concept, len %.2f",
		s.Concepts, s.AvgChildrenInternal, s.AvgPathsPerConcept, s.AvgPathLen)
	ps := env.Patient.Coll.ComputeStats()
	rs := env.Radio.Coll.ComputeStats()
	t.Logf("PATIENT: %d docs, %.1f concepts/doc; RADIO: %d docs, %.1f concepts/doc",
		ps.TotalDocuments, ps.AvgConceptsPerDoc, rs.TotalDocuments, rs.AvgConceptsPerDoc)

	r := newTestRand()
	// RDS on both corpora at defaults.
	for _, ds := range env.Datasets() {
		q := ds.RandomQueries(r, 1, bench.DefaultNq)[0]
		t0 := time.Now()
		results, m, err := ds.Engine.RDSContext(context.Background(), q, core.Options{K: bench.DefaultK, ErrorThreshold: ds.DefaultEps})
		if err != nil {
			t.Fatalf("%s RDS: %v", ds.Name, err)
		}
		t.Logf("%s RDS: %d results in %v (examined %d, visited %d nodes, %d forced exams)",
			ds.Name, len(results), time.Since(t0), m.DocsExamined, m.NodesVisited, m.ForcedExams)
		if len(results) != bench.DefaultK {
			t.Fatalf("%s RDS returned %d results", ds.Name, len(results))
		}
	}

	// RADIO RDS verified against the baseline.
	q := env.Radio.RandomQueries(r, 1, bench.DefaultNq)[0]
	knds, _, err := env.Radio.Engine.RDSContext(context.Background(), q, core.Options{K: 10, ErrorThreshold: env.Radio.DefaultEps})
	if err != nil {
		t.Fatal(err)
	}
	scan, bm, err := env.Radio.Engine.FullScanRDSContext(context.Background(), q, core.Options{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := range knds {
		if knds[i].Distance != scan[i].Distance {
			t.Fatalf("paper-scale disagreement at rank %d: %v vs %v", i, knds[i], scan[i])
		}
	}
	t.Logf("RADIO baseline full scan: %v", bm.TotalTime)

	// PATIENT SDS: the setting where the paper's queue limit matters.
	qd := env.Patient.RandomQueryDocs(r, 1)[0]
	t0 := time.Now()
	sims, m, err := env.Patient.Engine.SDSContext(context.Background(), qd, core.Options{K: 10, ErrorThreshold: bench.DefaultEpsPatient})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("PATIENT SDS (%d-concept query doc): %d results in %v (examined %d, visited %d nodes, %d forced exams)",
		len(qd), len(sims), time.Since(t0), m.DocsExamined, m.NodesVisited, m.ForcedExams)
	if sims[0].Distance != 0 {
		t.Fatalf("query doc should match itself: %v", sims[0])
	}
}

func newTestRand() *rand.Rand { return rand.New(rand.NewSource(2014)) }

package bench

import (
	"context"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"conceptrank/internal/core"
	"conceptrank/internal/emrgen"
	"conceptrank/internal/ontology"
)

// tinyScale keeps harness tests fast.
func tinyScale() Scale {
	return Scale{
		Name:             "tiny",
		OntologyConcepts: 1500,
		Patient: emrgen.Profile{
			Name: "PATIENT", NumDocs: 25, ConceptsPerDoc: 30, ConceptsStdDev: 8,
			TokensPerDoc: 400, Clustering: 0.85, DistinctTargets: 400, Seed: 101,
		},
		Radio: emrgen.Profile{
			Name: "RADIO", NumDocs: 60, ConceptsPerDoc: 8, ConceptsStdDev: 3,
			TokensPerDoc: 100, Clustering: 0.25, DistinctTargets: 300, Seed: 102,
		},
		DistPairs:   10,
		RankQueries: 3,
		DistSizes:   []int{2, 5},
	}
}

func tinyEnv(t *testing.T) *Env {
	t.Helper()
	env, err := NewEnv(tinyScale(), 1)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestScaleByName(t *testing.T) {
	for _, name := range []string{"small", "medium", "paper", ""} {
		if _, err := ScaleByName(name); err != nil {
			t.Errorf("ScaleByName(%q): %v", name, err)
		}
	}
	if _, err := ScaleByName("bogus"); err == nil {
		t.Error("bogus scale accepted")
	}
}

func TestEnvSetup(t *testing.T) {
	env := tinyEnv(t)
	if env.Patient.Coll.NumDocs() != 25 || env.Radio.Coll.NumDocs() != 60 {
		t.Fatalf("doc counts: %d / %d", env.Patient.Coll.NumDocs(), env.Radio.Coll.NumDocs())
	}
	if len(env.Patient.Eligible) == 0 || len(env.Radio.Eligible) == 0 {
		t.Fatal("no eligible query concepts")
	}
}

func TestWorkloadGenerators(t *testing.T) {
	env := tinyEnv(t)
	r := newRand()
	qs := env.Radio.RandomQueries(r, 5, 3)
	if len(qs) != 5 {
		t.Fatalf("%d queries", len(qs))
	}
	for _, q := range qs {
		if len(q) != 3 {
			t.Fatalf("query size %d", len(q))
		}
		seen := map[any]bool{}
		for _, c := range q {
			if seen[c] {
				t.Fatal("duplicate concept in query")
			}
			seen[c] = true
		}
	}
	docs := env.Patient.RandomQueryDocs(r, 4)
	if len(docs) != 4 {
		t.Fatalf("%d query docs", len(docs))
	}
	for _, d := range docs {
		if len(d) == 0 {
			t.Fatal("empty query doc")
		}
	}
}

func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness run skipped in -short mode")
	}
	env := tinyEnv(t)
	tables, err := All(env)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, tbl := range tables {
		if tbl.ID == "" || len(tbl.Header) == 0 || len(tbl.Rows) == 0 {
			t.Errorf("table %q is empty: %+v", tbl.ID, tbl)
		}
		if seen[tbl.ID] {
			t.Errorf("duplicate table ID %q", tbl.ID)
		}
		seen[tbl.ID] = true
		md := tbl.Markdown()
		if !strings.Contains(md, tbl.ID) || !strings.Contains(md, "|") {
			t.Errorf("markdown rendering broken for %q", tbl.ID)
		}
	}
	// Every published panel must be covered.
	for _, want := range []string{
		"table3", "ontostats", "fig6-PATIENT", "fig6-RADIO",
		"fig7a", "fig7b", "fig7c", "fig7d", "fig7e", "fig7f", "fig7g", "fig7h",
		"fig8-PATIENT", "fig8-RADIO",
		"fig9-RDS-PATIENT", "fig9-SDS-PATIENT", "fig9-RDS-RADIO", "fig9-SDS-RADIO",
		"examined", "abl-dedup", "abl-queue", "abl-skip", "abl-store", "ta",
		"parallel-scan", "cursor", "pairs", "measures",
	} {
		if !seen[want] {
			t.Errorf("missing experiment table %q", want)
		}
	}
}

func TestRunByName(t *testing.T) {
	env := tinyEnv(t)
	tables, err := Run(env, "table3")
	if err != nil || len(tables) != 1 {
		t.Fatalf("Run(table3) = %v, %v", tables, err)
	}
	// The -exp surface, pinned: Names is the registry plus "all", nothing
	// else (TestAllExperimentsRun runs every entry).
	want := []string{
		"table3", "ontostats", "fig6", "fig7", "fig8", "fig9", "examined",
		"dedup", "queue", "skip", "store", "ta",
		"parallel", "cursor", "pairs", "measures", "all",
	}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Errorf("Names() = %v, want %v", got, want)
	}
	// The systems experiments moved to the repository benchmark; their old
	// names are unknown, and the error names the known ones.
	for _, gone := range []string{"shard", "cluster", "memstats", "telemetry", "cache", "nonsense"} {
		_, err := Run(env, gone)
		if err == nil {
			t.Errorf("Run(%q) accepted", gone)
		} else if !strings.Contains(err.Error(), "measures") {
			t.Errorf("Run(%q) error does not list the known experiments: %v", gone, err)
		}
	}
}

// TestPaperShapes pins the shapes of Section 6 that are counts, not clocks,
// so they hold on any machine: the flat full-scan baseline of Fig. 9, kNDS
// pruning below it, Fig. 7 as a cost sweep that never changes an answer,
// and the §6.2 examined precision.
func TestPaperShapes(t *testing.T) {
	env := tinyEnv(t)
	run := func(ds *Dataset, sds, scan bool, q []ontology.ConceptID, opts core.Options) ([]core.Result, *core.Metrics) {
		t.Helper()
		f := ds.Engine.RDSContext
		switch {
		case sds && scan:
			f = ds.Engine.FullScanSDSContext
		case sds:
			f = ds.Engine.SDSContext
		case scan:
			f = ds.Engine.FullScanRDSContext
		}
		res, m, err := f(context.Background(), q, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res, m
	}
	for _, ds := range env.Datasets() {
		nonEmpty := 0
		for _, d := range ds.Coll.Docs() {
			if len(d.Concepts) > 0 {
				nonEmpty++
			}
		}
		for _, sds := range []bool{false, true} {
			kind, queries := workload(env, ds, sds)
			for _, q := range queries {
				for _, k := range Ks {
					if _, m := run(ds, sds, true, q, core.Options{K: k}); m.DocsExamined != nonEmpty {
						t.Errorf("%s %s k=%d: full scan examined %d of %d non-empty documents", ds.Name, kind, k, m.DocsExamined, nonEmpty)
					}
				}
				scan, _ := run(ds, sds, true, q, core.Options{K: DefaultK})
				for _, eps := range ErrorThresholds {
					got, _ := run(ds, sds, false, q, core.Options{K: DefaultK, ErrorThreshold: eps})
					if !reflect.DeepEqual(got, scan) {
						t.Errorf("%s %s eps=%v: kNDS ranking diverges from the full scan\n got %v\nwant %v", ds.Name, kind, eps, got, scan)
					}
				}
			}
			m, err := runWorkload(ds.Engine, sds, queries, core.Options{K: DefaultK, ErrorThreshold: ds.DefaultEps})
			if err != nil {
				t.Fatal(err)
			}
			if p := m.Results / m.Examined; !(p > 0 && p <= 1) {
				t.Errorf("%s %s: examined precision %v outside (0, 1]", ds.Name, kind, p)
			}
			if ds == env.Radio && !sds && m.Examined >= float64(nonEmpty) {
				t.Errorf("RADIO RDS: kNDS examined %.2f documents a query, the scan %d — no pruning", m.Examined, nonEmpty)
			}
		}
	}
	// Fig. 7g: on dense PATIENT SDS, waiting longer before examining
	// (ε_θ = 0) never costs more DRC probes than examining at once (ε_θ = 1).
	_, queries := workload(env, env.Patient, true)
	var drc [2]float64
	for i, eps := range []float64{0, 1} {
		m, err := runWorkload(env.Patient.Engine, true, queries, core.Options{K: DefaultK, ErrorThreshold: eps})
		if err != nil {
			t.Fatal(err)
		}
		drc[i] = m.DRCCalls
	}
	if drc[1] < drc[0] {
		t.Errorf("PATIENT SDS: %.2f DRC calls at eps=1 < %.2f at eps=0", drc[1], drc[0])
	}
}

func newRand() *rand.Rand { return rand.New(rand.NewSource(99)) }

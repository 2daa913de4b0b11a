package conceptrank

// Benchmarks regenerating each table and figure of the paper's evaluation
// (Section 6) as testing.B benchmarks. They run on a shared small-scale
// synthetic environment (see internal/bench for the full harness with
// medium/paper scales and markdown output via cmd/crbench).
//
//	Table 3          BenchmarkTable3CorpusStats
//	Ontology stats   BenchmarkOntologyStats
//	Figure 6         BenchmarkFig6DistanceCalc   (BL vs DRC per query size)
//	Figure 7         BenchmarkFig7ErrorThreshold (per ε_θ, RDS+SDS, both corpora)
//	Figure 8         BenchmarkFig8QuerySize      (kNDS vs baseline per nq)
//	Figure 9         BenchmarkFig9NumResults     (kNDS vs baseline per k)

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"conceptrank/internal/bench"
	"conceptrank/internal/core"
	"conceptrank/internal/distance"
	"conceptrank/internal/drc"
	"conceptrank/internal/emrgen"
	"conceptrank/internal/ontology"
)

var (
	benchOnce sync.Once
	benchEnv  *bench.Env
	benchErr  error
)

// benchScale is smaller than bench.SmallScale so `go test -bench=.`
// finishes quickly; cmd/crbench is the tool for larger runs.
func benchScale() bench.Scale {
	return bench.Scale{
		Name:             "bench",
		OntologyConcepts: 4000,
		Patient: emrgen.Profile{
			Name: "PATIENT", NumDocs: 60, ConceptsPerDoc: 80, ConceptsStdDev: 25,
			TokensPerDoc: 900, Clustering: 0.85, DistinctTargets: 1200, Seed: 101,
		},
		Radio: emrgen.Profile{
			Name: "RADIO", NumDocs: 400, ConceptsPerDoc: 18, ConceptsStdDev: 7,
			TokensPerDoc: 270, Clustering: 0.25, DistinctTargets: 800, Seed: 102,
		},
		DistPairs:   32,
		RankQueries: 8,
		DistSizes:   []int{2, 5, 10, 25},
	}
}

func getEnv(b *testing.B) *bench.Env {
	benchOnce.Do(func() { benchEnv, benchErr = bench.NewEnv(benchScale(), 1) })
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchEnv
}

// BenchmarkTable3CorpusStats regenerates the corpus statistics table.
func BenchmarkTable3CorpusStats(b *testing.B) {
	env := getEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = env.Patient.Coll.ComputeStats()
		_ = env.Radio.Coll.ComputeStats()
	}
}

// BenchmarkOntologyStats regenerates the Section 6.1 ontology statistics.
func BenchmarkOntologyStats(b *testing.B) {
	env := getEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = env.O.ComputeStats()
	}
}

// BenchmarkFig6DistanceCalc measures one document-document distance
// computation per iteration: the BL pairwise baseline vs DRC, per corpus
// and query size — the Figure 6 panels.
func BenchmarkFig6DistanceCalc(b *testing.B) {
	env := getEnv(b)
	for _, ds := range env.Datasets() {
		for _, nq := range env.Scale.DistSizes {
			r := rand.New(rand.NewSource(7))
			queryDocs := ds.SyntheticDocs(r, env.Scale.DistPairs, nq)
			partners := ds.RandomQueryDocs(r, env.Scale.DistPairs)
			b.Run(fmt.Sprintf("%s/nq=%d/BL", ds.Name, nq), func(b *testing.B) {
				bl := distance.NewBL(env.O, 0)
				for i := 0; i < b.N; i++ {
					j := i % len(queryDocs)
					_ = bl.DocDoc(partners[j], queryDocs[j])
				}
			})
			b.Run(fmt.Sprintf("%s/nq=%d/DRC", ds.Name, nq), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					j := i % len(queryDocs)
					_, _ = drc.PrepareCached(env.O, queryDocs[j], 0, nil).DocDocScratch(partners[j], new(drc.Scratch))
				}
			})
		}
	}
}

// BenchmarkFig7ErrorThreshold measures one kNDS query per iteration across
// the ε_θ sweep — the Figure 7 panels (RDS on both corpora, SDS on both).
func BenchmarkFig7ErrorThreshold(b *testing.B) {
	env := getEnv(b)
	for _, ds := range env.Datasets() {
		for _, sds := range []bool{false, true} {
			kind := "RDS"
			if sds {
				kind = "SDS"
			}
			r := rand.New(rand.NewSource(13))
			var queries [][]ontology.ConceptID
			if sds {
				queries = ds.RandomQueryDocs(r, env.Scale.RankQueries)
			} else {
				queries = ds.RandomQueries(r, env.Scale.RankQueries, bench.DefaultNq)
			}
			for _, eps := range bench.ErrorThresholds {
				b.Run(fmt.Sprintf("%s/%s/eps=%.2f", kind, ds.Name, eps), func(b *testing.B) {
					opts := core.Options{K: bench.DefaultK, ErrorThreshold: eps}
					for i := 0; i < b.N; i++ {
						q := queries[i%len(queries)]
						var err error
						if sds {
							_, _, err = ds.Engine.SDSContext(context.Background(), q, opts)
						} else {
							_, _, err = ds.Engine.RDSContext(context.Background(), q, opts)
						}
						if err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkFig8QuerySize measures RDS query time against query size for
// kNDS and the full-scan baseline — the Figure 8 panels.
func BenchmarkFig8QuerySize(b *testing.B) {
	env := getEnv(b)
	for _, ds := range env.Datasets() {
		for _, nq := range bench.QuerySizes {
			r := rand.New(rand.NewSource(17))
			queries := ds.RandomQueries(r, env.Scale.RankQueries, nq)
			b.Run(fmt.Sprintf("%s/nq=%d/kNDS", ds.Name, nq), func(b *testing.B) {
				opts := core.Options{K: bench.DefaultK, ErrorThreshold: ds.DefaultEps}
				for i := 0; i < b.N; i++ {
					if _, _, err := ds.Engine.RDSContext(context.Background(), queries[i%len(queries)], opts); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("%s/nq=%d/baseline", ds.Name, nq), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, _, err := ds.Engine.FullScanRDSContext(context.Background(), queries[i%len(queries)], core.Options{K: bench.DefaultK}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig9NumResults measures query time against k for both query
// types, kNDS vs the (k-independent) baseline — the Figure 9 panels.
func BenchmarkFig9NumResults(b *testing.B) {
	env := getEnv(b)
	for _, ds := range env.Datasets() {
		for _, sds := range []bool{false, true} {
			kind := "RDS"
			if sds {
				kind = "SDS"
			}
			r := rand.New(rand.NewSource(19))
			var queries [][]ontology.ConceptID
			if sds {
				queries = ds.RandomQueryDocs(r, env.Scale.RankQueries)
			} else {
				queries = ds.RandomQueries(r, env.Scale.RankQueries, bench.DefaultNq)
			}
			for _, k := range bench.Ks {
				b.Run(fmt.Sprintf("%s/%s/k=%d/kNDS", kind, ds.Name, k), func(b *testing.B) {
					opts := core.Options{K: k, ErrorThreshold: ds.DefaultEps}
					for i := 0; i < b.N; i++ {
						q := queries[i%len(queries)]
						var err error
						if sds {
							_, _, err = ds.Engine.SDSContext(context.Background(), q, opts)
						} else {
							_, _, err = ds.Engine.RDSContext(context.Background(), q, opts)
						}
						if err != nil {
							b.Fatal(err)
						}
					}
				})
			}
			b.Run(fmt.Sprintf("%s/%s/baseline", kind, ds.Name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					q := queries[i%len(queries)]
					var err error
					if sds {
						_, _, err = ds.Engine.FullScanSDSContext(context.Background(), q, core.Options{K: bench.DefaultK})
					} else {
						_, _, err = ds.Engine.FullScanRDSContext(context.Background(), q, core.Options{K: bench.DefaultK})
					}
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

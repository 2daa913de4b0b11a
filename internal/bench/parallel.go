package bench

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"conceptrank/internal/core"
	"conceptrank/internal/ontology"
)

// Parallel execution experiment (beyond the paper): the EDBT evaluation is
// single-threaded. kNDS is one serial loop per query (many queries at
// once are as many goroutines), so the one parallel layer inside a query
// is the partitioned full scan, measured here against its one-partition
// form on the same calibrated workloads. It is result-identical to the
// serial scan (TestFullScanParallelMatchesSerial), so the table reports
// pure throughput.
//
// Speedup is bounded by GOMAXPROCS: on a single-core host every row sits
// near 1x (the table's title records the core count so EXPERIMENTS.md
// entries are interpretable).

// ParallelWorkerGrid is the Options.Workers sweep of the parallel
// experiment.
var ParallelWorkerGrid = []int{1, 2, 4, 8}

// ParallelScan measures the partitioned full-scan baseline at
// several Options.Workers settings — the one place Workers acts.
func ParallelScan(env *Env) (*Table, error) {
	t := &Table{
		ID: "parallel-scan",
		Title: fmt.Sprintf("Partitioned full scan vs Options.Workers (GOMAXPROCS=%d)",
			runtime.GOMAXPROCS(0)),
		Header: []string{"dataset", "workers", "scan ms/q", "scan speedup"},
	}
	for _, ds := range env.Datasets() {
		_, queries := workload(env, ds, false)
		// One untimed pass first: the address cache and the arenas are
		// warm for every row, not only for the rows after Workers 1,
		// which every speedup divides by.
		for _, q := range queries {
			if _, _, err := ds.Engine.FullScanRDSContext(context.Background(), q, core.Options{K: DefaultK}); err != nil {
				return nil, err
			}
		}
		var serialScan time.Duration
		for _, w := range ParallelWorkerGrid {
			start := time.Now()
			for _, q := range queries {
				if _, _, err := ds.Engine.FullScanRDSContext(context.Background(), q, core.Options{K: DefaultK, Workers: w}); err != nil {
					return nil, err
				}
			}
			scan := time.Since(start) / time.Duration(len(queries))
			if w == 1 {
				serialScan = scan
			}
			t.Add(ds.Name, itoa(w), ms(scan), f2(float64(serialScan)/float64(scan)))
		}
	}
	return t, nil
}

func workload(env *Env, ds *Dataset, sds bool) (string, [][]ontology.ConceptID) {
	r := rand.New(rand.NewSource(41))
	if sds {
		return "SDS", ds.RandomQueryDocs(r, env.Scale.RankQueries)
	}
	return "RDS", ds.RandomQueries(r, env.Scale.RankQueries, DefaultNq)
}

package bench

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"conceptrank/internal/core"
	"conceptrank/internal/index"
	"conceptrank/internal/ontology"
	"conceptrank/internal/store"
	"conceptrank/internal/ta"
)

// Ablation experiments for the design choices DESIGN.md calls out. These
// go beyond the paper's figures: they quantify each engineering decision in
// isolation.

// AblationDedup compares BFS visit deduplication on (our default) and off
// (the paper's description: "labeling a visited node is more expensive").
func AblationDedup(env *Env) (*Table, error) {
	t := &Table{
		ID:     "abl-dedup",
		Title:  "BFS visit dedup on/off (RDS, defaults)",
		Header: []string{"dataset", "dedup ms", "no-dedup ms", "dedup nodes", "no-dedup nodes"},
	}
	for _, ds := range env.Datasets() {
		r := rand.New(rand.NewSource(29))
		queries := ds.RandomQueries(r, env.Scale.RankQueries, DefaultNq)
		withDedup, err := runWorkloadNodes(ds, queries, core.Options{K: DefaultK, ErrorThreshold: ds.DefaultEps})
		if err != nil {
			return nil, err
		}
		noDedup, err := runWorkloadNodes(ds, queries, core.Options{K: DefaultK, ErrorThreshold: ds.DefaultEps, NoDedup: true})
		if err != nil {
			return nil, err
		}
		t.Add(ds.Name, ms(withDedup.avg), ms(noDedup.avg), f2(withDedup.nodes), f2(noDedup.nodes))
	}
	return t, nil
}

type nodesResult struct {
	avg   time.Duration
	nodes float64
}

func runWorkloadNodes(ds *Dataset, queries [][]ontology.ConceptID, opts core.Options) (nodesResult, error) {
	var total time.Duration
	var nodes float64
	for _, q := range queries {
		_, m, err := ds.Engine.RDSContext(context.Background(), q, opts)
		if err != nil {
			return nodesResult{}, err
		}
		total += m.TotalTime
		nodes += float64(m.NodesVisited)
	}
	return nodesResult{avg: total / time.Duration(len(queries)), nodes: nodes / float64(len(queries))}, nil
}

// AblationQueueLimit sweeps the BFS queue limit.
func AblationQueueLimit(env *Env) (*Table, error) {
	t := &Table{
		ID:     "abl-queue",
		Title:  "Queue limit sweep (RDS, RADIO): forced examinations vs time",
		Header: []string{"limit", "total ms", "forced exams", "examined"},
	}
	ds := env.Radio
	r := rand.New(rand.NewSource(31))
	queries := ds.RandomQueries(r, env.Scale.RankQueries, DefaultNq)
	for _, limit := range []int{100, 1000, 10_000, 50_000, -1} {
		var total time.Duration
		var forced, examined float64
		for _, q := range queries {
			_, m, err := ds.Engine.RDSContext(context.Background(), q, core.Options{K: DefaultK, ErrorThreshold: ds.DefaultEps, QueueLimit: limit})
			if err != nil {
				return nil, err
			}
			total += m.TotalTime
			forced += float64(m.ForcedExams)
			examined += float64(m.DocsExamined)
		}
		n := float64(len(queries))
		label := itoa(limit)
		if limit < 0 {
			label = "unlimited"
		}
		t.Add(label, ms(total/time.Duration(len(queries))), f2(forced/n), f2(examined/n))
	}
	return t, nil
}

// AblationSkipCovered toggles optimization 3 (reuse accumulated distances
// instead of probing DRC when all query nodes are covered).
func AblationSkipCovered(env *Env) (*Table, error) {
	t := &Table{
		ID:     "abl-skip",
		Title:  "Optimization 3 (skip DRC when fully covered) on/off (RDS, ε_θ=0)",
		Header: []string{"dataset", "opt on ms", "opt off ms", "opt on DRC calls", "opt off DRC calls"},
	}
	for _, ds := range env.Datasets() {
		r := rand.New(rand.NewSource(37))
		queries := ds.RandomQueries(r, env.Scale.RankQueries, DefaultNq)
		on, err := runWorkload(ds.Engine, false, queries, core.Options{K: DefaultK, ErrorThreshold: 0})
		if err != nil {
			return nil, err
		}
		off, err := runWorkload(ds.Engine, false, queries, core.Options{K: DefaultK, ErrorThreshold: 0, NoSkipWhenCovered: true})
		if err != nil {
			return nil, err
		}
		t.Add(ds.Name, ms(on.Total), ms(off.Total), f2(on.DRCCalls), f2(off.DRCCalls))
	}
	return t, nil
}

// AblationStore compares in-memory indexes against the disk-backed store
// (the paper's MySQL I/O component).
func AblationStore(env *Env) (*Table, error) {
	t := &Table{
		ID:     "abl-store",
		Title:  "Index backend: memory vs disk store (RDS, defaults) — I/O share of total time",
		Header: []string{"dataset", "mem ms", "disk ms", "disk io ms", "io reads/query"},
	}
	dir, err := os.MkdirTemp("", "crbench-store")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	for _, ds := range env.Datasets() {
		invPath := filepath.Join(dir, ds.Name+".inv")
		fwdPath := filepath.Join(dir, ds.Name+".fwd")
		if err := store.BuildInvertedFile(invPath, ds.Coll); err != nil {
			return nil, err
		}
		if err := store.BuildForwardFile(fwdPath, ds.Coll); err != nil {
			return nil, err
		}
		var ioStats store.IOStats
		dinv, err := store.OpenInverted(invPath, &ioStats, 256)
		if err != nil {
			return nil, err
		}
		dfwd, err := store.OpenForward(fwdPath, &ioStats, 256)
		if err != nil {
			return nil, err
		}
		diskEngine := core.NewEngine(env.O, dinv, dfwd, ds.Coll.NumDocs(), &ioStats)

		r := rand.New(rand.NewSource(41))
		queries := ds.RandomQueries(r, env.Scale.RankQueries, DefaultNq)
		mem, err := runWorkload(ds.Engine, false, queries, core.Options{K: DefaultK, ErrorThreshold: ds.DefaultEps})
		if err != nil {
			return nil, err
		}
		readsBefore := ioStats.Reads.Load()
		disk, err := runWorkload(diskEngine, false, queries, core.Options{K: DefaultK, ErrorThreshold: ds.DefaultEps})
		if err != nil {
			return nil, err
		}
		readsPerQuery := float64(ioStats.Reads.Load()-readsBefore) / float64(len(queries))
		t.Add(ds.Name, ms(mem.Total), ms(disk.Total), ms(disk.IO), f2(readsPerQuery))
		dinv.Close()
		dfwd.Close()
	}
	return t, nil
}

// TAExperiment compares the Threshold Algorithm baseline against kNDS for
// RDS, reporting TA's precomputation cost separately (the paper's Section
// 4.1 argument: the index is enormous offline work and useless for SDS).
func TAExperiment(env *Env) (*Table, error) {
	t := &Table{
		ID:     "ta",
		Title:  "Threshold Algorithm vs kNDS (RDS, defaults); TA needs offline per-concept distance postings",
		Header: []string{"dataset", "TA build ms/query-concepts", "TA query ms", "kNDS ms"},
	}
	for _, ds := range env.Datasets() {
		r := rand.New(rand.NewSource(43))
		nQueries := env.Scale.RankQueries
		if nQueries > 10 {
			nQueries = 10 // TA build cost is per-concept; keep the experiment bounded
		}
		queries := ds.RandomQueries(r, nQueries, DefaultNq)
		fwd := index.BuildMemForward(ds.Coll)
		var buildTotal, queryTotal time.Duration
		for _, q := range queries {
			ix, err := ta.Build(env.O, ds.Coll, fwd, q)
			if err != nil {
				return nil, err
			}
			buildTotal += ix.BuildTime
			_, stats, err := ix.TopK(q, DefaultK)
			if err != nil {
				return nil, err
			}
			queryTotal += stats.QueryTime
		}
		knds, err := runWorkload(ds.Engine, false, queries, core.Options{K: DefaultK, ErrorThreshold: ds.DefaultEps})
		if err != nil {
			return nil, err
		}
		n := time.Duration(len(queries))
		t.Add(ds.Name, ms(buildTotal/n), ms(queryTotal/n), ms(knds.Total))
	}
	t.Note("TA build cost shown per query's %d concepts; the paper's offline variant would pay it for all |C| concepts and re-pay on every corpus update", DefaultNq)
	return t, nil
}

package shard

// Block-partitioned top-k pair join: each shard's documents form one
// PairBlock, and the all-pairs universe decomposes exactly into the
// intra-block tasks (i,i) and the cross-block tasks (i,j), i < j — a
// disjoint partition, so the per-task TotalPairs counters sum to the
// single-engine universe. Every task offers its exact distances into one
// shared core.PairMerger and prunes against its global k-th threshold,
// which is monotonically non-increasing; a bound that prunes against any
// snapshot of it is therefore valid against the final heap, making the
// merged result independent of task interleaving and bitwise identical
// to the single-engine join (and hence to the naive oracle). A task
// whose termination floor clears the global threshold stops early —
// cancellation across blocks, the pair analogue of the cross-shard
// bound.
//
// Blocks are built over the union vocabulary of all shards, so a
// cross-block task can resolve either side's terms from either block's
// vectors. Each shard builds its vectors through its own cache-aware
// seed path (accepting one ontology sweep per shard per concept; block
// builds run concurrently to hide it).

import (
	"context"
	"sort"
	"time"

	"conceptrank/internal/core"
	"conceptrank/internal/corpus"
	"conceptrank/internal/ontology"
	"conceptrank/internal/pool"
)

// TopKPairs returns the k lowest-Ddd document pairs across the whole
// partitioned collection, bitwise identical to core.Engine.TopKPairs
// over the union collection. Options.Workers bounds the concurrent block
// tasks (0 = GOMAXPROCS).
func (e *Engine) TopKPairs(ctx context.Context, opts core.PairOptions) ([]core.PairResult, *core.PairMetrics, error) {
	opts = opts.Normalize()
	m := &core.PairMetrics{}
	start := time.Now()
	ns := len(e.shards)

	// Union vocabulary and per-shard snapshot counts, sampled up front so
	// every block's vectors cover every concept any block can reveal.
	vocabs := make([][]ontology.ConceptID, ns)
	counts := make([]int, ns)
	for i, sh := range e.shards {
		v, n, err := sh.PairVocab()
		if err != nil {
			m.TotalTime = time.Since(start)
			return nil, m, err
		}
		vocabs[i], counts[i] = v, n
	}
	vocab := unionConcepts(vocabs)

	// Build one block per shard, concurrently; per-build metrics are
	// task-local and merged after the barrier.
	blocks := make([]*core.PairBlock, ns)
	bms := make([]core.PairMetrics, ns)
	bg, bctx := pool.GroupWithContext(ctx)
	bg.SetLimit(opts.Workers)
	for i := range e.shards {
		i := i
		bg.Go(func() error {
			if err := bctx.Err(); err != nil {
				return err
			}
			t0 := time.Now()
			blk, err := e.shards[i].BuildPairBlock(counts[i], vocab,
				func(l corpus.DocID) corpus.DocID { return e.maps[i][l] },
				opts.Cache, &bms[i])
			bms[i].SeedTime = time.Since(t0)
			blocks[i] = blk
			return err
		})
	}
	if err := bg.Wait(); err != nil {
		for i := range bms {
			m.Add(&bms[i])
		}
		m.TotalTime = time.Since(start)
		return nil, m, err
	}

	// Fan out the task grid (i,j), i <= j, against the shared merger.
	type task struct{ i, j int }
	var tasks []task
	for i := 0; i < ns; i++ {
		for j := i; j < ns; j++ {
			tasks = append(tasks, task{i, j})
		}
	}
	mg := core.NewPairMerger(opts.K)
	tms := make([]core.PairMetrics, len(tasks))
	jg, jctx := pool.GroupWithContext(ctx)
	jg.SetLimit(opts.Workers)
	for ti, tk := range tasks {
		ti, tk := ti, tk
		jg.Go(func() error {
			t0 := time.Now()
			err := core.PairBlockJoin(jctx, blocks[tk.i], blocks[tk.j], opts, mg, &tms[ti])
			tms[ti].JoinTime = time.Since(t0)
			return err
		})
	}
	err := jg.Wait()
	for i := range bms {
		m.Add(&bms[i])
	}
	for i := range tms {
		m.Add(&tms[i])
	}
	if err != nil {
		m.TotalTime = time.Since(start)
		return nil, m, err
	}
	res := mg.Sorted()
	m.ResultCount = len(res)
	m.TotalTime = time.Since(start)
	return res, m, nil
}

// unionConcepts merges per-shard sorted vocabularies into one sorted
// distinct union.
func unionConcepts(vocabs [][]ontology.ConceptID) []ontology.ConceptID {
	seen := make(map[ontology.ConceptID]struct{})
	var out []ontology.ConceptID
	for _, v := range vocabs {
		for _, c := range v {
			if _, ok := seen[c]; !ok {
				seen[c] = struct{}{}
				out = append(out, c)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

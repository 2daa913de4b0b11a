package bench

import (
	"context"
	"fmt"
	"time"

	"conceptrank/internal/cache"
	"conceptrank/internal/core"
	"conceptrank/internal/corpus"
	"conceptrank/internal/index"
)

// pairDocCap bounds the pair-join corpus so the naive O(n²) oracle stays
// runnable: the experiment is about the evaluated fraction, and a few
// hundred documents already give tens of thousands of candidate pairs.
const pairDocCap = 250

// PairJoin measures the bounded all-pairs SDS join against the naive
// reference join that evaluates every pair, on a (possibly subsampled)
// prefix of each dataset. Four tiers per dataset:
//
//   - naive: the oracle, exact Ddd for all n·(n-1)/2 pairs
//   - bounded: the level-synchronous join with k-th-best pruning, cold cache
//   - bounded warm: same engine, second run against a now-warm seed cache
//   - bounded ×4: the same join split into 4 document ranges, its 10
//     range-pair tasks run concurrently (PairOptions.Workers 4), cold cache
//
// Every non-naive tier is verified bitwise identical to the oracle — same
// pairs, same distances, same tie-order. The bounded ×4 row's examined
// and pruned counts depend on how its tasks interleave.
func PairJoin(env *Env) (*Table, error) {
	t := &Table{
		ID:     "pairs",
		Title:  fmt.Sprintf("Top-k similar pairs: bounded all-pairs join vs naive (k=%d)", DefaultK),
		Header: []string{"dataset", "docs", "tier", "total ms", "seed ms", "examined", "of pairs", "frac", "pruned", "identical"},
	}
	ctx := context.Background()
	for _, ds := range env.Datasets() {
		coll, eng := pairCorpus(env, ds)
		opts := core.PairOptions{K: DefaultK, ErrorThreshold: ds.DefaultEps}

		want, nm, err := eng.TopKPairsNaive(ctx, opts)
		if err != nil {
			return nil, fmt.Errorf("bench: pairs %s naive: %w", ds.Name, err)
		}
		addPairRow(t, ds.Name, coll.NumDocs(), "naive", nm, "—")

		// The engine may be the dataset's shared one: detach the cache
		// before the next experiment queries it.
		eng.EnableCache(cache.New(cache.Config{}))
		for _, tier := range []string{"bounded", "bounded warm"} {
			got, m, err := eng.TopKPairs(ctx, opts)
			if err != nil {
				eng.EnableCache(nil)
				return nil, fmt.Errorf("bench: pairs %s %s: %w", ds.Name, tier, err)
			}
			addPairRow(t, ds.Name, coll.NumDocs(), tier, m, samePairs(want, got))
		}
		eng.EnableCache(nil)

		ranged := opts
		ranged.Workers = 4
		got, rm, err := eng.TopKPairs(ctx, ranged)
		if err != nil {
			return nil, fmt.Errorf("bench: pairs %s ×4: %w", ds.Name, err)
		}
		addPairRow(t, ds.Name, coll.NumDocs(), "bounded ×4", rm, samePairs(want, got))
	}
	t.Note("bounded tiers verified bitwise identical to the naive oracle; corpora capped at %d docs so the oracle stays runnable", pairDocCap)
	t.Note("seed ms is PairMetrics.SeedTime: the vocabulary's seed vectors, resolved in one batch whose builds run on up to GOMAXPROCS goroutines (0 for the naive oracle, which builds none)")
	t.Note("bounded ×4 is the join split into 4 document ranges (PairOptions.Workers 4): its examined and pruned counts depend on scheduling and stay out of any counts file")
	return t, nil
}

// pairCorpus returns the dataset's collection and engine, subsampled to
// the first pairDocCap documents when the collection is larger.
func pairCorpus(env *Env, ds *Dataset) (*corpus.Collection, *core.Engine) {
	if ds.Coll.NumDocs() <= pairDocCap {
		return ds.Coll, ds.Engine
	}
	sub := corpus.New()
	for i := 0; i < pairDocCap; i++ {
		d := ds.Coll.Doc(corpus.DocID(i))
		sub.Add(d.Name, d.TokenCount, d.Concepts)
	}
	eng := core.NewEngine(env.O, index.BuildMemInverted(sub), index.BuildMemForward(sub), sub.NumDocs(), nil)
	return sub, eng
}

func addPairRow(t *Table, name string, docs int, tier string, m *core.PairMetrics, identical string) {
	t.Add(name, fmt.Sprintf("%d", docs), tier,
		ms(m.TotalTime.Round(time.Microsecond)),
		ms(m.SeedTime.Round(time.Microsecond)),
		fmt.Sprintf("%d", m.PairsExamined),
		fmt.Sprintf("%d", m.TotalPairs),
		fmt.Sprintf("%.1f%%", 100*m.EvaluatedFraction()),
		fmt.Sprintf("%d", m.PairsPruned),
		identical)
}

// samePairs reports whether two pair rankings are bitwise identical.
func samePairs(want, got []core.PairResult) string {
	if len(want) != len(got) {
		return "NO"
	}
	for i := range want {
		if want[i] != got[i] {
			return "NO"
		}
	}
	return "yes"
}

package bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"conceptrank/internal/cache"
	"conceptrank/internal/core"
	"conceptrank/internal/ontology"
	"conceptrank/internal/shard"
)

// memShards is the fan-out width of the sharded tier.
const memShards = 4

// MemStats profiles where the engine's memory goes: a Zipf-skewed RDS
// stream runs on each execution tier (serial, sharded) cold and warm
// against a distance cache, and the tier's allocation rate and GC impact
// come from runtime.MemStats deltas around the whole stream (Mallocs,
// TotalAlloc, NumGC, PauseTotalNs — a forced GC settles the heap before
// each measurement so one tier's garbage does not bill the next). A second
// table attributes the serial tier's allocations to pipeline stages via
// the engine's opt-in StageAllocs sampler.
//
// The numbers are process-wide: the sharded tier includes its shard
// goroutines' allocations, which is the point — that is the memory cost a
// deployment of that tier pays per query.
func MemStats(env *Env) ([]*Table, error) {
	tiers := &Table{
		ID:     "memstats",
		Title:  "Allocations and GC impact per execution tier (Zipf RDS stream)",
		Header: []string{"dataset", "tier", "cache", "ms/query", "KB/query", "objs/query", "GC cycles", "GC pause µs/query"},
	}
	stages := &Table{
		ID:     "memstats-stages",
		Title:  "Per-stage attribution (serial tier, cache off, StageAllocs sampler on)",
		Header: []string{"dataset", "stage", "µs/query", "time share", "KB/query", "objs/query"},
	}

	for _, ds := range env.Datasets() {
		r := rand.New(rand.NewSource(53))
		queries := zipfQueries(r, ds.Eligible, 2*env.Scale.RankQueries, DefaultNq)
		base := core.Options{K: DefaultK, ErrorThreshold: ds.DefaultEps}
		nq := float64(len(queries))

		se, err := shard.New(env.O, ds.Coll, shard.Config{Shards: memShards, Placement: shard.RoundRobin})
		if err != nil {
			return nil, err
		}

		runTier := map[string]func(opts core.Options) error{
			"serial": func(opts core.Options) error {
				return driveRDS(ds.Engine, queries, opts)
			},
			"sharded": func(opts core.Options) error {
				for _, q := range queries {
					if _, _, err := se.RDS(q, opts); err != nil {
						return err
					}
				}
				return nil
			},
		}

		for _, tierName := range []string{"serial", "sharded"} {
			run := runTier[tierName]
			for _, warm := range []bool{false, true} {
				// A fresh cache per measurement: the cold pass bills the
				// cache fills, the warm pass measures the steady state after
				// an untimed warming pass over the same stream.
				cc := cache.New(cache.Config{MaxBytes: 64 << 20})
				opts := base
				opts.Cache = cc
				label := "cold"
				if warm {
					label = "warm"
					if err := run(opts); err != nil {
						return nil, err
					}
				}
				runtime.GC()
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				start := time.Now()
				if err := run(opts); err != nil {
					return nil, err
				}
				elapsed := time.Since(start)
				runtime.ReadMemStats(&after)
				tiers.Add(ds.Name, tierName, label,
					fmt.Sprintf("%.3f", elapsed.Seconds()*1e3/nq),
					fmt.Sprintf("%.1f", float64(after.TotalAlloc-before.TotalAlloc)/1024/nq),
					fmt.Sprintf("%.0f", float64(after.Mallocs-before.Mallocs)/nq),
					fmt.Sprintf("%d", after.NumGC-before.NumGC),
					fmt.Sprintf("%.2f", float64(after.PauseTotalNs-before.PauseTotalNs)/1e3/nq))
			}
		}

		// Stage attribution: same stream, serial, no cache, allocation
		// sampler on. Aggregated over the whole stream and reported per
		// query so the rows line up with the tier table.
		sopts := base
		sopts.StageAllocs = true
		var agg core.StageStats
		runtime.GC()
		for _, q := range queries {
			_, m, err := ds.Engine.RDS(q, sopts)
			if err != nil {
				return nil, err
			}
			core.MergeStages(&agg, &m.Stages)
		}
		var total time.Duration
		for i := range agg {
			total += agg[i].Time
		}
		for i := range agg {
			st := agg[i]
			if st.Time == 0 && st.AllocBytes == 0 && st.AllocObjects == 0 {
				continue
			}
			share := "—"
			if total > 0 {
				share = fmt.Sprintf("%.0f%%", 100*float64(st.Time)/float64(total))
			}
			stages.Add(ds.Name, core.Stage(i).String(),
				fmt.Sprintf("%.1f", st.Time.Seconds()*1e6/nq),
				share,
				fmt.Sprintf("%.1f", float64(st.AllocBytes)/1024/nq),
				fmt.Sprintf("%.0f", float64(st.AllocObjects)/nq))
		}
	}

	tiers.Note("runtime.MemStats deltas over the whole %d-query stream; runtime.GC() before each measurement; sharded rows include the shard goroutines' allocations", 2*env.Scale.RankQueries)
	stages.Note("stage alloc deltas are process-wide runtime/metrics samples at stage boundaries (Options.StageAllocs); attribution exact only on an idle process")
	return []*Table{tiers, stages}, nil
}

// driveRDS runs every query on the single engine, discarding results.
func driveRDS(e *core.Engine, queries [][]ontology.ConceptID, opts core.Options) error {
	for _, q := range queries {
		if _, _, err := e.RDS(q, opts); err != nil {
			return err
		}
	}
	return nil
}

package core

// Per-stage time attribution. The staged pipeline (pipeline.go) already
// owns a wall clock at every stage boundary for the paper-level Metrics
// times (TraversalTime, DistanceTime); this file gives each stage its own
// bucket so a profile of *where* a query spends falls out of every run.
// Attribution is observation-only: recording a stage is two time.Now
// calls the pipeline already pays plus one addition. Allocations are
// measured from outside the engine (the repository benchmark's pool.*
// rows), not per stage.

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"
)

// Stage identifies one pipeline stage for resource attribution. The
// values index Metrics.Stages.
type Stage uint8

const (
	// StagePlan is query normalization, validation and DRC preparation.
	StagePlan Stage = iota
	// StageSeed is cached seed-vector resolution and their fold into the
	// query's ranking (zero without a cache).
	StageSeed
	// StageWave is BFS frontier expansion: postings lookups, bound-table
	// observation, neighbor pushes.
	StageWave
	// StageBound is the per-wave candidate refresh: lower-bound
	// recomputation, compaction and heapifying the candidates into commit
	// order.
	StageBound
	// StageExam is the examination phase: the serial commit loop, which
	// pops candidates off the heap, prunes or examines them, and pays for
	// the exact-distance (DRC) calls.
	StageExam
	// StageCollect is the per-wave termination bookkeeping: publishing d⁻
	// (read off the commit loop), progressive emission and final result
	// materialization.
	StageCollect
	// StageMerge is the sharded engine's cross-shard merge (zero for
	// single-engine queries).
	StageMerge

	// NumStages bounds the Stage values; Metrics.Stages has this length.
	NumStages = int(StageMerge) + 1
)

var stageNames = [NumStages]string{
	"plan", "seed", "wave", "bound", "exam", "collect", "merge",
}

// String returns the stage's exposition label ("plan", "wave", ...).
func (s Stage) String() string {
	if int(s) < NumStages {
		return stageNames[s]
	}
	return fmt.Sprintf("stage(%d)", int(s))
}

// StageStat is the account of one pipeline stage within one query: its
// wall time.
type StageStat struct {
	Time time.Duration `json:"time_ns"`
}

// StageStats is the per-stage breakdown of a query, indexed by Stage.
// Stages a query never entered stay zero (e.g. StageSeed without a cache,
// StageMerge outside the sharded engine). The sum of stage times tracks
// TotalTime minus inter-stage glue; it is not an exact partition.
type StageStats [NumStages]StageStat

// MarshalJSON renders the breakdown as an object keyed by stage name,
// omitting stages with no recorded cost, so /debug/slowlog and /search
// metrics stay readable.
func (s StageStats) MarshalJSON() ([]byte, error) {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for i := range s {
		t := s[i].Time
		if t == 0 {
			continue
		}
		if !first {
			b.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&b, "%q:{\"time_ns\":%d}", Stage(i).String(), t.Nanoseconds())
	}
	b.WriteByte('}')
	return []byte(b.String()), nil
}

// UnmarshalJSON parses the object form MarshalJSON emits: keys are stage
// names, unknown keys are rejected (they indicate a reader/writer version
// skew worth surfacing), absent stages stay zero.
func (s *StageStats) UnmarshalJSON(data []byte) error {
	var raw map[string]StageStat
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	*s = StageStats{}
	for name, st := range raw {
		idx := -1
		for i, n := range stageNames {
			if n == name {
				idx = i
				break
			}
		}
		if idx < 0 {
			return fmt.Errorf("core: unknown stage %q", name)
		}
		s[idx] = st
	}
	return nil
}

// MergeStages accumulates src into dst stage by stage — the rule the
// sharded engine's metric merge applies (shards run the same stages, so
// their per-stage costs sum like the component times they refine).
func MergeStages(dst *StageStats, src *StageStats) {
	for i := range dst {
		dst[i].Time += src[i].Time
	}
}

// recordStage attributes the wall time since from to stage, returning the
// elapsed time so callers can feed the paper-level component times
// (TraversalTime, DistanceTime) from the same clock reading.
func recordStage(m *Metrics, stage Stage, from time.Time) time.Duration {
	d := time.Since(from)
	m.Stages[stage].Time += d
	return d
}

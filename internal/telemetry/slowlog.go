package telemetry

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"time"

	"conceptrank/internal/core"
)

// SlowEntry is one recorded slow (or failed) query.
type SlowEntry struct {
	// When the query completed.
	When time.Time `json:"when"`
	// Kind labels the entry point: "rds", "sds", "scan_rds", "scan_sds",
	// with a "sharded_" prefix for sharded queries.
	Kind string `json:"kind"`
	// Latency is the query's wall-clock time.
	Latency time.Duration `json:"latency_ns"`
	// Err is the error string, empty on success.
	Err string `json:"err,omitempty"`
	// Metrics is the query's final metrics snapshot.
	Metrics core.Metrics `json:"metrics"`
	// Events is the query's span-event stream, truncated to the
	// recorder's per-query cap (TruncatedEvents counts the overflow).
	Events []SlowEvent `json:"events,omitempty"`
	// TruncatedEvents is how many span events were dropped beyond the cap.
	TruncatedEvents int `json:"truncated_events,omitempty"`
}

// SlowEvent is a core.TraceEvent rendered for the slow log: the kind is
// stringified so /debug/slowlog is readable without the enum table.
type SlowEvent struct {
	Kind  string        `json:"kind"`
	At    time.Duration `json:"at_ns"`
	Wave  int           `json:"wave,omitempty"`
	Depth int           `json:"depth,omitempty"`
	Doc   int           `json:"doc,omitempty"`
	Value jsonFloat     `json:"value,omitempty"`
	N     int           `json:"n,omitempty"`
	Shard int           `json:"shard,omitempty"`
}

// jsonFloat is a float64 that survives JSON encoding when non-finite.
// Span events legitimately carry ±Inf — a Bound event reports d⁻ = +Inf
// once every document is discovered — and encoding/json rejects
// non-finite numbers outright, which would blank the whole /debug/slowlog
// response. Non-finite values encode as the strings "+Inf"/"-Inf"/"NaN"
// (the same spelling Prometheus uses for the +Inf bucket bound).
type jsonFloat float64

func (f jsonFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	}
	return json.Marshal(v)
}

func (f *jsonFloat) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		switch s {
		case "+Inf":
			*f = jsonFloat(math.Inf(1))
		case "-Inf":
			*f = jsonFloat(math.Inf(-1))
		case "NaN":
			*f = jsonFloat(math.NaN())
		default:
			return fmt.Errorf("telemetry: invalid float string %q", s)
		}
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*f = jsonFloat(v)
	return nil
}

func toSlowEvent(ev core.TraceEvent) SlowEvent {
	return SlowEvent{
		Kind: ev.Kind.String(), At: ev.At, Wave: ev.Wave, Depth: ev.Depth,
		Doc: int(ev.Doc), Value: jsonFloat(ev.Value), N: ev.N, Shard: ev.Shard,
	}
}

// SlowLog is a fixed-capacity ring buffer of the most recent slow
// queries. Recording and snapshotting are mutex-guarded — the log is off
// the query hot path (only queries over the threshold ever reach it).
type SlowLog struct {
	mu        sync.Mutex
	threshold time.Duration
	ring      []SlowEntry
	next      int
	n         int
}

// NewSlowLog returns a log keeping the last capacity queries whose
// latency reached threshold (failed queries are always logged).
func NewSlowLog(threshold time.Duration, capacity int) *SlowLog {
	if capacity < 1 {
		capacity = 1
	}
	return &SlowLog{threshold: threshold, ring: make([]SlowEntry, capacity)}
}

// Threshold returns the latency floor for an entry to be recorded.
func (l *SlowLog) Threshold() time.Duration { return l.threshold }

// Record unconditionally appends e, evicting the oldest entry when full.
// Callers apply the threshold; see Sink.
func (l *SlowLog) Record(e SlowEntry) {
	l.mu.Lock()
	l.ring[l.next] = e
	l.next = (l.next + 1) % len(l.ring)
	if l.n < len(l.ring) {
		l.n++
	}
	l.mu.Unlock()
}

// Snapshot returns the recorded entries, newest first.
func (l *SlowLog) Snapshot() []SlowEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]SlowEntry, 0, l.n)
	for i := 1; i <= l.n; i++ {
		out = append(out, l.ring[(l.next-i+len(l.ring))%len(l.ring)])
	}
	return out
}

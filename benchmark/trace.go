package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one interval the benchmark recorded around a call into the
// program. All spans of one operation share Op; Parent is the span that
// caused this one (-1 for an operation's root). Times are nanoseconds
// since the tracer was created. Self is filled when the trace is written.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// tracer keeps spans in memory until the run ends. The spans come from the
// benchmark's own files, around the calls it makes; there are none inside
// the program. Safe for concurrent use (the cluster twin records node
// handler spans from server goroutines).
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// add records a finished span and returns its id.
func (t *tracer) add(name string, parent, op int, start, end int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: end})
	return id
}

// begin opens a span; the returned function closes it.
func (t *tracer) begin(name string, parent, op int) (id int, end func()) {
	id = t.add(name, parent, op, t.now(), 0)
	return id, func() {
		e := t.now()
		t.mu.Lock()
		t.spans[id].End = e
		t.mu.Unlock()
	}
}

// selfTimes fills Self: a span's duration minus the part of its interval
// that its child spans cover. Children may overlap each other (parallel
// shard RPCs) and may stick out of the parent (clock skew between a client
// span and a handler span); overlaps count once and overhang is clipped.
func selfTimes(spans []span) {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i := range spans {
		p := &spans[i]
		kids := children[p.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), p.Start
		for _, k := range kids {
			s, e := spans[k].Start, spans[k].End
			if s < edge {
				s = edge
			}
			if e > p.End {
				e = p.End
			}
			if e > s {
				covered += e - s
				edge = e
			}
		}
		p.Self = p.End - p.Start - covered
	}
}

// write stores the trace as benchmark/out/trace-<workload>.json.
func (t *tracer) write(dir, workload string) (string, error) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	selfTimes(spans)
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, spans})
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, data, 0o644)
}

package telemetry

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"conceptrank/internal/cache"
	"conceptrank/internal/core"
)

func testSink(threshold time.Duration) *Sink {
	return New(Config{SlowThreshold: threshold, SlowCapacity: 4, SlowMaxEvents: 8})
}

// fakeQuery drives a recording the way the facade does: emit a few span
// events, then finish with the given metrics and error.
func fakeQuery(s *Sink, kind string, total time.Duration, err error, events int) {
	trace, done := s.Query(kind, nil)
	for i := 0; i < events; i++ {
		trace(core.TraceEvent{Kind: core.TraceDRCProbe, N: 1, Shard: -1})
	}
	trace(core.TraceEvent{Kind: core.TraceTerminate, Value: 0.25, N: 3, Shard: -1})
	m := &core.Metrics{TotalTime: total, Iterations: 2, DRCCalls: events, DocsExamined: events, TerminalEps: 0.25, ResultCount: 3}
	if err != nil {
		done(nil, err)
		return
	}
	done(m, nil)
}

func TestSinkObservesQueries(t *testing.T) {
	s := testSink(time.Hour) // nothing is slow
	fakeQuery(s, "rds", time.Millisecond, nil, 5)
	fakeQuery(s, "rds", 2*time.Millisecond, nil, 7)
	fakeQuery(s, "rds", 0, errors.New("boom"), 0)

	if got := s.Stats.Queries.Value(); got != 3 {
		t.Fatalf("queries = %d, want 3", got)
	}
	if got := s.Stats.Errors.Value(); got != 1 {
		t.Fatalf("errors = %d, want 1", got)
	}
	if got := s.Stats.Latency.Count(); got != 2 {
		t.Fatalf("latency samples = %d, want 2 (failed query had nil metrics)", got)
	}
	if got := s.Stats.TraceEvents.Value(); got != 6+8+1 {
		t.Fatalf("trace events = %d, want 15", got)
	}
	if got := s.Stats.TerminalEps.Count(); got != 2 {
		t.Fatalf("terminal eps samples = %d, want 2", got)
	}
	// Failed queries enter the slow log regardless of latency.
	entries := s.Slow.Snapshot()
	if len(entries) != 1 || entries[0].Err == "" {
		t.Fatalf("slow log = %+v, want just the failed query", entries)
	}
}

func TestSinkSlowLogThresholdAndRing(t *testing.T) {
	s := testSink(10 * time.Millisecond)
	fakeQuery(s, "fast", time.Millisecond, nil, 1) // below threshold: not logged
	for i := 0; i < 6; i++ {                       // capacity 4: oldest two evicted
		fakeQuery(s, "slow", 20*time.Millisecond, nil, 2)
	}
	entries := s.Slow.Snapshot()
	if len(entries) != 4 {
		t.Fatalf("slow log has %d entries, want capacity 4", len(entries))
	}
	for _, e := range entries {
		if e.Kind != "slow" || e.Latency != 20*time.Millisecond {
			t.Fatalf("unexpected entry: %+v", e)
		}
		if len(e.Events) != 3 { // 2 probes + terminate
			t.Fatalf("entry kept %d events, want 3", len(e.Events))
		}
		if e.Events[len(e.Events)-1].Kind != "Terminate" {
			t.Fatalf("events not stringified: %+v", e.Events)
		}
	}
}

// A Bound event legitimately reports d⁻ = +Inf once every document is
// discovered; encoding/json rejects non-finite numbers, so an unguarded
// float64 would blank the whole /debug/slowlog response (regression:
// found driving crserve -demo, where dense synthetic queries discover the
// full corpus).
func TestSlowLogNonFiniteEventValues(t *testing.T) {
	s := testSink(time.Nanosecond) // everything is slow
	trace, done := s.Query("rds", nil)
	trace(core.TraceEvent{Kind: core.TraceBound, Value: math.Inf(1), Shard: -1})
	trace(core.TraceEvent{Kind: core.TraceBound, Value: math.NaN(), Shard: -1})
	trace(core.TraceEvent{Kind: core.TraceTerminate, Value: 0.5, Shard: -1})
	done(&core.Metrics{TotalTime: time.Second}, nil)

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/slowlog", nil))
	body := rec.Body.String()
	var out struct {
		Entries []SlowEntry `json:"entries"`
	}
	if err := json.Unmarshal([]byte(body), &out); rec.Code != 200 || err != nil {
		t.Fatalf("slowlog JSON does not round-trip: %d %v\n%s", rec.Code, err, body)
	}
	ev := out.Entries[0].Events
	if len(ev) != 3 {
		t.Fatalf("kept %d events, want 3", len(ev))
	}
	if !math.IsInf(float64(ev[0].Value), 1) {
		t.Fatalf("event 0 value = %v, want +Inf", ev[0].Value)
	}
	if !math.IsNaN(float64(ev[1].Value)) {
		t.Fatalf("event 1 value = %v, want NaN", ev[1].Value)
	}
	if float64(ev[2].Value) != 0.5 {
		t.Fatalf("event 2 value = %v, want 0.5", ev[2].Value)
	}
	if !strings.Contains(body, `"+Inf"`) {
		t.Fatalf("expected the Prometheus +Inf spelling in %s", body)
	}
}

func TestSinkEventCapIsRecorded(t *testing.T) {
	s := testSink(time.Nanosecond) // everything is slow
	fakeQuery(s, "big", time.Second, nil, 20)
	e := s.Slow.Snapshot()[0]
	if len(e.Events) != 8 {
		t.Fatalf("kept %d events, want cap 8", len(e.Events))
	}
	if e.TruncatedEvents != 21-8 {
		t.Fatalf("truncated = %d, want 13", e.TruncatedEvents)
	}
}

func TestSinkChainsCallerHook(t *testing.T) {
	s := testSink(time.Hour)
	var seen []core.TraceKind
	trace, done := s.Query("rds", func(ev core.TraceEvent) { seen = append(seen, ev.Kind) })
	trace(core.TraceEvent{Kind: core.TraceWaveStart})
	trace(core.TraceEvent{Kind: core.TraceTerminate})
	done(&core.Metrics{}, nil)
	if len(seen) != 2 || seen[0] != core.TraceWaveStart || seen[1] != core.TraceTerminate {
		t.Fatalf("caller hook saw %v", seen)
	}
}

func TestHandlerEndpoints(t *testing.T) {
	s := testSink(time.Nanosecond)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	// /metrics before any query: instruments exist at zero.
	code, body := get("/metrics")
	if code != 200 || !strings.Contains(body, "conceptrank_queries_total 0") {
		t.Fatalf("/metrics: %d\n%s", code, body)
	}

	// The acceptance check: counters and histograms change across queries.
	fakeQuery(s, "rds", 3*time.Millisecond, nil, 4)
	fakeQuery(s, "rds", 5*time.Millisecond, nil, 4)
	_, body = get("/metrics")
	for _, want := range []string{
		"conceptrank_queries_total 2",
		"conceptrank_query_latency_seconds_count 2",
		"conceptrank_query_terminal_epsilon_count 2",
		"# TYPE conceptrank_query_latency_seconds histogram",
		"go_goroutines",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q after queries:\n%s", want, body)
		}
	}

	code, body = get("/debug/slowlog")
	var slow struct {
		Entries []SlowEntry `json:"entries"`
	}
	if code != 200 || json.Unmarshal([]byte(body), &slow) != nil {
		t.Fatalf("/debug/slowlog: %d\n%s", code, body)
	}
	if len(slow.Entries) != 2 {
		t.Fatalf("slowlog entries = %d, want 2 (threshold 0)", len(slow.Entries))
	}

	if code, _ := get("/debug/pprof/cmdline"); code != 200 {
		t.Fatalf("/debug/pprof/cmdline: %d", code)
	}
	if code, _ := get("/"); code != 200 {
		t.Fatalf("index: %d", code)
	}
	if code, _ := get("/nope"); code != 404 {
		t.Fatalf("unknown path: %d, want 404", code)
	}
}

func TestServeBindsAndCloses(t *testing.T) {
	s := testSink(time.Nanosecond)
	srv, err := s.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if _, err := s.Serve(srv.Addr); err == nil {
		t.Fatal("binding the same address twice must fail synchronously")
	}
}

func TestAttachCacheExposition(t *testing.T) {
	s := testSink(time.Second)
	cc := cache.New(cache.Config{})
	s.AttachCache(cc)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	// Drive the cache directly; the series sample it at exposition time.
	cc.GetSeed(1, 7) // miss
	cc.PutSeed(1, 7, cache.Seed{Gen: 3, Docs: []cache.DocDist{{Doc: 0, Dist: 2}}})
	cc.GetSeed(1, 7) // hit
	cc.PutMeasureSeed(1, 2, 3, cache.MSeed{Gen: 1})

	_, body := get("/metrics")
	for _, want := range []string{
		"# TYPE conceptrank_cache_seed_hits_total counter",
		"conceptrank_cache_seed_hits_total 1",
		"conceptrank_cache_seed_misses_total 1",
		"conceptrank_cache_entries 2",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	code, body := get("/debug/cache")
	var snap struct {
		Attached bool
		cache.Stats
	}
	if code != 200 || json.Unmarshal([]byte(body), &snap) != nil {
		t.Fatalf("/debug/cache: %d\n%s", code, body)
	}
	if !snap.Attached || snap.SeedHits != 1 || snap.Entries != 2 {
		t.Fatalf("/debug/cache snapshot: %+v", snap)
	}
}

func TestDebugCacheWithoutAttach(t *testing.T) {
	s := testSink(time.Second)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/cache")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	var snap struct{ Attached bool }
	if resp.StatusCode != 200 || json.Unmarshal(body, &snap) != nil || snap.Attached {
		t.Fatalf("/debug/cache without a cache: %d %s", resp.StatusCode, body)
	}
}

func TestQueryStatsCacheCounters(t *testing.T) {
	s := testSink(time.Second)
	_, done := s.Query("rds", nil)
	done(&core.Metrics{CacheHits: 3, CacheMisses: 2}, nil)
	if got := s.Stats.CacheHits.Value(); got != 3 {
		t.Fatalf("CacheHits = %d, want 3", got)
	}
	if got := s.Stats.CacheMisses.Value(); got != 2 {
		t.Fatalf("CacheMisses = %d, want 2", got)
	}
}

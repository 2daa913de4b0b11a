package conceptrank_test

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"conceptrank"
)

func telemetryEnv(t *testing.T) (*conceptrank.Ontology, *conceptrank.Collection) {
	t.Helper()
	o, err := conceptrank.GenerateOntology(conceptrank.OntologyConfig{NumConcepts: 400, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	coll, err := conceptrank.GenerateCorpus(o, conceptrank.RadioProfile(0.02, 5))
	if err != nil {
		t.Fatal(err)
	}
	return o, coll
}

// TestEngineTelemetryEndToEnd drives the acceptance path: an engine with
// telemetry enabled serves /metrics whose counters and histograms change
// across queries, the caller's own Trace hook still fires, and the slow
// log captures span events.
func TestEngineTelemetryEndToEnd(t *testing.T) {
	o, coll := telemetryEnv(t)
	eng := conceptrank.NewEngine(o, coll)
	tel := conceptrank.NewTelemetry(conceptrank.TelemetryConfig{SlowThreshold: time.Nanosecond})
	eng.EnableTelemetry(tel)

	srv := httptest.NewServer(tel.Handler())
	defer srv.Close()
	fetch := func(path string) string {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}

	if !strings.Contains(fetch("/metrics"), "conceptrank_queries_total 0") {
		t.Fatal("/metrics should expose zeroed instruments before any query")
	}

	var hookEvents int
	q := []conceptrank.ConceptID{3, 11, 57}
	_, m, err := eng.RDSContext(context.Background(), q, conceptrank.Options{K: 5, ErrorThreshold: 0.5,
		Trace: func(conceptrank.TraceEvent) { hookEvents++ }})
	if err != nil {
		t.Fatal(err)
	}
	if hookEvents == 0 {
		t.Fatal("caller trace hook was not chained")
	}
	if _, _, err := eng.SDSContext(context.Background(), coll.Doc(0).Concepts, conceptrank.Options{K: 3}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.FullScanRDS(q, conceptrank.WithK(5)); err != nil {
		t.Fatal(err)
	}

	body := fetch("/metrics")
	for _, want := range []string{
		"conceptrank_queries_total 3",
		"conceptrank_query_latency_seconds_count 3",
		"conceptrank_query_terminal_epsilon_count 3",
		"conceptrank_query_drc_calls_count 3",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q after queries:\n%s", want, body)
		}
	}
	if m.DocsExamined == 0 {
		t.Fatal("query examined nothing; telemetry test is vacuous")
	}

	slow := fetch("/debug/slowlog")
	for _, want := range []string{`"kind": "rds"`, `"kind": "sds"`, `"kind": "scan_rds"`, `"WaveStart"`} {
		if !strings.Contains(slow, want) {
			t.Fatalf("/debug/slowlog missing %s:\n%s", want, slow)
		}
	}
}

// TestTelemetryDisabledIsUntouched: without EnableTelemetry the facade
// passes Options through unchanged (no trace splicing).
func TestTelemetryDisabledIsUntouched(t *testing.T) {
	o, coll := telemetryEnv(t)
	eng := conceptrank.NewEngine(o, coll)
	res, m, err := eng.RDSContext(context.Background(), []conceptrank.ConceptID{3, 11}, conceptrank.Options{K: 5})
	if err != nil || len(res) == 0 || m == nil {
		t.Fatalf("plain query failed: %v %v %v", res, m, err)
	}
}

package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"conceptrank/internal/ontology"
)

func testNode(t *testing.T, mut func(*NodeConfig)) (*Node, *httptest.Server) {
	t.Helper()
	r := rand.New(rand.NewSource(20140409))
	o := randomDAGOntology(r, 40, 0.3)
	coll := randomCollection(r, o, 20, 5)
	cfg := NodeConfig{Ontology: o, Coll: coll}
	if mut != nil {
		mut(&cfg)
	}
	n, err := NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(n.Handler())
	t.Cleanup(func() { srv.Close(); _ = n.Close() })
	return n, srv
}

func post(t *testing.T, url string, in any) *http.Response {
	t.Helper()
	body, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestNodeHealthEndpoints(t *testing.T) {
	_, srv := testNode(t, nil)
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, body %q", path, resp.StatusCode, b)
		}
		if len(b) == 0 {
			t.Fatalf("%s: empty body", path)
		}
	}
}

func TestNodeRejectsGet(t *testing.T) {
	_, srv := testNode(t, nil)
	resp, err := http.Get(srv.URL + PathPrefix + "info")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET info status = %d, want 405", resp.StatusCode)
	}
}

func TestNodeUnknownCursorIs404(t *testing.T) {
	_, srv := testNode(t, nil)
	for _, ep := range []string{"step", "grow"} {
		resp := post(t, srv.URL+PathPrefix+ep, StepRequest{Cursor: "nope"})
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s with unknown cursor: status %d, want 404", ep, resp.StatusCode)
		}
		var e ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
			t.Fatalf("%s error envelope: %v / %+v", ep, err, e)
		}
	}
}

func TestNodeBadRequestIs400(t *testing.T) {
	n, srv := testNode(t, nil)
	// Empty query is a caller bug, not a transient condition.
	resp := post(t, srv.URL+PathPrefix+"open", OpenRequest{Query: nil})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty-query open: status %d, want 400", resp.StatusCode)
	}
	// Concept out of range too.
	resp = post(t, srv.URL+PathPrefix+"open", OpenRequest{
		Query: []ontology.ConceptID{99999}, Options: WireOptions{K: 3}, Release: true,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range open: status %d, want 400", resp.StatusCode)
	}
	// The request the benchmark's coordinator sends on every op stays a
	// 200 (closed again so the parked-cursor count below starts from 0).
	resp = post(t, srv.URL+PathPrefix+"open", OpenRequest{
		Query: []ontology.ConceptID{1, 2, 3, 4, 5}, Options: WireOptions{K: 10, ErrorThreshold: 0.9},
	})
	var opened OpenResponse
	if err := json.NewDecoder(resp.Body).Decode(&opened); resp.StatusCode != http.StatusOK || err != nil {
		t.Fatalf("benchmark-shaped open: status %d, decode %v", resp.StatusCode, err)
	}
	if resp := post(t, srv.URL+PathPrefix+"close", CloseRequest{Cursor: opened.Cursor}); resp.StatusCode != http.StatusOK {
		t.Fatalf("close: status %d", resp.StatusCode)
	}
	// k (and, on pairs, workers) above the node's ceilings are caller bugs
	// too, on every endpoint that takes them, and so are an RDS query of
	// more than MaxQueryConcepts IDs (counted as sent: copies of one valid
	// ID) and a body above maxRequestBody (well-formed JSON at two bytes an
	// ID, 2 MiB, so only the size can refuse it): refused, not clamped or
	// decoded, and nothing is left parked.
	q := []ontology.ConceptID{1}
	many := make([]ontology.ConceptID, MaxQueryConcepts+1)
	for i := range many {
		many[i] = 1
	}
	huge := OpenRequest{Query: make([]ontology.ConceptID, maxRequestBody), Options: WireOptions{K: 3}}
	hugeReleased := huge
	hugeReleased.Release = true
	for _, tc := range []struct {
		name string
		req  any
		want int
	}{
		{"open", OpenRequest{Query: q, Options: WireOptions{K: maxWireK + 1}}, http.StatusBadRequest},
		{"open", OpenRequest{Query: q, Options: WireOptions{K: maxWireK + 1}, Release: true}, http.StatusBadRequest},
		{"pairs", PairsRequest{K: 3, Workers: maxWireWorkers + 1}, http.StatusBadRequest},
		{"open", OpenRequest{Query: many, Options: WireOptions{K: 3}}, http.StatusBadRequest},
		{"open", OpenRequest{Query: many, Options: WireOptions{K: 3}, Release: true}, http.StatusBadRequest},
		{"open", huge, http.StatusRequestEntityTooLarge},
		{"open", hugeReleased, http.StatusRequestEntityTooLarge},
	} {
		if resp := post(t, srv.URL+PathPrefix+tc.name, tc.req); resp.StatusCode != tc.want {
			t.Fatalf("oversized %s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
	// cursors.Len is what the crank_node_cursors gauge reports.
	if got := n.cursors.Len(); got != 0 {
		t.Fatalf("%d cursors parked by refused requests", got)
	}
	if resp := post(t, srv.URL+PathPrefix+"open", OpenRequest{
		Query: q, Options: WireOptions{K: maxWireK}, Release: true,
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("open at the ceiling: status %d, want 200", resp.StatusCode)
	}
	atCap := many[:MaxQueryConcepts]
	if resp := post(t, srv.URL+PathPrefix+"open", OpenRequest{
		Query: atCap, Options: WireOptions{K: 3}, Release: true,
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("open of %d IDs: status %d, want 200", len(atCap), resp.StatusCode)
	}
	// SDS queries are documents' concept sets and stay uncapped.
	if resp := post(t, srv.URL+PathPrefix+"open", OpenRequest{
		SDS: true, Query: many, Options: WireOptions{K: 3}, Release: true,
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("SDS open of %d IDs: status %d, want 200", len(many), resp.StatusCode)
	}
	// There is no one-shot search endpoint: a released open is the
	// one-shot query.
	if resp := post(t, srv.URL+PathPrefix+"search", OpenRequest{Query: q}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("search: status %d, want 404", resp.StatusCode)
	}
	resp = post(t, srv.URL+PathPrefix+"open", OpenRequest{Query: atCap, Options: WireOptions{K: 3}})
	if err := json.NewDecoder(resp.Body).Decode(&opened); resp.StatusCode != http.StatusOK || err != nil {
		t.Fatalf("open of %d IDs: status %d, decode %v", len(atCap), resp.StatusCode, err)
	}
	if resp := post(t, srv.URL+PathPrefix+"close", CloseRequest{Cursor: opened.Cursor}); resp.StatusCode != http.StatusOK {
		t.Fatalf("close: status %d", resp.StatusCode)
	}
}

// TestNodeFullStoreEvictsOldestCursor: a node at MaxCursors keeps
// answering opens — abandoned cursors must not turn every later query
// into a 503 — and the evicted token is a 404 from then on.
func TestNodeFullStoreEvictsOldestCursor(t *testing.T) {
	n, srv := testNode(t, func(cfg *NodeConfig) { cfg.MaxCursors = 1 })
	open := OpenRequest{Query: []ontology.ConceptID{1}, Options: WireOptions{K: 3}}
	var first, second OpenResponse
	for _, out := range []*OpenResponse{&first, &second} {
		resp := post(t, srv.URL+PathPrefix+"open", open)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("open: status %d", resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	if got := n.cursors.Len(); got != 1 {
		t.Fatalf("cursors = %d, want 1", got)
	}
	if r := post(t, srv.URL+PathPrefix+"step", StepRequest{Cursor: first.Cursor, Waves: -1}); r.StatusCode != http.StatusNotFound {
		t.Fatalf("step on evicted cursor: status %d, want 404", r.StatusCode)
	}
	if r := post(t, srv.URL+PathPrefix+"step", StepRequest{Cursor: second.Cursor, Waves: -1}); r.StatusCode != http.StatusOK {
		t.Fatalf("step on live cursor: status %d", r.StatusCode)
	}
}

// TestNodeStepFromWatermark exercises the retry-safety contract: a step
// re-sent with an older From re-ships the suffix the lost response carried.
func TestNodeStepFromWatermark(t *testing.T) {
	_, srv := testNode(t, nil)
	var open OpenResponse
	resp := post(t, srv.URL+PathPrefix+"open",
		OpenRequest{Query: []ontology.ConceptID{1, 2}, Options: WireOptions{K: 5}})
	if err := json.NewDecoder(resp.Body).Decode(&open); err != nil {
		t.Fatal(err)
	}
	step := func(from int) StepResponse {
		t.Helper()
		r := post(t, srv.URL+PathPrefix+"step",
			StepRequest{Cursor: open.Cursor, From: from, Waves: -1})
		if r.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(r.Body)
			t.Fatalf("step: status %d body %s", r.StatusCode, b)
		}
		var s StepResponse
		if err := json.NewDecoder(r.Body).Decode(&s); err != nil {
			t.Fatal(err)
		}
		return s
	}
	first := step(0)
	if !first.Done {
		t.Fatalf("unbounded step not done: %+v", first)
	}
	// Pretend the first response was lost: replay From=0 and expect the
	// identical full offer list back.
	replay := step(0)
	if len(replay.Results) != len(first.Results) {
		t.Fatalf("replay shipped %d results, first %d", len(replay.Results), len(first.Results))
	}
	for i := range first.Results {
		if first.Results[i] != replay.Results[i] {
			t.Fatalf("replay result %d differs: %+v vs %+v", i, first.Results[i], replay.Results[i])
		}
	}
	// And a caught-up watermark ships nothing new.
	if tail := step(len(first.Results)); len(tail.Results) != 0 {
		t.Fatalf("caught-up step shipped %d results, want 0", len(tail.Results))
	}
}

// TestNodeOpenCarriesFirstStep: an open runs the first segment and answers
// like a step from watermark 0. Released and finished, it names no cursor
// and parks nothing. Parked, the open is covered by the From watermark: a
// step from the open's result count ships nothing, one from 0 re-ships
// the open's results.
func TestNodeOpenCarriesFirstStep(t *testing.T) {
	n, srv := testNode(t, nil)
	open := func(req OpenRequest) OpenResponse {
		t.Helper()
		r := post(t, srv.URL+PathPrefix+"open", req)
		var resp OpenResponse
		if err := json.NewDecoder(r.Body).Decode(&resp); r.StatusCode != http.StatusOK || err != nil {
			t.Fatalf("open: status %d, decode %v", r.StatusCode, err)
		}
		return resp
	}
	step := func(tok string, from int) StepResponse {
		t.Helper()
		r := post(t, srv.URL+PathPrefix+"step", StepRequest{Cursor: tok, From: from, Waves: -1})
		var resp StepResponse
		if err := json.NewDecoder(r.Body).Decode(&resp); r.StatusCode != http.StatusOK || err != nil {
			t.Fatalf("step: status %d, decode %v", r.StatusCode, err)
		}
		return resp
	}
	req := OpenRequest{Query: []ontology.ConceptID{1, 2}, Options: WireOptions{K: 5}, Release: true}
	released := open(req)
	if !released.Done || released.Cursor != "" || len(released.Results) == 0 {
		t.Fatalf("released open: done %v, cursor %q, %d results", released.Done, released.Cursor, len(released.Results))
	}
	if got := n.cursors.Len(); got != 0 {
		t.Fatalf("released open parked %d cursors", got)
	}

	req.Release = false
	parked := open(req)
	if parked.Cursor == "" || n.cursors.Len() != 1 {
		t.Fatalf("open without release: cursor %q, %d parked", parked.Cursor, n.cursors.Len())
	}
	if !reflect.DeepEqual(parked.Results, released.Results) {
		t.Fatalf("parked open shipped %v, released %v", parked.Results, released.Results)
	}
	if tail := step(parked.Cursor, len(parked.Results)); len(tail.Results) != 0 {
		t.Fatalf("step past the open's results shipped %d more", len(tail.Results))
	}
	if replay := step(parked.Cursor, 0); !reflect.DeepEqual(replay.Results, parked.Results) {
		t.Fatalf("step from 0 shipped %v, the open %v", replay.Results, parked.Results)
	}
}

func TestNodeCloseReleasesCursor(t *testing.T) {
	n, srv := testNode(t, nil)
	var open OpenResponse
	resp := post(t, srv.URL+PathPrefix+"open",
		OpenRequest{Query: []ontology.ConceptID{1}, Options: WireOptions{K: 3}})
	if err := json.NewDecoder(resp.Body).Decode(&open); err != nil {
		t.Fatal(err)
	}
	if n.cursors.Len() != 1 {
		t.Fatalf("cursors = %d after open, want 1", n.cursors.Len())
	}
	post(t, srv.URL+PathPrefix+"close", CloseRequest{Cursor: open.Cursor})
	if n.cursors.Len() != 0 {
		t.Fatalf("cursors = %d after close, want 0", n.cursors.Len())
	}
	// Closing again is a no-op, not an error.
	resp = post(t, srv.URL+PathPrefix+"close", CloseRequest{Cursor: open.Cursor})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("double close: status %d", resp.StatusCode)
	}
}

func TestNodeCursorTTLExpiresOverRPC(t *testing.T) {
	_, srv := testNode(t, func(cfg *NodeConfig) { cfg.CursorTTL = 20 * time.Millisecond })
	var open OpenResponse
	resp := post(t, srv.URL+PathPrefix+"open",
		OpenRequest{Query: []ontology.ConceptID{1}, Options: WireOptions{K: 3}})
	if err := json.NewDecoder(resp.Body).Decode(&open); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	r := post(t, srv.URL+PathPrefix+"step", StepRequest{Cursor: open.Cursor, Waves: -1})
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("step on expired cursor: status %d, want 404", r.StatusCode)
	}
}

func TestWireFloatRoundTrip(t *testing.T) {
	vals := []float64{0, 1.5, -2.25, 0.1, math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64}
	for _, v := range vals {
		b, err := json.Marshal(wireFloat(v))
		if err != nil {
			t.Fatal(err)
		}
		var got wireFloat
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		if float64(got) != v {
			t.Fatalf("round trip %v -> %s -> %v", v, b, float64(got))
		}
	}
	// NaN round-trips to NaN (not equal to itself, so check explicitly).
	b, _ := json.Marshal(wireFloat(math.NaN()))
	var got wireFloat
	if err := json.Unmarshal(b, &got); err != nil || !math.IsNaN(float64(got)) {
		t.Fatalf("NaN round trip: %s -> %v (%v)", b, float64(got), err)
	}
}

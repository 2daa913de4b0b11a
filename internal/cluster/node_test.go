package cluster

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"conceptrank/internal/ontology"
	"conceptrank/internal/telemetry"
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

func post(t *testing.T, url string, in frameEncoder) *http.Response {
	t.Helper()
	return postBody(t, url, in.appendFrame(nil))
}

// postBody posts raw bytes, well-formed frame or not.
func postBody(t *testing.T, url string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url, frameContentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// decodeBody reads a response body as one frame into out.
func decodeBody(resp *http.Response, out frameDecoder) error {
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	return decodeFrame(b, out)
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
	for ep, req := range map[string]frameEncoder{
		"step": StepRequest{Cursor: "nope"},
		"grow": GrowRequest{Cursor: "nope"},
	} {
		resp := post(t, srv.URL+PathPrefix+ep, req)
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s with unknown cursor: status %d, want 404", ep, resp.StatusCode)
		}
		msg, err := io.ReadAll(resp.Body)
		if ct := resp.Header.Get("Content-Type"); err != nil || len(msg) == 0 || !strings.HasPrefix(ct, "text/plain") {
			t.Fatalf("%s error answer: %s %q (%v)", ep, ct, msg, err)
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
	if err := decodeBody(resp, &opened); resp.StatusCode != http.StatusOK || err != nil {
		t.Fatalf("benchmark-shaped open: status %d, decode %v", resp.StatusCode, err)
	}
	if resp := post(t, srv.URL+PathPrefix+"close", CloseRequest{Cursor: opened.Cursor}); resp.StatusCode != http.StatusOK {
		t.Fatalf("close: status %d", resp.StatusCode)
	}
	// A k above the node's ceiling is a caller bug too, and so are an RDS
	// query of more than MaxQueryConcepts IDs (counted as sent: copies of
	// one valid ID) and a body above maxRequestBody (a well-formed frame at
	// four bytes an ID, 4 MiB, so only the size can refuse it): refused,
	// not clamped or decoded. So are bodies that are not one open frame: a
	// count larger than the bytes after it, bytes past the message, and
	// JSON. The v1 protocol's path is gone. Nothing is left parked.
	q := []ontology.ConceptID{1}
	many := make([]ontology.ConceptID, MaxQueryConcepts+1)
	for i := range many {
		many[i] = 1
	}
	huge := OpenRequest{Query: make([]ontology.ConceptID, maxRequestBody), Options: WireOptions{K: 3}}
	hugeReleased := huge
	hugeReleased.Release = true
	frame := func(m frameEncoder) []byte { return m.appendFrame(nil) }
	valid := frame(OpenRequest{Query: []ontology.ConceptID{1, 2}, Options: WireOptions{K: 3}})
	forged := bytes.Clone(valid)
	binary.LittleEndian.PutUint32(forged[1:], 1<<30) // the query's count
	trailing := append(bytes.Clone(valid), 0)
	for _, tc := range []struct {
		path string
		body []byte
		want int
	}{
		{"open", frame(OpenRequest{Query: q, Options: WireOptions{K: maxWireK + 1}}), http.StatusBadRequest},
		{"open", frame(OpenRequest{Query: q, Options: WireOptions{K: maxWireK + 1}, Release: true}), http.StatusBadRequest},
		{"open", frame(OpenRequest{Query: many, Options: WireOptions{K: 3}}), http.StatusBadRequest},
		{"open", frame(OpenRequest{Query: many, Options: WireOptions{K: 3}, Release: true}), http.StatusBadRequest},
		{"open", frame(huge), http.StatusRequestEntityTooLarge},
		{"open", frame(hugeReleased), http.StatusRequestEntityTooLarge},
		{"open", forged, http.StatusBadRequest},
		{"open", trailing, http.StatusBadRequest},
		{"open", []byte(`{"query":[1,2],"options":{"k":3}}`), http.StatusBadRequest},
		{"/rpc/v1/open", valid, http.StatusNotFound},
	} {
		url := srv.URL + PathPrefix + tc.path
		if strings.HasPrefix(tc.path, "/") {
			url = srv.URL + tc.path
		}
		if resp := postBody(t, url, tc.body); resp.StatusCode != tc.want {
			t.Fatalf("%s (%d bytes): status %d, want %d", tc.path, len(tc.body), resp.StatusCode, tc.want)
		}
	}
	if resp := postBody(t, srv.URL+PathPrefix+"open", valid); resp.StatusCode != http.StatusOK || decodeBody(resp, &opened) != nil {
		t.Fatalf("the well-formed open the bad frames were cut from: status %d", resp.StatusCode)
	}
	post(t, srv.URL+PathPrefix+"close", CloseRequest{Cursor: opened.Cursor})
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
	if err := decodeBody(resp, &opened); resp.StatusCode != http.StatusOK || err != nil {
		t.Fatalf("open of %d IDs: status %d, decode %v", len(atCap), resp.StatusCode, err)
	}
	if resp := post(t, srv.URL+PathPrefix+"close", CloseRequest{Cursor: opened.Cursor}); resp.StatusCode != http.StatusOK {
		t.Fatalf("close: status %d", resp.StatusCode)
	}
}

// TestNodeRoutes pins the node's RPC surface: open, step, grow, close,
// doc and info each answer a valid frame, the removed pair-join routes
// answer 404, and the request counter carries one series per route.
func TestNodeRoutes(t *testing.T) {
	reg := telemetry.NewRegistry()
	_, srv := testNode(t, func(cfg *NodeConfig) { cfg.Registry = reg })
	url := func(ep string) string { return srv.URL + PathPrefix + ep }
	var opened OpenResponse
	resp := post(t, url("open"), OpenRequest{Query: []ontology.ConceptID{1, 2}, Options: WireOptions{K: 3}})
	if err := decodeBody(resp, &opened); resp.StatusCode != http.StatusOK || err != nil || opened.Cursor == "" {
		t.Fatalf("open: status %d, cursor %q, decode %v", resp.StatusCode, opened.Cursor, err)
	}
	for _, tc := range []struct {
		ep  string
		req frameEncoder
	}{
		{"step", StepRequest{Cursor: opened.Cursor, Waves: -1}},
		{"grow", GrowRequest{Cursor: opened.Cursor, K: 6}},
		{"close", CloseRequest{Cursor: opened.Cursor}},
		{"doc", DocRequest{Doc: 0}},
		// A document the node does not own is an answer, not an error.
		{"doc", DocRequest{Doc: 1 << 20}},
		{"info", empty{}},
	} {
		if resp := post(t, url(tc.ep), tc.req); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %+v: status %d, want 200", tc.ep, tc.req, resp.StatusCode)
		}
	}
	// The pair join's requests as they were framed: pairs carried
	// k i64 · eps f64 · workers i64, block was empty.
	pairs := appendInt(appendF64(appendInt(nil, 3), 0.5), 1)
	for ep, body := range map[string][]byte{"pairs": pairs, "block": nil} {
		if resp := postBody(t, url(ep), body); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: status %d, want 404", ep, resp.StatusCode)
		}
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	const series = `crank_node_rpc_requests_total{endpoint="`
	var got []string
	for _, line := range strings.Split(b.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, series); ok {
			got = append(got, rest[:strings.IndexByte(rest, '"')])
		}
	}
	if want := []string{"close", "doc", "grow", "info", "open", "step"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("request counter endpoints %v, want %v", got, want)
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
		if err := decodeBody(resp, out); err != nil {
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
	if err := decodeBody(resp, &open); err != nil {
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
		if err := decodeBody(r, &s); err != nil {
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
		if err := decodeBody(r, &resp); r.StatusCode != http.StatusOK || err != nil {
			t.Fatalf("open: status %d, decode %v", r.StatusCode, err)
		}
		return resp
	}
	step := func(tok string, from int) StepResponse {
		t.Helper()
		r := post(t, srv.URL+PathPrefix+"step", StepRequest{Cursor: tok, From: from, Waves: -1})
		var resp StepResponse
		if err := decodeBody(r, &resp); r.StatusCode != http.StatusOK || err != nil {
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
	if err := decodeBody(resp, &open); err != nil {
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
	_, srv := testNode(t, func(cfg *NodeConfig) { cfg.cursorTTL = 20 * time.Millisecond })
	var open OpenResponse
	resp := post(t, srv.URL+PathPrefix+"open",
		OpenRequest{Query: []ontology.ConceptID{1}, Options: WireOptions{K: 3}})
	if err := decodeBody(resp, &open); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	r := post(t, srv.URL+PathPrefix+"step", StepRequest{Cursor: open.Cursor, Waves: -1})
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("step on expired cursor: status %d, want 404", r.StatusCode)
	}
}

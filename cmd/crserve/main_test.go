package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"conceptrank/internal/cluster"
)

// testCorpus keeps every server in a test on the same tiny synthetic
// corpus, so local and distributed answers are comparable bitwise.
func testCorpus(cfg *config) {
	cfg.concepts = 300
	cfg.scale = 0.002
	cfg.seed = 7
}

// startApp builds and serves an app on a loopback port, returning its base
// URL, the app, and a shutdown function that drives the graceful path and
// reports its error.
func startApp(t *testing.T, cfg config) (string, *app, func() error) {
	t.Helper()
	a, err := build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- a.run(ctx, ln) }()
	var once sync.Once
	var shutdownErr error
	shutdown := func() error {
		once.Do(func() {
			cancel()
			select {
			case shutdownErr = <-done:
			case <-time.After(15 * time.Second):
				shutdownErr = fmt.Errorf("server did not shut down")
			}
		})
		return shutdownErr
	}
	t.Cleanup(func() { _ = shutdown() })
	return "http://" + ln.Addr().String(), a, shutdown
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, body %s", url, resp.StatusCode, body)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("GET %s: bad JSON %q: %v", url, body, err)
		}
	}
	return resp
}

func TestHealthEndpoints(t *testing.T) {
	var cfg config
	testCorpus(&cfg)
	base, _, _ := startApp(t, cfg)
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
	}
}

// TestIntrospectionSurface: every mode serves the same introspection
// and health routes — /metrics is the one rendering of the registry,
// profiles come from /debug/pprof, /healthz and /readyz come from
// crserve's own mux, not the node handler — and the JSON metrics twin, the runtime sampler's
// snapshot and the slow-query profile download are gone.
func TestIntrospectionSurface(t *testing.T) {
	var ncfg config
	testCorpus(&ncfg)
	ncfg.node, ncfg.shardIndex, ncfg.shardCount = true, 0, 1
	nodeBase, _, _ := startApp(t, ncfg)
	var ccfg config
	testCorpus(&ccfg)
	ccfg.coordinator, ccfg.peers, ccfg.retries = true, nodeBase, 1
	coordBase, _, _ := startApp(t, ccfg)
	var lcfg config
	testCorpus(&lcfg)
	localBase, _, _ := startApp(t, lcfg)

	for mode, base := range map[string]string{"local": localBase, "node": nodeBase, "coordinator": coordBase} {
		for path, want := range map[string]int{
			"/healthz":               http.StatusOK,
			"/readyz":                http.StatusOK,
			"/metrics":               http.StatusOK,
			"/debug/slowlog":         http.StatusOK,
			"/debug/cache":           http.StatusOK,
			"/debug/pprof/":          http.StatusOK,
			"/debug/vars":            http.StatusNotFound,
			"/debug/runtime":         http.StatusNotFound,
			"/debug/slowlog/profile": http.StatusNotFound,
		} {
			resp, err := http.Get(base + path)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != want {
				t.Errorf("%s %s: status %d, want %d", mode, path, resp.StatusCode, want)
			}
		}
	}
}

// TestCoordinatorMetrics: a coordinator records into the process's one
// telemetry sink, so after a /search its /metrics carries the
// coordinator's own latency series and the sink's query counter.
func TestCoordinatorMetrics(t *testing.T) {
	var ncfg config
	testCorpus(&ncfg)
	ncfg.node, ncfg.shardIndex, ncfg.shardCount = true, 0, 1
	nodeBase, _, _ := startApp(t, ncfg)
	var ccfg config
	testCorpus(&ccfg)
	ccfg.coordinator, ccfg.peers, ccfg.retries = true, nodeBase, 1
	coordBase, _, _ := startApp(t, ccfg)

	getJSON(t, coordBase+"/search?type=rds&ids=1,2,3&k=5&eps=0.5", nil)
	resp, err := http.Get(coordBase + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{"crank_coord_query_seconds_count", "conceptrank_queries_total"} {
		var v float64
		found := false
		for _, line := range strings.Split(string(body), "\n") {
			if rest, ok := strings.CutPrefix(line, series+" "); ok {
				if _, err := fmt.Sscan(rest, &v); err != nil {
					t.Fatalf("%s: bad value in %q: %v", series, line, err)
				}
				found = true
			}
		}
		if !found || v < 1 {
			t.Errorf("coordinator /metrics: %s found=%v value=%v, want >= 1", series, found, v)
		}
	}
}

// TestGracefulShutdown is the regression test for the drain path: open a
// paged cursor, shut the server down, and require (a) a clean exit, (b)
// the cursor store drained, (c) the port actually released.
func TestGracefulShutdown(t *testing.T) {
	var cfg config
	testCorpus(&cfg)
	base, a, shutdown := startApp(t, cfg)

	var resp searchResponse
	getJSON(t, base+"/search?type=rds&ids=1,2&page=2", &resp)
	if resp.Cursor == "" {
		t.Fatal("paged search returned no cursor")
	}
	if got := a.store.Len(); got != 1 {
		t.Fatalf("store has %d cursors, want 1", got)
	}

	if err := shutdown(); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	if got := a.store.Len(); got != 0 {
		t.Fatalf("store has %d cursors after drain, want 0", got)
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("server still answering after shutdown")
	}
}

// TestDistributedServeEquivalence runs the full wiring the README
// describes — N node processes plus a coordinator — against a standalone
// server on the same corpus, and requires identical /search answers,
// including through a paged cursor.
func TestDistributedServeEquivalence(t *testing.T) {
	const shards = 2
	var peers []string
	for s := 0; s < shards; s++ {
		var cfg config
		testCorpus(&cfg)
		cfg.node = true
		cfg.shardIndex = s
		cfg.shardCount = shards
		base, _, _ := startApp(t, cfg)
		peers = append(peers, base)
	}
	var ccfg config
	testCorpus(&ccfg)
	ccfg.coordinator = true
	ccfg.peers = strings.Join(peers, ";")
	ccfg.retries = 1
	coordBase, _, _ := startApp(t, ccfg)

	var lcfg config
	testCorpus(&lcfg)
	localBase, _, _ := startApp(t, lcfg)

	for _, query := range []string{
		"/search?type=rds&ids=1,2,3&k=10&eps=0.5",
		"/search?type=rds&ids=42&k=5&eps=0.3",
		"/search?type=sds&doc=0&k=10&eps=0.5",
		// Round-robin placement puts this document on the last shard, so
		// the coordinator's doc lookup passes over shard 0 first.
		fmt.Sprintf("/search?type=sds&doc=%d&k=10&eps=0.5", shards-1),
	} {
		var local, dist searchResponse
		getJSON(t, localBase+query, &local)
		getJSON(t, coordBase+query, &dist)
		if len(local.Results) != len(dist.Results) {
			t.Fatalf("%s: local %d results, distributed %d", query, len(local.Results), len(dist.Results))
		}
		for i := range local.Results {
			if local.Results[i] != dist.Results[i] {
				t.Fatalf("%s: result %d differs: local %+v distributed %+v",
					query, i, local.Results[i], dist.Results[i])
			}
		}
		if len(dist.Degraded) != 0 {
			t.Fatalf("%s: healthy cluster degraded %v", query, dist.Degraded)
		}
	}

	// Paged: first page + resumed page through the coordinator equals one
	// k=6 local answer.
	var full searchResponse
	getJSON(t, localBase+"/search?type=rds&ids=1,2,3&k=6&eps=0.5", &full)
	var page1 searchResponse
	getJSON(t, coordBase+"/search?type=rds&ids=1,2,3&eps=0.5&page=3", &page1)
	if page1.Cursor == "" {
		t.Fatal("coordinator paged search returned no cursor")
	}
	var page2 searchResponse
	getJSON(t, coordBase+"/search?cursor="+page1.Cursor+"&n=3", &page2)
	paged := append(page1.Results, page2.Results...)
	if len(paged) < len(full.Results) {
		t.Fatalf("paged %d results, want >= %d", len(paged), len(full.Results))
	}
	for i := range full.Results {
		if full.Results[i] != paged[i] {
			t.Fatalf("paged result %d differs: local %+v distributed %+v",
				i, full.Results[i], paged[i])
		}
	}
}

// TestAbandonedPagesDoNotStarveTheFleet is the regression test for the
// full-store policy end to end: a 2-node fleet and a coordinator that each
// hold at most three cursors. Abandoning more paged searches than that
// used to fill the nodes' stores for a whole TTL, and every later query —
// paged or not — died as "503 cursor store full". Now the longest-idle
// cursors make room, at the edge and on the nodes alike, and an unpaged
// search needs no node slot at all.
func TestAbandonedPagesDoNotStarveTheFleet(t *testing.T) {
	const capacity = 3
	goroutines := runtime.NumGoroutine()

	type server struct {
		base     string
		shutdown func() error
	}
	var nodes []server
	var peers []string
	for s := 0; s < 2; s++ {
		var cfg config
		testCorpus(&cfg)
		cfg.node, cfg.shardIndex, cfg.shardCount = true, s, 2
		cfg.maxCursors = capacity
		base, _, shutdown := startApp(t, cfg)
		nodes = append(nodes, server{base, shutdown})
		peers = append(peers, base)
	}
	var ccfg config
	testCorpus(&ccfg)
	ccfg.coordinator = true
	ccfg.peers = strings.Join(peers, ";")
	ccfg.retries = 1
	ccfg.maxCursors = capacity
	coordBase, coord, coordShutdown := startApp(t, ccfg)
	var lcfg config
	testCorpus(&lcfg)
	localBase, _, localShutdown := startApp(t, lcfg)

	const paged = "/search?type=rds&ids=1,2,3&eps=0.5&page=2"
	var tokens []string
	for i := 0; i < 3*capacity; i++ {
		var page searchResponse
		getJSON(t, coordBase+paged, &page)
		if page.Cursor == "" {
			t.Fatalf("paged search %d returned no cursor", i)
		}
		tokens = append(tokens, page.Cursor)
		if got := coord.store.Len(); got > capacity {
			t.Fatalf("edge store holds %d cursors, cap %d", got, capacity)
		}
	}

	nodeMetrics := func() []string {
		t.Helper()
		var bodies []string
		for _, n := range nodes {
			resp, err := http.Get(n.base + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			bodies = append(bodies, string(body))
		}
		return bodies
	}
	evictions := func() []string {
		t.Helper()
		var out []string
		for _, body := range nodeMetrics() {
			for _, line := range strings.Split(body, "\n") {
				if strings.HasPrefix(line, "crank_node_cursor_evictions_total ") {
					out = append(out, line)
				}
			}
		}
		return out
	}

	// Unpaged search still answers, with the single-engine ranking. Its
	// node cursors finish inside the open and are never parked, so the
	// full node stores evict nothing for it.
	const unpaged = "/search?type=rds&ids=1,2,3&k=4&eps=0.5"
	var want, got searchResponse
	getJSON(t, localBase+unpaged, &want)
	before := evictions()
	getJSON(t, coordBase+unpaged, &got)
	if !reflect.DeepEqual(want.Results, got.Results) || len(want.Results) != 4 {
		t.Fatalf("unpaged search after abandoned pages: got %+v, want %+v", got.Results, want.Results)
	}
	if after := evictions(); len(after) != len(nodes) || !reflect.DeepEqual(before, after) {
		t.Fatalf("unpaged search evicted node cursors: %v, then %v", before, after)
	}

	// A paged search whose first page drains the ranking is never parked at
	// the edge, but its node cursors take slots while it runs.
	var drained searchResponse
	getJSON(t, coordBase+fmt.Sprintf("/search?type=rds&ids=1,2,3&eps=0.5&page=%d", maxResults), &drained)
	if !drained.Done || drained.Cursor != "" {
		t.Fatalf("page of %d: done %v, cursor %q; want drained", maxResults, drained.Done, drained.Cursor)
	}

	status := func(url string) int {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	// The first token was evicted at the edge long ago. The oldest token
	// the edge still holds lost its node cursors to the drained search
	// above, which needed their slots. Both are gone for good: 404.
	for _, tok := range []string{tokens[0], tokens[len(tokens)-capacity]} {
		for try := 0; try < 2; try++ {
			if code := status(coordBase + "/search?cursor=" + tok + "&n=2"); code != http.StatusNotFound {
				t.Fatalf("resume of evicted token (try %d): status %d, want 404", try, code)
			}
		}
	}
	// The most recent token still pages, bitwise like a fresh k=4 query.
	var page2 searchResponse
	getJSON(t, coordBase+"/search?cursor="+tokens[len(tokens)-1]+"&n=2", &page2)
	if !reflect.DeepEqual(want.Results[2:], page2.Results) {
		t.Fatalf("resumed page: got %+v, want %+v", page2.Results, want.Results[2:])
	}

	// Draining the coordinator closes its parked pagers and, through them,
	// every cursor still parked on the nodes.
	if err := coordShutdown(); err != nil {
		t.Fatalf("coordinator shutdown: %v", err)
	}
	if got := coord.store.Len(); got != 0 {
		t.Fatalf("edge store holds %d cursors after drain", got)
	}
	for i, body := range nodeMetrics() {
		if !strings.Contains(body, "\ncrank_node_cursors 0\n") {
			t.Fatalf("node %d still holds cursors after the coordinator drained:\n%s", i, body)
		}
	}
	for _, shutdown := range []func() error{nodes[0].shutdown, nodes[1].shutdown, localShutdown} {
		if err := shutdown(); err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	}
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > goroutines {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines before, %d after every server drained:\n%s",
			goroutines, now, buf[:runtime.Stack(buf, true)])
	}
}

// TestOversizedRequestsAreRefused: k, page and n above the edge's ceiling,
// and RDS queries with more concept IDs than cluster.MaxQueryConcepts
// (counted before dedup), answer 400 before any engine work. /search no longer
// reads workers, but a request that still carries it (the benchmark's
// does) is answered.
func TestOversizedRequestsAreRefused(t *testing.T) {
	var cfg config
	testCorpus(&cfg)
	base, _, _ := startApp(t, cfg)
	var page searchResponse
	getJSON(t, base+"/search?type=rds&ids=1,2,3&workers=1&k=10&page=5", &page) // the benchmark's shape
	if page.Cursor == "" {
		t.Fatal("paged search returned no cursor")
	}
	goroutines := runtime.NumGoroutine()
	for _, q := range []string{
		fmt.Sprintf("type=rds&ids=1,2,3&k=%d", maxResults+1),
		fmt.Sprintf("type=rds&ids=1,2,3&page=%d", maxResults+1),
		fmt.Sprintf("cursor=%s&n=%d", page.Cursor, maxResults+1),
		"type=rds&ids=" + repeatedIDs(cluster.MaxQueryConcepts+1),
	} {
		resp, err := http.Get(base + "/search?" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("/search?%s: status %d, want 400", q, resp.StatusCode)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > goroutines {
		t.Errorf("%d goroutines before the refused requests, %d after", goroutines, now)
	}
	// The ceiling itself is valid, and the refused resume left the cursor
	// parked.
	getJSON(t, base+fmt.Sprintf("/search?type=rds&ids=1,2,3&k=%d", maxResults), nil)
	getJSON(t, base+"/search?type=rds&ids="+repeatedIDs(cluster.MaxQueryConcepts), nil)
	getJSON(t, base+"/search?cursor="+page.Cursor+"&n=5", nil)
}

// repeatedIDs is an ids= value of n copies of one concept ID: n IDs as
// sent, one after dedup.
func repeatedIDs(n int) string {
	return strings.TrimSuffix(strings.Repeat("1,", n), ",")
}

func TestParsePeers(t *testing.T) {
	peers, err := parsePeers("http://a:1,http://a:2; b:1 ;c:1,c:2")
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{
		{"http://a:1", "http://a:2"},
		{"http://b:1"},
		{"http://c:1", "http://c:2"},
	}
	if len(peers) != len(want) {
		t.Fatalf("peers = %v", peers)
	}
	for i := range want {
		if len(peers[i]) != len(want[i]) {
			t.Fatalf("shard %d: %v, want %v", i, peers[i], want[i])
		}
		for j := range want[i] {
			if peers[i][j] != want[i][j] {
				t.Fatalf("shard %d replica %d: %q, want %q", i, j, peers[i][j], want[i][j])
			}
		}
	}
	if _, err := parsePeers(""); err == nil {
		t.Fatal("empty peers accepted")
	}
	if _, err := parsePeers("a;;b"); err == nil {
		t.Fatal("empty shard accepted")
	}
}

// TestSlowHeadersAreCut: a client that sends half a request line and
// stalls is disconnected once the header timeout passes, instead of
// holding its connection and goroutine for good.
func TestSlowHeadersAreCut(t *testing.T) {
	headerTimeout = 100 * time.Millisecond
	t.Cleanup(func() { headerTimeout = readHeaderTimeout })
	var cfg config
	testCorpus(&cfg)
	base, _, _ := startApp(t, cfg)

	conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /healthz HT"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	// The server may answer an error status before it closes; either way
	// the read must end in the close, after the header timeout and well
	// before the client's own deadline.
	reply, err := io.ReadAll(conn)
	held := time.Since(start)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("server still holds the connection after %v (read %q)", held, reply)
	}
	if held < headerTimeout/2 {
		t.Fatalf("server closed the connection after %v, before the %v header timeout (reply %q)", held, headerTimeout, reply)
	}
	t.Logf("server closed the connection after %v (reply %q, err %v)", held.Round(time.Millisecond), reply, err)
}

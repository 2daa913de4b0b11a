package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"time"

	"conceptrank"
)

// The serving topology, twice: the real one (crserve processes, measured
// end to end) and an in-process twin (the same nodes and coordinator behind
// httptest servers) whose RPC boundary the benchmark can wrap to time the
// coordinator and the wire separately.

const fleetShards = 2

// --- in-process twin ------------------------------------------------------

type traceKey struct{}

// rpcRecorder wraps the coordinator's HTTP transport and the node handlers.
// A request header carries a span id from the client side to the handler
// side, so each RPC's handler time can be taken off its client-observed
// time: what is left is encode/decode plus transport.
type rpcRecorder struct {
	next http.RoundTripper
	t    *tracer // nil when not tracing

	mu      sync.Mutex
	seq     int
	rpcs    int
	failed  int
	bytes   int64
	client  time.Duration
	handler time.Duration
	spanOf  map[int]int // request sequence number -> RPC span id
}

const spanHeader = "X-Bench-Span"

func (r *rpcRecorder) RoundTrip(req *http.Request) (*http.Response, error) {
	r.mu.Lock()
	r.seq++
	seq := r.seq
	r.mu.Unlock()
	req.Header.Set(spanHeader, strconv.Itoa(seq))
	reqBytes := req.ContentLength

	var end func()
	if r.t != nil {
		parent, opID := -1, -1
		if tr, ok := req.Context().Value(traceKey{}).(*opTrace); ok {
			parent, opID = tr.root, tr.op
		}
		var id int
		id, end = r.t.begin("cluster.rpc "+strings.TrimPrefix(req.URL.Path, conceptrank.ClusterRPCPrefix), parent, opID)
		r.mu.Lock()
		r.spanOf[seq] = id
		r.mu.Unlock()
	}
	start := time.Now()
	resp, err := r.next.RoundTrip(req)
	var body []byte
	if err == nil {
		// Read the body here so the client-observed time covers it.
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		resp.Body = io.NopCloser(bytes.NewReader(body))
	}
	took := time.Since(start)
	if end != nil {
		end()
	}
	r.mu.Lock()
	r.rpcs++
	r.client += took
	r.bytes += reqBytes + int64(len(body))
	if err != nil || resp.StatusCode/100 != 2 {
		r.failed++
	}
	r.mu.Unlock()
	return resp, err
}

// wrapHandler times a node's RPC handler and, when tracing, records it as
// the child of the client-side RPC span that caused it.
func (r *rpcRecorder) wrapHandler(node int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		seq, _ := strconv.Atoi(req.Header.Get(spanHeader))
		var startNS int64
		if r.t != nil {
			startNS = r.t.now()
		}
		start := time.Now()
		h.ServeHTTP(w, req)
		took := time.Since(start)
		r.mu.Lock()
		r.handler += took
		parent, ok := r.spanOf[seq]
		r.mu.Unlock()
		if r.t != nil && ok {
			r.t.mu.Lock()
			opID := r.t.spans[parent].Op
			r.t.mu.Unlock()
			r.t.add(fmt.Sprintf("cluster.node%d.handler", node), parent, opID, startNS, startNS+int64(took))
		}
	})
}

// twin is two shard nodes and a coordinator in this process.
type twin struct {
	inProcess
	rec     *rpcRecorder
	nodes   []*conceptrank.ClusterNode
	servers []*httptest.Server
	coord   *conceptrank.Coordinator
	caches  []*conceptrank.Cache
}

func newTwin(o *conceptrank.Ontology, coll *conceptrank.Collection, cacheMB int, t *tracer) (*twin, error) {
	colls, maps, err := conceptrank.PartitionCollection(coll, conceptrank.ShardConfig{Shards: fleetShards})
	if err != nil {
		return nil, err
	}
	tw := &twin{rec: &rpcRecorder{next: http.DefaultTransport, t: t, spanOf: map[int]int{}}}
	var peers [][]string
	for i := range colls {
		cfg := conceptrank.ClusterNodeConfig{Ontology: o, Coll: colls[i], DocMap: maps[i]}
		if cacheMB > 0 {
			c := conceptrank.NewCache(conceptrank.CacheConfig{MaxBytes: int64(cacheMB) << 20})
			tw.caches = append(tw.caches, c)
			cfg.Cache = c
		}
		node, err := conceptrank.NewClusterNode(cfg)
		if err != nil {
			tw.close()
			return nil, err
		}
		tw.nodes = append(tw.nodes, node)
		srv := httptest.NewServer(tw.rec.wrapHandler(i, node.Handler()))
		tw.servers = append(tw.servers, srv)
		peers = append(peers, []string{srv.URL})
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	tw.coord, err = conceptrank.NewCoordinator(ctx, conceptrank.ClusterConfig{
		Peers:      peers,
		HTTPClient: &http.Client{Transport: tw.rec},
	})
	if err != nil {
		tw.close()
		return nil, err
	}
	return tw, nil
}

func (tw *twin) close() {
	for _, s := range tw.servers {
		s.Close()
	}
	for _, n := range tw.nodes {
		_ = n.Close()
	}
}

func (tw *twin) cacheStats() (conceptrank.CacheStats, bool) {
	var sum conceptrank.CacheStats
	for _, c := range tw.caches {
		addCacheStats(&sum, c.Stats())
	}
	return sum, len(tw.caches) > 0
}

// cacheDelta is the traffic between two snapshots of one cache; Bytes and
// Entries stay those of the later one.
func cacheDelta(later, earlier conceptrank.CacheStats) conceptrank.CacheStats {
	later.SeedHits -= earlier.SeedHits
	later.SeedMisses -= earlier.SeedMisses
	later.SeedRefreshes -= earlier.SeedRefreshes
	later.PairHits -= earlier.PairHits
	later.PairMisses -= earlier.PairMisses
	later.Evictions -= earlier.Evictions
	later.Rejected -= earlier.Rejected
	return later
}

func addCacheStats(dst *conceptrank.CacheStats, s conceptrank.CacheStats) {
	dst.SeedHits += s.SeedHits
	dst.SeedMisses += s.SeedMisses
	dst.SeedRefreshes += s.SeedRefreshes
	dst.PairHits += s.PairHits
	dst.PairMisses += s.PairMisses
	dst.Evictions += s.Evictions
	dst.Rejected += s.Rejected
	dst.Bytes += s.Bytes
	dst.Entries += s.Entries
}

func (tw *twin) do(ctx context.Context, o *op, tr *opTrace) (opResult, error) {
	if tr != nil {
		ctx = context.WithValue(ctx, traceKey{}, tr)
	}
	opts := o.options()
	if o.Kind != opPaged {
		res, sm, err := tw.coord.RDS(ctx, o.Concepts, opts)
		if err != nil {
			return opResult{}, err
		}
		return opResult{sum: checksum(res), m: &sm.Merged}, nil
	}
	opts.K = pageSize
	cur, err := tw.coord.OpenRDS(ctx, o.Concepts, opts)
	if err != nil {
		return opResult{}, err
	}
	defer cur.Close()
	var both []conceptrank.Result
	for page := 0; page < 2; page++ {
		res, err := cur.Next(ctx, pageSize)
		if err != nil {
			return opResult{}, err
		}
		both = append(both, res...)
	}
	m := cur.Metrics().Merged
	return opResult{sum: checksum(both), m: &m}, nil
}

// --- real crserve processes -------------------------------------------------

// child is one crserve process. A goroutine waits for it from the start,
// so an early death is noticed and reap never waits twice.
type child struct {
	cmd    *exec.Cmd
	stderr *bannerWriter
	done   chan struct{} // closed once Wait has returned
}

// owned holds what the benchmark must not leave behind: every process it
// started and has not reaped, and every directory of generated data it has
// not removed. main releases both on every exit path.
var owned struct {
	sync.Mutex
	live map[*child]bool
	dirs map[string]bool
}

// reap kills c and waits until it has ended.
func reap(c *child) {
	_ = c.cmd.Process.Kill()
	<-c.done
	owned.Lock()
	delete(owned.live, c)
	owned.Unlock()
}

// ownDir registers dir for removal at exit.
func ownDir(dir string) {
	owned.Lock()
	if owned.dirs == nil {
		owned.dirs = map[string]bool{}
	}
	owned.dirs[dir] = true
	owned.Unlock()
}

// removeDir removes a directory registered with ownDir.
func removeDir(dir string) {
	_ = os.RemoveAll(dir)
	owned.Lock()
	delete(owned.dirs, dir)
	owned.Unlock()
}

// releaseAll reaps every child, then removes every owned directory: the
// children read their data from there.
func releaseAll() {
	owned.Lock()
	var live []*child
	for c := range owned.live {
		live = append(live, c)
	}
	var dirs []string
	for d := range owned.dirs {
		dirs = append(dirs, d)
	}
	owned.Unlock()
	for _, c := range live {
		reap(c)
	}
	for _, d := range dirs {
		removeDir(d)
	}
}

// repoRoot finds the module root from the working directory, so the
// benchmark runs from the root of a checkout and from its own directory.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod above the working directory")
		}
		dir = parent
	}
}

// buildCrserve compiles cmd/crserve into outDir once per run, before
// anything is timed.
func buildCrserve(root, outDir string) (string, error) {
	bin := filepath.Join(outDir, "bin", "crserve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/crserve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/crserve: %v\n%s", err, out)
	}
	return bin, nil
}

var bannerRE = regexp.MustCompile(` on (\S+:\d+)\s*$`)

// bannerWriter receives a child's stderr. crserve logs "<banner> on <addr>"
// once it listens; the address goes to addr, everything is kept for error
// reports.
type bannerWriter struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string
	sent bool
}

func (b *bannerWriter) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.buf.Write(p)
	if !b.sent {
		for _, line := range strings.Split(b.buf.String(), "\n") {
			if m := bannerRE.FindStringSubmatch(line); m != nil {
				b.sent = true
				b.addr <- m[1]
				break
			}
		}
	}
	return len(p), nil
}

func (b *bannerWriter) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// startCrserve starts one crserve process on a kernel-chosen port and
// returns once it has logged its listen address.
func startCrserve(bin string, args ...string) (*child, string, error) {
	c := &child{
		cmd:    exec.Command(bin, append(args, "-listen", "127.0.0.1:0")...),
		stderr: &bannerWriter{addr: make(chan string, 1)},
		done:   make(chan struct{}),
	}
	c.cmd.Stderr = c.stderr
	if err := c.cmd.Start(); err != nil {
		return nil, "", err
	}
	owned.Lock()
	if owned.live == nil {
		owned.live = map[*child]bool{}
	}
	owned.live[c] = true
	owned.Unlock()
	go func() {
		_ = c.cmd.Wait()
		close(c.done)
	}()
	select {
	case addr := <-c.stderr.addr:
		return c, addr, nil
	case <-c.done:
		reap(c)
		return nil, "", fmt.Errorf("crserve %v exited before listening:\n%s", args, c.stderr)
	case <-time.After(60 * time.Second):
		reap(c)
		return nil, "", fmt.Errorf("crserve %v did not listen within 60s:\n%s", args, c.stderr)
	}
}

// fleet is the real topology: fleetShards crserve -node processes behind
// one crserve -coordinator, reached over loopback HTTP.
type fleet struct {
	cmds   []*child
	nodes  []string // node base URLs
	base   string   // coordinator base URL
	client *http.Client
}

// spawnFleet is the serve workload's set-up: fresh processes to all
// /readyz answering 200. conns bounds the client's connections.
func spawnFleet(bin, dataDir string, cacheMB, conns int) (*fleet, error) {
	f := &fleet{client: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
	}}}
	type started struct {
		cmd  *child
		addr string
		err  error
	}
	ch := make([]chan started, fleetShards)
	for i := range ch {
		ch[i] = make(chan started, 1)
		go func(i int) {
			cmd, addr, err := startCrserve(bin, "-node",
				"-shard-index", strconv.Itoa(i), "-shard-count", strconv.Itoa(fleetShards),
				"-cache-mb", strconv.Itoa(cacheMB), "-data", dataDir, "-corpus", "RADIO")
			ch[i] <- started{cmd, addr, err}
		}(i)
	}
	var firstErr error
	for i := range ch {
		s := <-ch[i]
		if s.err != nil {
			if firstErr == nil {
				firstErr = s.err
			}
			continue
		}
		f.cmds = append(f.cmds, s.cmd)
		f.nodes = append(f.nodes, "http://"+s.addr)
	}
	if firstErr != nil {
		f.close()
		return nil, firstErr
	}
	// No hedging and no admission limits: the flags' defaults.
	cmd, addr, err := startCrserve(bin, "-coordinator", "-peers", strings.Join(f.nodes, ";"))
	if err != nil {
		f.close()
		return nil, err
	}
	f.cmds = append(f.cmds, cmd)
	f.base = "http://" + addr
	for _, u := range append([]string{f.base}, f.nodes...) {
		if err := f.waitReady(u); err != nil {
			f.close()
			return nil, err
		}
	}
	return f, nil
}

// waitReady polls /readyz every 2 ms; there is no sleep longer than that
// between a server becoming ready and set-up noticing.
func (f *fleet) waitReady(base string) error {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := f.client.Get(base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("%s/readyz not 200 within 60s", base)
}

func (f *fleet) beginPass() error { return nil }

func (f *fleet) close() {
	for _, c := range f.cmds {
		reap(c)
	}
	f.cmds = nil
	f.client.CloseIdleConnections()
}

// cpu and peakRSS sum over the server processes; the load generator is not
// part of the system under test.
func (f *fleet) cpu() (time.Duration, error) {
	var sum time.Duration
	for _, c := range f.cmds {
		t, err := procCPU(c.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		sum += t
	}
	return sum, nil
}

func (f *fleet) peakRSS() (int64, error) {
	var sum int64
	for _, c := range f.cmds {
		h, err := procHWM(strconv.Itoa(c.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		sum += h
	}
	return sum, nil
}

func (f *fleet) cacheStats() (conceptrank.CacheStats, bool) {
	var sum conceptrank.CacheStats
	for _, n := range f.nodes {
		resp, err := f.client.Get(n + "/debug/cache")
		if err != nil {
			return sum, false
		}
		var s struct {
			Attached bool
			conceptrank.CacheStats
		}
		err = json.NewDecoder(resp.Body).Decode(&s)
		resp.Body.Close()
		if err != nil || !s.Attached {
			return sum, false
		}
		addCacheStats(&sum, s.CacheStats)
	}
	return sum, true
}

type searchResponse struct {
	Results []struct {
		Doc      int     `json:"doc"`
		Distance float64 `json:"distance"`
	} `json:"results"`
	Metrics *conceptrank.Metrics `json:"metrics"`
	Cursor  string               `json:"cursor"`
}

var errShed = errors.New("request shed (429)")

func (f *fleet) get(ctx context.Context, query string) (*searchResponse, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.base+"/search?"+query, nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		return nil, len(body), errShed
	}
	if resp.StatusCode != http.StatusOK {
		return nil, len(body), fmt.Errorf("/search?%s: %s: %s", query, resp.Status, bytes.TrimSpace(body))
	}
	var sr searchResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		return nil, len(body), fmt.Errorf("/search?%s: %w", query, err)
	}
	return &sr, len(body), nil
}

func (f *fleet) do(ctx context.Context, o *op, tr *opTrace) (opResult, error) {
	ids := make([]string, len(o.Concepts))
	for i, c := range o.Concepts {
		ids[i] = strconv.Itoa(int(c))
	}
	q := fmt.Sprintf("type=rds&ids=%s&eps=%g&workers=1", strings.Join(ids, ","), o.Eps)
	first := q + "&k=" + strconv.Itoa(defaultK)
	if o.Kind == opPaged {
		first = q + "&page=" + strconv.Itoa(pageSize)
	}
	span := func(name string) func() {
		if tr == nil {
			return func() {}
		}
		_, end := tr.t.begin(name, tr.root, tr.op)
		return end
	}
	end := span("crserve GET /search")
	sr, n, err := f.get(ctx, first)
	end()
	out := opResult{bytes: n, shed: errors.Is(err, errShed)}
	if err != nil {
		return out, err
	}
	results := sr.Results
	if o.Kind == opPaged {
		if sr.Cursor == "" {
			return out, errors.New("paged search returned no cursor")
		}
		end := span("crserve GET /search?cursor")
		next, n, err := f.get(ctx, "cursor="+sr.Cursor+"&n="+strconv.Itoa(pageSize))
		end()
		out.bytes += n
		out.shed = errors.Is(err, errShed)
		if err != nil {
			return out, err
		}
		results = append(results, next.Results...)
		sr.Metrics = next.Metrics // cumulative over the cursor's lifetime
	}
	res := make([]conceptrank.Result, len(results))
	for i, r := range results {
		res[i] = conceptrank.Result{Doc: conceptrank.DocID(r.Doc), Distance: r.Distance}
	}
	out.sum, out.m = checksum(res), sr.Metrics
	return out, nil
}

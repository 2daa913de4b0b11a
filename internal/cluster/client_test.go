package cluster

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// stubServer answers one endpoint with a scripted handler; everything else
// 404s like an unknown cursor would.
func stubServer(t *testing.T, endpoint string, h http.HandlerFunc) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc(PathPrefix+endpoint, h)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// writeFrame answers a stub request with one frame.
func writeFrame(w http.ResponseWriter, m frameEncoder) {
	w.Header().Set("Content-Type", frameContentType)
	_, _ = w.Write(m.appendFrame(nil))
}

func testTransport(url string, retries int) *transport {
	return &transport{
		base:    url,
		hc:      http.DefaultClient,
		retries: retries,
		backoff: time.Millisecond,
	}
}

func TestTransportRetriesTransient(t *testing.T) {
	var calls atomic.Int32
	srv := stubServer(t, "info", func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) < 3 {
			http.Error(w, "warming up", http.StatusServiceUnavailable)
			return
		}
		writeFrame(w, InfoResponse{Version: Version, Docs: 7})
	})
	tr := testTransport(srv.URL, 3)
	var retried atomic.Int32
	tr.onRetry = func() { retried.Add(1) }
	var resp InfoResponse
	if err := tr.call(context.Background(), "info", empty{}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Docs != 7 {
		t.Fatalf("Docs = %d, want 7", resp.Docs)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3", got)
	}
	if got := retried.Load(); got != 2 {
		t.Fatalf("onRetry fired %d times, want 2", got)
	}
}

func TestTransportNoRetryOnClientError(t *testing.T) {
	var calls atomic.Int32
	srv := stubServer(t, "open", func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "empty query", http.StatusBadRequest)
	})
	tr := testTransport(srv.URL, 3)
	err := tr.call(context.Background(), "open", OpenRequest{}, nil)
	var re *rpcError
	if !errors.As(err, &re) || re.Code != 400 || re.Msg != "empty query" {
		t.Fatalf("err = %v, want rpcError 400 \"empty query\"", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d calls for a permanent error, want 1", got)
	}
}

func TestTransportRetriesExhaust(t *testing.T) {
	var calls atomic.Int32
	srv := stubServer(t, "step", func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
	})
	tr := testTransport(srv.URL, 2)
	err := tr.call(context.Background(), "step", StepRequest{}, nil)
	var re *rpcError
	if !errors.As(err, &re) || re.Code != 500 {
		t.Fatalf("err = %v, want rpcError 500", err)
	}
	if got := calls.Load(); got != 3 { // 1 + 2 retries
		t.Fatalf("server saw %d calls, want 3", got)
	}
}

func TestTransportCallerContextStopsRetries(t *testing.T) {
	srv := stubServer(t, "step", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	})
	tr := testTransport(srv.URL, 100)
	tr.backoff = 50 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := tr.call(ctx, "step", StepRequest{}, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want caller deadline", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("retry loop outlived the caller's context")
	}
}

// TestTransportAttemptTimeoutIsTransient: a hung node trips the
// per-attempt deadline; that must classify as transient (retried with a
// fresh deadline), NOT as the caller's context expiring.
func TestTransportAttemptTimeoutIsTransient(t *testing.T) {
	var calls atomic.Int32
	release := make(chan struct{})
	srv := stubServer(t, "grow", func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			<-release // hang the first attempt well past the deadline
			return
		}
		writeFrame(w, GrowResponse{})
	})
	defer close(release)
	tr := testTransport(srv.URL, 1)
	tr.deadline = 30 * time.Millisecond
	// Only the hung attempt meets the 30 ms deadline, which nothing but
	// the deadline can end. The retry hook runs between the attempts on
	// the calling goroutine and lifts it for the healthy one, so a slow
	// scheduler cannot fail a response that did arrive.
	tr.onRetry = func() { tr.deadline = time.Minute }
	if err := tr.call(context.Background(), "grow", GrowRequest{}, &GrowResponse{}); err != nil {
		t.Fatalf("hung-then-healthy node: %v", err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("server saw %d calls, want 2", got)
	}
	if !transientErr(errAttemptTimeout) {
		t.Fatal("errAttemptTimeout not classified transient")
	}
	if transientErr(context.Canceled) || transientErr(context.DeadlineExceeded) {
		t.Fatal("caller context errors classified transient")
	}
}

func TestHedgeWinsOnSlowReplica(t *testing.T) {
	slowGate := make(chan struct{})
	defer close(slowGate)
	slow := stubServer(t, "doc", func(w http.ResponseWriter, r *http.Request) {
		<-slowGate
		writeFrame(w, DocResponse{})
	})
	var fastCalls atomic.Int32
	fast := stubServer(t, "doc", func(w http.ResponseWriter, r *http.Request) {
		fastCalls.Add(1)
		writeFrame(w, DocResponse{Found: true})
	})
	g := &replicaGroup{
		replicas:   []*transport{testTransport(slow.URL, 0), testTransport(fast.URL, 0)},
		hedgeDelay: 10 * time.Millisecond,
	}
	var resp DocResponse
	winner, err := g.call(context.Background(), "doc", DocRequest{}, &resp)
	if err != nil {
		t.Fatal(err)
	}
	if winner != 1 {
		t.Fatalf("winner = %d, want the hedged replica 1", winner)
	}
	if !resp.Found {
		t.Fatalf("hedged response = %+v", resp)
	}
	if fastCalls.Load() != 1 {
		t.Fatalf("fast replica saw %d calls, want 1", fastCalls.Load())
	}
}

func TestHedgeFastFailureFailsOver(t *testing.T) {
	down := stubServer(t, "doc", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	})
	up := stubServer(t, "doc", func(w http.ResponseWriter, r *http.Request) {
		writeFrame(w, DocResponse{})
	})
	g := &replicaGroup{
		replicas: []*transport{testTransport(down.URL, 0), testTransport(up.URL, 0)},
		// Long delay: only the fast-failure path can bring replica 1 in
		// quickly.
		hedgeDelay: 10 * time.Second,
	}
	start := time.Now()
	winner, err := g.call(context.Background(), "doc", DocRequest{}, &DocResponse{})
	if err != nil {
		t.Fatal(err)
	}
	if winner != 1 {
		t.Fatalf("winner = %d, want 1", winner)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("failover waited for the hedge timer instead of failing fast")
	}
}

func TestHedgeAllReplicasFail(t *testing.T) {
	mk := func() *httptest.Server {
		return stubServer(t, "doc", func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusServiceUnavailable)
		})
	}
	g := &replicaGroup{
		replicas:   []*transport{testTransport(mk().URL, 0), testTransport(mk().URL, 0)},
		hedgeDelay: time.Millisecond,
	}
	_, err := g.call(context.Background(), "doc", DocRequest{}, nil)
	var re *rpcError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want the last rpcError", err)
	}
}

func TestHedgeDisabledSingleReplica(t *testing.T) {
	var calls atomic.Int32
	srv := stubServer(t, "info", func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		writeFrame(w, InfoResponse{Version: Version})
	})
	g := &replicaGroup{replicas: []*transport{testTransport(srv.URL, 0)}, hedgeDelay: time.Millisecond}
	winner, err := g.call(context.Background(), "info", empty{}, &InfoResponse{})
	if err != nil || winner != 0 {
		t.Fatalf("single replica: winner=%d err=%v", winner, err)
	}
	if calls.Load() != 1 {
		t.Fatalf("calls = %d, want 1", calls.Load())
	}
}

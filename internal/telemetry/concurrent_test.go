package telemetry

import (
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"conceptrank/internal/cache"
	"conceptrank/internal/core"
)

// TestEndpointsUnderConcurrentWriters hammers the sink with concurrent
// query recordings (all slow, so the slow log churns) and cache traffic
// while readers scrape every endpoint. Run under -race this is the
// data-race gate for the exposition paths; functionally it checks that
// every response stays well-formed mid-churn.
func TestEndpointsUnderConcurrentWriters(t *testing.T) {
	s := newSink(time.Nanosecond, 8, 4)
	cc := cache.New(cache.Config{MaxBytes: 1 << 20})
	s.AttachCache(cc)

	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Writers: query recordings with span events, metrics and failures.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				trace, done := s.Query("rds", nil)
				trace(core.TraceEvent{Kind: core.TraceWaveStart, N: i, Shard: -1})
				trace(core.TraceEvent{Kind: core.TraceDRCProbe, N: 1, Shard: -1})
				m := fakeMetrics()
				m.Stages[core.StageWave].Time = time.Duration(i)
				done(m, nil)
			}
		}(w)
	}
	// Cache churn so /debug/cache and the cache counters move.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			cc.PutSeed(1, uint32(i%64), cache.Seed{Gen: i})
			cc.GetSeed(1, uint32(i%64))
			cc.Stats()
		}
	}()

	// Readers: every endpoint, repeatedly. The /metrics readers also read
	// the go_* runtime series concurrently.
	paths := []string{"/metrics", "/metrics", "/debug/slowlog", "/debug/cache"}
	for _, p := range paths {
		wg.Add(1)
		go func(p string) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(srv.URL + p)
				if err != nil {
					t.Error(err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					t.Errorf("%s: %d", p, resp.StatusCode)
					return
				}
			}
		}(p)
	}

	time.Sleep(150 * time.Millisecond)
	close(stop)
	wg.Wait()

	if s.Stats.Queries.Value() == 0 {
		t.Fatal("no queries recorded during the churn")
	}
	if len(s.Slow.Snapshot()) == 0 {
		t.Fatal("slow log empty despite zero threshold")
	}
}

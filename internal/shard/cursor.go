package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"conceptrank/internal/core"
	"conceptrank/internal/corpus"
	"conceptrank/internal/ontology"
)

// Cursor is a resumable sharded kNDS query: one core.Cursor per non-empty
// shard plus the cross-shard merger, held open so a caller can take the
// global top-k now and grow to k' > k later. Growing resumes every shard
// from its saved frontier — including shards the cross-shard bound paused,
// whose pause proof (everything they could still produce is outside the
// global top-k) expires when k grows — and rebuilds the merger from the
// exact distances the shards have already paid for, so the grown result is
// bitwise identical to a fresh sharded query with Options.K = k'.
//
// The merge/resume loop itself lives in Fanout: Cursor wires core.Cursors
// into it as in-process FanoutShards; the distributed coordinator
// (internal/cluster) wires remote cursors into the same loop.
//
// Method semantics mirror core.Cursor: Next pages through the merged
// ranking, GrowK extends it, context errors are resumable at shard wave
// boundaries, and Close releases every shard cursor.
type Cursor struct {
	mu sync.Mutex // serializes the public API; held across segment runs

	f      *Fanout
	served int
	closed bool

	callerTrace core.TraceFunc
	traceMu     sync.Mutex // serializes forwarded span events across shards
}

// localShard adapts one shard's core.Cursor to the FanoutShard interface:
// its progressive hook (installed at open) offers global-ID results into
// the shared MergeState, its bound hook stops the running Segment when the
// cross-shard proof holds, and the Segment tells that pause from a caller
// cancellation.
type localShard struct {
	s      int
	cur    *core.Cursor
	ms     *MergeState
	global []corpus.DocID // shard-local DocID → global DocID
	seg    Segment
}

func (ls *localShard) Run(ctx context.Context) (bool, error) {
	done, err := ls.seg.Run(ctx, ls.cur)
	if err != nil {
		return false, fmt.Errorf("shard %d: %w", ls.s, err)
	}
	return done, nil
}

// onBound is the Options.OnBound hook: pause this shard once its
// termination floor provably exceeds the merged k-th distance. The
// cursor state survives the stop, so a later GrowK (which invalidates the
// proof) resumes it mid-traversal.
func (ls *localShard) onBound(dMinus float64) {
	if ls.ms.PauseIfBeyond(ls.s, dMinus) {
		ls.seg.Stop()
	}
}

// offer is the Options.Progressive hook: results are provably final when
// emitted, so offering them as they appear keeps the merged k-th distance
// — the cross-shard cancellation bound — as tight as the shards' progress
// allows.
func (ls *localShard) offer(r core.Result) {
	ls.ms.Offer(core.Result{Doc: ls.global[r.Doc], Distance: r.Distance})
}

func (ls *localShard) Grow(_ context.Context, k int) error {
	ls.cur.Grow(k)
	return nil
}

func (ls *localShard) Examined(_ context.Context) ([]core.Result, error) {
	ex := ls.cur.Examined()
	out := make([]core.Result, len(ex))
	for i, r := range ex {
		out[i] = core.Result{Doc: ls.global[r.Doc], Distance: r.Distance}
	}
	return out, nil
}

func (ls *localShard) Metrics() core.Metrics {
	if m := ls.cur.Metrics(); m != nil {
		return *m
	}
	return core.Metrics{}
}

func (ls *localShard) Close() error { return ls.cur.Close() }

// OpenRDS plans a relevant-document query across all shards and returns a
// cursor positioned before the first merged result. No traversal runs
// until the first Next, GrowK or Run call.
func (e *Engine) OpenRDS(q []ontology.ConceptID, opts core.Options) (*Cursor, error) {
	return e.open(false, q, opts)
}

// OpenSDS plans a similar-document query across all shards; see OpenRDS.
func (e *Engine) OpenSDS(queryDoc []ontology.ConceptID, opts core.Options) (*Cursor, error) {
	return e.open(true, queryDoc, opts)
}

// open validates the query, plans one core cursor per non-empty shard and
// installs the merge hooks. Per-query callbacks in opts (Progressive,
// OnWave, OnBound) are owned by the sharded engine, as in RDSContext;
// Options.Trace is forwarded with TraceEvent.Shard stamped.
func (e *Engine) open(sds bool, rawQuery []ontology.ConceptID, opts core.Options) (*Cursor, error) {
	if opts.Workers < 0 {
		return nil, core.ErrNegativeWorkers
	}
	if _, err := core.QueryConcepts(rawQuery, e.o.NumConcepts()); err != nil {
		return nil, err
	}
	opts = opts.Normalize()

	c := &Cursor{callerTrace: opts.Trace}
	// The Fanout owns the slice: filling entries below works because the
	// backing array is shared, and the hooks wire to its MergeState.
	shards := make([]FanoutShard, len(e.shards))
	f := NewFanout(shards, opts.K)
	for s := range e.shards {
		if len(e.maps[s]) == 0 {
			continue // empty shard: nothing to search, nothing to cancel
		}
		s := s
		ls := &localShard{s: s, ms: f.MergeState(), global: e.maps[s]}
		so := opts
		so.OnWave = nil
		so.Trace = nil
		if c.callerTrace != nil {
			so.Trace = func(ev core.TraceEvent) {
				ev.Shard = s
				c.emit(ev)
			}
		}
		so.Progressive = ls.offer
		so.OnBound = ls.onBound
		var cur *core.Cursor
		var err error
		if sds {
			cur, err = e.shards[s].OpenSDS(rawQuery, so)
		} else {
			cur, err = e.shards[s].OpenRDS(rawQuery, so)
		}
		if err != nil {
			for _, sh := range shards {
				if sh != nil {
					_ = sh.Close()
				}
			}
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
		ls.cur = cur
		shards[s] = ls
	}
	c.f = f
	return c, nil
}

// NewFanoutCursor wraps an already-wired Fanout in the public cursor API —
// the constructor the distributed coordinator uses to speak the exact
// cursor/page protocol of the in-process sharded engine over its remote
// fan-out.
func NewFanoutCursor(f *Fanout) *Cursor {
	return &Cursor{f: f}
}

func (c *Cursor) emit(ev core.TraceEvent) {
	if c.callerTrace == nil {
		return
	}
	c.traceMu.Lock()
	c.callerTrace(ev)
	c.traceMu.Unlock()
}

// Next returns the next n merged results in ranked order, growing k as
// needed. A short or empty page means the union collection holds no more
// rankable documents. On a context error the page position does not
// advance and the call can be retried.
func (c *Cursor) Next(ctx context.Context, n int) ([]core.Result, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, core.ErrCursorClosed
	}
	if n <= 0 {
		return nil, nil
	}
	target := c.served + n
	if err := c.f.RunTo(ctx, target); err != nil {
		return nil, err
	}
	results := c.f.Results()
	if c.served >= len(results) {
		return nil, nil // drained
	}
	end := target
	if end > len(results) {
		end = len(results)
	}
	page := results[c.served:end]
	c.served = end
	return page, nil
}

// GrowK extends the merged ranking to the top k, resuming every shard from
// its saved state, and returns the full result list (bitwise identical to
// a fresh sharded query with Options.K = k). It does not consume the Next
// page position.
func (c *Cursor) GrowK(ctx context.Context, k int) ([]core.Result, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, core.ErrCursorClosed
	}
	if err := c.f.RunTo(ctx, k); err != nil {
		return nil, err
	}
	return c.f.Results(), nil
}

// Run drives the query to termination at the current k and returns the
// merged results and metrics. RDSContext is Open + Run + Close.
func (c *Cursor) Run(ctx context.Context) ([]core.Result, *Metrics, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, c.f.Metrics(), core.ErrCursorClosed
	}
	if err := c.f.RunTo(ctx, c.f.K()); err != nil {
		return nil, c.f.Metrics(), err
	}
	return c.f.Results(), c.f.Metrics(), nil
}

// K returns the current merged result capacity.
func (c *Cursor) K() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.f.K()
}

// Results returns the merged results of the latest completed run (nil
// before the first run or after a grow). Treat as read-only.
func (c *Cursor) Results() []core.Result {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.f.Results()
}

// Metrics returns the sharded metrics, accumulated across every run
// segment so far. The pointer stays live; snapshot it for a fixed view.
func (c *Cursor) Metrics() *Metrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.f.Metrics()
}

// Close releases every shard cursor. Closing twice is a no-op.
func (c *Cursor) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	return c.f.Close()
}

func ctxResumable(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

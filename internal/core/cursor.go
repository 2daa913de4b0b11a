package core

import (
	"context"
	"errors"
	"sync"

	"conceptrank/internal/ontology"
)

// ErrCursorClosed is returned by operations on a closed Cursor.
var ErrCursorClosed = errors.New("core: cursor closed")

// Cursor is a steppable kNDS query: the staged executor's saved frontier,
// bound table and collector, held open between calls so a caller can take
// k results now and later extend to k' > k without re-running the query.
// Open one with OpenRDS or OpenSDS, then:
//
//	Next(ctx, n)   return the next n results in ranked order, running
//	               waves (and growing k) as needed;
//	GrowK(ctx, k)  extend the ranking to the top k, resuming from the
//	               saved traversal state; results are bitwise identical
//	               to a fresh query with Options.K = k;
//	Run(ctx)       run to termination at the current k without consuming
//	               the page position (RDSContext is Open + Run + Close);
//	Step(ctx, w, stop)
//	               run at most w waves, returning early at the wave
//	               boundary where stop(d⁻) first reports true;
//	Close()        return the query's arena to the engine.
//
// Context errors are resumable: cancellation is observed at wave
// boundaries, so a timed-out Next can be retried with a fresh context and
// the query continues where it stopped. Any other error poisons the cursor
// and is returned from every subsequent call.
//
// A Cursor serializes its own method calls; one cursor may be shared
// across goroutines, but the query inside it runs one wave at a time.
type Cursor struct {
	mu     sync.Mutex
	x      *executor
	served int
	closed bool
}

// OpenRDS plans a relevant-document query and returns a cursor positioned
// before the first result. No traversal runs until the first Next, GrowK
// or Run call. Close the cursor when done.
func (e *Engine) OpenRDS(query []ontology.ConceptID, opts Options) (*Cursor, error) {
	return e.open(false, query, opts)
}

// OpenSDS plans a similar-document query; see OpenRDS.
func (e *Engine) OpenSDS(queryDoc []ontology.ConceptID, opts Options) (*Cursor, error) {
	return e.open(true, queryDoc, opts)
}

func (e *Engine) open(sds bool, query []ontology.ConceptID, opts Options) (*Cursor, error) {
	x, _, err := e.newExecutor(sds, query, opts.Normalize())
	if err != nil {
		return nil, err
	}
	return &Cursor{x: x}, nil
}

// Next returns the next n results in ranked order, running the pipeline —
// and growing k — as far as needed. A short or empty page means the
// collection holds no more rankable documents. On a context error the
// page position does not advance and the call can be retried.
func (c *Cursor) Next(ctx context.Context, n int) ([]Result, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrCursorClosed
	}
	if n <= 0 {
		return nil, nil
	}
	target := c.served + n
	if err := c.runTo(ctx, target); err != nil {
		return nil, err
	}
	res := c.x.results
	if c.served >= len(res) {
		return nil, nil // drained
	}
	end := target
	if end > len(res) {
		end = len(res)
	}
	page := res[c.served:end]
	c.served = end
	return page, nil
}

// GrowK extends the ranking to the top k, resuming from the saved
// frontier and bound state, and returns the full result list (bitwise
// identical to a fresh query with Options.K = k). k within the current
// capacity just returns the current results. GrowK does not consume the
// Next page position.
func (c *Cursor) GrowK(ctx context.Context, k int) ([]Result, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrCursorClosed
	}
	if err := c.runTo(ctx, k); err != nil {
		return nil, err
	}
	return c.x.results, nil
}

// runTo grows capacity to target if needed and runs to termination.
// Caller holds c.mu.
func (c *Cursor) runTo(ctx context.Context, target int) error {
	if target > c.x.coll.capacity() {
		// Growing past a heap the collection could not fill finds nothing
		// new: every rankable document is already in the results.
		if !(c.x.done && len(c.x.results) < c.x.coll.capacity()) {
			c.x.growK(target)
		}
	}
	_, err := c.x.run(ctx, 0, nil)
	return err
}

// Run drives the query to termination at the current k and returns the
// full ranked results and the query's metrics. It does not consume the
// Next page position. Calling Run after completion is a cheap no-op.
func (c *Cursor) Run(ctx context.Context) ([]Result, *Metrics, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, c.x.m, ErrCursorClosed
	}
	if _, err := c.x.run(ctx, 0, nil); err != nil {
		return nil, c.x.m, err
	}
	return c.x.results, c.x.m, nil
}

// Step runs one bounded segment of the query at the current k: at most
// waves waves (no cap when waves <= 0), calling stop, when non-nil, with
// every wave's termination floor d⁻ and returning at the wave boundary
// where it first reports true. done reports that the query terminated; a
// terminating wave is done whatever stop says. Every other return — a
// spent budget, a stop, a context error — leaves the cursor resumable by
// a later Step, Run, Next or GrowK. stop is called sequentially from the
// goroutine running the query. Step does not consume the Next page
// position.
func (c *Cursor) Step(ctx context.Context, waves int, stop func(dMinus float64) bool) (done bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return false, ErrCursorClosed
	}
	return c.x.run(ctx, waves, stop)
}

// Grow widens the target k without running any waves; the next Next, Run
// or GrowK call does the work. The sharded engine uses this to grow all
// shard cursors before fanning their runs out in parallel.
func (c *Cursor) Grow(k int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.closed {
		c.x.growK(k)
	}
}

// Examined returns every result whose exact distance the query has paid
// for so far, in examination order — a superset of the top-k. The sharded
// engine re-offers these into a fresh merger when growing k.
func (c *Cursor) Examined() []Result {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Result(nil), c.x.coll.archive...)
}

// Metrics returns the query's metrics, accumulated across every run
// segment of the cursor so far. The pointer stays live; snapshot it if a
// fixed view is needed.
func (c *Cursor) Metrics() *Metrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.x.m
}

// Close returns the cursor's arena to the engine. Closing twice is a no-op.
func (c *Cursor) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.closed {
		c.x.close()
		c.closed = true
	}
	return nil
}

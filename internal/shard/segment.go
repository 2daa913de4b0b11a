package shard

import (
	"context"
	"errors"
	"sync"

	"conceptrank/internal/core"
)

// Beyond is kNDS's one stopping rule (paper §5, the Eq. 9 termination
// test) lifted across shards: once the merged top-k is full and a shard's
// termination floor d⁻ exceeds its k-th distance, everything the shard
// could still produce is outside the answer, so stopping it cannot change
// the ranking. The proof survives a stale bound — within a k-epoch the
// merged k-th only decreases while d⁻ only increases — which is what lets
// a remote node test it against the bound its last step request carried.
func Beyond(full bool, kth, dMinus float64) bool { return full && dMinus > kth }

// Segment drives a shard's core.Cursor for one run segment and tells its
// three endings apart: the traversal terminated, one of the cursor's own
// hooks called Stop (the cross-shard bound proved the shard out, or a
// remote step spent its wave budget), or the caller's context ended. The
// in-process sharded engine and the cluster node both run their shard
// cursors through it; the zero value is ready to use.
type Segment struct {
	mu      sync.Mutex // guards the fields below: set per Run, read by Stop
	cancel  context.CancelFunc
	stopped bool
}

// Stop ends the running segment at the next wave boundary — the one point
// where a core cursor is resumable. It is for the cursor's own hooks
// (Options.OnBound, Options.OnWave); between runs it is a no-op.
func (sg *Segment) Stop() {
	sg.mu.Lock()
	cancel := sg.cancel
	sg.stopped = cancel != nil
	sg.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// Run runs cur under ctx until it terminates (true, nil), a hook stops it
// (false, nil — cur is resumable and a later Run continues it), or it
// fails; a cancellation that is the caller's rather than a hook's comes
// back as the context error, equally resumable.
func (sg *Segment) Run(ctx context.Context, cur *core.Cursor) (done bool, err error) {
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	sg.mu.Lock()
	sg.cancel, sg.stopped = cancel, false
	sg.mu.Unlock()
	_, _, err = cur.Run(sctx)
	sg.mu.Lock()
	stopped := sg.stopped
	sg.cancel = nil
	sg.mu.Unlock()
	switch {
	case err == nil:
		return true, nil
	case stopped && errors.Is(err, context.Canceled) && ctx.Err() == nil:
		return false, nil
	}
	return false, err
}

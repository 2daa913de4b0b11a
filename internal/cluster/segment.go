package cluster

import (
	"context"
	"errors"
	"sync"

	"conceptrank/internal/core"
)

// segment drives a node's core.Cursor for one step segment and tells its
// three endings apart: the traversal terminated, one of the cursor's own
// hooks called stop (the cross-shard bound proved the shard out, or the
// step spent its wave budget), or the caller's context ended. The zero
// value is ready to use.
type segment struct {
	mu      sync.Mutex // guards the fields below: set per run, read by stop
	cancel  context.CancelFunc
	stopped bool
}

// stop ends the running segment at the next wave boundary — the one point
// where a core cursor is resumable. It is for the cursor's own hooks
// (Options.OnBound, Options.OnWave); between runs it is a no-op.
func (sg *segment) stop() {
	sg.mu.Lock()
	cancel := sg.cancel
	sg.stopped = cancel != nil
	sg.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// run runs cur under ctx until it terminates (true, nil), a hook stops it
// (false, nil — cur is resumable and a later run continues it), or it
// fails; a cancellation that is the caller's rather than a hook's comes
// back as the context error, equally resumable.
func (sg *segment) run(ctx context.Context, cur *core.Cursor) (done bool, err error) {
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

// Package pool provides the shared concurrency and allocation primitives
// of the engine:
//
//   - Group, an errgroup-style cancellation group with an optional
//     concurrency limit: the partitioned full scan, the shard fan-out,
//     the coordinator's fan-out and the pair join all schedule through it;
//   - ShardedMap, a lock-sharded concurrent map backing caches shared by
//     many goroutines (internal/drc's Dewey address cache);
//   - Slab, the chunked arena behind per-query pipeline state.
//
// The primitives are deliberately dependency-free (stdlib only) so every
// internal package may use them without import cycles.
package pool

import (
	"context"
	"sync"
)

// Group schedules a set of goroutines working on one collective task, with
// errgroup semantics: the first task to return a non-nil error cancels the
// group's context (so tasks not yet started can be skipped and cooperative
// tasks can abort), and Wait returns that first error. An optional limit
// bounds concurrency. The zero value is a Group with no context to cancel
// and no limit.
type Group struct {
	cancel  context.CancelCauseFunc
	wg      sync.WaitGroup
	sem     chan struct{}
	errOnce sync.Once
	err     error
}

// GroupWithContext returns a Group and a context derived from ctx that is
// canceled the first time a task returns a non-nil error or Wait returns.
func GroupWithContext(ctx context.Context) (*Group, context.Context) {
	ctx, cancel := context.WithCancelCause(ctx)
	return &Group{cancel: cancel}, ctx
}

// SetLimit bounds the number of concurrently running tasks to n (n <= 0
// removes the bound). Must be called before the first Go.
func (g *Group) SetLimit(n int) {
	if n <= 0 {
		g.sem = nil
		return
	}
	g.sem = make(chan struct{}, n)
}

// Go runs f in a new goroutine, blocking first if the concurrency limit is
// reached. The first non-nil error cancels the group context and is
// reported by Wait.
func (g *Group) Go(f func() error) {
	if g.sem != nil {
		g.sem <- struct{}{}
	}
	g.wg.Add(1)
	go func() {
		defer func() {
			if g.sem != nil {
				<-g.sem
			}
			g.wg.Done()
		}()
		if err := f(); err != nil {
			g.errOnce.Do(func() {
				g.err = err
				if g.cancel != nil {
					g.cancel(err)
				}
			})
		}
	}()
}

// Wait blocks until every task started with Go has returned, cancels the
// group context, and returns the first error.
func (g *Group) Wait() error {
	g.wg.Wait()
	if g.cancel != nil {
		g.cancel(g.err)
	}
	return g.err
}

package cluster

import (
	"context"
	"encoding/json"
	"time"
)

// replicaGroup is one shard's replica set with tail-latency hedging: a
// stateless call goes to the preferred replica first and, if no answer
// arrives within hedgeDelay, is raced against the next replica — first
// success wins, the loser's context is cancelled. Stateful cursor calls
// must stay on the replica that owns the cursor; callOn addresses a
// replica directly for those (the open is hedged, the winner becomes the
// cursor's home, and a losing open's cursor is closed by closeLosers).
type replicaGroup struct {
	node       int // shard index, for metrics labels
	replicas   []*transport
	hedgeDelay time.Duration // <= 0 disables hedging
	cm         *coordMetrics // may be nil (tests)
}

func (g *replicaGroup) observe(start time.Time, failed bool) {
	if g.cm != nil {
		g.cm.observe(g.node, start, failed)
	}
}

// callOn posts to one specific replica — the sticky path for cursor
// steps.
func (g *replicaGroup) callOn(ctx context.Context, replica int, endpoint string, in, out any) error {
	start := time.Now()
	err := g.replicas[replica].call(ctx, endpoint, in, out)
	g.observe(start, err != nil)
	return err
}

// call posts to the group with hedging and returns the winning replica's
// index (the cursor home for a hedged open). Replica 0 is preferred;
// hedges walk the list in order, one new race entrant per hedgeDelay.
func (g *replicaGroup) call(ctx context.Context, endpoint string, in, out any) (int, error) {
	start := time.Now()
	winner, raw, err := g.race(ctx, endpoint, in)
	g.observe(start, err != nil)
	if err != nil {
		return winner, err
	}
	if out == nil {
		return winner, nil
	}
	return winner, json.Unmarshal(raw, out)
}

type hedgeResult struct {
	replica int
	raw     []byte
	err     error
}

func (g *replicaGroup) race(ctx context.Context, endpoint string, in any) (int, []byte, error) {
	if len(g.replicas) == 1 || g.hedgeDelay <= 0 {
		raw, err := g.replicas[0].callRaw(ctx, endpoint, in)
		return 0, raw, err
	}
	// A losing open may still park a cursor, and only its response names
	// it, so open attempts outlive the race and closeLosers drains them.
	// Every other endpoint is stateless: its losers are cancelled the
	// moment the race ends.
	opens := endpoint == "open"
	parent := ctx
	if opens {
		parent = context.WithoutCancel(ctx)
	}
	rctx, cancel := context.WithCancel(parent)
	results := make(chan hedgeResult, len(g.replicas))
	inFlight, next := 0, 0
	defer func() {
		if opens && inFlight > 0 {
			go g.closeLosers(parent, results, inFlight, cancel)
			return
		}
		cancel()
	}()
	launch := func() {
		i := next
		next++
		inFlight++
		go func() {
			raw, err := g.replicas[i].callRaw(rctx, endpoint, in)
			results <- hedgeResult{replica: i, raw: raw, err: err}
		}()
	}
	launch()
	timer := time.NewTimer(g.hedgeDelay)
	defer timer.Stop()
	var lastErr error
	for {
		select {
		case <-ctx.Done():
			return -1, nil, ctx.Err()
		case <-timer.C:
			if next < len(g.replicas) {
				if g.cm != nil {
					g.cm.hedges.Inc()
				}
				launch()
				timer.Reset(g.hedgeDelay)
			}
		case r := <-results:
			inFlight--
			if r.err == nil {
				if r.replica > 0 && g.cm != nil {
					g.cm.hedgeWins.Inc()
				}
				return r.replica, r.raw, nil
			}
			lastErr = r.err
			if next < len(g.replicas) {
				// A fast failure frees the slot: bring in the next
				// replica immediately instead of waiting out the delay.
				launch()
			} else if inFlight == 0 {
				return -1, nil, lastErr
			}
		}
	}
}

// closeLosers waits for the open attempts a finished race left in flight
// and closes every cursor they parked. The stragglers and the closes share
// one attempt deadline; past it the attempts are cancelled, and a cursor
// still parked then is left to the node's TTL sweep.
func (g *replicaGroup) closeLosers(parent context.Context, results <-chan hedgeResult, inFlight int, cancel context.CancelFunc) {
	ctx, done := context.WithTimeout(parent, g.replicas[0].deadline)
	defer done()
	context.AfterFunc(ctx, cancel)
	for ; inFlight > 0; inFlight-- {
		r := <-results
		var resp OpenResponse
		if r.err != nil || json.Unmarshal(r.raw, &resp) != nil || resp.Cursor == "" {
			continue
		}
		_ = g.replicas[r.replica].call(ctx, "close", CloseRequest{Cursor: resp.Cursor}, nil)
	}
}

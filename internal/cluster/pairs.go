package cluster

import (
	"context"
	"fmt"
	"sync"
	"time"

	"conceptrank/internal/core"
	"conceptrank/internal/corpus"
	"conceptrank/internal/ontology"
	"conceptrank/internal/pool"
)

// Distributed top-k document pairs. The candidate universe splits exactly
// into intra-node pairs (both documents on one node) and cross-node pairs
// (one document on each of two nodes):
//
//   - Intra-node pairs come from each node's own TopKPairs with k = K.
//     Its local top-K is a superset of every intra-node pair that can
//     reach the global top-K.
//
//   - Cross-node pairs come from per-document SDS probes: for each
//     document b on the smaller node of a pair (i, j), a released,
//     uncapped SDS(concepts(b), K) open against the other node yields
//     b's K nearest remote documents with exact distances. If a cross
//     pair (a, b) is in the global top-K but a were NOT among b's K
//     nearest on a's node, then at least K documents a' there
//     canonically precede a with
//     respect to b — and every pair (a', b) precedes (a, b) in the
//     canonical pair order (distance, min ID, max ID): strictly smaller
//     distance precedes outright, and at equal distance a' < a implies
//     (min, max) of (a', b) lexicographically precedes that of (a, b) in
//     every arrangement of a', a, b. K predecessors exclude (a, b) from
//     the top-K — contradiction. So the probes cover every viable cross
//     pair, and the merged top-K is bitwise identical to the single-
//     engine join (offers carry exact distances through the same
//     canonical PairMerger).
//
// The probe cost is one SDS per document per node pair — a demo-scale
// trade (the join's block structure does not cross the wire); the
// returned metrics therefore reflect RPC-side accounting, not the
// single-engine join counters.
func (c *Coordinator) TopKPairs(ctx context.Context, opts core.PairOptions) ([]core.PairResult, *core.PairMetrics, error) {
	opts = opts.Normalize()
	release, err := c.adm.Acquire(TenantFrom(ctx))
	if err != nil {
		return nil, nil, err
	}
	defer release()
	start := time.Now()
	m := &core.PairMetrics{}
	mg := core.NewPairMerger(opts.K)
	var mu sync.Mutex // guards m's counters (merger locks itself)

	ns := len(c.groups)
	preq := PairsRequest{K: opts.K, ErrorThreshold: opts.ErrorThreshold}
	blocks := make([]BlockResponse, ns)

	g, gctx := pool.GroupWithContext(ctx)
	g.SetLimit(opts.Workers)
	for s := 0; s < ns; s++ {
		if c.docs[s] == 0 {
			continue
		}
		s := s
		g.Go(func() error { // intra-node pairs
			var resp PairsResponse
			if _, err := c.groups[s].call(gctx, "pairs", preq, &resp); err != nil {
				return fmt.Errorf("shard %d pairs: %w", s, err)
			}
			for _, p := range resp.Pairs {
				mg.Offer(p)
			}
			if resp.Metrics != nil {
				mu.Lock()
				m.Add(resp.Metrics)
				mu.Unlock()
			}
			return nil
		})
		g.Go(func() error { // document block for cross-node probes
			if _, err := c.groups[s].call(gctx, "block", empty{}, &blocks[s]); err != nil {
				return fmt.Errorf("shard %d block: %w", s, err)
			}
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		m.TotalTime = time.Since(start)
		return nil, m, err
	}

	// Cross-node probes: for each node pair, probe from the smaller side
	// into the larger — fewer SDS calls for the same coverage.
	pg, pctx := pool.GroupWithContext(ctx)
	pg.SetLimit(opts.Workers)
	probes := 0
	for i := 0; i < ns; i++ {
		for j := i + 1; j < ns; j++ {
			if c.docs[i] == 0 || c.docs[j] == 0 {
				continue
			}
			from, into := i, j
			if c.docs[j] < c.docs[i] {
				from, into = j, i
			}
			for _, d := range blocks[from].Docs {
				if len(d.Concepts) == 0 {
					continue // concept-free documents are ineligible for pairs
				}
				d, into := d, into
				probes++
				pg.Go(func() error {
					// Released with no wave cap, the open runs the probe to
					// termination and parks nothing; its offers are then
					// the node's whole top-k.
					var resp OpenResponse
					_, err := c.groups[into].call(pctx, "open", OpenRequest{
						SDS:   true,
						Query: d.Concepts,
						Options: WireOptions{
							K:              opts.K,
							ErrorThreshold: opts.ErrorThreshold,
						},
						Release: true,
					}, &resp)
					if err != nil {
						return fmt.Errorf("pair probe doc %d vs shard %d: %w", d.Doc, into, err)
					}
					for _, r := range resp.Results {
						a, b := r.Doc, d.Doc
						if a > b {
							a, b = b, a
						}
						mg.Offer(core.PairResult{A: a, B: b, Distance: r.Distance})
					}
					mu.Lock()
					if resp.Metrics != nil {
						m.PairsExamined += int64(resp.Metrics.DocsExamined)
					}
					mu.Unlock()
					return nil
				})
			}
		}
	}
	if err := pg.Wait(); err != nil {
		m.TotalTime = time.Since(start)
		return nil, m, err
	}
	m.Blocks += probes
	results := mg.Sorted()
	m.ResultCount = len(results)
	m.TotalTime = time.Since(start)
	return results, m, nil
}

// DocConcepts fetches one document's concepts from the node owning it —
// the coordinator-side source for SDS-by-document serving paths. Shards
// are probed in order (placement is opaque to the coordinator); nodes not
// owning the document answer with a cheap 400.
func (c *Coordinator) DocConcepts(ctx context.Context, doc corpus.DocID) ([]ontology.ConceptID, error) {
	for s, g := range c.groups {
		if c.docs[s] == 0 {
			continue
		}
		var resp DocResponse
		if _, err := g.call(ctx, "doc", DocRequest{Doc: doc}, &resp); err == nil {
			return resp.Concepts, nil
		} else if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	return nil, fmt.Errorf("cluster: doc %d not found on any shard", doc)
}

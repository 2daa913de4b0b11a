package core

// Per-query arena memory. Every piece of mutable per-query state whose
// lifetime is the query itself — docStates, their coverage arrays, the
// dense state table, the discovered/live document lists, the candidate
// buffer, the BFS visited pages and the serial DRC scratch — is carved
// from one queryArena instead of the heap. The arena lives as long as the
// executor (released on close, surviving GrowK/Next), and the engine
// recycles released arenas through a sync.Pool so the warm steady state
// re-carves the same chunks query after query.

import (
	"conceptrank/internal/corpus"
	"conceptrank/internal/drc"
	"conceptrank/internal/ontology"
	"conceptrank/internal/pool"
)

// arenaRetainBytes caps how much slab memory a released arena may retain
// for reuse. One outlier query (a huge corpus scan, a pathological
// fan-out) otherwise pins its peak footprint in the engine's pool forever.
const arenaRetainBytes = 8 << 20

// queryArena bundles the slab allocators backing one query's mutable
// pipeline state. It is single-goroutine like the executor that owns it.
type queryArena struct {
	docs   pool.Slab[docState]
	ptrs   pool.Slab[*docState]
	i32    pool.Slab[int32]
	f64    pool.Slab[float64]
	cids   pool.Slab[ontology.ConceptID]
	docIDs pool.Slab[corpus.DocID] // boundTable all/live lists
	cands  pool.Slab[cand]         // boundTable per-wave candidate buffer
	pages  pool.Slab[byte]         // waveStepper visited-bit pages
	tables pool.Slab[[]byte]       // waveStepper per-origin page tables

	// queueBuf seeds the wave stepper's BFS queue; the executor hands the
	// grown queue back on close so the next query starts at capacity.
	queueBuf []bfsState
	// scr is the serial examination path's DRC scratch; pooling it with
	// the arena carries the warmed radix workspace across queries.
	scr drc.Scratch
}

// reset rewinds every slab, keeping the chunks. Previously carved state
// becomes invalid; callers only reset between queries.
func (a *queryArena) reset() {
	a.docs.Reset()
	a.ptrs.Reset()
	a.i32.Reset()
	a.f64.Reset()
	a.cids.Reset()
	a.docIDs.Reset()
	a.cands.Reset()
	a.pages.Reset()
	a.tables.Reset()
}

// bytes is the arena's retained slab footprint (the DRC scratch and queue
// buffer are excluded: both are bounded by the same query shape the slabs
// reflect, so the slab total is the deciding signal).
func (a *queryArena) bytes() int64 {
	return a.docs.Bytes() + a.ptrs.Bytes() + a.i32.Bytes() + a.f64.Bytes() +
		a.cids.Bytes() + a.docIDs.Bytes() + a.cands.Bytes() + a.pages.Bytes() + a.tables.Bytes()
}

// acquireArena hands out a reset arena, reusing a pooled one when
// available. Safe for concurrent queries: each caller gets its own. A
// sharded engine's shards each carry their own pool (per-shard arenas),
// because each shard is its own Engine value.
func (e *Engine) acquireArena() *queryArena {
	if a, ok := e.arenas.Get().(*queryArena); ok {
		return a
	}
	return new(queryArena)
}

// releaseArena returns an arena to the engine's pool for the next query,
// unless it grew past arenaRetainBytes — then it (and its chunks) go to
// the garbage collector.
func (e *Engine) releaseArena(a *queryArena) {
	if a.bytes() > arenaRetainBytes {
		return
	}
	a.reset()
	e.arenas.Put(a)
}

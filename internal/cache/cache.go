// Package cache is the shared semantic-distance cache of the kNDS stack:
// a lock-sharded, memory-bounded LRU holding
//
//   - concept→Ddc seed vectors — for one query concept c, the exact
//     Eq. 1 distance to every document of a corpus, keyed on (corpus,
//     concept) and stamped with the corpus generation (document count)
//     they were computed under, and
//   - measure seed vectors — the float-valued counterpart of a seed
//     vector under a pluggable distance measure, keyed on (corpus,
//     measure, concept) so warm entries never cross measures.
//
// The cache itself knows nothing about ontologies or engines: it stores
// opaque vectors under 128-bit keys and enforces a byte budget. The plan
// stage of internal/core (seed.go) decides what a generation means, how a
// stale vector is refreshed, and how a query folds its hits into a
// ranking; see DESIGN.md, "Distance caching".
//
// Concurrency: every operation takes exactly one shard lock, chosen by key
// hash, so disjoint keys proceed in parallel. Hit/miss/eviction/byte
// accounting is atomic and lock-free. Values are immutable by contract —
// GetSeed returns the stored Seed whose Docs slice must be treated as
// read-only; a refresh builds a new slice and replaces the entry.
//
// Admission: Config.AdmitAfter is a doorkeeper in the TinyLFU spirit — a
// key's value is only admitted on its AdmitAfter-th miss, so one-shot
// concepts cannot wash a hot working set out of a tight budget. The
// default (1) admits on first miss.
package cache

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"conceptrank/internal/corpus"
)

// DocDist is one component of a seed vector: document doc is at exact
// valid-path distance Dist from the vector's concept (Eq. 1).
type DocDist struct {
	Doc  corpus.DocID
	Dist int32
}

// Seed is a cached concept→Ddc vector. Docs is ascending by Doc and
// covers exactly the documents [0, Gen) that contain at least one concept
// reachable from the seed concept (in a rooted DAG: every non-empty
// document). Gen is the corpus document count the vector was computed
// under — the corpus generation. Docs is read-only once stored.
type Seed struct {
	Gen  int
	Docs []DocDist
}

// DocFDist is one component of a measure seed vector: document doc is at
// exact measure distance Dist from the vector's concept — the generalized
// Eq. 1, min over the document's concepts of the measure's pair distance.
type DocFDist struct {
	Doc  corpus.DocID
	Dist float64
}

// MSeed is a cached measure seed vector — the float-valued counterpart of
// Seed for a pluggable distance measure (internal/measure). It is keyed on
// (corpus, measure, concept): measure identity participates in the key so
// warm entries never cross measures. Docs is ascending by Doc, covers
// exactly the reachable documents of [0, Gen), and is read-only once
// stored.
type MSeed struct {
	Gen  int
	Docs []DocFDist
}

// Config parameterizes a Cache. The zero value is usable: 64 MiB across
// 16 shards, admit on first miss.
type Config struct {
	// MaxBytes bounds the cache's accounted memory (default 64 MiB). The
	// budget is split evenly across shards; a shard over its slice evicts
	// from its LRU tail, so the global accounted size never exceeds
	// MaxBytes.
	MaxBytes int64
	// Shards is the lock-shard count, rounded up to a power of two
	// (default 16).
	Shards int
	// AdmitAfter is the doorkeeper threshold: a key's value is admitted on
	// its AdmitAfter-th miss (default 1 — every computed value is stored).
	AdmitAfter int
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	SeedHits      int64 // GetSeed found an entry (any generation)
	SeedMisses    int64 // GetSeed found nothing
	SeedRefreshes int64 // PutSeed advanced an existing entry's generation
	// PairHits and PairMisses are always zero: the concept-pair side they
	// counted is gone (a stale vector is extended by distance.Prober, not a
	// memo). The names stay because the repository benchmark reads them,
	// until a benchmark PR drops cache.pair_hit_rate; /debug/cache and
	// every other JSON rendering omit them.
	PairHits   int64 `json:"-"`
	PairMisses int64 `json:"-"`
	Evictions  int64 // entries dropped to fit the byte budget
	Rejected   int64 // puts turned away by the doorkeeper
	Bytes      int64 // accounted bytes currently held
	Entries    int64 // entries currently held
}

// key is the unified 136-bit cache key: a kind tag plus two 64-bit
// components. Seeds use (corpusID, concept); measure seeds (corpusID,
// measure<<32 | concept).
type key struct {
	kind uint8
	a, b uint64
}

const (
	kindSeed uint8 = iota
	kindMSeed
)

// hash mixes the key into a shard selector (splitmix64-style finalizer).
func (k key) hash() uint64 {
	h := k.a*0x9e3779b97f4a7c15 ^ bits.RotateLeft64(k.b*0xbf58476d1ce4e5b9, 31) ^ uint64(k.kind)*0x94d049bb133111eb
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return h
}

// entry is one cached value on its shard's intrusive LRU list.
type entry struct {
	k          key
	seed       Seed  // kindSeed
	mseed      MSeed // kindMSeed
	bytes      int64
	prev, next *entry
}

// Accounted cost per entry: the struct, its map bucket share and the key,
// rounded up — deliberately pessimistic so the budget errs toward using
// less memory than configured.
const entryOverhead = 96

func seedCost(s Seed) int64 { return entryOverhead + int64(len(s.Docs))*8 }

func mseedCost(s MSeed) int64 { return entryOverhead + int64(len(s.Docs))*16 }

// cshard is one lock shard: a map for lookup and a doubly-linked LRU list
// with a sentinel (head.next = most recent, head.prev = least recent).
type cshard struct {
	mu    sync.Mutex
	m     map[key]*entry
	head  entry // sentinel
	bytes int64 // resident cost of this shard's entries
	// seen counts misses per key for the doorkeeper; nil when
	// AdmitAfter <= 1. Reset wholesale when it outgrows its cap — the
	// doorkeeper is a frequency sketch, not ground truth.
	seen map[key]uint32
}

const seenCap = 1 << 16

// Cache is the sharded LRU. Safe for concurrent use.
type Cache struct {
	shards     []*cshard
	mask       uint64
	perShard   int64
	admitAfter uint32

	seedHits, seedMisses, seedRefreshes atomic.Int64
	evictions, rejected                 atomic.Int64
	bytes, entries                      atomic.Int64
}

// New builds a cache from cfg (see Config for defaults).
func New(cfg Config) *Cache {
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = 64 << 20
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 16
	}
	n := 1
	for n < cfg.Shards {
		n <<= 1
	}
	if cfg.AdmitAfter < 1 {
		cfg.AdmitAfter = 1
	}
	c := &Cache{
		shards:     make([]*cshard, n),
		mask:       uint64(n - 1),
		perShard:   cfg.MaxBytes / int64(n),
		admitAfter: uint32(cfg.AdmitAfter),
	}
	for i := range c.shards {
		sh := &cshard{m: make(map[key]*entry)}
		sh.head.next = &sh.head
		sh.head.prev = &sh.head
		if c.admitAfter > 1 {
			sh.seen = make(map[key]uint32)
		}
		c.shards[i] = sh
	}
	return c
}

func (c *Cache) shardOf(k key) *cshard { return c.shards[k.hash()&c.mask] }

// list helpers; callers hold the shard lock.

func (sh *cshard) unlink(e *entry) {
	e.prev.next = e.next
	e.next.prev = e.prev
}

func (sh *cshard) pushFront(e *entry) {
	e.next = sh.head.next
	e.prev = &sh.head
	sh.head.next.prev = e
	sh.head.next = e
}

func (sh *cshard) touch(e *entry) {
	sh.unlink(e)
	sh.pushFront(e)
}

// noteMiss records a doorkeeper miss and reports whether the key has now
// missed often enough to be admitted on the next put.
func (sh *cshard) noteMiss(k key) {
	if sh.seen == nil {
		return
	}
	if len(sh.seen) >= seenCap {
		sh.seen = make(map[key]uint32)
	}
	sh.seen[k]++
}

func (sh *cshard) admits(k key, after uint32) bool {
	if after <= 1 {
		return true
	}
	return sh.seen[k] >= after
}

// GetSeed returns the seed vector stored for (corpusID, concept), at
// whatever generation it was last written. A present entry counts as a
// hit even when stale — the caller refreshes it incrementally rather than
// rebuilding, which is the cache's whole point for dynamic corpora.
func (c *Cache) GetSeed(corpusID uint64, concept uint32) (Seed, bool) {
	k := key{kind: kindSeed, a: corpusID, b: uint64(concept)}
	sh := c.shardOf(k)
	sh.mu.Lock()
	if e, ok := sh.m[k]; ok {
		sh.touch(e)
		s := e.seed
		sh.mu.Unlock()
		c.seedHits.Add(1)
		return s, true
	}
	sh.noteMiss(k)
	sh.mu.Unlock()
	c.seedMisses.Add(1)
	return Seed{}, false
}

// PutSeed stores s under (corpusID, concept) and reports whether it was
// admitted. An existing entry at an equal or newer generation is kept
// (concurrent refreshers race benignly: the newest generation wins); an
// older entry is replaced in place and counted as a refresh. The
// doorkeeper only gates first insertion — refreshing an admitted entry is
// always allowed.
func (c *Cache) PutSeed(corpusID uint64, concept uint32, s Seed) bool {
	k := key{kind: kindSeed, a: corpusID, b: uint64(concept)}
	sh := c.shardOf(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e, ok := sh.m[k]; ok {
		if e.seed.Gen >= s.Gen {
			sh.touch(e)
			return true
		}
		nb := seedCost(s)
		sh.bytes += nb - e.bytes
		c.bytes.Add(nb - e.bytes)
		e.seed = s
		e.bytes = nb
		sh.touch(e)
		c.seedRefreshes.Add(1)
		c.shrink(sh)
		return true
	}
	if !sh.admits(k, c.admitAfter) {
		c.rejected.Add(1)
		return false
	}
	e := &entry{k: k, seed: s, bytes: seedCost(s)}
	sh.m[k] = e
	sh.pushFront(e)
	sh.bytes += e.bytes
	c.bytes.Add(e.bytes)
	c.entries.Add(1)
	c.shrink(sh)
	return true
}

// mseedKey builds the (corpus, measure, concept) key of a measure seed
// vector. The measure identity occupies the high half of the second key
// word, so two measures over the same corpus and concept never collide —
// a warm vector cannot be served to a different measure.
func mseedKey(corpusID uint64, measureID, concept uint32) key {
	return key{kind: kindMSeed, a: corpusID, b: uint64(measureID)<<32 | uint64(concept)}
}

// GetMeasureSeed returns the measure seed vector stored for (corpusID,
// measureID, concept), at whatever generation it was last written. Like
// GetSeed, a stale entry still counts as a hit — the caller refreshes it
// incrementally. Measure seeds share the seed hit/miss/refresh counters.
func (c *Cache) GetMeasureSeed(corpusID uint64, measureID, concept uint32) (MSeed, bool) {
	k := mseedKey(corpusID, measureID, concept)
	sh := c.shardOf(k)
	sh.mu.Lock()
	if e, ok := sh.m[k]; ok {
		sh.touch(e)
		s := e.mseed
		sh.mu.Unlock()
		c.seedHits.Add(1)
		return s, true
	}
	sh.noteMiss(k)
	sh.mu.Unlock()
	c.seedMisses.Add(1)
	return MSeed{}, false
}

// PutMeasureSeed stores s under (corpusID, measureID, concept) and reports
// whether it was admitted; same generation and doorkeeper semantics as
// PutSeed.
func (c *Cache) PutMeasureSeed(corpusID uint64, measureID, concept uint32, s MSeed) bool {
	k := mseedKey(corpusID, measureID, concept)
	sh := c.shardOf(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e, ok := sh.m[k]; ok {
		if e.mseed.Gen >= s.Gen {
			sh.touch(e)
			return true
		}
		nb := mseedCost(s)
		sh.bytes += nb - e.bytes
		c.bytes.Add(nb - e.bytes)
		e.mseed = s
		e.bytes = nb
		sh.touch(e)
		c.seedRefreshes.Add(1)
		c.shrink(sh)
		return true
	}
	if !sh.admits(k, c.admitAfter) {
		c.rejected.Add(1)
		return false
	}
	e := &entry{k: k, mseed: s, bytes: mseedCost(s)}
	sh.m[k] = e
	sh.pushFront(e)
	sh.bytes += e.bytes
	c.bytes.Add(e.bytes)
	c.entries.Add(1)
	c.shrink(sh)
	return true
}

// shrink evicts from sh's LRU tail until the shard's resident bytes fit
// its budget slice. Caller holds the shard lock. A freshly inserted entry
// sits at the list head, so it is evicted only if nothing else is left to
// give — an entry bigger than a whole shard's budget is not cacheable at
// this configuration, and admitting it anyway would silently blow the
// byte contract.
func (c *Cache) shrink(sh *cshard) {
	for sh.bytes > c.perShard {
		tail := sh.head.prev
		if tail == &sh.head {
			return
		}
		sh.unlink(tail)
		delete(sh.m, tail.k)
		sh.bytes -= tail.bytes
		c.bytes.Add(-tail.bytes)
		c.entries.Add(-1)
		c.evictions.Add(1)
	}
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	return Stats{
		SeedHits:      c.seedHits.Load(),
		SeedMisses:    c.seedMisses.Load(),
		SeedRefreshes: c.seedRefreshes.Load(),
		Evictions:     c.evictions.Load(),
		Rejected:      c.rejected.Load(),
		Bytes:         c.bytes.Load(),
		Entries:       c.entries.Load(),
	}
}

// Len returns the number of resident entries.
func (c *Cache) Len() int { return int(c.entries.Load()) }

// Reset drops every entry and the doorkeeper state. Counters keep
// accumulating (they are lifetime totals, like Prometheus counters).
func (c *Cache) Reset() {
	for _, sh := range c.shards {
		sh.mu.Lock()
		for e := sh.head.next; e != &sh.head; e = e.next {
			c.bytes.Add(-e.bytes)
			c.entries.Add(-1)
		}
		sh.m = make(map[key]*entry)
		sh.head.next = &sh.head
		sh.head.prev = &sh.head
		sh.bytes = 0
		if sh.seen != nil {
			sh.seen = make(map[key]uint32)
		}
		sh.mu.Unlock()
	}
}

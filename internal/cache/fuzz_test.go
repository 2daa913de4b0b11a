package cache

import (
	"testing"
)

// FuzzLRUAdmission drives a single-shard cache through an arbitrary
// op sequence (puts, gets, resets over a small key space) and checks the
// accounting invariants after every step: the tracked byte/entry counts
// match a recount of the resident list, the byte budget holds, and the
// LRU list stays a consistent doubly-linked ring. This is the admission/
// eviction path the plan-stage seeding trusts with its memory bound.
func FuzzLRUAdmission(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3}, int64(512))
	f.Add([]byte{1, 1, 1, 9, 200, 7}, int64(200))
	f.Add([]byte{255, 0, 128, 64, 32, 16, 8, 4, 2, 1}, int64(96))
	f.Fuzz(func(t *testing.T, ops []byte, maxBytes int64) {
		if maxBytes < 0 || maxBytes > 1<<20 {
			t.Skip()
		}
		c := newCache(maxBytes, 1)
		sh := c.shards[0]
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], ops[i+1]
			concept := uint32(arg % 16)
			switch op % 6 {
			case 0:
				c.GetSeed(1, concept)
			case 1:
				c.PutSeed(1, concept, seedOf(int(arg)+1, int(arg%32)))
			case 2:
				c.GetMeasureSeed(1, uint32(op%4), concept)
			case 3:
				c.PutMeasureSeed(1, uint32(op%4), concept, mseedOf(int(arg)+1, int(arg%16)))
			case 4:
				c.PutSeed(1, concept, seedOf(int(arg/2)+1, int(arg%8)))
			default:
				if arg == 0 {
					c.Reset()
				} else {
					c.GetSeed(2, concept)
				}
			}
			checkShardInvariants(t, c, sh)
		}
	})
}

func checkShardInvariants(t *testing.T, c *Cache, sh *cshard) {
	t.Helper()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var bytes int64
	n := 0
	for e := sh.head.next; e != &sh.head; e = e.next {
		if e.next.prev != e || e.prev.next != e {
			t.Fatal("broken LRU links")
		}
		if got, ok := sh.m[e.k]; !ok || got != e {
			t.Fatal("list entry missing from map")
		}
		bytes += e.bytes
		n++
		if n > len(sh.m)+1 {
			t.Fatal("LRU list longer than map (cycle?)")
		}
	}
	if n != len(sh.m) {
		t.Fatalf("list has %d entries, map has %d", n, len(sh.m))
	}
	if bytes != sh.bytes {
		t.Fatalf("shard bytes drifted: tracked %d, recounted %d", sh.bytes, bytes)
	}
	if bytes > c.perShard && n > 0 {
		// Over budget is only legal transiently inside a put; after any
		// public call the shard must fit (or be empty).
		t.Fatalf("shard over budget: %d > %d with %d entries", bytes, c.perShard, n)
	}
	if got := c.bytes.Load(); got != bytes {
		t.Fatalf("global bytes %d != shard bytes %d (single shard)", got, bytes)
	}
	if got := c.entries.Load(); got != int64(n) {
		t.Fatalf("global entries %d != %d", got, n)
	}
}

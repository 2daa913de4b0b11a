package cluster

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func newTestStore(t *testing.T, ttl time.Duration, max int, onEvict func(int)) *CursorStore[int] {
	cs := NewCursorStore(ttl, max, onEvict)
	t.Cleanup(cs.Close)
	return cs
}

func TestCursorStoreTakePutCycle(t *testing.T) {
	cs := newTestStore(t, time.Minute, 4, nil)
	tok, err := cs.Add(42)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := cs.Take(tok)
	if !ok || v != 42 {
		t.Fatalf("Take = %v, %v", v, ok)
	}
	// Take removes the entry: a second Take must miss until Put.
	if _, ok := cs.Take(tok); ok {
		t.Fatal("second Take succeeded while cursor was checked out")
	}
	cs.Put(tok, 43)
	v, ok = cs.Take(tok)
	if !ok || v != 43 {
		t.Fatalf("Take after Put = %v, %v", v, ok)
	}
}

func TestCursorStoreExpiry(t *testing.T) {
	var evicted atomic.Int32
	cs := newTestStore(t, 10*time.Millisecond, 4, func(int) { evicted.Add(1) })
	tok, err := cs.Add(7)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(25 * time.Millisecond)
	if _, ok := cs.Take(tok); ok {
		t.Fatal("Take returned an expired cursor")
	}
	// The hook fired exactly once: by the sweeper, or lazily on the Take.
	if evicted.Load() != 1 {
		t.Fatalf("evicted = %d, want 1", evicted.Load())
	}
	if cs.Len() != 0 {
		t.Fatalf("Len = %d after expiry, want 0", cs.Len())
	}
}

func TestCursorStorePutRefreshesDeadline(t *testing.T) {
	cs := newTestStore(t, 40*time.Millisecond, 4, nil)
	tok, err := cs.Add(1)
	if err != nil {
		t.Fatal(err)
	}
	// Keep the cursor alive past its original TTL through activity.
	for i := 0; i < 4; i++ {
		time.Sleep(15 * time.Millisecond)
		v, ok := cs.Take(tok)
		if !ok {
			t.Fatalf("cursor expired despite activity (round %d)", i)
		}
		cs.Put(tok, v)
	}
}

// TestCursorStoreEvictsLongestIdleWhenFull pins the one full-store policy
// of node and edge: at capacity Add succeeds by evicting the longest-idle
// parked entry, hands it to the eviction hook exactly once, never picks an
// entry a request has checked out, and never lets Len pass max.
func TestCursorStoreEvictsLongestIdleWhenFull(t *testing.T) {
	const max = 3
	var mu sync.Mutex
	evicted := map[int]int{}
	cs := newTestStore(t, time.Minute, max, func(v int) {
		mu.Lock()
		evicted[v]++
		mu.Unlock()
	})
	toks := make([]string, max)
	for i := range toks {
		tok, err := cs.Add(i)
		if err != nil {
			t.Fatal(err)
		}
		toks[i] = tok
		time.Sleep(2 * time.Millisecond) // distinct idle times
	}
	// Entry 0 is the longest idle but checked out; entry 1 is next.
	if _, ok := cs.Take(toks[0]); !ok {
		t.Fatal("Take(0) missed")
	}
	tok3, err := cs.Add(3)
	if err != nil {
		t.Fatalf("Add at capacity: %v, want eviction", err)
	}
	if cs.Len() != max {
		t.Fatalf("Len = %d, want %d", cs.Len(), max)
	}
	if _, ok := cs.Take(toks[1]); ok {
		t.Fatal("longest-idle parked entry survived a full-store Add")
	}
	// Parking 0 again refreshes it: 2 is now the longest idle.
	cs.Put(toks[0], 0)
	tok4, err := cs.Add(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cs.Take(toks[2]); ok {
		t.Fatal("entry 2 survived although it was the longest idle")
	}
	// With every slot checked out nothing is evictable, and the store
	// refuses instead of growing.
	for _, tok := range []string{toks[0], tok3, tok4} {
		if _, ok := cs.Take(tok); !ok {
			t.Fatal("a recently used entry was evicted")
		}
	}
	if _, err := cs.Add(5); err != ErrStoreFull {
		t.Fatalf("Add with every entry taken: err = %v, want ErrStoreFull", err)
	}
	if cs.Len() != max {
		t.Fatalf("Len = %d, want %d", cs.Len(), max)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(evicted) != 2 || evicted[1] != 1 || evicted[2] != 1 {
		t.Fatalf("evictions = %v, want exactly {1:1, 2:1}", evicted)
	}
}

// TestCursorStoreCloseEvictsEverything: Close hands every parked entry to
// the hook, and an entry in flight at Close is evicted by its Put.
func TestCursorStoreCloseEvictsEverything(t *testing.T) {
	var evicted atomic.Int32
	cs := newTestStore(t, time.Minute, 4, func(int) { evicted.Add(1) })
	held, _ := cs.Add(1)
	if _, err := cs.Add(2); err != nil {
		t.Fatal(err)
	}
	if _, ok := cs.Take(held); !ok {
		t.Fatal("Take missed")
	}
	cs.Close()
	if got := evicted.Load(); got != 1 {
		t.Fatalf("evictions after Close = %d, want 1 (the parked entry)", got)
	}
	cs.Put(held, 1)
	if got, n := evicted.Load(), cs.Len(); got != 2 || n != 0 {
		t.Fatalf("after late Put: evictions = %d, Len = %d; want 2, 0", got, n)
	}
	if _, err := cs.Add(3); err != ErrStoreFull {
		t.Fatalf("Add after Close: err = %v, want ErrStoreFull", err)
	}
}

func TestCursorStoreSweep(t *testing.T) {
	var evicted atomic.Int32
	cs := newTestStore(t, 5*time.Millisecond, 8, func(int) { evicted.Add(1) })
	for i := 0; i < 3; i++ {
		if _, err := cs.Add(i); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(15 * time.Millisecond)
	cs.Sweep()
	if got := cs.Len(); got != 0 {
		t.Fatalf("Len after sweep = %d, want 0", got)
	}
	if got := evicted.Load(); got != 3 {
		t.Fatalf("evictions = %d, want 3", got)
	}
}

// TestCursorStoreConcurrentTakeRace hammers one token from many
// goroutines: exactly one Take wins per Put cycle, so the counter of
// successful Takes equals the number of completed Put cycles — checked-out
// cursors are never visible to anyone else. Run under -race this also
// proves the store's locking.
func TestCursorStoreConcurrentTakeRace(t *testing.T) {
	cs := newTestStore(t, time.Minute, 8, nil)
	tok, err := cs.Add(0)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, rounds = 8, 200
	var wins atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if v, ok := cs.Take(tok); ok {
					wins.Add(1)
					cs.Put(tok, v+1)
				}
			}
		}()
	}
	wg.Wait()
	v, ok := cs.Take(tok)
	if !ok {
		t.Fatal("cursor lost after concurrent churn")
	}
	if int32(v) != wins.Load() {
		t.Fatalf("cursor value %d != successful takes %d: concurrent Take interleaved", v, wins.Load())
	}
}

// TestCursorStoreConcurrentAddRemove checks the size cap holds under
// concurrent Add/Remove churn and that tokens never collide.
func TestCursorStoreConcurrentAddRemove(t *testing.T) {
	const max = 16
	cs := newTestStore(t, time.Minute, max, nil)
	var wg sync.WaitGroup
	seen := sync.Map{}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tok, err := cs.Add(i)
				if err != nil {
					continue // store full: fine under churn
				}
				if _, dup := seen.LoadOrStore(tok, true); dup {
					t.Errorf("token %q issued twice", tok)
					return
				}
				if cs.Len() > max {
					t.Errorf("Len %d exceeds max %d", cs.Len(), max)
					return
				}
				cs.Remove(tok)
			}
		}()
	}
	wg.Wait()
}

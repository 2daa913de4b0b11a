package cluster

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"sync"
	"time"
)

// Cursor-token store: open cursors parked between RPC (or HTTP page)
// calls, named by unguessable tokens and bounded by a TTL and a count cap.
// It is the one parking place of the serving stack — shard nodes park
// their core cursors in it, crserve its paged searches — so both obey one
// policy: an entry idle past the TTL is swept, and a full store admits a
// new entry by evicting the longest-idle parked one (an abandoned page
// must never make the server refuse fresh queries). TTL'd tokens are
// load-bearing for the distributed tier — a coordinator that dies
// mid-query must not pin node memory forever — so every eviction closes
// the parked cursor via the onEvict hook.
//
// Take checks the entry out while a request uses it, so two concurrent
// requests for the same token cannot interleave on one cursor: the loser
// sees "unknown cursor" instead of a data race. A checked-out entry keeps
// its slot (the cap bounds open cursors, not just idle ones) and is never
// evicted; Put parks it again with a refreshed deadline.

// DefaultCursorTTL is how long a parked cursor survives between calls
// when the store is built with no explicit TTL. Whoever parks cursors
// that hold tokens of another store (crserve's pagers hold node cursors)
// must expire strictly sooner, or it would honour tokens whose far side
// is already gone.
const DefaultCursorTTL = 2 * time.Minute

// ErrStoreFull is returned by Add when the store is at capacity and every
// entry is checked out by an in-flight request, so none can be evicted.
var ErrStoreFull = errors.New("cluster: cursor store full")

// CursorStore is a TTL'd token → cursor map, safe for concurrent use. It
// owns a sweeper goroutine; Close stops it.
type CursorStore[T any] struct {
	ttl     time.Duration
	max     int
	onEvict func(T) // never called with the store lock held

	mu     sync.Mutex
	m      map[string]storeEntry[T]
	closed bool

	stop      chan struct{}
	sweepDone chan struct{}
}

type storeEntry[T any] struct {
	v        T
	deadline time.Time
	taken    bool // checked out by Take; not evictable until Put
}

// NewCursorStore builds a store evicting entries idle for ttl (default
// DefaultCursorTTL) and holding at most max entries (default 256).
// onEvict, when non-nil, receives every entry the store drops — by TTL,
// by capacity, by Remove or by Close — exactly once: the hook that closes
// the underlying cursor.
func NewCursorStore[T any](ttl time.Duration, max int, onEvict func(T)) *CursorStore[T] {
	if ttl <= 0 {
		ttl = DefaultCursorTTL
	}
	if max <= 0 {
		max = 256
	}
	if onEvict == nil {
		onEvict = func(T) {}
	}
	s := &CursorStore[T]{
		ttl: ttl, max: max, onEvict: onEvict,
		m:         make(map[string]storeEntry[T]),
		stop:      make(chan struct{}),
		sweepDone: make(chan struct{}),
	}
	go func() {
		defer close(s.sweepDone)
		t := time.NewTicker(ttl / 4)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.Sweep()
			}
		}
	}()
	return s
}

func newToken() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("cluster: crypto/rand unavailable: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}

// Add parks v under a fresh token. At capacity the longest-idle parked
// entry is evicted to make room; ErrStoreFull only when there is none
// (every slot is checked out) or the store is closed.
func (s *CursorStore[T]) Add(v T) (string, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return "", ErrStoreFull
	}
	var victim storeEntry[T]
	full := len(s.m) >= s.max
	if full {
		oldest := ""
		for tok, e := range s.m {
			if !e.taken && (oldest == "" || e.deadline.Before(victim.deadline)) {
				oldest, victim = tok, e
			}
		}
		if oldest == "" {
			s.mu.Unlock()
			return "", ErrStoreFull
		}
		delete(s.m, oldest)
	}
	tok := newToken()
	s.m[tok] = storeEntry[T]{v: v, deadline: time.Now().Add(s.ttl)}
	s.mu.Unlock()
	if full {
		s.onEvict(victim.v)
	}
	return tok, nil
}

// Take checks out and returns the entry for tok, or ok=false when the
// token is unknown, expired, or currently taken by another request.
func (s *CursorStore[T]) Take(tok string) (v T, ok bool) {
	s.mu.Lock()
	e, ok := s.m[tok]
	if !ok || e.taken {
		s.mu.Unlock()
		return v, false
	}
	if time.Now().After(e.deadline) {
		// Expired but not yet swept: evict rather than resurrect.
		delete(s.m, tok)
		s.mu.Unlock()
		s.onEvict(e.v)
		return v, false
	}
	e.taken = true
	s.m[tok] = e
	s.mu.Unlock()
	return e.v, true
}

// Put parks a taken entry again under the same token with a refreshed
// deadline. After Close there is nowhere to park: the entry is evicted.
func (s *CursorStore[T]) Put(tok string, v T) {
	s.mu.Lock()
	if s.closed {
		delete(s.m, tok)
		s.mu.Unlock()
		s.onEvict(v)
		return
	}
	s.m[tok] = storeEntry[T]{v: v, deadline: time.Now().Add(s.ttl)}
	s.mu.Unlock()
}

// Remove evicts tok. Unknown tokens are a no-op, and so is a token taken
// by an in-flight request: that request parks it again, to be swept later.
func (s *CursorStore[T]) Remove(tok string) { s.evict(tok, false) }

// Drop evicts a token its caller holds taken — the alternative to Put for
// a request that is done with the cursor (it drained it).
func (s *CursorStore[T]) Drop(tok string) { s.evict(tok, true) }

func (s *CursorStore[T]) evict(tok string, taken bool) {
	s.mu.Lock()
	e, ok := s.m[tok]
	ok = ok && e.taken == taken
	if ok {
		delete(s.m, tok)
	}
	s.mu.Unlock()
	if ok {
		s.onEvict(e.v)
	}
}

// Len reports the number of entries holding a slot, parked or taken.
func (s *CursorStore[T]) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

// Sweep evicts every parked entry whose deadline has passed and returns
// how many were dropped. The store's own goroutine calls it every ttl/4.
func (s *CursorStore[T]) Sweep() int {
	now := time.Now()
	return s.evictWhere(func(e storeEntry[T]) bool { return now.After(e.deadline) })
}

func (s *CursorStore[T]) evictWhere(drop func(storeEntry[T]) bool) int {
	var evicted []T
	s.mu.Lock()
	for tok, e := range s.m {
		if !e.taken && drop(e) {
			delete(s.m, tok)
			evicted = append(evicted, e.v)
		}
	}
	s.mu.Unlock()
	for _, v := range evicted {
		s.onEvict(v)
	}
	return len(evicted)
}

// Close stops the sweeper and evicts every parked entry; entries taken by
// requests still in flight are evicted when those requests Put them back.
// Closing twice is a no-op.
func (s *CursorStore[T]) Close() {
	s.mu.Lock()
	already := s.closed
	s.closed = true
	s.mu.Unlock()
	if already {
		return
	}
	close(s.stop)
	<-s.sweepDone
	s.evictWhere(func(storeEntry[T]) bool { return true })
}

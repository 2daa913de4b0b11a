package drc

import (
	"slices"
	"sync"
)

// RunStore keeps each document's sorted address run (Run) across probes,
// so the document half of DRC's sort runs once per document instead of
// once per (query, document) probe. An engine owns one beside its
// AddressCache and keys it by DocID. A run is made by the document's first
// probe (BuildStored), never at load or index time.
//
// The store is safe for concurrent use, and a stored run is immutable.
// Concurrent first probes of one document may both sort; the runs are
// identical and the first stored wins. The store holds at most
// runStoreCap positions (4 bytes each): a store that would pass the cap
// evicts arbitrary runs first, and a run larger than the cap is used but
// not kept.
type RunStore struct {
	maxLen int
	mu     sync.RWMutex
	m      map[uint32]Run
	held   int // total length of the runs in m
}

// runStoreCap bounds a store at 16 MiB of runs. PATIENT at the
// benchmark's scale needs 87 K positions for all its documents.
const runStoreCap = 1 << 22

// NewRunStore returns an empty store capped at runStoreCap positions.
func NewRunStore() *RunStore { return newRunStore(runStoreCap) }

// newRunStore returns a store capped at maxLen positions (tests force
// eviction through it).
func newRunStore(maxLen int) *RunStore {
	return &RunStore{maxLen: maxLen, m: make(map[uint32]Run)}
}

func (s *RunStore) load(id uint32) (Run, bool) {
	s.mu.RLock()
	r, ok := s.m[id]
	s.mu.RUnlock()
	return r, ok
}

// store keeps a copy of run under id and returns the run to build from:
// the stored run, or run itself when it is larger than the cap.
func (s *RunStore) store(id uint32, run Run) Run {
	if len(run) > s.maxLen {
		return run
	}
	own := slices.Clone(run)
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.m[id]; ok {
		return old
	}
	for k, r := range s.m {
		if s.held+len(own) <= s.maxLen {
			break
		}
		delete(s.m, k)
		s.held -= len(r)
	}
	s.m[id] = own
	s.held += len(own)
	return own
}

// Len reports the number of stored runs.
func (s *RunStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.m)
}

// Package store implements a disk-backed postings store used for the
// inverted and forward indexes. Arvanitis et al. kept these indexes in
// MySQL and reported database access time as a separate component of query
// time; this package plays that role with a compact local file format and
// an instrumented access layer, so the benchmark harness can report the
// same DRC / traversal / I/O time breakdown as the paper's figures.
//
// File format (all integers are unsigned varints unless noted):
//
//	magic   "CRSTR\x01"
//	blocks  per key: value count n, then n delta-encoded values
//	footer  key count m, then m entries of
//	        { key delta (ascending keys), block offset delta, block length }
//	footerOff  8-byte little-endian offset of the footer
//	footerCRC  4-byte little-endian CRC32 (IEEE) of the footer bytes
//
// The footer is loaded eagerly on Open (it is small: ~10 bytes per key);
// block reads happen lazily per lookup via ReadAt, optionally through a
// fixed-capacity cache. All reads are counted in IOStats.
package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

var storeMagic = []byte("CRSTR\x01")

// ErrBadFormat reports a malformed or corrupted store file.
var ErrBadFormat = errors.New("store: bad file format")

// ErrNotFound reports a lookup for a key that has no block.
var ErrNotFound = errors.New("store: key not found")

// IOStats counts I/O work. All fields are updated atomically; one IOStats
// may be shared by several files so an engine can attribute total I/O time
// to a query. Durations are accumulated in nanoseconds.
type IOStats struct {
	Reads     atomic.Int64
	BytesRead atomic.Int64
	Nanos     atomic.Int64
	CacheHits atomic.Int64
}

// Time returns the accumulated I/O time.
func (s *IOStats) Time() time.Duration { return time.Duration(s.Nanos.Load()) }

// Reset zeroes all counters.
func (s *IOStats) Reset() {
	s.Reads.Store(0)
	s.BytesRead.Store(0)
	s.Nanos.Store(0)
	s.CacheHits.Store(0)
}

// Writer streams a store file. Keys must be appended in strictly ascending
// order.
type Writer struct {
	w       *bufio.Writer
	f       *os.File
	off     int64
	lastKey uint32
	started bool
	footer  []footerEntry
	err     error
}

type footerEntry struct {
	key    uint32
	offset int64
	length int64
}

// Create opens path for writing and emits the header.
func Create(path string) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := &Writer{w: bufio.NewWriterSize(f, 1<<16), f: f}
	if _, err := w.w.Write(storeMagic); err != nil {
		f.Close()
		return nil, err
	}
	w.off = int64(len(storeMagic))
	return w, nil
}

func (w *Writer) uvarint(v uint64) {
	if w.err != nil {
		return
	}
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	if _, err := w.w.Write(buf[:n]); err != nil {
		w.err = err
		return
	}
	w.off += int64(n)
}

// Append writes the postings block for key. Values must be sorted
// ascending; they are delta-encoded.
func (w *Writer) Append(key uint32, values []uint32) error {
	if w.err != nil {
		return w.err
	}
	if w.started && key <= w.lastKey {
		return fmt.Errorf("store: keys must be strictly ascending: %d after %d", key, w.lastKey)
	}
	w.started = true
	w.lastKey = key
	start := w.off
	w.uvarint(uint64(len(values)))
	prev := uint64(0)
	for i, v := range values {
		if i > 0 && uint64(v) < prev {
			return fmt.Errorf("store: values for key %d not ascending", key)
		}
		w.uvarint(uint64(v) - prev)
		prev = uint64(v)
	}
	if w.err != nil {
		return w.err
	}
	w.footer = append(w.footer, footerEntry{key: key, offset: start, length: w.off - start})
	return nil
}

// Close writes the footer and trailer and closes the file.
func (w *Writer) Close() error {
	if w.err != nil {
		w.f.Close()
		return w.err
	}
	footerOff := w.off
	// Build footer into a buffer so we can checksum it.
	var fb []byte
	put := func(v uint64) {
		var buf [binary.MaxVarintLen64]byte
		n := binary.PutUvarint(buf[:], v)
		fb = append(fb, buf[:n]...)
	}
	put(uint64(len(w.footer)))
	var prevKey, prevOff uint64
	for _, e := range w.footer {
		put(uint64(e.key) - prevKey)
		put(uint64(e.offset) - prevOff)
		put(uint64(e.length))
		prevKey = uint64(e.key)
		prevOff = uint64(e.offset)
	}
	if _, err := w.w.Write(fb); err != nil {
		w.f.Close()
		return err
	}
	var tail [12]byte
	binary.LittleEndian.PutUint64(tail[0:8], uint64(footerOff))
	binary.LittleEndian.PutUint32(tail[8:12], crc32.ChecksumIEEE(fb))
	if _, err := w.w.Write(tail[:]); err != nil {
		w.f.Close()
		return err
	}
	if err := w.w.Flush(); err != nil {
		w.f.Close()
		return err
	}
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// File is a read-only open store file. Lookup is safe for concurrent use.
type File struct {
	f      *os.File
	index  map[uint32]footerEntry
	last   uint32 // largest key (footer keys ascend); meaningful when index is non-empty
	stats  *IOStats
	mu     sync.Mutex
	cache  map[uint32][]uint32
	cacheN int
}

// Open opens a store file, loading and verifying the footer. stats may be
// nil; cacheSize is the maximum number of decoded blocks to cache (0
// disables caching).
func Open(path string, stats *IOStats, cacheSize int) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	size := fi.Size()
	if size < int64(len(storeMagic))+12 {
		f.Close()
		return nil, fmt.Errorf("%w: file too small", ErrBadFormat)
	}
	magic := make([]byte, len(storeMagic))
	if _, err := f.ReadAt(magic, 0); err != nil || string(magic) != string(storeMagic) {
		f.Close()
		return nil, fmt.Errorf("%w: bad magic", ErrBadFormat)
	}
	var tail [12]byte
	if _, err := f.ReadAt(tail[:], size-12); err != nil {
		f.Close()
		return nil, fmt.Errorf("%w: cannot read trailer", ErrBadFormat)
	}
	footerOff := int64(binary.LittleEndian.Uint64(tail[0:8]))
	wantCRC := binary.LittleEndian.Uint32(tail[8:12])
	if footerOff < int64(len(storeMagic)) || footerOff > size-12 {
		f.Close()
		return nil, fmt.Errorf("%w: implausible footer offset", ErrBadFormat)
	}
	fb := make([]byte, size-12-footerOff)
	if _, err := f.ReadAt(fb, footerOff); err != nil {
		f.Close()
		return nil, fmt.Errorf("%w: cannot read footer", ErrBadFormat)
	}
	if crc32.ChecksumIEEE(fb) != wantCRC {
		f.Close()
		return nil, fmt.Errorf("%w: footer checksum mismatch", ErrBadFormat)
	}
	pos := 0
	next := func() (uint64, error) {
		v, n := binary.Uvarint(fb[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("%w: truncated footer", ErrBadFormat)
		}
		pos += n
		return v, nil
	}
	m, err := next()
	if err != nil {
		f.Close()
		return nil, err
	}
	idx := make(map[uint32]footerEntry, m)
	var prevKey, prevOff uint64
	for i := uint64(0); i < m; i++ {
		kd, err := next()
		if err != nil {
			f.Close()
			return nil, err
		}
		od, err := next()
		if err != nil {
			f.Close()
			return nil, err
		}
		ln, err := next()
		if err != nil {
			f.Close()
			return nil, err
		}
		key := prevKey + kd
		off := prevOff + od
		if off+ln > uint64(footerOff) {
			f.Close()
			return nil, fmt.Errorf("%w: block out of bounds", ErrBadFormat)
		}
		idx[uint32(key)] = footerEntry{key: uint32(key), offset: int64(off), length: int64(ln)}
		prevKey, prevOff = key, off
	}
	file := &File{f: f, index: idx, last: uint32(prevKey), stats: stats, cacheN: cacheSize}
	if cacheSize > 0 {
		file.cache = make(map[uint32][]uint32, cacheSize)
	}
	return file, nil
}

// NumKeys returns the number of keys in the file.
func (s *File) NumKeys() int { return len(s.index) }

// Lookup reads and decodes the values of key. Missing keys return
// ErrNotFound. The footer CRC does not cover the blocks, so a block whose
// count or deltas cannot be what the writer produced returns ErrBadFormat.
func (s *File) Lookup(key uint32) ([]uint32, error) {
	e, ok := s.index[key]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNotFound, key)
	}
	if s.cache != nil {
		s.mu.Lock()
		if v, hit := s.cache[key]; hit {
			s.mu.Unlock()
			if s.stats != nil {
				s.stats.CacheHits.Add(1)
			}
			return v, nil
		}
		s.mu.Unlock()
	}
	start := time.Now()
	buf := make([]byte, e.length)
	if _, err := s.f.ReadAt(buf, e.offset); err != nil {
		return nil, fmt.Errorf("store: read block for key %d: %w", key, err)
	}
	if s.stats != nil {
		s.stats.Reads.Add(1)
		s.stats.BytesRead.Add(e.length)
		s.stats.Nanos.Add(time.Since(start).Nanoseconds())
	}
	pos := 0
	n, sz := binary.Uvarint(buf[pos:])
	if sz <= 0 {
		return nil, fmt.Errorf("%w: truncated block for key %d", ErrBadFormat, key)
	}
	pos += sz
	// Every delta takes at least one byte, so a count beyond the bytes left
	// is corrupt; checking it before make keeps a flipped count from
	// allocating without bound.
	if n > uint64(len(buf)-pos) {
		return nil, fmt.Errorf("%w: block for key %d claims %d values in %d bytes", ErrBadFormat, key, n, len(buf)-pos)
	}
	out := make([]uint32, 0, n)
	prev := uint64(0)
	for i := uint64(0); i < n; i++ {
		d, sz := binary.Uvarint(buf[pos:])
		if sz <= 0 {
			return nil, fmt.Errorf("%w: truncated block for key %d", ErrBadFormat, key)
		}
		pos += sz
		if d > math.MaxUint32-prev {
			return nil, fmt.Errorf("%w: value overflow in block for key %d", ErrBadFormat, key)
		}
		prev += d
		out = append(out, uint32(prev))
	}
	if s.cache != nil {
		s.mu.Lock()
		if len(s.cache) >= s.cacheN {
			for k := range s.cache {
				delete(s.cache, k)
				break
			}
		}
		s.cache[key] = out
		s.mu.Unlock()
	}
	return out, nil
}

// Close closes the underlying file.
func (s *File) Close() error { return s.f.Close() }

// WriteAll is a convenience for building a store file from an in-memory
// iteration callback that yields keys in ascending order.
func WriteAll(path string, emit func(append func(key uint32, values []uint32) error) error) error {
	w, err := Create(path)
	if err != nil {
		return err
	}
	if err := emit(w.Append); err != nil {
		w.f.Close()
		os.Remove(path)
		return err
	}
	return w.Close()
}

// CopyBlock is a test helper exposing raw block bounds; it returns the byte
// range of key's block so corruption tests can flip bytes inside it.
func (s *File) CopyBlock(key uint32) (offset, length int64, err error) {
	e, ok := s.index[key]
	if !ok {
		return 0, 0, ErrNotFound
	}
	return e.offset, e.length, nil
}

var _ io.Closer = (*File)(nil)

package store

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"conceptrank/internal/corpus"
	"conceptrank/internal/index"
	"conceptrank/internal/ontology"
)

func writeStore(t *testing.T, entries map[uint32][]uint32) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.crs")
	keys := make([]uint32, 0, len(entries))
	for k := range entries {
		keys = append(keys, k)
	}
	// keys ascending
	for i := 0; i < len(keys); i++ {
		for j := i + 1; j < len(keys); j++ {
			if keys[j] < keys[i] {
				keys[i], keys[j] = keys[j], keys[i]
			}
		}
	}
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if err := w.Append(k, entries[k]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	entries := map[uint32][]uint32{}
	for i := 0; i < 300; i++ {
		key := uint32(r.Intn(100000))
		n := r.Intn(50)
		vals := make([]uint32, n)
		v := uint32(0)
		for j := range vals {
			v += uint32(1 + r.Intn(1000))
			vals[j] = v
		}
		entries[key] = vals
	}
	path := writeStore(t, entries)
	var stats IOStats
	f, err := Open(path, &stats, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.NumKeys() != len(entries) {
		t.Fatalf("NumKeys = %d, want %d", f.NumKeys(), len(entries))
	}
	for k, want := range entries {
		got, err := f.Lookup(k)
		if err != nil {
			t.Fatalf("Lookup(%d): %v", k, err)
		}
		if len(got) != len(want) {
			t.Fatalf("Lookup(%d) = %v, want %v", k, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Lookup(%d)[%d] = %d, want %d", k, i, got[i], want[i])
			}
		}
	}
	if stats.Reads.Load() == 0 || stats.BytesRead.Load() == 0 {
		t.Error("IOStats not recording reads")
	}
	if _, err := f.Lookup(4294967295); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing key error = %v, want ErrNotFound", err)
	}
}

func TestEmptyValues(t *testing.T) {
	path := writeStore(t, map[uint32][]uint32{7: {}})
	f, err := Open(path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := f.Lookup(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("Lookup(7) = %v, want empty", got)
	}
}

func TestWriterRejectsDisorder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.crs")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.f.Close()
	if err := w.Append(5, []uint32{1}); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(5, []uint32{2}); err == nil {
		t.Error("duplicate key accepted")
	}
	if err := w.Append(3, []uint32{1}); err == nil {
		t.Error("descending key accepted")
	}
	w2, _ := Create(filepath.Join(t.TempDir(), "bad2.crs"))
	defer w2.f.Close()
	if err := w2.Append(1, []uint32{5, 3}); err == nil {
		t.Error("descending values accepted")
	}
}

func TestCorruptionDetection(t *testing.T) {
	path := writeStore(t, map[uint32][]uint32{
		1: {10, 20},
		2: {30},
		3: {1, 2, 3, 4, 5, 6, 7, 8},
		4: {0, math.MaxUint32},
	})
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the footer CRC region.
	bad := append([]byte(nil), data...)
	bad[len(bad)-6] ^= 0xFF
	badPath := filepath.Join(t.TempDir(), "corrupt.crs")
	if err := os.WriteFile(badPath, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(badPath, nil, 0); err == nil {
		t.Error("corrupted footer accepted")
	}
	// Truncate the file.
	truncPath := filepath.Join(t.TempDir(), "trunc.crs")
	if err := os.WriteFile(truncPath, data[:8], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(truncPath, nil, 0); err == nil {
		t.Error("truncated file accepted")
	}
	// Bad magic.
	badMagic := append([]byte(nil), data...)
	badMagic[0] = 'X'
	bmPath := filepath.Join(t.TempDir(), "magic.crs")
	if err := os.WriteFile(bmPath, badMagic, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(bmPath, nil, 0); err == nil {
		t.Error("bad magic accepted")
	}

	// Corrupt blocks. The footer CRC does not cover them, so Open succeeds
	// and Lookup must refuse them: a count of 2^34 (which once reached make
	// and killed the process) and deltas whose sum passes MaxUint32.
	f, err := Open(path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	countOff, countLen, err := f.CopyBlock(3)
	if err != nil {
		t.Fatal(err)
	}
	deltaOff, _, err := f.CopyBlock(4)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	blocks := append([]byte(nil), data...)
	var huge [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(huge[:], 1<<34)
	if int64(n) > countLen {
		t.Fatalf("block 3 is %d bytes, too short for a %d-byte count", countLen, n)
	}
	copy(blocks[countOff:], huge[:n])
	// Block 4 is count 2, delta 0, delta MaxUint32: a first delta of 1
	// makes the running sum pass MaxUint32.
	blocks[deltaOff+1] = 1
	blPath := filepath.Join(t.TempDir(), "blocks.crs")
	if err := os.WriteFile(blPath, blocks, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err = Open(blPath, nil, 0)
	if err != nil {
		t.Fatalf("block corruption rejected at Open: %v", err)
	}
	defer f.Close()
	for _, key := range []uint32{3, 4} {
		if got, err := f.Lookup(key); !errors.Is(err, ErrBadFormat) {
			t.Errorf("Lookup(%d) of a corrupt block = %v, %v; want ErrBadFormat", key, got, err)
		}
	}
}

func TestConcurrentLookups(t *testing.T) {
	entries := map[uint32][]uint32{}
	for i := uint32(0); i < 200; i++ {
		entries[i] = []uint32{i, i + 100, i + 200}
	}
	path := writeStore(t, entries)
	var stats IOStats
	f, err := Open(path, &stats, 32)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 500; i++ {
				k := uint32(r.Intn(200))
				got, err := f.Lookup(k)
				if err != nil || len(got) != 3 || got[0] != k {
					t.Errorf("concurrent Lookup(%d) = %v, %v", k, got, err)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	if stats.CacheHits.Load() == 0 {
		t.Error("block cache never hit")
	}
}

func TestDiskIndexesMatchMemory(t *testing.T) {
	pf := ontology.NewPaperFig()
	c := corpus.New()
	c.Add("d0", 5, pf.Concepts("F", "R"))
	c.Add("d1", 5, pf.Concepts("R", "T", "V"))
	c.Add("d2", 5, pf.Concepts("I", "L"))
	dir := t.TempDir()
	invPath := filepath.Join(dir, "inv.crs")
	fwdPath := filepath.Join(dir, "fwd.crs")
	if err := BuildInvertedFile(invPath, c); err != nil {
		t.Fatal(err)
	}
	if err := BuildForwardFile(fwdPath, c); err != nil {
		t.Fatal(err)
	}
	var stats IOStats
	dinv, err := OpenInverted(invPath, &stats, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer dinv.Close()
	dfwd, err := OpenForward(fwdPath, &stats, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer dfwd.Close()

	minv := index.BuildMemInverted(c)
	mfwd := index.BuildMemForward(c)

	for _, letter := range []string{"F", "R", "T", "V", "I", "L", "C"} {
		cc := pf.Concept(letter)
		a, _ := minv.Postings(cc)
		b, err := dinv.Postings(cc)
		if err != nil {
			t.Fatalf("disk postings(%s): %v", letter, err)
		}
		if len(a) != len(b) {
			t.Fatalf("postings(%s): mem %v vs disk %v", letter, a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("postings(%s): mem %v vs disk %v", letter, a, b)
			}
		}
	}
	for d := corpus.DocID(0); int(d) < c.NumDocs(); d++ {
		a, _ := mfwd.Concepts(d)
		b, err := dfwd.Concepts(d)
		if err != nil {
			t.Fatalf("disk concepts(%d): %v", d, err)
		}
		if len(a) != len(b) {
			t.Fatalf("concepts(%d): mem %v vs disk %v", d, a, b)
		}
		na, _ := mfwd.NumConcepts(d)
		nb, _ := dfwd.NumConcepts(d)
		if na != nb {
			t.Fatalf("NumConcepts(%d): %d vs %d", d, na, nb)
		}
	}
	if stats.Time() < 0 {
		t.Error("negative I/O time")
	}
}

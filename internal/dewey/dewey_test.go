package dewey

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestParseFormat(t *testing.T) {
	cases := []struct {
		in   string
		want Path
		ok   bool
	}{
		{"", Path{}, true},
		{"1", Path{1}, true},
		{"1.1.1.2", Path{1, 1, 1, 2}, true},
		{"3.1.2.1.1.1", Path{3, 1, 2, 1, 1, 1}, true},
		{"10.200.3", Path{10, 200, 3}, true},
		{"0", nil, false},
		{"1..2", nil, false},
		{"a.b", nil, false},
		{"1.-2", nil, false},
		{".", nil, false},
	}
	for _, c := range cases {
		got, err := Parse(c.in)
		if c.ok != (err == nil) {
			t.Fatalf("Parse(%q) err=%v, want ok=%v", c.in, err, c.ok)
		}
		if err != nil {
			continue
		}
		if !Equal(got, c.want) {
			t.Errorf("Parse(%q) = %v, want %v", c.in, got, c.want)
		}
		if got.String() != c.in {
			t.Errorf("Path(%v).String() = %q, want %q", got, got.String(), c.in)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse on bad input did not panic")
		}
	}()
	MustParse("1..2")
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"", "1", -1},
		{"1", "", 1},
		{"1.1", "1.1", 0},
		{"1.1", "1.2", -1},
		{"1.2", "1.10", -1}, // numeric, not string order
		{"1.1", "1.1.1", -1},
		{"2", "1.9.9", 1},
		{"3.1", "3.1.1.1.1", -1},
	}
	for _, c := range cases {
		if got := Compare(MustParse(c.a), MustParse(c.b)); got != c.want {
			t.Errorf("Compare(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestPrefixAndLCP(t *testing.T) {
	a := MustParse("1.1.1.2.1.1")
	b := MustParse("1.1.1.1")
	if got := a[:LCPLen(a, b)].String(); got != "1.1.1" {
		t.Errorf("LCP = %q, want 1.1.1", got)
	}
	if !a.HasPrefix(MustParse("1.1.1.2")) {
		t.Error("HasPrefix(1.1.1.2) = false, want true")
	}
	if a.HasPrefix(MustParse("1.1.2")) {
		t.Error("HasPrefix(1.1.2) = true, want false")
	}
	if !a.HasPrefix(Path{}) {
		t.Error("every path must have the root path as prefix")
	}
	if !a.HasPrefix(a) {
		t.Error("a path must be a prefix of itself")
	}
	if b.HasPrefix(a) {
		t.Error("longer path cannot be a prefix of a shorter one")
	}
}

func TestSort(t *testing.T) {
	paths := []Path{
		MustParse("3.1.2.1.1.1"),
		MustParse("1.1.1.1"),
		MustParse("3.1"),
		MustParse("1.1.1.2.1.1"),
		MustParse("1.1.1.2.1.1.1"),
		MustParse("3.1.1.1.1"),
	}
	Sort(paths)
	if !slices.IsSortedFunc(paths, Compare) {
		t.Fatal("Sort did not produce sorted order")
	}
	want := []string{"1.1.1.1", "1.1.1.2.1.1", "1.1.1.2.1.1.1", "3.1", "3.1.1.1.1", "3.1.2.1.1.1"}
	for i, w := range want {
		if paths[i].String() != w {
			t.Errorf("paths[%d] = %q, want %q", i, paths[i], w)
		}
	}
}

func randPath(r *rand.Rand, maxLen, maxComp int) Path {
	n := r.Intn(maxLen + 1)
	p := make(Path, n)
	for i := range p {
		p[i] = Component(1 + r.Intn(maxComp))
	}
	return p
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(raw []uint32) bool {
		p := make(Path, 0, len(raw))
		for _, c := range raw {
			p = append(p, c%100+1)
		}
		q, err := Parse(p.String())
		return err == nil && Equal(p, q)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickCompareTotalOrder(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		a, b, c := randPath(r, 8, 4), randPath(r, 8, 4), randPath(r, 8, 4)
		if Compare(a, b) != -Compare(b, a) {
			t.Fatalf("antisymmetry violated: %v vs %v", a, b)
		}
		if Compare(a, a) != 0 {
			t.Fatalf("reflexivity violated: %v", a)
		}
		// Transitivity: a<=b and b<=c implies a<=c.
		if Compare(a, b) <= 0 && Compare(b, c) <= 0 && Compare(a, c) > 0 {
			t.Fatalf("transitivity violated: %v %v %v", a, b, c)
		}
	}
}

func TestQuickLCPProperties(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		a, b := randPath(r, 10, 3), randPath(r, 10, 3)
		n := LCPLen(a, b)
		l := a[:n]
		if !a.HasPrefix(l) || !b.HasPrefix(l) {
			t.Fatalf("LCPLen(%v,%v)=%d is not a common prefix", a, b, n)
		}
		// Maximality: extending by one more component must break prefix-ness.
		if n < len(a) && n < len(b) && a[n] == b[n] {
			t.Fatalf("LCPLen(%v,%v)=%d is not maximal", a, b, n)
		}
		// LCPLen is symmetric.
		if n != LCPLen(b, a) {
			t.Fatalf("LCPLen not symmetric for %v,%v", a, b)
		}
	}
}

func TestQuickPrefixIffCompareOrder(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for i := 0; i < 2000; i++ {
		p := randPath(r, 10, 3)
		ext := append(slices.Clone(p), randPath(r, 4, 3)...)
		if !ext.HasPrefix(p) {
			t.Fatalf("extension of %v lost its prefix", p)
		}
		if Compare(p, ext) > 0 {
			t.Fatalf("prefix %v must sort <= extension %v", p, ext)
		}
	}
}

// Package dewey implements Dewey Decimal path labels for DAG-shaped
// ontologies, as used by the D-Radix index of Arvanitis et al. (EDBT 2014).
//
// A Dewey path identifies one root-to-concept path: if a node c_j is the
// j-th child of c_i and l{c_i} labels a path from the root to c_i, then the
// path label of c_j is l{c_i}.j. Because the ontology is a DAG, a concept
// may carry several Dewey paths, one per distinct root path.
//
// Paths are stored as slices of 1-based child ordinals rather than strings,
// so comparison and longest-common-prefix operations are integer operations
// and never suffer the "1.10" < "1.2" pitfall of string lexicographic order.
package dewey

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Component is a single 1-based child ordinal inside a Dewey path.
type Component = uint32

// Path is a Dewey path label: a sequence of 1-based child ordinals from the
// ontology root down to a node. The empty Path denotes the root itself.
type Path []Component

// ErrBadPath reports a malformed textual Dewey label.
var ErrBadPath = errors.New("dewey: malformed path")

// Parse converts a textual label such as "1.1.1.2" into a Path. The empty
// string parses to the empty (root) path. Components must be positive
// decimal integers separated by single dots.
func Parse(s string) (Path, error) {
	if s == "" {
		return Path{}, nil
	}
	parts := strings.Split(s, ".")
	p := make(Path, len(parts))
	for i, part := range parts {
		n, err := strconv.ParseUint(part, 10, 32)
		if err != nil || n == 0 {
			return nil, fmt.Errorf("%w: component %q in %q", ErrBadPath, part, s)
		}
		p[i] = Component(n)
	}
	return p, nil
}

// MustParse is Parse for trusted constants; it panics on malformed input.
func MustParse(s string) Path {
	p, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return p
}

// String renders the path in the familiar dotted form; the root path renders
// as the empty string.
func (p Path) String() string {
	if len(p) == 0 {
		return ""
	}
	var b strings.Builder
	for i, c := range p {
		if i > 0 {
			b.WriteByte('.')
		}
		b.WriteString(strconv.FormatUint(uint64(c), 10))
	}
	return b.String()
}

// Len reports the number of components, which is also the graph distance
// from the root along this particular path.
func (p Path) Len() int { return len(p) }

// Clone returns an independent copy of p.
func (p Path) Clone() Path {
	if p == nil {
		return nil
	}
	q := make(Path, len(p))
	copy(q, p)
	return q
}

// Compare orders paths lexicographically by numeric component, with a prefix
// ordering before its extensions. It returns -1, 0 or +1.
func Compare(a, b Path) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// Equal reports whether a and b are component-wise identical.
func Equal(a, b Path) bool { return Compare(a, b) == 0 }

// HasPrefix reports whether prefix is a (possibly equal) prefix of p.
func (p Path) HasPrefix(prefix Path) bool {
	if len(prefix) > len(p) {
		return false
	}
	for i, c := range prefix {
		if p[i] != c {
			return false
		}
	}
	return true
}

// LCPLen returns the length of the longest common prefix of a and b.
func LCPLen(a, b Path) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// Sort orders a slice of paths by Compare. DRC inserts Dewey addresses in
// this order so that every prefix is inserted before its extensions.
func Sort(paths []Path) {
	sort.Slice(paths, func(i, j int) bool { return Compare(paths[i], paths[j]) < 0 })
}

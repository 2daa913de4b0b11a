// Package index provides the access structures kNDS assumes (Section 5.3 of
// Arvanitis et al., EDBT 2014): an inverted index mapping concepts to the
// documents containing them, and a forward index mapping documents to their
// concept sets. Both exist as in-memory implementations here and as
// disk-backed implementations in package store (the paper kept them in
// MySQL and reported I/O time separately).
//
// The package also implements the concept filters of Section 6.1: a depth
// threshold excluding overly generic concepts (default 4) and a collection
// frequency threshold excluding overly common ones (default mu + sigma).
package index

import (
	"fmt"
	"math"
	"sort"

	"conceptrank/internal/corpus"
	"conceptrank/internal/ontology"
)

// Inverted maps a concept to the documents that contain it.
type Inverted interface {
	// Postings returns the IDs of all documents containing c, in ascending
	// order. The result must be treated as read-only.
	Postings(c ontology.ConceptID) ([]corpus.DocID, error)
}

// Forward maps a document to its concept set.
type Forward interface {
	// Concepts returns the sorted concept set of doc d. Read-only.
	Concepts(d corpus.DocID) ([]ontology.ConceptID, error)
	// NumConcepts returns |d|, the size of d's concept set.
	NumConcepts(d corpus.DocID) (int, error)
}

// MemInverted is the in-memory Inverted implementation, laid out as
// compressed sparse rows: the postings of concept c are
// docs[off[c]:off[c+1]], so a lookup is two array reads and no hashing.
// Concepts beyond the largest indexed one have no row and read as empty.
type MemInverted struct {
	off     []int // len = largest indexed concept + 2; nil when empty
	docs    []corpus.DocID
	indexed int // concepts with nonempty postings
}

// BuildMemInverted indexes a collection: one pass counts each concept's
// documents, a prefix sum turns the counts into row offsets, and a second
// pass fills the rows in document order, so every row is ascending.
func BuildMemInverted(c *corpus.Collection) *MemInverted {
	m := &MemInverted{}
	maxC := ontology.ConceptID(0)
	total := 0
	for _, d := range c.Docs() {
		for _, cc := range d.Concepts {
			maxC = max(maxC, cc)
		}
		total += len(d.Concepts)
	}
	if total == 0 {
		return m
	}
	m.off = make([]int, int(maxC)+2)
	for _, d := range c.Docs() {
		for _, cc := range d.Concepts {
			m.off[cc+1]++
		}
	}
	for i := 1; i < len(m.off); i++ {
		if m.off[i] > 0 {
			m.indexed++
		}
		m.off[i] += m.off[i-1]
	}
	m.docs = make([]corpus.DocID, total)
	next := append([]int(nil), m.off[:len(m.off)-1]...)
	for _, d := range c.Docs() {
		for _, cc := range d.Concepts {
			m.docs[next[cc]] = d.ID
			next[cc]++
		}
	}
	return m
}

// row returns c's postings as a capacity-capped view, so an append by a
// caller reallocates instead of overwriting the next concept's row.
func (m *MemInverted) row(c ontology.ConceptID) []corpus.DocID {
	if int(c)+1 >= len(m.off) {
		return nil
	}
	lo, hi := m.off[c], m.off[c+1]
	return m.docs[lo:hi:hi]
}

// Postings implements Inverted.
func (m *MemInverted) Postings(c ontology.ConceptID) ([]corpus.DocID, error) {
	return m.row(c), nil
}

// NumConceptsIndexed returns the number of distinct concepts with nonempty
// postings.
func (m *MemInverted) NumConceptsIndexed() int { return m.indexed }

// Entries calls fn for each (concept, postings) pair with nonempty
// postings, in ascending concept order. Used by the disk store writer.
func (m *MemInverted) Entries(fn func(c ontology.ConceptID, docs []corpus.DocID) error) error {
	for c := 0; c+1 < len(m.off); c++ {
		if docs := m.row(ontology.ConceptID(c)); len(docs) > 0 {
			if err := fn(ontology.ConceptID(c), docs); err != nil {
				return err
			}
		}
	}
	return nil
}

// MemForward is the in-memory Forward implementation; it simply views the
// collection.
type MemForward struct {
	c *corpus.Collection
}

// BuildMemForward wraps a collection as a Forward index.
func BuildMemForward(c *corpus.Collection) *MemForward { return &MemForward{c: c} }

// Concepts implements Forward.
func (m *MemForward) Concepts(d corpus.DocID) ([]ontology.ConceptID, error) {
	if int(d) >= m.c.NumDocs() {
		return nil, fmt.Errorf("index: document %d out of range", d)
	}
	return m.c.Doc(d).Concepts, nil
}

// NumConcepts implements Forward.
func (m *MemForward) NumConcepts(d corpus.DocID) (int, error) {
	if int(d) >= m.c.NumDocs() {
		return 0, fmt.Errorf("index: document %d out of range", d)
	}
	return len(m.c.Doc(d).Concepts), nil
}

// FilterConfig selects the Section 6.1 concept filters. The zero value
// disables both.
type FilterConfig struct {
	// MinDepth excludes concepts whose ontology depth is below the
	// threshold (the paper's default is 4, retaining over 99% of concepts).
	MinDepth int
	// CFThreshold excludes concepts contained in more than this many
	// documents. <= 0 disables. Use MuSigmaCF for the paper's mu+sigma
	// default (retaining about 92% of concepts).
	CFThreshold float64
}

// MuSigmaCF computes the paper's default collection-frequency threshold,
// mu + sigma, over the concept frequencies of the collection.
func MuSigmaCF(c *corpus.Collection) float64 {
	cf := c.ConceptFrequencies()
	if len(cf) == 0 {
		return 0
	}
	var sum float64
	for _, f := range cf {
		sum += float64(f)
	}
	mu := sum / float64(len(cf))
	var varSum float64
	for _, f := range cf {
		d := float64(f) - mu
		varSum += d * d
	}
	sigma := math.Sqrt(varSum / float64(len(cf)))
	return mu + sigma
}

// FilterStats reports what a filter pass removed.
type FilterStats struct {
	ConceptsBefore  int
	ConceptsKept    int
	RemovedByDepth  int
	RemovedByCF     int
	EmptiedDocs     int
	CFThresholdUsed float64
}

// ApplyFilter returns a new collection whose documents contain only
// concepts passing the configured thresholds, plus statistics about the
// removals. Documents whose concept sets become empty are kept (with empty
// sets) so document IDs remain aligned with the original collection.
func ApplyFilter(c *corpus.Collection, o *ontology.Ontology, cfg FilterConfig) (*corpus.Collection, FilterStats) {
	cf := c.ConceptFrequencies()
	stats := FilterStats{ConceptsBefore: len(cf), CFThresholdUsed: cfg.CFThreshold}
	removed := make(map[ontology.ConceptID]bool)
	for cc, f := range cf {
		if cfg.MinDepth > 0 && o.Depth(cc) < cfg.MinDepth {
			removed[cc] = true
			stats.RemovedByDepth++
			continue
		}
		if cfg.CFThreshold > 0 && float64(f) > cfg.CFThreshold {
			removed[cc] = true
			stats.RemovedByCF++
		}
	}
	stats.ConceptsKept = stats.ConceptsBefore - len(removed)
	out := corpus.New()
	for _, d := range c.Docs() {
		kept := make([]ontology.ConceptID, 0, len(d.Concepts))
		for _, cc := range d.Concepts {
			if !removed[cc] {
				kept = append(kept, cc)
			}
		}
		if len(kept) == 0 && len(d.Concepts) > 0 {
			stats.EmptiedDocs++
		}
		out.Add(d.Name, d.TokenCount, kept)
	}
	return out, stats
}

// EligibleConcepts lists the concepts of a collection that pass the filters
// and therefore may appear in generated query workloads.
func EligibleConcepts(c *corpus.Collection, o *ontology.Ontology, cfg FilterConfig) []ontology.ConceptID {
	cf := c.ConceptFrequencies()
	out := make([]ontology.ConceptID, 0, len(cf))
	for cc, f := range cf {
		if cfg.MinDepth > 0 && o.Depth(cc) < cfg.MinDepth {
			continue
		}
		if cfg.CFThreshold > 0 && float64(f) > cfg.CFThreshold {
			continue
		}
		out = append(out, cc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

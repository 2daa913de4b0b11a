package index

import (
	"fmt"
	"sort"
	"sync"

	"conceptrank/internal/corpus"
	"conceptrank/internal/ontology"
)

// Dynamic is a mutable in-memory inverted + forward index supporting
// concurrent reads and serialized writes. It backs the paper's claimed
// operational advantage of kNDS over precomputation-based schemes
// (Section 1): because kNDS computes distances at query time, "when a new
// patient arrives at the point-of-care, we can instantly add his or her
// EMR to our database" — no per-concept distance postings to rebuild.
//
// Readers never block each other; AddDocument takes the write lock
// briefly. Queries running concurrently with an AddDocument see a
// consistent snapshot boundary: the engine samples the document count once
// per query, so a document is either entirely visible or entirely
// invisible to a given query.
type Dynamic struct {
	mu       sync.RWMutex
	postings map[ontology.ConceptID][]corpus.DocID
	docs     [][]ontology.ConceptID
	names    []string
}

// NewDynamic returns an empty dynamic index.
func NewDynamic() *Dynamic {
	return &Dynamic{postings: make(map[ontology.ConceptID][]corpus.DocID)}
}

// FromCollection bulk-loads an existing collection.
func FromCollection(c *corpus.Collection) *Dynamic {
	d := NewDynamic()
	for _, doc := range c.Docs() {
		d.AddDocument(doc.Name, doc.Concepts)
	}
	return d
}

// AddDocument indexes a new document and returns its ID. The concept set
// is copied, deduplicated and sorted. The document is searchable by any
// query that starts after AddDocument returns.
func (d *Dynamic) AddDocument(name string, concepts []ontology.ConceptID) corpus.DocID {
	set := make([]ontology.ConceptID, len(concepts))
	copy(set, concepts)
	sort.Slice(set, func(i, j int) bool { return set[i] < set[j] })
	dedup := set[:0]
	for i, c := range set {
		if i == 0 || c != set[i-1] {
			dedup = append(dedup, c)
		}
	}
	set = dedup

	d.mu.Lock()
	defer d.mu.Unlock()
	id := corpus.DocID(len(d.docs))
	d.docs = append(d.docs, set)
	d.names = append(d.names, name)
	for _, c := range set {
		d.postings[c] = append(d.postings[c], id)
	}
	return id
}

// NumDocs returns the current document count. Pass this method to
// core.NewEngineDynamic.
func (d *Dynamic) NumDocs() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.docs)
}

// Name returns the stored document name.
func (d *Dynamic) Name(id corpus.DocID) string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.names[id]
}

// Postings implements Inverted. The returned slice must be treated as
// read-only; concurrent appends either reallocate or write past its
// length, so the snapshot stays stable.
func (d *Dynamic) Postings(c ontology.ConceptID) ([]corpus.DocID, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	p := d.postings[c]
	return p[:len(p):len(p)], nil
}

// Concepts implements Forward.
func (d *Dynamic) Concepts(id corpus.DocID) ([]ontology.ConceptID, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if int(id) >= len(d.docs) {
		return nil, fmt.Errorf("index: document %d out of range", id)
	}
	return d.docs[id], nil
}

// ConceptsRange returns the concept sets of documents [from, to) under
// one read lock. Entries are immutable and the document list is
// append-only, so the run stays valid while documents are added.
func (d *Dynamic) ConceptsRange(from, to corpus.DocID) ([][]ontology.ConceptID, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if from > to || int(to) > len(d.docs) {
		return nil, fmt.Errorf("index: documents [%d, %d) out of range", from, to)
	}
	return d.docs[from:to:to], nil
}

// NumConcepts implements Forward.
func (d *Dynamic) NumConcepts(id corpus.DocID) (int, error) {
	c, err := d.Concepts(id)
	return len(c), err
}

var (
	_ Inverted = (*Dynamic)(nil)
	_ Forward  = (*Dynamic)(nil)
)

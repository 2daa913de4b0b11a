package store

import (
	"errors"
	"slices"

	"conceptrank/internal/corpus"
	"conceptrank/internal/index"
	"conceptrank/internal/ontology"
)

// This file adapts store files to the index.Inverted and index.Forward
// interfaces, plus builders that write them from a collection.

// DiskInverted is a disk-backed inverted index (concept -> doc IDs).
type DiskInverted struct {
	f *File
}

// BuildInvertedFile writes the inverted index of a collection to path.
func BuildInvertedFile(path string, c *corpus.Collection) error {
	mem := index.BuildMemInverted(c)
	return WriteAll(path, func(append func(uint32, []uint32) error) error {
		return mem.Entries(func(cc ontology.ConceptID, docs []corpus.DocID) error {
			vals := make([]uint32, len(docs))
			for i, d := range docs {
				vals[i] = uint32(d)
			}
			return append(uint32(cc), vals)
		})
	})
}

// OpenInverted opens a disk inverted index. stats may be nil.
func OpenInverted(path string, stats *IOStats, cacheSize int) (*DiskInverted, error) {
	f, err := Open(path, stats, cacheSize)
	if err != nil {
		return nil, err
	}
	return &DiskInverted{f: f}, nil
}

// Postings implements index.Inverted. Concepts absent from the corpus have
// empty postings, not an error.
func (d *DiskInverted) Postings(c ontology.ConceptID) ([]corpus.DocID, error) {
	vals, err := d.f.Lookup(uint32(c))
	if err != nil {
		if errors.Is(err, ErrNotFound) {
			return nil, nil
		}
		return nil, err
	}
	out := make([]corpus.DocID, len(vals))
	for i, v := range vals {
		out[i] = corpus.DocID(v)
	}
	return out, nil
}

// MaxConcept returns the largest concept the index holds postings for
// (the last footer key); false for an empty index.
func (d *DiskInverted) MaxConcept() (ontology.ConceptID, bool) {
	return ontology.ConceptID(d.f.last), len(d.f.index) > 0
}

// Vocabulary returns the concepts the index holds postings for, ascending:
// the vocabulary of the indexed collection, read from the key directory
// Open keeps in memory, with no I/O.
func (d *DiskInverted) Vocabulary() []ontology.ConceptID {
	out := make([]ontology.ConceptID, 0, len(d.f.index))
	for k := range d.f.index {
		out = append(out, ontology.ConceptID(k))
	}
	slices.Sort(out)
	return out
}

// Close releases the file.
func (d *DiskInverted) Close() error { return d.f.Close() }

// DiskForward is a disk-backed forward index (doc ID -> concepts).
type DiskForward struct {
	f *File
}

// BuildForwardFile writes the forward index of a collection to path.
func BuildForwardFile(path string, c *corpus.Collection) error {
	return WriteAll(path, func(append func(uint32, []uint32) error) error {
		for _, d := range c.Docs() {
			vals := make([]uint32, len(d.Concepts))
			for i, cc := range d.Concepts {
				vals[i] = uint32(cc)
			}
			if err := append(uint32(d.ID), vals); err != nil {
				return err
			}
		}
		return nil
	})
}

// OpenForward opens a disk forward index. stats may be nil.
func OpenForward(path string, stats *IOStats, cacheSize int) (*DiskForward, error) {
	f, err := Open(path, stats, cacheSize)
	if err != nil {
		return nil, err
	}
	return &DiskForward{f: f}, nil
}

// Concepts implements index.Forward. Unknown documents are an error.
func (d *DiskForward) Concepts(doc corpus.DocID) ([]ontology.ConceptID, error) {
	vals, err := d.f.Lookup(uint32(doc))
	if err != nil {
		return nil, err
	}
	out := make([]ontology.ConceptID, len(vals))
	for i, v := range vals {
		out[i] = ontology.ConceptID(v)
	}
	return out, nil
}

// NumConcepts implements index.Forward.
func (d *DiskForward) NumConcepts(doc corpus.DocID) (int, error) {
	c, err := d.Concepts(doc)
	return len(c), err
}

// Close releases the file.
func (d *DiskForward) Close() error { return d.f.Close() }

var (
	_ index.Inverted = (*DiskInverted)(nil)
	_ index.Forward  = (*DiskForward)(nil)
)

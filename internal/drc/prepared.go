package drc

import (
	"sort"

	"conceptrank/internal/dewey"
	"conceptrank/internal/ontology"
)

// Prepared caches the query-side Dewey address list so that kNDS, which
// probes DRC once per candidate document against the same query, does not
// re-enumerate and re-sort the query addresses on every probe. For SDS over
// the PATIENT collection a query document has ~700 concepts and ~7000
// addresses, so this is a significant constant-factor saving (an
// engineering optimization on top of the paper's algorithm; it does not
// change any result). The document side's sort is the same saving keyed
// the other way: BuildStored reuses a document's sorted Run across
// queries through a RunStore.
//
// A Prepared is immutable after construction and safe for concurrent use:
// a probe only reads the sorted query entries and keeps its per-call state
// in the caller's Scratch, and the optional AddressCache and RunStore are
// themselves concurrency-safe. The partitioned full scan relies on this to
// probe one Prepared from every partition, each with its own Scratch.
type Prepared struct {
	o       *ontology.Ontology
	query   []ontology.ConceptID
	entries []dewey.Path // query addresses, sorted
	maxPath int
	cache   *AddressCache // optional
}

// PrepareCached enumerates and sorts the addresses of the query concepts —
// the one way into a D-Radix construction: every probe then runs
// BuildScratch, BuildStored or DocQueryScratch/DocDocScratch against it.
// cache, when non-nil, is shared by the query-side and every per-document
// enumeration; nil enumerates afresh with the per-concept cap maxPaths
// (<= 0: no cap; the cap is an approximation knob, off in every
// experiment).
func PrepareCached(o *ontology.Ontology, query []ontology.ConceptID, maxPaths int, cache *AddressCache) *Prepared {
	p := &Prepared{o: o, query: append([]ontology.ConceptID(nil), query...), maxPath: maxPaths, cache: cache}
	for _, c := range query {
		p.entries = append(p.entries, p.addresses(c)...)
	}
	sort.Slice(p.entries, func(i, j int) bool {
		return dewey.Compare(p.entries[i], p.entries[j]) < 0
	})
	return p
}

func (p *Prepared) addresses(c ontology.ConceptID) []dewey.Path {
	if p.cache != nil {
		return p.cache.Addresses(c)
	}
	return p.o.PathAddressesLimit(c, p.maxPath)
}

// Query returns the prepared query concepts (read-only).
func (p *Prepared) Query() []ontology.ConceptID { return p.query }

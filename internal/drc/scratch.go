package drc

import (
	"sort"

	"conceptrank/internal/dewey"
	"conceptrank/internal/ontology"
	"conceptrank/internal/radix"
)

// Scratch recycles all per-probe DRC state: the radix workspace (nodes,
// edges, labels, topo scratch), the document's addresses, the sort buffer
// and run of a fresh construction, the distance annotation arrays and the
// DRadix header itself. kNDS examines hundreds of candidates per query
// against the same prepared query side; with a scratch each probe after
// the first few performs no heap allocation.
//
// A Scratch is not safe for concurrent use, and the DRadix produced by a
// scratch probe is valid only until the scratch's next use: the kNDS
// pipeline keeps one per executor, the partitioned scan one per worker.
type Scratch struct {
	ws     radix.Workspace
	addrs  []dewey.Path
	sorted []sortEntry
	run    Run
	ddoc   []int32
	dquery []int32
	dr     DRadix
}

// Release drops all retained memory; the scratch remains usable.
func (s *Scratch) Release() {
	s.ws.Release()
	*s = Scratch{}
}

// Run is one document's Dewey addresses in ascending address order, held
// as 4-byte positions in the document's address sequence (its concepts'
// address lists, concatenated in concept order) rather than as copied
// paths. Address enumeration is deterministic, so a run made once
// resolves against the sequence of any later probe of the same concepts;
// a run is immutable once made.
type Run []uint32

type sortEntry struct {
	addr dewey.Path
	pos  uint32
}

// entrySorter sorts sortEntry slices by address without the closure
// allocation of sort.Slice.
type entrySorter []sortEntry

func (e entrySorter) Len() int      { return len(e) }
func (e entrySorter) Swap(i, j int) { e[i], e[j] = e[j], e[i] }
func (e entrySorter) Less(i, j int) bool {
	return dewey.Compare(e[i].addr, e[j].addr) < 0
}

// gather lays out doc's address sequence in s.addrs, the sequence a run
// refers into.
func (p *Prepared) gather(doc []ontology.ConceptID, s *Scratch) {
	s.addrs = s.addrs[:0]
	for _, c := range doc {
		s.addrs = append(s.addrs, p.addresses(c)...)
	}
}

// makeRun sorts the addresses gathered in s.addrs into s.run: the
// document half of the paper's O((|Pq|+|Pd|) log(|Pq|+|Pd|)) sort.
func (s *Scratch) makeRun() Run {
	sorted := s.sorted[:0]
	for i, a := range s.addrs {
		sorted = append(sorted, sortEntry{addr: a, pos: uint32(i)})
	}
	sort.Sort(entrySorter(sorted))
	s.sorted = sorted
	run := s.run[:0]
	for _, e := range sorted {
		run = append(run, e.pos)
	}
	s.run = run
	return run
}

// BuildScratch constructs and tunes the D-Radix of (doc, prepared query),
// inserting the Dewey addresses of both sides in sorted merge order exactly
// as Algorithm 1 does, with all per-probe state drawn from s. The
// document's addresses are enumerated and sorted afresh, so this is the
// paper's full construction. The returned DRadix aliases scratch memory
// and is invalidated by the next probe through the same scratch; a fresh
// Scratch gives a one-off construction.
func (p *Prepared) BuildScratch(doc []ontology.ConceptID, s *Scratch) (*DRadix, error) {
	p.gather(doc, s)
	return p.build(s.makeRun(), s)
}

// BuildStored is BuildScratch with the document's sorted run taken from
// runs under id, and made and stored there on the document's first probe.
// id must name doc's concepts for the life of runs: an engine keys runs
// by DocID, whose concepts never change. The D-Radix is bitwise the one
// BuildScratch builds.
func (p *Prepared) BuildStored(runs *RunStore, id uint32, doc []ontology.ConceptID, s *Scratch) (*DRadix, error) {
	p.gather(doc, s)
	run, ok := runs.load(id)
	if !ok {
		run = runs.store(id, s.makeRun())
	}
	return p.build(run, s)
}

// build merges the document run over s.addrs with the prepared query
// entries into a fresh DAG and tunes it.
func (p *Prepared) build(run Run, s *Scratch) (*DRadix, error) {
	dag := s.ws.NewDAG(p.o)
	// Sorted merge of the two entry streams, mirroring Algorithm 1's
	// parallel consumption of Pd and Pq.
	i, j := 0, 0
	for i < len(run) || j < len(p.entries) {
		if i < len(run) && (j >= len(p.entries) || dewey.Compare(s.addrs[run[i]], p.entries[j]) <= 0) {
			if _, err := dag.Insert(s.addrs[run[i]], radix.MarkDoc); err != nil {
				return nil, err
			}
			i++
			continue
		}
		if _, err := dag.Insert(p.entries[j], radix.MarkQuery); err != nil {
			return nil, err
		}
		j++
	}

	n := dag.NumNodes()
	if cap(s.ddoc) < n {
		s.ddoc = make([]int32, n)
		s.dquery = make([]int32, n)
	}
	s.dr = DRadix{
		DAG:    dag,
		DDoc:   s.ddoc[:n],
		DQuery: s.dquery[:n],
		topo:   dag.TopoOrder(),
	}
	dr := &s.dr
	for i, nd := range dag.Nodes() {
		dr.DDoc[i] = Inf
		dr.DQuery[i] = Inf
		if nd.Marks&radix.MarkDoc != 0 {
			dr.DDoc[i] = 0
		}
		if nd.Marks&radix.MarkQuery != 0 {
			dr.DQuery[i] = 0
		}
	}
	dr.tune()
	return dr, nil
}

// DocQueryScratch computes Ddq(doc, query) against the prepared query,
// reusing s for all per-probe state.
func (p *Prepared) DocQueryScratch(doc []ontology.ConceptID, s *Scratch) (float64, error) {
	dr, err := p.BuildScratch(doc, s)
	if err != nil {
		return 0, err
	}
	return dr.DocQueryDistance(p.query), nil
}

// DocDocScratch computes Ddd(doc, query doc) against the prepared query
// document, reusing s for all per-probe state.
func (p *Prepared) DocDocScratch(doc []ontology.ConceptID, s *Scratch) (float64, error) {
	dr, err := p.BuildScratch(doc, s)
	if err != nil {
		return 0, err
	}
	return dr.DocDocDistance(doc, p.query), nil
}

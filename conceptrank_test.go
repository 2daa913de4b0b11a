package conceptrank

import (
	"context"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"conceptrank/internal/ontology"
	"conceptrank/internal/store"
)

func smallSetup(t *testing.T) (*Ontology, *Collection) {
	t.Helper()
	o, err := GenerateOntology(OntologyConfig{NumConcepts: 2000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	coll, err := GenerateCorpus(o, CorpusProfile{
		Name: "T", NumDocs: 60, ConceptsPerDoc: 20, ConceptsStdDev: 5,
		TokensPerDoc: 100, Clustering: 0.5, DistinctTargets: 500, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return o, coll
}

func TestEndToEndRDSAndSDS(t *testing.T) {
	o, coll := smallSetup(t)
	eng := NewEngine(o, coll)
	q := coll.Doc(0).Concepts[:3]

	results, m, err := eng.RDSContext(context.Background(), q, Options{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 || m.ResultCount != 5 {
		t.Fatalf("RDS results: %v", results)
	}
	// Doc 0 contains all query concepts, so its distance is 0 and it must
	// rank first.
	if results[0].Doc != 0 || results[0].Distance != 0 {
		t.Fatalf("doc 0 should be the top RDS hit: %v", results)
	}

	sims, _, err := eng.SDSContext(context.Background(), coll.Doc(0).Concepts, Options{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if sims[0].Doc != 0 || sims[0].Distance != 0 {
		t.Fatalf("doc 0 should be most similar to itself: %v", sims)
	}

	// kNDS must agree with the exhaustive baseline.
	scan, _, err := eng.FullScanRDS(q, WithK(5))
	if err != nil {
		t.Fatal(err)
	}
	for i := range results {
		if math.Abs(results[i].Distance-scan[i].Distance) > 1e-9 {
			t.Fatalf("kNDS %v vs full scan %v", results, scan)
		}
	}
}

func TestDistancesExposed(t *testing.T) {
	o, _ := smallSetup(t)
	a, b := ConceptID(10), ConceptID(20)
	d := ConceptDistance(o, a, b)
	if d <= 0 {
		t.Fatalf("ConceptDistance = %d", d)
	}
	if got := DocQueryDistance(o, []ConceptID{a}, []ConceptID{b}); got != float64(d) {
		t.Errorf("DocQueryDistance singleton = %v, want %d", got, d)
	}
	if got := DocDocDistance(o, []ConceptID{a}, []ConceptID{b}); got != float64(2*d) {
		t.Errorf("DocDocDistance singleton = %v, want %d", got, 2*d)
	}
}

// The facade's document helpers must give the distance the engines rank
// by: both sides checked and deduplicated as core.QueryConcepts does, and
// every distance helper gives the MaxInt32 sentinel, not a panic, for a
// concept outside the ontology.
func TestFacadeDistanceMatchesEngine(t *testing.T) {
	ctx := context.Background()
	o := ontology.NewPaperFig().O
	coll := NewCollection()
	coll.Add("d", 1, []ConceptID{3, 5})
	eng := NewEngine(o, coll)
	defer eng.Close()
	rank := func(sds bool, q []ConceptID) float64 {
		t.Helper()
		run := eng.RDSContext
		if sds {
			run = eng.SDSContext
		}
		res, _, err := run(ctx, q, Options{K: 1})
		if err != nil || len(res) != 1 {
			t.Fatalf("engine query %v: %v %v", q, res, err)
		}
		return res[0].Distance
	}
	doc := []ConceptID{3, 5}
	if got, want := DocQueryDistance(o, doc, []ConceptID{4, 4}), rank(false, []ConceptID{4, 4}); got != want || want != 3 {
		t.Errorf("DocQueryDistance(doc, [4 4]) = %v, engine RDS %v, want 3", got, want)
	}
	if got, want := DocDocDistance(o, []ConceptID{3, 3, 5}, []ConceptID{4}), rank(true, []ConceptID{4}); got != want || want != 6.5 {
		t.Errorf("DocDocDistance([3 3 5], [4]) = %v, engine SDS %v, want 6.5", got, want)
	}
	inf := float64(math.MaxInt32)
	outside := ConceptID(o.NumConcepts())
	if got := ConceptDistance(o, 3, outside); got != math.MaxInt32 {
		t.Errorf("ConceptDistance to a concept outside the ontology = %d, want the sentinel", got)
	}
	for name, got := range map[string]float64{
		"query outside":     DocQueryDistance(o, doc, []ConceptID{4, outside}),
		"doc outside":       DocQueryDistance(o, []ConceptID{outside}, []ConceptID{4}),
		"sds doc outside":   DocDocDistance(o, []ConceptID{3, outside}, []ConceptID{4}),
		"sds query outside": DocDocDistance(o, doc, []ConceptID{outside}),
		"empty query":       DocQueryDistance(o, doc, nil),
		"empty doc":         DocDocDistance(o, nil, []ConceptID{4}),
	} {
		if got != inf {
			t.Errorf("%s: got %v, want the sentinel %v", name, got, inf)
		}
	}

	// On generated documents, with repeated query concepts, the helpers
	// agree with the full scans' exact distances for every document.
	o2, coll2 := smallSetup(t)
	eng2 := NewEngine(o2, coll2)
	defer eng2.Close()
	q := []ConceptID{10, 20, 10, 30, 20}
	rds, _, err := eng2.FullScanRDS(q, WithK(coll2.NumDocs()))
	if err != nil {
		t.Fatal(err)
	}
	sds, _, err := eng2.FullScanSDS(q, WithK(coll2.NumDocs()))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rds {
		if got := DocQueryDistance(o2, coll2.Doc(r.Doc).Concepts, q); got != r.Distance {
			t.Fatalf("doc %d: DocQueryDistance %v, full scan %v", r.Doc, got, r.Distance)
		}
	}
	for _, r := range sds {
		if got := DocDocDistance(o2, coll2.Doc(r.Doc).Concepts, q); got != r.Distance {
			t.Fatalf("doc %d: DocDocDistance %v, full scan %v", r.Doc, got, r.Distance)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	o, coll := smallSetup(t)
	dir := t.TempDir()
	opath := filepath.Join(dir, OntologyFile)
	cpath := filepath.Join(dir, "corpus.crc")
	if err := SaveOntology(opath, o); err != nil {
		t.Fatal(err)
	}
	if err := SaveCollection(cpath, coll); err != nil {
		t.Fatal(err)
	}
	o2, err := LoadOntology(opath)
	if err != nil {
		t.Fatal(err)
	}
	coll2, err := LoadCollection(cpath)
	if err != nil {
		t.Fatal(err)
	}
	if o2.NumConcepts() != o.NumConcepts() || coll2.NumDocs() != coll.NumDocs() {
		t.Fatal("round trip changed shapes")
	}
}

func TestDiskEngineMatchesMemory(t *testing.T) {
	o, coll := smallSetup(t)
	dir := t.TempDir()
	if err := SaveIndexes(dir, coll); err != nil {
		t.Fatal(err)
	}
	disk, err := OpenDiskEngine(o, dir, coll.NumDocs(), 64)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	mem := NewEngine(o, coll)
	q := coll.Doc(3).Concepts[:4]
	a, _, err := mem.RDSContext(context.Background(), q, Options{K: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, m, err := disk.RDSContext(context.Background(), q, Options{K: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("disk engine diverged: %v vs %v", a, b)
		}
	}
	if m.IOTime <= 0 {
		t.Error("disk engine reported no I/O time")
	}
}

func TestAnnotatorIntegration(t *testing.T) {
	o, _ := smallSetup(t)
	ann := NewAnnotator(o)
	name := o.Name(50)
	set := ann.ConceptSet("Patient presents with " + name + ".")
	if len(set) != 1 || set[0] != 50 {
		t.Fatalf("ConceptSet = %v, want [50] for %q", set, name)
	}
	if set := ann.ConceptSet("No evidence of " + name + "."); len(set) != 0 {
		t.Fatalf("negated mention indexed: %v", set)
	}
}

func TestFindConcept(t *testing.T) {
	o, _ := smallSetup(t)
	name := o.Name(123)
	id, ok := FindConcept(o, name)
	if !ok || id != 123 {
		t.Fatalf("FindConcept(%q) = %v, %v", name, id, ok)
	}
	if _, ok := FindConcept(o, "definitely not a term"); ok {
		t.Error("bogus term found")
	}
}

func TestHandBuiltOntology(t *testing.T) {
	b := NewOntologyBuilder("root")
	heart := b.AddConcept("heart disease")
	valve := b.AddConcept("heart valve finding")
	b.MustAddEdge(b.Root(), heart)
	b.MustAddEdge(heart, valve)
	o, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if ConceptDistance(o, heart, valve) != 1 {
		t.Error("hand-built distances wrong")
	}
}

func TestFacadeDynamicEngine(t *testing.T) {
	o, coll := smallSetup(t)
	eng := NewDynamicEngineFrom(o, coll)
	if eng.NumDocs() != coll.NumDocs() {
		t.Fatalf("NumDocs = %d", eng.NumDocs())
	}
	q := coll.Doc(2).Concepts[:3]
	id := eng.AddDocument("fresh", q)
	if eng.DocName(id) != "fresh" {
		t.Errorf("DocName = %q", eng.DocName(id))
	}
	results, _, err := eng.RDSContext(context.Background(), q, Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Distance != 0 {
		t.Fatalf("fresh doc not found: %v", results)
	}
	cs, err := eng.DocConcepts(id)
	if err != nil || len(cs) != len(q) {
		t.Fatalf("DocConcepts = %v, %v", cs, err)
	}

	empty := NewDynamicEngine(o)
	if _, _, err := empty.RDSContext(context.Background(), q, Options{K: 1}); err != nil {
		t.Fatalf("query over empty dynamic engine errored: %v", err)
	}
}

func TestJournaledEngineSurvivesRestart(t *testing.T) {
	o, coll := smallSetup(t)
	path := filepath.Join(t.TempDir(), "docs.wal")

	eng, err := OpenJournaledEngine(o, path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		eng.AddDocument(coll.Doc(DocID(i)).Name, coll.Doc(DocID(i)).Concepts)
	}
	q := coll.Doc(4).Concepts[:3]
	before, _, err := eng.RDSContext(context.Background(), q, Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": reopen from the journal alone.
	eng2, err := OpenJournaledEngine(o, path)
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	if eng2.NumDocs() != 10 {
		t.Fatalf("replayed %d docs, want 10", eng2.NumDocs())
	}
	after, _, err := eng2.RDSContext(context.Background(), q, Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("results changed across restart: %v vs %v", before, after)
		}
	}
	// And it remains appendable.
	id, err := eng2.AddDocumentDurable("late", q)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := eng2.RDSContext(context.Background(), q, Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Doc != id && res[0].Distance != 0 {
		t.Fatalf("late doc not searchable: %v", res)
	}
}

// TestAddDocumentRejectsOutOfRangeConcept: a document concept outside the
// ontology is refused before it is journaled or indexed — indexed, it
// would make every later query that reaches the document fail — and a
// journal that already holds such a record fails to open, naming it.
func TestAddDocumentRejectsOutOfRangeConcept(t *testing.T) {
	o, err := GenerateOntology(OntologyConfig{NumConcepts: 2000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	coll, err := GenerateCorpus(o, RadioProfile(0.01, 2))
	if err != nil {
		t.Fatal(err)
	}
	bad := []ConceptID{ConceptID(o.NumConcepts() + 7), 1, 2}
	q := bad[1:]

	eng := NewDynamicEngineFrom(o, coll)
	n := eng.NumDocs()
	if _, err := eng.AddDocumentDurable("bad", bad); err == nil || !strings.Contains(err.Error(), "outside ontology") {
		t.Fatalf("AddDocumentDurable: %v, want an outside-ontology error", err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("AddDocument accepted a concept outside the ontology")
			}
		}()
		eng.AddDocument("bad", bad)
	}()
	if eng.NumDocs() != n {
		t.Fatalf("%d documents after the rejected adds, want %d", eng.NumDocs(), n)
	}
	if _, _, err := eng.FullScanRDS(q); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "docs.wal")
	jeng, err := OpenJournaledEngine(o, path)
	if err != nil {
		t.Fatal(err)
	}
	jeng.AddDocument("good", q)
	if _, err := jeng.AddDocumentDurable("bad", bad); err == nil {
		t.Fatal("journaled AddDocumentDurable accepted a concept outside the ontology")
	}
	if err := jeng.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenJournaledEngine(o, path)
	if err != nil {
		t.Fatalf("reopen after a rejected add: %v", err)
	}
	if reopened.NumDocs() != 1 {
		t.Fatalf("replayed %d documents, want 1", reopened.NumDocs())
	}
	if err := reopened.Close(); err != nil {
		t.Fatal(err)
	}

	// A journal written without the check: replay refuses the record.
	j, err := store.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	set := []uint32{1, 2, uint32(o.NumConcepts() + 7)}
	if err := j.Append(store.JournalRecord{Name: "poison", Concepts: set}); err != nil {
		t.Fatal(err)
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournaledEngine(o, path); err == nil || !strings.Contains(err.Error(), `record 1 ("poison")`) {
		t.Fatalf("OpenJournaledEngine over a poisoned journal: %v, want an error naming record 1", err)
	}
}

// TestBulkLoadRejectsOutOfRangeConcept: every constructor that indexes a
// whole collection checks it against the ontology. A 2 000-concept
// ontology and one document carrying concept 2007 used to index cleanly
// and panic at the first query reaching it ("index out of range [2007]
// with length 2001" in the DRC address cache). The constructors with an
// error result return one naming the document; NewEngine and
// NewDynamicEngineFrom panic with it.
func TestBulkLoadRejectsOutOfRangeConcept(t *testing.T) {
	o, err := GenerateOntology(OntologyConfig{NumConcepts: 2000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	coll := NewCollection()
	coll.Add("good", 0, []ConceptID{1, 2})
	coll.Add("poison", 0, []ConceptID{3, 2007})
	named := func(t *testing.T, what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), `document 1 ("poison")`) ||
			!strings.Contains(err.Error(), "concept 2007 outside ontology") {
			t.Fatalf("%s: %v, want an outside-ontology error naming document 1", what, err)
		}
	}
	panics := func(t *testing.T, ctor string, build func()) {
		t.Helper()
		defer func() {
			err, _ := recover().(error)
			named(t, ctor, err)
		}()
		build()
	}

	t.Run("NewEngine", func(t *testing.T) {
		panics(t, "NewEngine", func() { NewEngine(o, coll) })
	})
	t.Run("NewDynamicEngineFrom", func(t *testing.T) {
		panics(t, "NewDynamicEngineFrom", func() { NewDynamicEngineFrom(o, coll) })
	})
	t.Run("NewShardedEngine", func(t *testing.T) {
		_, err := NewShardedEngine(o, coll, ShardConfig{Shards: 2})
		named(t, "NewShardedEngine", err)
	})
	t.Run("NewClusterNode", func(t *testing.T) {
		_, err := NewClusterNode(ClusterNodeConfig{Ontology: o, Coll: coll})
		named(t, "NewClusterNode", err)
	})
	t.Run("OpenDiskEngine", func(t *testing.T) {
		dir := t.TempDir()
		if err := SaveIndexes(dir, coll); err != nil {
			t.Fatal(err)
		}
		_, err := OpenDiskEngine(o, dir, coll.NumDocs(), 0)
		if err == nil || !strings.Contains(err.Error(), "concept 2007 outside ontology") {
			t.Fatalf("OpenDiskEngine: %v, want an outside-ontology error", err)
		}
	})
}

package conceptrank

import (
	"context"
	"math"
	"path/filepath"
	"testing"
)

func TestFacadeQueryExpansion(t *testing.T) {
	o, coll := smallSetup(t)
	eng := NewEngine(o, coll)
	seed := coll.Doc(5).Concepts[:1]

	exps := ExpandQuery(o, seed, 2, 5)
	if len(exps) == 0 {
		t.Fatal("no expansions at radius 2")
	}
	for _, e := range exps {
		if e.Distance < 1 || e.Distance > 2 || e.Weight <= 0 {
			t.Fatalf("bad expansion %+v", e)
		}
	}
	queries := [][]ConceptID{seed}
	for _, e := range exps {
		queries = append(queries, []ConceptID{e.Concept})
	}
	merged, _, err := eng.MergedRDS(context.Background(), queries, WithK(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) != 5 {
		t.Fatalf("merged results: %v", merged)
	}
	for i := 1; i < len(merged); i++ {
		if merged[i-1].Score > merged[i].Score {
			t.Fatalf("merged ranking not sorted: %v", merged)
		}
	}
	// Doc 5 contains the seed itself, so it should do well; at minimum it
	// must appear with the best score among documents containing the seed.
	if merged[0].Score < 0 {
		t.Fatalf("negative score: %v", merged[0])
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
	results, _, err := eng.RDS(q, Options{K: 1})
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
	if _, _, err := empty.RDS(q, Options{K: 1}); err != nil {
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
	before, _, err := eng.RDS(q, Options{K: 3})
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
	after, _, err := eng2.RDS(q, Options{K: 3})
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
	res, _, err := eng2.RDS(q, Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Doc != id && res[0].Distance != 0 {
		t.Fatalf("late doc not searchable: %v", res)
	}
}

func TestHybridRDSEndToEnd(t *testing.T) {
	o, err := GenerateOntology(OntologyConfig{NumConcepts: 2500, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	ann := NewAnnotator(o)
	coll, notes, err := GenerateNoteCorpus(o, ann, CorpusProfile{
		Name: "N", NumDocs: 80, ConceptsPerDoc: 10, ConceptsStdDev: 3,
		TokensPerDoc: 150, Clustering: 0.5, DistinctTargets: 600, Seed: 32,
	}, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(notes) != coll.NumDocs() {
		t.Fatalf("%d notes vs %d docs", len(notes), coll.NumDocs())
	}
	texts := make([]string, len(notes))
	for i, n := range notes {
		texts[i] = n.Text
	}
	eng := NewEngine(o, coll)
	tix := BuildTextIndex(texts)

	// Pick a document with concepts and query by its first concept's term.
	var target DocID
	for _, d := range coll.Docs() {
		if len(d.Concepts) > 0 {
			target = d.ID
			break
		}
	}
	c := coll.Doc(target).Concepts[0]
	q := []ConceptID{c}
	text := o.Name(c)

	pureSem, _, err := eng.HybridRDS(context.Background(), q, text,
		WithTextIndex(tix), WithFusionWeight(1), WithHybridK(10))
	if err != nil {
		t.Fatal(err)
	}
	if len(pureSem) == 0 || pureSem[0].Semantic != 1 {
		t.Fatalf("top semantic result should normalize to 1: %+v", pureSem)
	}
	// The target document contains the concept (distance 0), so it must be
	// among the semantic-1 results.
	found := false
	for _, r := range pureSem {
		if r.Doc == target {
			found = true
		}
	}
	if !found {
		t.Fatalf("target doc %d missing from pure semantic top-10: %+v", target, pureSem)
	}
	pureText, _, err := eng.HybridRDS(context.Background(), q, text,
		WithTextIndex(tix), WithFusionWeight(0), WithHybridK(10))
	if err != nil {
		t.Fatal(err)
	}
	if pureText[0].BM25 != 1 {
		t.Fatalf("top text result should normalize to 1: %+v", pureText)
	}
	// Alpha must change the ordering in general (sanity: different leaders
	// or different score vectors).
	if len(pureSem) == len(pureText) {
		same := true
		for i := range pureSem {
			if pureSem[i].Doc != pureText[i].Doc {
				same = false
				break
			}
		}
		if same {
			t.Log("note: semantic and text rankings coincide on this seed (allowed but unusual)")
		}
	}
}

func TestFacadeWeightedDistances(t *testing.T) {
	o, coll := smallSetup(t)
	// Specificity weights: deeper concepts count more.
	byDepth := func(c ConceptID) float64 { return 1 + float64(o.Depth(c)) }
	d1 := coll.Doc(0).Concepts[:5]
	d2 := coll.Doc(1).Concepts[:5]

	plain := DocDocDistance(o, d1, d2)
	unit := DocDocDistanceWeighted(o, d1, d2, func(ConceptID) float64 { return 1 })
	if math.Abs(plain-unit) > 1e-9 {
		t.Fatalf("unit weights diverge: %v vs %v", unit, plain)
	}
	if weighted := DocDocDistanceWeighted(o, d1, d2, byDepth); weighted < 0 {
		t.Fatalf("depth-weighted distance negative: %v", weighted)
	}
	if self := DocDocDistanceWeighted(o, d1, d1, byDepth); self != 0 {
		t.Fatalf("weighted self distance = %v", self)
	}
}

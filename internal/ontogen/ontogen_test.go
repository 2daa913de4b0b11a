package ontogen

import (
	"bytes"
	"testing"

	"conceptrank/internal/ontology"
)

func TestGenerateValidates(t *testing.T) {
	o, err := Generate(Config{NumConcepts: 3000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if o.NumConcepts() != 3000 {
		t.Errorf("NumConcepts = %d, want 3000", o.NumConcepts())
	}
	if o.MaxDepth() != 14 {
		t.Errorf("MaxDepth = %d, want 14", o.MaxDepth())
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	a, err := Generate(Config{NumConcepts: 1000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Config{NumConcepts: 1000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if a.NumEdges() != b.NumEdges() {
		t.Fatalf("same seed produced different graphs: %d vs %d edges", a.NumEdges(), b.NumEdges())
	}
	for c := 0; c < a.NumConcepts(); c++ {
		if a.Name(ontology.ConceptID(c)) != b.Name(ontology.ConceptID(c)) {
			t.Fatalf("same seed produced different names at %d", c)
		}
	}
	c, err := Generate(Config{NumConcepts: 1000, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	if c.NumEdges() == a.NumEdges() && c.Name(5) == a.Name(5) {
		t.Error("different seeds produced identical ontologies (suspicious)")
	}
}

// TestCalibration checks the generated structure approximates the published
// SNOMED-CT statistics at a laptop-friendly size. Tolerances are loose —
// the point is the right regime (branching ~4.5, paths ~10, depth 14), not
// exact replication.
func TestCalibration(t *testing.T) {
	o, err := Generate(Config{NumConcepts: 30_000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	s := o.ComputeStats()
	t.Logf("stats: %+v", s)
	if s.AvgChildrenInternal < 3.2 || s.AvgChildrenInternal > 6.0 {
		t.Errorf("AvgChildrenInternal = %v, want ~4.53", s.AvgChildrenInternal)
	}
	if s.AvgPathsPerConcept < 4.5 || s.AvgPathsPerConcept > 20 {
		t.Errorf("AvgPathsPerConcept = %v, want ~9.78", s.AvgPathsPerConcept)
	}
	if s.AvgPathLen < 9 || s.AvgPathLen > 15 {
		t.Errorf("AvgPathLen = %v, want ~14 (paths concentrate deep)", s.AvgPathLen)
	}
	if s.MaxDepth != 14 {
		t.Errorf("MaxDepth = %d, want 14", s.MaxDepth)
	}
}

func TestUniqueTermsAcrossConcepts(t *testing.T) {
	o, err := Generate(Config{NumConcepts: 2000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]ontology.ConceptID{}
	for c := 0; c < o.NumConcepts(); c++ {
		id := ontology.ConceptID(c)
		for _, term := range append([]string{o.Name(id)}, o.Synonyms(id)...) {
			if prev, dup := seen[term]; dup {
				t.Fatalf("term %q used by both %d and %d", term, prev, id)
			}
			seen[term] = id
		}
	}
}

func TestAbbreviate(t *testing.T) {
	if got := abbreviate("chronic cardiitis type 17"); got != "CCT17" {
		t.Errorf("abbreviate = %q, want CCT17", got)
	}
	if !IsAbbreviation("CCT17") {
		t.Error("CCT17 should be an abbreviation")
	}
	for _, s := range []string{"", "CCT", "17", "cct17", "C17x"} {
		if IsAbbreviation(s) {
			t.Errorf("IsAbbreviation(%q) = true", s)
		}
	}
}

func TestTinyConfig(t *testing.T) {
	o, err := Generate(Config{NumConcepts: 50, depth: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if o.NumConcepts() != 50 || o.MaxDepth() != 4 {
		t.Errorf("got %d concepts depth %d", o.NumConcepts(), o.MaxDepth())
	}
}

// TestMaxDepthIsMaxOfDepth: the depth computed once at Finalize is the
// largest Depth, on generated ontologies and after a WriteTo/ReadFrom
// round trip (which rebuilds through Finalize).
func TestMaxDepthIsMaxOfDepth(t *testing.T) {
	for _, cfg := range []Config{
		{NumConcepts: 50, depth: 4, Seed: 2},
		{NumConcepts: 1000, Seed: 42},
		{NumConcepts: 3000, Seed: 1},
	} {
		o, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := o.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ontology.ReadFrom(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range []*ontology.Ontology{o, back} {
			want := 0
			for c := 0; c < o.NumConcepts(); c++ {
				want = max(want, o.Depth(ontology.ConceptID(c)))
			}
			if got := o.MaxDepth(); got != want {
				t.Fatalf("%+v: MaxDepth = %d, max Depth = %d", cfg, got, want)
			}
		}
	}
}

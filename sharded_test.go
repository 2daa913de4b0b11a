package conceptrank

import (
	"context"
	"errors"
	"testing"
)

// TestShardedEngineFacade: public sharded engines must answer exactly like
// the single public Engine, for several shard counts.
func TestShardedEngineFacade(t *testing.T) {
	o, coll := smallSetup(t)
	eng := NewEngine(o, coll)
	q := coll.Doc(0).Concepts[:3]
	opts := Options{K: 5, ErrorThreshold: 0.5}
	want, _, err := eng.RDSContext(context.Background(), q, opts)
	if err != nil {
		t.Fatal(err)
	}

	for _, cfg := range []ShardConfig{
		{Shards: 1},
		{Shards: 3},
		{Shards: 4},
	} {
		se, err := NewShardedEngine(o, coll, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, sm, err := se.RDSContext(context.Background(), q, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%+v: %v vs %v", cfg, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%+v: sharded result %d = %v, single engine %v", cfg, i, got[i], want[i])
			}
		}
		if se.NumShards() != cfg.Shards || se.NumDocs() != coll.NumDocs() {
			t.Fatalf("%+v: NumShards=%d NumDocs=%d", cfg, se.NumShards(), se.NumDocs())
		}
		if len(sm.PerShard) != cfg.Shards {
			t.Fatalf("%+v: PerShard has %d entries", cfg, len(sm.PerShard))
		}
	}

	// Context cancellation through the facade.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	se, err := NewShardedEngine(o, coll, ShardConfig{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := se.RDSContext(ctx, q, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sharded query: %v", err)
	}
	if _, _, err := eng.RDSContext(ctx, q, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled single query: %v", err)
	}
}

// TestFunctionalOptions: each option a full scan takes acts on it.
// WithK sets the result count, WithWorkers partitions the scan with a
// ranking bitwise equal to one partition, and WithMeasure ranks as a
// kNDS query under the same Options.Measure does.
func TestFunctionalOptions(t *testing.T) {
	ont, coll := smallSetup(t)
	eng := NewEngine(ont, coll)
	q := coll.Doc(2).Concepts[:3]
	same := func(label string, want, got []Result) {
		t.Helper()
		if len(want) != len(got) {
			t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("%s: rank %d: %v, want %v", label, i, got[i], want[i])
			}
		}
	}

	for _, k := range []int{1, 5, 7} {
		res, _, err := eng.FullScanRDS(q, WithK(k))
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != k {
			t.Fatalf("WithK(%d) returned %d results", k, len(res))
		}
	}
	for _, scan := range []func([]ConceptID, ...Option) ([]Result, *Metrics, error){eng.FullScanRDS, eng.FullScanSDS} {
		one, m1, err := scan(q, WithK(6), WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		three, m3, err := scan(q, WithK(6), WithWorkers(3))
		if err != nil {
			t.Fatal(err)
		}
		same("WithWorkers(3) vs WithWorkers(1)", one, three)
		if m1.DocsExamined != m3.DocsExamined {
			t.Fatalf("WithWorkers(3) examined %d documents, WithWorkers(1) %d", m3.DocsExamined, m1.DocsExamined)
		}
	}
	for _, m := range []DistanceMeasure{RadaMeasure(), NewDensityMeasure(ont), NewEnhancedMeasure(ont)} {
		want, _, err := eng.RDSContext(context.Background(), q, Options{K: 6, Measure: m})
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := eng.FullScanRDS(q, WithK(6), WithMeasure(m))
		if err != nil {
			t.Fatal(err)
		}
		same("WithMeasure("+m.Name()+")", want, got)
	}
	if _, _, err := eng.FullScanRDS(q, WithWorkers(-2)); err == nil {
		t.Fatal("negative workers must be rejected")
	}
}

func TestFindConcepts(t *testing.T) {
	b := NewOntologyBuilder("root")
	heart := b.AddConcept("heart disease", "HD", "cardiac disease")
	valve := b.AddConcept("valve finding", "HD") // duplicate synonym: lower ID wins
	b.MustAddEdge(b.Root(), heart)
	b.MustAddEdge(heart, valve)
	o, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	ids, found := FindConcepts(o, []string{"valve finding", "cardiac disease", "HD", "nope"})
	if !found[0] || ids[0] != valve {
		t.Fatalf("valve finding -> %v %v", ids[0], found[0])
	}
	if !found[1] || ids[1] != heart {
		t.Fatalf("cardiac disease -> %v %v", ids[1], found[1])
	}
	if !found[2] || ids[2] != heart {
		t.Fatalf("ambiguous synonym must resolve to the lowest concept: %v", ids[2])
	}
	if found[3] {
		t.Fatal("unknown term reported found")
	}
	// Spot-check agreement with a linear scan over a generated ontology.
	g, _ := smallSetup(t)
	for c := 0; c < 50; c++ {
		name := g.Name(ConceptID(c))
		wantID, wantOK := scanFindConcept(g, name)
		gotID, gotOK := FindConcept(g, name)
		if wantOK != gotOK || wantID != gotID {
			t.Fatalf("FindConcept(%q) = %v,%v; scan says %v,%v", name, gotID, gotOK, wantID, wantOK)
		}
	}
}

// scanFindConcept is the pre-index linear scan, kept as the semantic
// reference for FindConcept's precedence rules.
func scanFindConcept(o *Ontology, term string) (ConceptID, bool) {
	for c := 0; c < o.NumConcepts(); c++ {
		id := ConceptID(c)
		if o.Name(id) == term {
			return id, true
		}
		for _, s := range o.Synonyms(id) {
			if s == term {
				return id, true
			}
		}
	}
	return 0, false
}

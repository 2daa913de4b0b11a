package conceptrank

import (
	"context"
	"errors"
	"testing"
)

// TestShardedEngineFacade: public sharded engines must answer exactly like
// the single public Engine, for several shard counts and both placements.
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
		{Shards: 3, Placement: RoundRobinPlacement},
		{Shards: 4, Placement: SizeBalancedPlacement},
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
	se, err := NewShardedEngine(o, coll, ShardConfig{Shards: 3, Placement: SizeBalancedPlacement})
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

// TestFunctionalOptions: the options layer must compose into the same
// Options struct values and drive the collapsed FullScan entry points.
func TestFunctionalOptions(t *testing.T) {
	o := NewOptions(WithK(7), WithEpsilon(0.25), WithWorkers(3), WithQueueLimit(99))
	if o.K != 7 || o.ErrorThreshold != 0.25 || o.Workers != 3 || o.QueueLimit != 99 {
		t.Fatalf("NewOptions built %+v", o)
	}
	refined := o.With(WithK(2))
	if refined.K != 2 || refined.Workers != 3 || o.K != 7 {
		t.Fatalf("With must copy: %+v / %+v", refined, o)
	}

	ont, coll := smallSetup(t)
	eng := NewEngine(ont, coll)
	q := coll.Doc(2).Concepts[:3]

	serial, _, err := eng.FullScanRDS(q, WithK(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != 5 {
		t.Fatalf("WithK(5) returned %d results", len(serial))
	}
	parallel, _, err := eng.FullScanRDS(q, WithK(5), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("full-scan variants disagree at %d: %v / %v",
				i, serial[i], parallel[i])
		}
	}
	sdsSerial, _, err := eng.FullScanSDS(q, WithK(4))
	if err != nil {
		t.Fatal(err)
	}
	sdsParallel, _, err := eng.FullScanSDS(q, WithK(4), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := range sdsSerial {
		if sdsSerial[i] != sdsParallel[i] {
			t.Fatalf("SDS full-scan variants disagree: %v vs %v", sdsSerial, sdsParallel)
		}
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

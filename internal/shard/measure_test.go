package shard

// The sharded engine forwards core.Options verbatim to its per-shard
// engines and merges by the canonical (distance, doc) order, so the
// pluggable-measure path needs no shard-specific code — this grid pins
// that it actually holds: sharded rankings under every built-in measure
// are bitwise identical to a single engine over the union collection, and
// the explicit Rada measure reproduces the nil-measure default.

import (
	"context"
	"math/rand"
	"testing"

	"conceptrank/internal/core"
	"conceptrank/internal/measure"
	"conceptrank/internal/ontology"
)

func TestShardedMeasureEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(1506))
	for corp := 0; corp < 3; corp++ {
		o := randomDAGOntology(r, 40+r.Intn(80), 0.3)
		coll := randomCollection(r, o, 10+r.Intn(50), 7)
		single := singleEngine(o, coll)
		q := []ontology.ConceptID{
			ontology.ConceptID(r.Intn(o.NumConcepts())),
			ontology.ConceptID(r.Intn(o.NumConcepts())),
		}
		for _, m := range []measure.Measure{measure.Rada(), measure.NewDensity(o), measure.NewEnhanced(o)} {
			for _, sds := range []bool{false, true} {
				opts := core.Options{K: 6, ErrorThreshold: 0.5, Measure: m}
				var want []core.Result
				var err error
				if sds {
					want, _, err = single.SDSContext(context.Background(), q, opts)
				} else {
					want, _, err = single.RDSContext(context.Background(), q, opts)
				}
				if err != nil {
					t.Fatal(err)
				}
				for _, n := range []int{1, 3, 5} {
					se, err := New(o, coll, Config{Shards: n})
					if err != nil {
						t.Fatal(err)
					}
					var got []core.Result
					if sds {
						got, _, err = se.SDSContext(context.Background(), q, opts)
					} else {
						got, _, err = se.RDSContext(context.Background(), q, opts)
					}
					if err != nil {
						t.Fatal(err)
					}
					assertIdentical(t, m.Name(), want, got)
				}
			}
		}

		// The explicit Rada measure through a sharded engine equals the
		// nil-measure sharded default bit for bit.
		se, err := New(o, coll, Config{Shards: 3})
		if err != nil {
			t.Fatal(err)
		}
		def, _, err := se.RDSContext(context.Background(), q, core.Options{K: 6, ErrorThreshold: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		viaM, _, err := se.RDSContext(context.Background(), q, core.Options{K: 6, ErrorThreshold: 0.5, Measure: measure.Rada()})
		if err != nil {
			t.Fatal(err)
		}
		assertIdentical(t, "sharded rada vs nil", def, viaM)
	}
}

package cluster

import (
	"context"
	"errors"
	"testing"

	"conceptrank/internal/core"
	"conceptrank/internal/corpus"
	"conceptrank/internal/ontology"
)

// TestSegmentEndings drives one core cursor through the node's segment
// runner and checks each way a segment can end — and that every ending
// but "done" leaves the cursor resumable into the uninterrupted answer.
// The corpus is a chain, so the query needs one wave per level and every
// hook below fires mid-traversal.
func TestSegmentEndings(t *testing.T) {
	const depth = 40
	b := ontology.NewBuilder("root")
	prev := ontology.ConceptID(0)
	for i := 0; i < depth; i++ {
		c := b.AddConcept("x")
		b.MustAddEdge(prev, c)
		prev = c
	}
	o := b.MustFinalize()
	coll := corpus.New()
	for i := 0; i < 4; i++ {
		coll.Add("deep", 0, []ontology.ConceptID{prev})
	}
	eng := singleEngine(o, coll)
	q := []ontology.ConceptID{0}
	base := core.Options{K: 2, ErrorThreshold: 0}
	want, _, err := eng.RDSContext(context.Background(), q, base)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		// arm installs the hooks that end the first segment; callerCancel
		// is the cancel func of the context that segment runs under.
		arm      func(o *core.Options, sg *segment, callerCancel context.CancelFunc)
		wantDone bool
		wantErr  error
	}{
		{name: "done", arm: func(*core.Options, *segment, context.CancelFunc) {}, wantDone: true},
		{name: "bound pause", arm: func(o *core.Options, sg *segment, _ context.CancelFunc) {
			o.OnBound = func(dMinus float64) {
				if beyond(true, 3, dMinus) {
					sg.stop()
				}
			}
		}},
		{name: "budget pause", arm: func(o *core.Options, sg *segment, _ context.CancelFunc) {
			waves := 0
			o.OnWave = func(core.WaveInfo) {
				if waves++; waves == 5 {
					sg.stop()
				}
			}
		}},
		{name: "caller cancel", arm: func(o *core.Options, _ *segment, callerCancel context.CancelFunc) {
			waves := 0
			o.OnWave = func(core.WaveInfo) {
				if waves++; waves == 5 {
					callerCancel()
				}
			}
		}, wantErr: context.Canceled},
		{name: "caller cancel beats a hook stop", arm: func(o *core.Options, sg *segment, callerCancel context.CancelFunc) {
			o.OnBound = func(float64) {
				sg.stop()
				callerCancel()
			}
		}, wantErr: context.Canceled},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var sg segment
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			opts := base
			tc.arm(&opts, &sg, cancel)
			cur, err := eng.OpenRDS(q, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer cur.Close()
			done, err := sg.run(ctx, cur)
			if done != tc.wantDone || !errors.Is(err, tc.wantErr) {
				t.Fatalf("first segment = (%v, %v), want (%v, %v)", done, err, tc.wantDone, tc.wantErr)
			}
			if !done && cur.Metrics().Iterations >= depth {
				t.Fatalf("segment was not cut short: %d waves", cur.Metrics().Iterations)
			}
			sg.stop() // between runs: must not poison the next segment
			for !done {
				// The armed hooks stay installed, so a pause may recur; each
				// segment still advances by at least a wave.
				if done, err = sg.run(context.Background(), cur); err != nil {
					t.Fatalf("resumed segment: %v", err)
				}
			}
			assertIdentical(t, tc.name, want, cur.Results())
		})
	}
}

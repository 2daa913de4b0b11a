package emrgen

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"testing"

	"conceptrank/internal/ontogen"
)

// TestGeneratedBytesPinned pins the generators' output to SHA-256
// digests of its serialized bytes: a small ontology and one small PATIENT
// and RADIO collection over it. Every benchmark number and experiment
// table rests on these bytes, so a change to a generator constant, to the
// order of its random draws or to a serialization format fails here, not
// silently in a results table. Regenerate the digests only for a change
// that means to alter the generated data.
func TestGeneratedBytesPinned(t *testing.T) {
	o, err := ontogen.Generate(ontogen.Config{NumConcepts: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	digest := func(w io.WriterTo) string {
		var b bytes.Buffer
		if _, err := w.WriteTo(&b); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b.Bytes())
		return hex.EncodeToString(sum[:])
	}
	check := func(name string, w io.WriterTo, want string) {
		if got := digest(w); got != want {
			t.Errorf("%s: sha256 %s, want %s", name, got, want)
		}
	}
	check("ontology", o, "834474a93926536821434a27c79d568fc278695ed5444b59ebad8878e54fc79e")
	for _, tc := range []struct {
		p    Profile
		want string
	}{
		{Patient(0.02, 2), "7b0cc43510ef816a082bc585a7075c701a0d5415a9adffaac6de77ca61a420c6"},
		{Radio(0.02, 3), "eae9a25903b5dedd60ce15563319f50a255767b01becb43416886e249e39aef9"},
	} {
		coll, err := GenerateConceptSets(o, tc.p)
		if err != nil {
			t.Fatal(err)
		}
		check(tc.p.Name, coll, tc.want)
	}
}

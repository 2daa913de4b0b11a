// Package bench is the experiment harness that regenerates every table and
// figure of Section 6 of Arvanitis et al. (EDBT 2014) on synthetic data
// (see DESIGN.md for the substitution rationale). Each experiment produces
// Tables — the rows/series the paper plots — that cmd/crbench prints and
// the repository-root benchmarks wrap. Beside the paper it keeps only the
// ablations and the experiments with no counterpart in the repository
// benchmark (registry.go); systems measurements live in benchmark/.
//
// The absolute numbers differ from the paper (different hardware, language,
// store and data); the shapes under test are:
//
//	Fig. 6   BL grows quadratically with query size, DRC ~n log n
//	Fig. 7   ε_θ = 0 is optimal on dense PATIENT; larger ε_θ wins on
//	         sparse RADIO, with the optimum growing with query size
//	Fig. 8   kNDS beats the full-scan baseline at every query size
//	Fig. 9   baseline time is flat in k; kNDS stays far below it
package bench

import (
	"fmt"
	"math/rand"
	"strings"

	"conceptrank/internal/core"
	"conceptrank/internal/corpus"
	"conceptrank/internal/emrgen"
	"conceptrank/internal/index"
	"conceptrank/internal/ontogen"
	"conceptrank/internal/ontology"
)

// Parameters of Table 4 (defaults in bold in the paper).
var (
	Ks         = []int{3, 5, 10, 50, 100}
	DefaultK   = 10
	QuerySizes = []int{1, 3, 5, 10}
	DefaultNq  = 5
	// ε_θ sweep of Figure 7 plus the tuned defaults of Section 6.2.
	ErrorThresholds   = []float64{0, 0.25, 0.5, 0.75, 0.9, 1}
	DefaultEpsPatient = 0.5
	DefaultEpsRadio   = 0.9
)

// Scale selects how large the synthetic environment is. Paper reproduces
// the published sizes; Small keeps every experiment laptop- and CI-sized.
type Scale struct {
	Name             string
	OntologyConcepts int
	Patient, Radio   emrgen.Profile
	// DistPairs is the Figure 6 workload size (paper: 5000);
	// RankQueries the Figures 7-9 workload size (paper: 100).
	DistPairs   int
	RankQueries int
	// DistSizes is the Figure 6 query-size sweep.
	DistSizes []int
}

// ScaleByName resolves "small", "medium" or "paper".
func ScaleByName(name string) (Scale, error) {
	switch strings.ToLower(name) {
	case "", "small":
		return SmallScale(), nil
	case "medium":
		return MediumScale(), nil
	case "paper":
		return PaperScale(), nil
	}
	return Scale{}, fmt.Errorf("bench: unknown scale %q (want small, medium or paper)", name)
}

// SmallScale finishes the full experiment suite in minutes.
func SmallScale() Scale {
	return Scale{
		Name:             "small",
		OntologyConcepts: 8_000,
		Patient: emrgen.Profile{
			Name: "PATIENT", NumDocs: 120, ConceptsPerDoc: 150, ConceptsStdDev: 50,
			TokensPerDoc: 1800, Clustering: 0.85, DistinctTargets: 2500, Seed: 101,
		},
		Radio: emrgen.Profile{
			Name: "RADIO", NumDocs: 800, ConceptsPerDoc: 30, ConceptsStdDev: 12,
			TokensPerDoc: 270, Clustering: 0.25, DistinctTargets: 1500, Seed: 102,
		},
		DistPairs:   150,
		RankQueries: 12,
		DistSizes:   []int{2, 5, 10, 25, 50},
	}
}

// MediumScale is an overnight-confidence run.
func MediumScale() Scale {
	return Scale{
		Name:             "medium",
		OntologyConcepts: 30_000,
		Patient: emrgen.Profile{
			Name: "PATIENT", NumDocs: 300, ConceptsPerDoc: 350, ConceptsStdDev: 120,
			TokensPerDoc: 4000, Clustering: 0.85, DistinctTargets: 8000, Seed: 101,
		},
		Radio: emrgen.Profile{
			Name: "RADIO", NumDocs: 3000, ConceptsPerDoc: 60, ConceptsStdDev: 25,
			TokensPerDoc: 270, Clustering: 0.25, DistinctTargets: 4000, Seed: 102,
		},
		DistPairs:   500,
		RankQueries: 25,
		DistSizes:   []int{5, 10, 25, 50, 100},
	}
}

// PaperScale matches Table 3 and the SNOMED-CT size (hours of compute).
func PaperScale() Scale {
	return Scale{
		Name:             "paper",
		OntologyConcepts: 296_433,
		Patient: emrgen.Profile{
			Name: "PATIENT", NumDocs: 983, ConceptsPerDoc: 706.6, ConceptsStdDev: 250,
			TokensPerDoc: 8184, Clustering: 0.85, DistinctTargets: 16_811, Seed: 101,
		},
		Radio: emrgen.Profile{
			Name: "RADIO", NumDocs: 12_373, ConceptsPerDoc: 125.3, ConceptsStdDev: 60,
			TokensPerDoc: 273.7, Clustering: 0.25, DistinctTargets: 8_629, Seed: 102,
		},
		DistPairs:   5000,
		RankQueries: 100,
		DistSizes:   []int{10, 50, 100, 500, 1000},
	}
}

// Dataset is one indexed collection ready for queries.
type Dataset struct {
	Name       string
	Coll       *corpus.Collection
	Engine     *core.Engine
	Eligible   []ontology.ConceptID // filter-passing query vocabulary
	DefaultEps float64
}

// Env is a fully generated and indexed experiment environment.
type Env struct {
	Scale   Scale
	O       *ontology.Ontology
	Patient *Dataset
	Radio   *Dataset
}

// Datasets returns both datasets in paper order.
func (e *Env) Datasets() []*Dataset { return []*Dataset{e.Patient, e.Radio} }

// NewEnv generates the ontology and both collections and builds in-memory
// indexes. Deterministic per (scale, seed).
func NewEnv(s Scale, seed int64) (*Env, error) {
	o, err := ontogen.Generate(ontogen.Config{NumConcepts: s.OntologyConcepts, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("bench: generate ontology: %w", err)
	}
	env := &Env{Scale: s, O: o}
	for _, spec := range []struct {
		profile emrgen.Profile
		eps     float64
		dst     **Dataset
	}{
		{s.Patient, DefaultEpsPatient, &env.Patient},
		{s.Radio, DefaultEpsRadio, &env.Radio},
	} {
		coll, err := emrgen.GenerateConceptSets(o, spec.profile)
		if err != nil {
			return nil, fmt.Errorf("bench: generate %s: %w", spec.profile.Name, err)
		}
		// Section 6.1 filters: depth >= 4, collection frequency <= mu+sigma.
		cfg := index.FilterConfig{MinDepth: 4, CFThreshold: index.MuSigmaCF(coll)}
		filtered, _ := index.ApplyFilter(coll, o, cfg)
		ds := &Dataset{
			Name:       spec.profile.Name,
			Coll:       filtered,
			Engine:     core.NewEngine(o, index.BuildMemInverted(filtered), index.BuildMemForward(filtered), filtered.NumDocs(), nil),
			Eligible:   index.EligibleConcepts(filtered, o, index.FilterConfig{MinDepth: 4}),
			DefaultEps: spec.eps,
		}
		if len(ds.Eligible) == 0 {
			return nil, fmt.Errorf("bench: %s has no eligible query concepts", spec.profile.Name)
		}
		*spec.dst = ds
	}
	return env, nil
}

// RandomQueries draws n queries of nq concepts each from the dataset's
// eligible vocabulary.
func (d *Dataset) RandomQueries(r *rand.Rand, n, nq int) [][]ontology.ConceptID {
	out := make([][]ontology.ConceptID, n)
	for i := range out {
		q := make([]ontology.ConceptID, 0, nq)
		seen := map[ontology.ConceptID]bool{}
		for len(q) < nq && len(seen) < len(d.Eligible) {
			c := d.Eligible[r.Intn(len(d.Eligible))]
			if !seen[c] {
				seen[c] = true
				q = append(q, c)
			}
		}
		out[i] = q
	}
	return out
}

// RandomQueryDocs picks n random non-empty documents from the corpus, as
// the paper does for SDS workloads.
func (d *Dataset) RandomQueryDocs(r *rand.Rand, n int) [][]ontology.ConceptID {
	out := make([][]ontology.ConceptID, 0, n)
	for len(out) < n {
		doc := d.Coll.Doc(corpus.DocID(r.Intn(d.Coll.NumDocs())))
		if len(doc.Concepts) == 0 {
			continue
		}
		out = append(out, doc.Concepts)
	}
	return out
}

// SyntheticDocs draws n random concept sets of the given size from the
// dataset's vocabulary (the Figure 6 "randomly generated query documents").
func (d *Dataset) SyntheticDocs(r *rand.Rand, n, size int) [][]ontology.ConceptID {
	out := make([][]ontology.ConceptID, n)
	for i := range out {
		set := make([]ontology.ConceptID, 0, size)
		seen := map[ontology.ConceptID]bool{}
		for len(set) < size && len(seen) < len(d.Eligible) {
			c := d.Eligible[r.Intn(len(d.Eligible))]
			if !seen[c] {
				seen[c] = true
				set = append(set, c)
			}
		}
		out[i] = set
	}
	return out
}

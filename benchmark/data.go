package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"conceptrank"
	"conceptrank/internal/index"
)

// scale holds every size the benchmark depends on. The benchmark owns
// these numbers: they are not taken from internal/bench, whose scales
// later changes may alter. frozenScale may change only in an issue whose
// purpose is the benchmark, because every recorded baseline is tied to it.
type scale struct {
	// dataSeed generates the ontology and both corpora. It is fixed, not
	// taken from -seed: the data set is the fixture every baseline refers
	// to, while -seed draws the operation lists run against it.
	dataSeed int64
	concepts int
	patient  conceptrank.CorpusProfile
	radio    conceptrank.CorpusProfile

	patientSDSStride int // every n-th PATIENT document is an SDS query
	patientRDS       int // RDS queries of patientNq concepts
	patientNq        int
	traverseOps      int // radio-rds-traverse |L|
	ingestReads      int // radio-zipf-ingest reads; one write per 4 reads
	serveOps         int // serve-zipf-open |L|
	ladderOps        int // ops of the traced layer ladder and replays
	distancePairs    int

	setups       int // cold set-ups per run; setup_s is their median
	patientScans int // ops checked against a full scan, per corpus
	radioScans   int
}

const (
	radioNq       = 5
	defaultK      = 10
	epsPatient    = 0.5
	epsTraverse   = 0.0 // wait for exact bounds: no DRC probe is ever needed
	epsZipf       = 0.9
	zipfS         = 1.1
	serveRate     = 60.0 // req/s, fixed; never derived from a run
	ingestCache   = 64 << 20
	nodeCacheMB   = 16
	opTimeout     = 5 * time.Second
	pageSize      = 5
	addMinLen     = 20
	addMaxLen     = 80
	readsPerWrite = 4 // radio-zipf-ingest
)

var frozenScale = scale{
	dataSeed: 1,
	concepts: 30_000,
	patient: conceptrank.CorpusProfile{
		Name: "PATIENT", NumDocs: 120, ConceptsPerDoc: 150, ConceptsStdDev: 50,
		TokensPerDoc: 1800, Clustering: 0.85, DistinctTargets: 4000, Seed: 101,
	},
	radio: conceptrank.CorpusProfile{
		Name: "RADIO", NumDocs: 1500, ConceptsPerDoc: 60, ConceptsStdDev: 25,
		TokensPerDoc: 270, Clustering: 0.25, DistinctTargets: 4000, Seed: 102,
	},
	patientSDSStride: 4,
	patientRDS:       210,
	patientNq:        10,
	traverseOps:      300,
	ingestReads:      240,
	serveOps:         240,
	ladderOps:        200,
	distancePairs:    10_000,
	setups:           21,
	patientScans:     3,
	radioScans:       1,
}

// smokeScale is the tiny set the harness tests run: same code paths, one
// pass, seconds in total.
var smokeScale = scale{
	dataSeed: 1,
	concepts: 3_000,
	patient: conceptrank.CorpusProfile{
		Name: "PATIENT", NumDocs: 24, ConceptsPerDoc: 40, ConceptsStdDev: 10,
		TokensPerDoc: 400, Clustering: 0.85, DistinctTargets: 600, Seed: 101,
	},
	radio: conceptrank.CorpusProfile{
		Name: "RADIO", NumDocs: 200, ConceptsPerDoc: 20, ConceptsStdDev: 6,
		TokensPerDoc: 100, Clustering: 0.25, DistinctTargets: 600, Seed: 102,
	},
	patientSDSStride: 4,
	patientRDS:       18,
	patientNq:        10,
	traverseOps:      24,
	ingestReads:      24,
	serveOps:         24,
	ladderOps:        12,
	distancePairs:    200,
	setups:           1,
	patientScans:     2,
	radioScans:       2,
}

// dataset is the generated input on disk plus what the op generators need.
type dataset struct {
	sc scale
	o  *conceptrank.Ontology
	// patient and radio are the filtered collections (Section 6.1: depth
	// >= 4, collection frequency <= mu + sigma); the raw ones are on disk
	// too, because filtering is part of set-up.
	patient, radio *conceptrank.Collection
	patientElig    []conceptrank.ConceptID
	radioElig      []conceptrank.ConceptID
	genOntology    time.Duration
	genCorpus      time.Duration
}

func rawFile(name string) string { return name + ".raw.crc" }

// sectionFilter applies the paper's Section 6.1 concept filters.
func sectionFilter(o *conceptrank.Ontology, raw *conceptrank.Collection) *conceptrank.Collection {
	f, _ := index.ApplyFilter(raw, o, index.FilterConfig{MinDepth: 4, CFThreshold: index.MuSigmaCF(raw)})
	return f
}

// generate builds the data set and writes it to dir: ontology.cro, the raw
// collections (what in-process set-up loads and filters) and the filtered
// ones under the names crserve reads. Generation is not set-up; its times
// are layer metrics.
func generate(dir string, sc scale) (*dataset, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d := &dataset{sc: sc}
	t := time.Now()
	o, err := conceptrank.GenerateOntology(conceptrank.OntologyConfig{NumConcepts: sc.concepts, Seed: sc.dataSeed})
	if err != nil {
		return nil, fmt.Errorf("generate ontology: %w", err)
	}
	d.genOntology = time.Since(t)
	d.o = o
	if err := conceptrank.SaveOntology(filepath.Join(dir, conceptrank.OntologyFile), o); err != nil {
		return nil, err
	}
	for _, p := range []struct {
		prof conceptrank.CorpusProfile
		coll **conceptrank.Collection
		elig *[]conceptrank.ConceptID
	}{{sc.patient, &d.patient, &d.patientElig}, {sc.radio, &d.radio, &d.radioElig}} {
		t = time.Now()
		raw, err := conceptrank.GenerateCorpus(o, p.prof)
		if err != nil {
			return nil, fmt.Errorf("generate %s: %w", p.prof.Name, err)
		}
		d.genCorpus += time.Since(t)
		filtered := sectionFilter(o, raw)
		if err := conceptrank.SaveCollection(filepath.Join(dir, rawFile(p.prof.Name)), raw); err != nil {
			return nil, err
		}
		if err := conceptrank.SaveCollection(filepath.Join(dir, p.prof.Name+".crc"), filtered); err != nil {
			return nil, err
		}
		*p.coll = filtered
		*p.elig = index.EligibleConcepts(filtered, o, index.FilterConfig{MinDepth: 4})
		if len(*p.elig) < sc.patientNq {
			return nil, fmt.Errorf("%s has only %d eligible query concepts", p.prof.Name, len(*p.elig))
		}
	}
	return d, nil
}

// loadFiltered is the in-process part of set-up every workload shares:
// files on disk to an ontology and a filtered collection.
func loadFiltered(dir, corpus string) (*conceptrank.Ontology, *conceptrank.Collection, error) {
	o, err := conceptrank.LoadOntology(filepath.Join(dir, conceptrank.OntologyFile))
	if err != nil {
		return nil, nil, err
	}
	raw, err := conceptrank.LoadCollection(filepath.Join(dir, rawFile(corpus)))
	if err != nil {
		return nil, nil, err
	}
	return o, sectionFilter(o, raw), nil
}

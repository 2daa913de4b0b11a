// Clinical-trial cohort search (the paper's motivating RDS scenario): a
// researcher holds a set of eligibility concepts — symptoms and past
// treatments — and wants the most relevant patient records. Records that
// do not contain the exact criteria but contain ontologically close
// concepts still qualify; extra concepts in a record do not count against
// it (that is the asymmetry that distinguishes RDS from SDS).
//
// The example generates a synthetic RADIO-like report collection, picks
// trial criteria from the vocabulary, and compares kNDS against the
// full-scan baseline.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"conceptrank"
)

func main() {
	fmt.Println("generating ontology and report collection...")
	o, err := conceptrank.GenerateOntology(conceptrank.OntologyConfig{NumConcepts: 12_000, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	coll, err := conceptrank.GenerateCorpus(o, conceptrank.CorpusProfile{
		Name: "REPORTS", NumDocs: 1500, ConceptsPerDoc: 35, ConceptsStdDev: 12,
		TokensPerDoc: 280, Clustering: 0.3, DistinctTargets: 3000, Seed: 8,
	})
	if err != nil {
		log.Fatal(err)
	}
	eng := conceptrank.NewEngine(o, coll)

	// Trial eligibility criteria: five concepts taken from a real record so
	// the cohort is non-trivial, then perturbed (drop two, keep three) to
	// model criteria that no record matches verbatim.
	seedDoc := coll.Doc(42).Concepts
	criteria := seedDoc[:3]
	fmt.Println("\ntrial criteria:")
	for _, c := range criteria {
		fmt.Printf("  - %s (depth %d)\n", o.Name(c), o.Depth(c))
	}

	start := time.Now()
	results, m, err := eng.RDSContext(context.Background(), criteria, conceptrank.Options{K: 10, ErrorThreshold: 0.9})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntop-10 candidate records (kNDS, %v):\n", time.Since(start).Round(time.Microsecond))
	for i, r := range results {
		fmt.Printf("  %2d. %-16s distance %.0f  (%d concepts in record)\n",
			i+1, coll.Doc(r.Doc).Name, r.Distance, len(coll.Doc(r.Doc).Concepts))
	}
	fmt.Printf("\nkNDS examined %d of %d records (%d discovered); %d DRC probes\n",
		m.DocsExamined, coll.NumDocs(), m.DocsDiscovered, m.DRCCalls)

	scan, bm, err := eng.FullScanRDS(criteria, conceptrank.WithK(10))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("baseline full scan: %v (kNDS: %v) — %.0fx speedup\n",
		bm.TotalTime.Round(time.Microsecond), m.TotalTime.Round(time.Microsecond),
		float64(bm.TotalTime)/float64(m.TotalTime))
	for i := range results {
		if results[i].Distance != scan[i].Distance {
			log.Fatalf("rank %d disagrees with baseline: %v vs %v", i, results[i], scan[i])
		}
	}
	fmt.Println("kNDS results verified against the baseline.")
}

// Patient-similarity search (the paper's motivating SDS scenario): a
// physician wants patients with clinical histories similar to the patient
// at the point of care. The distance is symmetric — unlike RDS, concepts
// present in only one of the two records count in both directions.
//
// The example builds a dense PATIENT-like collection, runs SDS with
// progressive result emission (the paper's optimization 4: results are
// reported as soon as they are provably in the top-k, before the search
// finishes), and shows the time breakdown the paper plots in Figure 9.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"conceptrank"
)

func main() {
	fmt.Println("generating ontology and patient records...")
	o, err := conceptrank.GenerateOntology(conceptrank.OntologyConfig{NumConcepts: 10_000, Seed: 17})
	if err != nil {
		log.Fatal(err)
	}
	coll, err := conceptrank.GenerateCorpus(o, conceptrank.CorpusProfile{
		Name: "PATIENT", NumDocs: 250, ConceptsPerDoc: 180, ConceptsStdDev: 60,
		TokensPerDoc: 2000, Clustering: 0.85, DistinctTargets: 3500, Seed: 18,
	})
	if err != nil {
		log.Fatal(err)
	}
	eng := conceptrank.NewEngine(o, coll)

	patient := conceptrank.DocID(7)
	record := coll.Doc(patient)
	fmt.Printf("\nquery patient: %s (%d concepts)\n", record.Name, len(record.Concepts))

	fmt.Println("\nprogressively emitted results (available before the search completes):")
	var progressive []conceptrank.Result
	opts := conceptrank.Options{
		K:              5,
		ErrorThreshold: 0.5,
		Progressive: func(r conceptrank.Result) {
			progressive = append(progressive, r)
			fmt.Printf("  -> %s confirmed in top-5 (distance %.4f)\n", coll.Doc(r.Doc).Name, r.Distance)
		},
	}
	start := time.Now()
	results, m, err := eng.SDSContext(context.Background(), record.Concepts, opts)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	fmt.Println("\nfinal top-5 similar patients:")
	for i, r := range results {
		marker := ""
		if r.Doc == patient {
			marker = "  (the query patient itself, distance 0)"
		}
		fmt.Printf("  %d. %-16s distance %.4f%s\n", i+1, coll.Doc(r.Doc).Name, r.Distance, marker)
	}
	fmt.Printf("\ntiming: total %v = distance calc %v + traversal %v (+ %v io)\n",
		elapsed.Round(time.Microsecond), m.DistanceTime.Round(time.Microsecond),
		m.TraversalTime.Round(time.Microsecond), m.IOTime.Round(time.Microsecond))
	fmt.Printf("examined %d of %d patients; %d of %d examined made the top-5 (%.0f%%)\n",
		m.DocsExamined, coll.NumDocs(), m.ResultCount, m.DocsExamined, 100*m.ExaminedPrecision())
	if len(progressive) != len(results) {
		log.Fatalf("progressive emission incomplete: %d of %d", len(progressive), len(results))
	}
}

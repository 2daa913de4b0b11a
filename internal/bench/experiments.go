package bench

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"conceptrank/internal/core"
	"conceptrank/internal/distance"
	"conceptrank/internal/drc"
	"conceptrank/internal/ontology"
)

// Table3 reproduces the corpus statistics table.
func Table3(env *Env) *Table {
	t := &Table{
		ID:     "table3",
		Title:  "Document corpus statistics (paper: PATIENT 983/16811/8184/706.6; RADIO 12373/8629/273.7/125.3)",
		Header: []string{"", "PATIENT", "RADIO"},
	}
	ps := env.Patient.Coll.ComputeStats()
	rs := env.Radio.Coll.ComputeStats()
	t.Add("Total Documents", itoa(ps.TotalDocuments), itoa(rs.TotalDocuments))
	t.Add("Total Concepts", itoa(ps.DistinctConcepts), itoa(rs.DistinctConcepts))
	t.Add("Avg. Tokens/Document", f2(ps.AvgTokensPerDoc), f2(rs.AvgTokensPerDoc))
	t.Add("Avg. Concepts/Document", f2(ps.AvgConceptsPerDoc), f2(rs.AvgConceptsPerDoc))
	return t
}

// OntoStats reproduces the Section 6.1 ontology statistics paragraph.
func OntoStats(env *Env) *Table {
	t := &Table{
		ID:     "ontostats",
		Title:  "Ontology statistics (paper SNOMED-CT: 296433 concepts, 4.53 avg children, 9.78 paths/concept, path length 14.1)",
		Header: []string{"metric", "value"},
	}
	s := env.O.ComputeStats()
	t.Add("concepts", itoa(s.Concepts))
	t.Add("is-a edges", itoa(s.Edges))
	t.Add("avg children (internal nodes)", f2(s.AvgChildrenInternal))
	t.Add("avg paths per concept", f2(s.AvgPathsPerConcept))
	t.Add("avg path length", f2(s.AvgPathLen))
	t.Add("max depth", itoa(s.MaxDepth))
	return t
}

// Fig6 measures document-document distance calculation time (SDS
// semantics) against query size: the BL pairwise baseline vs DRC, on both
// collections.
func Fig6(env *Env) []*Table {
	var out []*Table
	for _, ds := range env.Datasets() {
		t := &Table{
			ID:     "fig6-" + ds.Name,
			Title:  fmt.Sprintf("Distance calculation time vs query size nq, SDS (%s): BL grows ~quadratically, DRC ~n log n", ds.Name),
			Header: []string{"nq", "BL ms/op", "DRC ms/op"},
		}
		r := rand.New(rand.NewSource(7))
		var blTimes, drcTimes []float64
		for _, nq := range env.Scale.DistSizes {
			queryDocs := ds.SyntheticDocs(r, env.Scale.DistPairs, nq)
			partners := ds.RandomQueryDocs(r, env.Scale.DistPairs)

			bl := distance.NewBL(env.O, 0)
			start := time.Now()
			for i, qd := range queryDocs {
				_ = bl.DocDoc(partners[i], qd)
			}
			blAvg := time.Since(start) / time.Duration(len(queryDocs))

			// One cold D-Radix construction per pair: the query side is
			// prepared inside the timed loop and every pair gets a fresh
			// scratch, so nothing carries over between pairs.
			start = time.Now()
			for i, qd := range queryDocs {
				_, _ = drc.PrepareCached(env.O, qd, 0, nil).DocDocScratch(partners[i], new(drc.Scratch))
			}
			drcAvg := time.Since(start) / time.Duration(len(queryDocs))

			blTimes = append(blTimes, float64(blAvg))
			drcTimes = append(drcTimes, float64(drcAvg))
			t.Add(itoa(nq), ms(blAvg), ms(drcAvg))
		}
		// Shape check: growth factor of BL vs DRC across the sweep.
		n := len(env.Scale.DistSizes)
		if n >= 2 && drcTimes[0] > 0 && blTimes[0] > 0 {
			t.Note("growth first->last: BL %.1fx, DRC %.1fx (query size grew %.1fx)",
				blTimes[n-1]/blTimes[0], drcTimes[n-1]/drcTimes[0],
				float64(env.Scale.DistSizes[n-1])/float64(env.Scale.DistSizes[0]))
		}
		out = append(out, t)
	}
	return out
}

// runKNDS executes a query workload and averages metrics.
type avgMetrics struct {
	Total, Traversal, Distance, IO time.Duration
	DRCCalls, Examined, Results    float64
}

func runWorkload(eng *core.Engine, sds bool, queries [][]ontology.ConceptID, opts core.Options) (avgMetrics, error) {
	var sum avgMetrics
	for _, q := range queries {
		var m *core.Metrics
		var err error
		if sds {
			_, m, err = eng.SDSContext(context.Background(), q, opts)
		} else {
			_, m, err = eng.RDSContext(context.Background(), q, opts)
		}
		if err != nil {
			return sum, err
		}
		sum.Total += m.TotalTime
		sum.Traversal += m.TraversalTime
		sum.Distance += m.DistanceTime
		sum.IO += m.IOTime
		sum.DRCCalls += float64(m.DRCCalls)
		sum.Examined += float64(m.DocsExamined)
		sum.Results += float64(m.ResultCount)
	}
	n := time.Duration(len(queries))
	sum.Total /= n
	sum.Traversal /= n
	sum.Distance /= n
	sum.IO /= n
	sum.DRCCalls /= float64(len(queries))
	sum.Examined /= float64(len(queries))
	sum.Results /= float64(len(queries))
	return sum, nil
}

// Fig7 sweeps the error threshold ε_θ: RDS on PATIENT (nq 3, 5), RDS on
// RADIO (nq 3, 5, 10), SDS on both, plus the optimal-ε_θ-vs-nq panel (f).
func Fig7(env *Env) ([]*Table, error) {
	var out []*Table
	type panel struct {
		id  string
		ds  *Dataset
		sds bool
		nq  int
	}
	panels := []panel{
		{"fig7a", env.Patient, false, 3},
		{"fig7b", env.Patient, false, 5},
		{"fig7c", env.Radio, false, 3},
		{"fig7d", env.Radio, false, 5},
		{"fig7e", env.Radio, false, 10},
		{"fig7g", env.Patient, true, 0},
		{"fig7h", env.Radio, true, 0},
	}
	optimalEps := map[int]float64{} // nq -> best eps on RADIO RDS (fig7f)

	for _, p := range panels {
		kind := "RDS"
		if p.sds {
			kind = "SDS"
		}
		title := fmt.Sprintf("Query time vs ε_θ for %s (%s)", kind, p.ds.Name)
		if !p.sds {
			title += fmt.Sprintf(", nq=%d", p.nq)
		}
		t := &Table{
			ID:     p.id,
			Title:  title,
			Header: []string{"eps", "total ms", "distance ms", "traversal ms", "DRC calls", "examined"},
		}
		r := rand.New(rand.NewSource(13))
		var queries [][]ontology.ConceptID
		if p.sds {
			queries = p.ds.RandomQueryDocs(r, env.Scale.RankQueries)
		} else {
			queries = p.ds.RandomQueries(r, env.Scale.RankQueries, p.nq)
		}
		bestEps, bestTime := 0.0, math.Inf(1)
		for _, eps := range ErrorThresholds {
			m, err := runWorkload(p.ds.Engine, p.sds, queries, core.Options{K: DefaultK, ErrorThreshold: eps})
			if err != nil {
				return nil, err
			}
			t.Add(f2(eps), ms(m.Total), ms(m.Distance), ms(m.Traversal), f2(m.DRCCalls), f2(m.Examined))
			if float64(m.Total) < bestTime {
				bestTime = float64(m.Total)
				bestEps = eps
			}
		}
		t.Note("fastest ε_θ = %.2f", bestEps)
		if p.ds == env.Radio && !p.sds {
			optimalEps[p.nq] = bestEps
		}
		out = append(out, t)
	}

	// fig7f: optimal error threshold vs query size for RDS on RADIO.
	f := &Table{
		ID:     "fig7f",
		Title:  "Optimal ε_θ vs nq for RDS (RADIO) — grows with query size in the paper",
		Header: []string{"nq", "optimal eps"},
	}
	for _, nq := range []int{3, 5, 10} {
		f.Add(itoa(nq), f2(optimalEps[nq]))
	}
	out = append(out, f)
	return out, nil
}

// Fig8 compares kNDS against the full-scan baseline across query sizes for
// RDS on both collections.
func Fig8(env *Env) ([]*Table, error) {
	var out []*Table
	for _, ds := range env.Datasets() {
		t := &Table{
			ID:     "fig8-" + ds.Name,
			Title:  fmt.Sprintf("RDS query time vs query size nq (%s): kNDS vs full-scan baseline", ds.Name),
			Header: []string{"nq", "kNDS ms", "baseline ms", "speedup"},
		}
		r := rand.New(rand.NewSource(17))
		for _, nq := range QuerySizes {
			queries := ds.RandomQueries(r, env.Scale.RankQueries, nq)
			knds, err := runWorkload(ds.Engine, false, queries, core.Options{K: DefaultK, ErrorThreshold: ds.DefaultEps})
			if err != nil {
				return nil, err
			}
			var baseTotal time.Duration
			for _, q := range queries {
				_, m, err := ds.Engine.FullScanRDSContext(context.Background(), q, core.Options{K: DefaultK})
				if err != nil {
					return nil, err
				}
				baseTotal += m.TotalTime
			}
			base := baseTotal / time.Duration(len(queries))
			t.Add(itoa(nq), ms(knds.Total), ms(base), f2(float64(base)/float64(knds.Total)))
		}
		out = append(out, t)
	}
	return out, nil
}

// Fig9 compares kNDS against the baseline across k for both query types
// and both collections. The baseline computes every document's distance,
// so its cost is measured once per workload and reused across k (it is
// k-independent, which is the published observation).
func Fig9(env *Env) ([]*Table, error) {
	var out []*Table
	for _, ds := range env.Datasets() {
		for _, sds := range []bool{false, true} {
			kind := "RDS"
			if sds {
				kind = "SDS"
			}
			t := &Table{
				ID:     fmt.Sprintf("fig9-%s-%s", kind, ds.Name),
				Title:  fmt.Sprintf("%s query time vs k (%s): kNDS vs full-scan baseline", kind, ds.Name),
				Header: []string{"k", "kNDS ms", "baseline ms", "speedup", "examined"},
			}
			r := rand.New(rand.NewSource(19))
			var queries [][]ontology.ConceptID
			if sds {
				queries = ds.RandomQueryDocs(r, env.Scale.RankQueries)
			} else {
				queries = ds.RandomQueries(r, env.Scale.RankQueries, DefaultNq)
			}
			var baseTotal time.Duration
			for _, q := range queries {
				var m *core.Metrics
				var err error
				if sds {
					_, m, err = ds.Engine.FullScanSDSContext(context.Background(), q, core.Options{K: DefaultK})
				} else {
					_, m, err = ds.Engine.FullScanRDSContext(context.Background(), q, core.Options{K: DefaultK})
				}
				if err != nil {
					return nil, err
				}
				baseTotal += m.TotalTime
			}
			base := baseTotal / time.Duration(len(queries))
			for _, k := range Ks {
				knds, err := runWorkload(ds.Engine, sds, queries, core.Options{K: k, ErrorThreshold: ds.DefaultEps})
				if err != nil {
					return nil, err
				}
				t.Add(itoa(k), ms(knds.Total), ms(base), f2(float64(base)/float64(knds.Total)), f2(knds.Examined))
			}
			t.Note("baseline is k-independent by construction (full scan)")
			out = append(out, t)
		}
	}
	return out, nil
}

// Examined reports the Section 6.2 examined-documents precision: the share
// of documents whose exact distance was computed that end up in the top-k.
func Examined(env *Env) (*Table, error) {
	t := &Table{
		ID:     "examined",
		Title:  "Examined-document precision at defaults (paper: 99% RDS/PATIENT, >60% SDS)",
		Header: []string{"dataset", "query type", "examined/query", "in top-k %"},
	}
	for _, ds := range env.Datasets() {
		for _, sds := range []bool{false, true} {
			r := rand.New(rand.NewSource(23))
			var queries [][]ontology.ConceptID
			kind := "RDS"
			if sds {
				kind = "SDS"
				queries = ds.RandomQueryDocs(r, env.Scale.RankQueries)
			} else {
				queries = ds.RandomQueries(r, env.Scale.RankQueries, DefaultNq)
			}
			m, err := runWorkload(ds.Engine, sds, queries, core.Options{K: DefaultK, ErrorThreshold: ds.DefaultEps})
			if err != nil {
				return nil, err
			}
			precision := 0.0
			if m.Examined > 0 {
				precision = 100 * m.Results / m.Examined
			}
			t.Add(ds.Name, kind, f2(m.Examined), f2(precision))
		}
	}
	return t, nil
}

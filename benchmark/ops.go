package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"

	"conceptrank"
)

type opKind uint8

const (
	opSDS   opKind = iota // similar documents to a corpus document
	opRDS                 // relevant documents for a concept query
	opAdd                 // AddDocument (radio-zipf-ingest)
	opPaged               // RDS as two pages: page=5, then cursor=TOK&n=5
)

// op is one operation of a workload's fixed list. A run replays the list
// unchanged in every pass, so passes differ only by machine noise.
type op struct {
	Kind     opKind
	Concepts []conceptrank.ConceptID // query, query document, or new document
	Eps      float64
}

func (o *op) isRead() bool { return o.Kind != opAdd }

func (o *op) options() conceptrank.Options {
	// Workers 1 everywhere: counters repeat exactly and speculation does
	// not oversubscribe the two cores.
	return conceptrank.Options{K: defaultK, ErrorThreshold: o.Eps, Workers: 1}
}

// encodeOps serializes an op list; same seed must give the same bytes.
func encodeOps(ops []op) []byte {
	var b []byte
	for i := range ops {
		o := &ops[i]
		b = append(b, byte(o.Kind))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(o.Eps))
		b = binary.LittleEndian.AppendUint32(b, uint32(len(o.Concepts)))
		for _, c := range o.Concepts {
			b = binary.LittleEndian.AppendUint32(b, uint32(c))
		}
	}
	return b
}

// checksum folds a ranking into one number: document IDs and the bits of
// their distances, in rank order. Two answers agree iff their rankings are
// bitwise identical (up to hash collisions).
func checksum(res []conceptrank.Result) uint64 {
	h := fnv.New64a()
	var buf [12]byte
	for _, r := range res {
		binary.LittleEndian.PutUint32(buf[:4], uint32(r.Doc))
		binary.LittleEndian.PutUint64(buf[4:], math.Float64bits(r.Distance))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// distinct draws n different concepts with next.
func distinct(n int, next func() conceptrank.ConceptID) []conceptrank.ConceptID {
	seen := make(map[conceptrank.ConceptID]bool, n)
	q := make([]conceptrank.ConceptID, 0, n)
	for len(q) < n {
		if c := next(); !seen[c] {
			seen[c] = true
			q = append(q, c)
		}
	}
	return q
}

func uniform(r *rand.Rand, pool []conceptrank.ConceptID) func() conceptrank.ConceptID {
	return func() conceptrank.ConceptID { return pool[r.Intn(len(pool))] }
}

// zipfConcepts draws RADIO concepts Zipf(s) over a ranking of the eligible
// ones, so a few concepts recur across queries and their seed vectors are
// worth caching. Which concepts are the popular ones is a property of the
// data set and comes from its seed; r draws the requests. Popular concepts
// differ several-fold in what a query on them costs, so a ranking per run
// would make every run a different workload.
func zipfConcepts(r *rand.Rand, d *dataset) func() conceptrank.ConceptID {
	ranked := append([]conceptrank.ConceptID(nil), d.radioElig...)
	rand.New(rand.NewSource(d.sc.dataSeed)).Shuffle(len(ranked), func(i, j int) { ranked[i], ranked[j] = ranked[j], ranked[i] })
	z := rand.NewZipf(r, zipfS, 1, uint64(len(ranked)-1))
	return func() conceptrank.ConceptID { return ranked[z.Uint64()] }
}

// patientOps: an SDS query for every stride-th PATIENT document plus RDS
// queries of patientNq concepts, in seeded order. The SDS set does not
// depend on the seed (its order does): SDS cost varies several-fold from
// document to document, and with three times as many RDS as SDS queries
// query_p50_ms sits inside the RDS group and query_p95_ms inside the SDS
// group instead of on the edge between them.
func patientOps(d *dataset, seed int64) []op {
	r := rand.New(rand.NewSource(seed))
	var ops []op
	for id := 0; id < d.patient.NumDocs(); id += d.sc.patientSDSStride {
		if doc := d.patient.Doc(conceptrank.DocID(id)).Concepts; len(doc) > 0 {
			ops = append(ops, op{Kind: opSDS, Concepts: doc, Eps: epsPatient})
		}
	}
	next := uniform(r, d.patientElig)
	for i := 0; i < d.sc.patientRDS; i++ {
		ops = append(ops, op{Kind: opRDS, Concepts: distinct(d.sc.patientNq, next), Eps: epsPatient})
	}
	r.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// traverseOps: uniform RDS queries on RADIO at eps 0.
func traverseOps(d *dataset, seed int64, n int, eps float64) []op {
	r := rand.New(rand.NewSource(seed))
	next := uniform(r, d.radioElig)
	ops := make([]op, n)
	for i := range ops {
		ops[i] = op{Kind: opRDS, Concepts: distinct(radioNq, next), Eps: eps}
	}
	return ops
}

// ingestOps: Zipf reads with one AddDocument after every fourth read.
func ingestOps(d *dataset, seed int64) []op {
	r := rand.New(rand.NewSource(seed))
	hot := zipfConcepts(r, d)
	any := uniform(r, d.radioElig)
	var ops []op
	for i := 0; i < d.sc.ingestReads; i++ {
		ops = append(ops, op{Kind: opRDS, Concepts: distinct(radioNq, hot), Eps: epsZipf})
		if i%readsPerWrite == readsPerWrite-1 {
			n := addMinLen + r.Intn(addMaxLen-addMinLen+1)
			ops = append(ops, op{Kind: opAdd, Concepts: distinct(n, any)})
		}
	}
	return ops
}

// pagedEvery makes every n-th request of serve-zipf-open a paged one, 10%
// of them, so that query_p95_ms sits inside the paged group and not on the
// edge between the two groups. A paged request leaves its cursor parked on
// the coordinator and on both nodes until the two-minute TTL, and at 256
// parked cursors a node refuses every query ("cursor store full"). At
// serveRate that is 6 cursors a second, about 150 by the end of a run.
const pagedEvery = 10

// serveOps: Zipf RDS requests, every pagedEvery-th one paged.
func serveOps(d *dataset, seed int64) []op {
	r := rand.New(rand.NewSource(seed))
	hot := zipfConcepts(r, d)
	ops := make([]op, d.sc.serveOps)
	for i := range ops {
		kind := opRDS
		if i%pagedEvery == pagedEvery-1 {
			kind = opPaged
		}
		ops[i] = op{Kind: kind, Concepts: distinct(radioNq, hot), Eps: epsZipf}
	}
	return ops
}

// schedule returns the due time of each of n requests, in seconds from the
// start of a pass: seeded exponential gaps (a Poisson arrival process, as
// independent users make), scaled so that the last request is due at
// n/rate whatever the seed. The rate is then the same in every run and
// only the bunching of arrivals differs.
func schedule(seed int64, n int, rate float64) []float64 {
	r := rand.New(rand.NewSource(seed))
	due := make([]float64, n)
	t := 0.0
	for i := range due {
		t += r.ExpFloat64()
		due[i] = t
	}
	for i := range due {
		due[i] *= float64(n) / rate / t
	}
	return due
}

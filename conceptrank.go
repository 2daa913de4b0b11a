// Package conceptrank is a library for efficient concept-based document
// ranking over ontology-annotated document collections, reproducing
// Arvanitis, Wiley and Hristidis, "Efficient Concept-based Document
// Ranking" (EDBT 2014).
//
// Documents are sets of concepts drawn from a rooted is-a DAG ontology
// (SNOMED-CT-like). The library answers two query types:
//
//   - RDS (Relevant Document Search): the k documents minimizing the
//     document-query distance — the sum over query concepts of the shortest
//     valid-path distance to the document's nearest concept.
//   - SDS (Similar Document Search): the k documents minimizing the
//     symmetric document-document distance of Melton et al.
//
// Both run on the kNDS branch-and-bound algorithm with DRC (D-Radix
// Construction) as its O(n log n) distance component. The package also
// bundles the substrates a self-contained deployment needs: a calibrated
// synthetic ontology generator, synthetic EMR corpus generators, a
// MetaMap-like concept-extraction pipeline (tokenizer, abbreviation
// expansion, negation detection, dictionary matching), disk-backed indexes,
// and baseline implementations (full scan, pairwise BL, Threshold
// Algorithm) for comparison.
//
// # Distance measures
//
// The paper's Rada shortest-valid-path distance is the default, but the
// concept-pair distance is pluggable: set Options.Measure (or pass
// WithMeasure to a full scan) with a DistanceMeasure — RadaMeasure,
// NewDensityMeasure or NewEnhancedMeasure, or any implementation of the
// contract documented in internal/measure — and every entry point
// (RDSContext/SDSContext, cursors, full scans, sharded engines) ranks
// under that measure
// through the same pruning, cache and telemetry infrastructure.
// Rankings stay exact for every conforming measure; cache entries are
// keyed per measure, so warm results never cross measures.
//
// # Distance helpers
//
// The package-level distance helpers (ConceptDistance, DocQueryDistance,
// DocDocDistance) share one error convention: they return a bare value,
// and inputs with no valid connecting path (or a D-Radix construction
// failure) yield the distance sentinel float64(MaxInt32) rather than an
// error. No helper returns an error, and none panics: a concept outside
// the ontology yields the sentinel too. DocQueryDistance and
// DocDocDistance count a repeated concept once, as the engines do, and
// return the sentinel for an empty side.
//
// # Quick start
//
//	o, _ := conceptrank.GenerateOntology(conceptrank.OntologyConfig{NumConcepts: 10000, Seed: 1})
//	coll, _ := conceptrank.GenerateCorpus(o, conceptrank.RadioProfile(0.05, 2))
//	eng := conceptrank.NewEngine(o, coll)
//	ctx := context.Background()
//	results, metrics, _ := eng.RDSContext(ctx, []conceptrank.ConceptID{42, 99}, conceptrank.Options{K: 10})
//
// Every query takes a context. An Engine is safe for concurrent queries:
// many queries at once are as many goroutines calling RDSContext or
// SDSContext.
//
// See examples/ for complete programs and DESIGN.md for the paper mapping.
package conceptrank

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"conceptrank/internal/cache"
	"conceptrank/internal/core"
	"conceptrank/internal/corpus"
	"conceptrank/internal/distance"
	"conceptrank/internal/drc"
	"conceptrank/internal/emrgen"
	"conceptrank/internal/index"
	"conceptrank/internal/measure"
	"conceptrank/internal/nlp"
	"conceptrank/internal/ontogen"
	"conceptrank/internal/ontology"
	"conceptrank/internal/store"
	"conceptrank/internal/telemetry"
)

// Core identifiers and data types, re-exported from the internal packages.
type (
	// ConceptID identifies a concept within an Ontology.
	ConceptID = ontology.ConceptID
	// DocID identifies a document within a Collection.
	DocID = corpus.DocID
	// Ontology is a rooted is-a concept DAG with Dewey addressing.
	Ontology = ontology.Ontology
	// OntologyBuilder assembles an Ontology by hand.
	OntologyBuilder = ontology.Builder
	// OntologyStats aggregates structural ontology statistics.
	OntologyStats = ontology.Stats
	// Collection is a set of concept-annotated documents.
	Collection = corpus.Collection
	// Document is one document of a Collection.
	Document = corpus.Document
	// CorpusStats aggregates collection statistics (the paper's Table 3).
	CorpusStats = corpus.Stats
	// Result is one ranked document.
	Result = core.Result
	// PairResult is one ranked document pair (canonical: A < B) returned
	// by the all-pairs join TopKPairs.
	PairResult = core.PairResult
	// PairOptions configures a TopKPairs join (k, error threshold, and
	// Workers: above 1, the join splits into that many document ranges
	// joined concurrently).
	PairOptions = core.PairOptions
	// PairMetrics describes one TopKPairs join: seed/join times, the pair
	// universe, discovered/examined/pruned counts, levels, join tasks
	// and cancellations.
	PairMetrics = core.PairMetrics
	// Metrics reports where a query spent its time.
	Metrics = core.Metrics
	// Stage identifies one pipeline stage for resource attribution
	// (StagePlan .. StageMerge); Metrics.Stages is indexed by it.
	Stage = core.Stage
	// StageStat is one stage's account within one query: its wall time.
	StageStat = core.StageStat
	// StageStats is a query's per-stage breakdown (Metrics.Stages).
	StageStats = core.StageStats
	// Options configures a query (k, error threshold, queue limit; Workers
	// partitions full scans only — kNDS itself is serial, see "Why kNDS
	// is serial" in DESIGN.md).
	Options = core.Options
	// Cursor is a resumable, steppable kNDS query: open with
	// Engine.OpenRDS/OpenSDS, page with Next, extend the ranking with
	// GrowK (bitwise identical to a fresh larger-k query), Close when
	// done. See DESIGN.md, "Query pipeline".
	Cursor = core.Cursor
	// TraceEvent is one typed span event observed by a per-query Trace
	// hook (BFS waves, DRC probes, bound movement, shard fan-out).
	TraceEvent = core.TraceEvent
	// TraceKind enumerates the span event types.
	TraceKind = core.TraceKind
	// TraceFunc receives span events; install with Options.Trace.
	// Delivery is sequential on the query's goroutine.
	TraceFunc = core.TraceFunc
	// Telemetry bundles the runtime metrics registry, per-query stats and
	// the slow-query log; attach one to an engine with EnableTelemetry and
	// expose it with its Handler or Serve methods.
	Telemetry = telemetry.Sink
	// Cache is the shared semantic-distance cache: per-concept Ddc seed
	// vectors (and their per-measure counterparts), LRU-evicted under a
	// byte budget, with generation-based invalidation for growing
	// corpora. Attach one to an engine with EnableCache; rankings are
	// bitwise identical with and without it. Safe for concurrent use and
	// shareable across engines.
	Cache = cache.Cache
	// CacheConfig parameterizes NewCache (byte budget, shard count,
	// admission threshold). The zero value is usable: 64 MiB, 16 shards,
	// admit on first miss.
	CacheConfig = cache.Config
	// CacheStats is a point-in-time snapshot of a Cache's counters.
	CacheStats = cache.Stats
	// TelemetryConfig parameterizes NewTelemetry (prefix, slow-query
	// threshold and capacity). The zero value is usable.
	TelemetryConfig = telemetry.Config
	// OntologyConfig parameterizes the synthetic ontology generator.
	OntologyConfig = ontogen.Config
	// CorpusProfile parameterizes the synthetic EMR corpus generator.
	CorpusProfile = emrgen.Profile
	// Annotator extracts ontology concepts from clinical text (tokenizer,
	// abbreviation expansion, negation detection, dictionary matching).
	Annotator = nlp.Matcher
	// Mention is one recognized concept occurrence in text.
	Mention = nlp.Mention
	// DistanceMeasure is a pluggable concept-pair distance (Options.Measure,
	// or WithMeasure on a full scan). Implementations must satisfy the
	// symmetry, identity and monotone level-bound contract documented in
	// internal/measure; the built-ins are RadaMeasure, NewDensityMeasure
	// and NewEnhancedMeasure.
	DistanceMeasure = measure.Measure
)

// RadaMeasure returns the paper's default shortest-valid-path distance as
// an explicit DistanceMeasure. A nil Options.Measure selects the same
// distance on its DRC fast path; passing RadaMeasure() routes it through
// the generic measure machinery instead (rankings are bitwise identical —
// the equivalence grids in internal/core pin the two paths).
func RadaMeasure() DistanceMeasure { return measure.Rada() }

// NewDensityMeasure returns the density-compensated path distance (after
// Zhu et al.): path hops through dense ontology regions count as smaller
// semantic steps. The measure precomputes per-concept density factors of o
// and must only be used with engines over the same ontology.
func NewDensityMeasure(o *Ontology) DistanceMeasure { return measure.NewDensity(o) }

// NewEnhancedMeasure returns the depth-weighted distance (after Daoui et
// al.): the same path length separates deep, specific concepts less than
// shallow, general ones. Precomputes per-concept depths of o; use only
// with engines over the same ontology.
func NewEnhancedMeasure(o *Ontology) DistanceMeasure { return measure.NewEnhanced(o) }

// Option is one parameter of a full scan (FullScanRDS/FullScanSDS): the
// scan has no traversal to tune, so its options are the three it reads.
type Option func(*Options)

// WithK sets the number of results (Options.K, default 10).
func WithK(k int) Option { return func(o *Options) { o.K = k } }

// WithWorkers sets the full-scan partition width (Options.Workers).
func WithWorkers(n int) Option { return func(o *Options) { o.Workers = n } }

// WithMeasure selects the semantic distance measure of the scan
// (Options.Measure). nil — the default — is the paper's Rada distance.
// Telemetry labels scans per measure (e.g. an RDS scan under the density
// measure records as "scan_rds_density").
func WithMeasure(m DistanceMeasure) Option { return func(o *Options) { o.Measure = m } }

// Pipeline stages of the per-query resource attribution (Metrics.Stages),
// re-exported from the engine.
const (
	StagePlan    = core.StagePlan
	StageSeed    = core.StageSeed
	StageWave    = core.StageWave
	StageBound   = core.StageBound
	StageExam    = core.StageExam
	StageCollect = core.StageCollect
	StageMerge   = core.StageMerge
	// NumStages is the length of Metrics.Stages.
	NumStages = core.NumStages
)

// Span event kinds a Trace hook can observe, re-exported from the engine.
const (
	TraceWaveStart  = core.TraceWaveStart
	TraceWaveEnd    = core.TraceWaveEnd
	TraceForcedExam = core.TraceForcedExam
	TraceDRCProbe   = core.TraceDRCProbe
	TraceBound      = core.TraceBound
	TraceTerminate  = core.TraceTerminate
	TraceCacheHit   = core.TraceCacheHit
	TraceCacheMiss  = core.TraceCacheMiss
)

// ErrCursorClosed is returned by operations on a closed Cursor.
var ErrCursorClosed = core.ErrCursorClosed

// NewTelemetry builds a telemetry sink. Share one sink across the engines
// of a process (or give each engine its own Prefix) and mount its Handler
// — /metrics (query series plus go_* runtime series read at scrape),
// /debug/slowlog, /debug/cache, /debug/pprof/* — or call its Serve method
// to bind an introspection listener. The sink starts no goroutine.
func NewTelemetry(cfg TelemetryConfig) *Telemetry { return telemetry.New(cfg) }

// NewCache builds a semantic-distance cache. One cache can back any
// number of engines — entries are namespaced per engine, so sharing never
// mixes corpora.
func NewCache(cfg CacheConfig) *Cache { return cache.New(cfg) }

// NewOntologyBuilder starts a hand-built ontology whose root concept
// carries rootName.
func NewOntologyBuilder(rootName string) *OntologyBuilder {
	return ontology.NewBuilder(rootName)
}

// NewCollection returns an empty document collection.
func NewCollection() *Collection { return corpus.New() }

// GenerateOntology builds a synthetic SNOMED-like ontology calibrated to
// the published structural statistics (see internal/ontogen).
func GenerateOntology(cfg OntologyConfig) (*Ontology, error) { return ontogen.Generate(cfg) }

// PatientProfile returns the dense PATIENT corpus profile of the paper's
// Table 3, scaled by scale (1.0 = published size).
func PatientProfile(scale float64, seed int64) CorpusProfile { return emrgen.Patient(scale, seed) }

// RadioProfile returns the sparse RADIO corpus profile of the paper's
// Table 3, scaled by scale.
func RadioProfile(scale float64, seed int64) CorpusProfile { return emrgen.Radio(scale, seed) }

// GenerateCorpus builds a synthetic concept-set collection over o.
func GenerateCorpus(o *Ontology, p CorpusProfile) (*Collection, error) {
	return emrgen.GenerateConceptSets(o, p)
}

// NewAnnotator builds the concept-extraction pipeline from the ontology's
// terms, synonyms and abbreviations.
func NewAnnotator(o *Ontology) *Annotator { return nlp.NewMatcher(o) }

// Note is one generated clinical note with its ground-truth annotation.
type Note = emrgen.Note

// GenerateNoteCorpus renders synthetic clinical-note text (with
// abbreviated and negated mentions) and builds the collection by running
// the notes through the NLP pipeline — the same document construction flow
// the paper used with MetaMap. negatedFrac of each note's concepts are
// mentioned under negation and therefore excluded from the index.
func GenerateNoteCorpus(o *Ontology, ann *Annotator, p CorpusProfile, negatedFrac float64) (*Collection, []Note, error) {
	return emrgen.GenerateNotes(o, ann, p, negatedFrac)
}

// ConceptDistance returns the shortest valid-path distance between two
// concepts (a valid path passes through a common ancestor), or MaxInt32
// when either concept is outside o.
func ConceptDistance(o *Ontology, a, b ConceptID) int {
	if n := o.NumConcepts(); int(a) >= n || int(b) >= n {
		return drc.Inf
	}
	return distance.ConceptDistance(o, a, b)
}

// DocQueryDistance computes the RDS distance Ddq(doc, query) with DRC, as
// an engine's RDSContext ranks doc: a concept repeated on either side
// counts once. A side that is empty or names a concept outside o yields
// float64(MaxInt32).
func DocQueryDistance(o *Ontology, doc, query []ConceptID) float64 {
	return docDistance(o, doc, query, (*drc.Prepared).DocQueryScratch)
}

// DocDocDistance computes the symmetric SDS distance Ddd(d1, d2) with DRC,
// as an engine's SDSContext ranks d1 against the query document d2: a
// concept repeated on either side counts once. A side that is empty or
// names a concept outside o yields float64(MaxInt32).
func DocDocDistance(o *Ontology, d1, d2 []ConceptID) float64 {
	return docDistance(o, d1, d2, (*drc.Prepared).DocDocScratch)
}

// docDistance checks and deduplicates both sides as every engine entry
// point does (core.QueryConcepts), then probes DRC once.
func docDistance(o *Ontology, doc, query []ConceptID, probe func(*drc.Prepared, []ConceptID, *drc.Scratch) (float64, error)) float64 {
	d, errD := core.QueryConcepts(doc, o.NumConcepts())
	q, errQ := core.QueryConcepts(query, o.NumConcepts())
	if errD != nil || errQ != nil {
		return float64(drc.Inf)
	}
	v, err := probe(drc.PrepareCached(o, q, 0, nil), d, new(drc.Scratch))
	if err != nil {
		return float64(drc.Inf)
	}
	return v
}

// Engine evaluates RDS and SDS queries over one indexed collection.
type Engine struct {
	inner *core.Engine
	files []interface{ Close() error }
	tel   *telemetry.Sink
}

// EnableCache attaches a semantic-distance cache to the engine: every
// subsequent RDS query, cursor, RDS full scan and pair join resolves its
// seed vectors through c, skipping the ontology traversal on warm
// concepts. Rankings are bitwise identical with and without the cache;
// only timings and traversal counters change. Pass nil to detach. Not
// safe to call concurrently with queries.
func (e *Engine) EnableCache(c *Cache) { e.inner.EnableCache(c) }

// EnableTelemetry attaches sink to the engine: every subsequent query
// (RDS, SDS, full scans) records its latency, counters and ε_d into the
// sink's registry, and slow or failed queries are captured — with their
// span-event streams — in the sink's slow log. A caller-provided
// Options.Trace hook keeps working; the sink chains to it. Cursors are
// not per-query recorded. Pass nil to detach. Not safe to call
// concurrently with queries.
func (e *Engine) EnableTelemetry(sink *Telemetry) { e.tel = sink }

// instrument opens a telemetry recording for one query, splicing the
// sink's recorder in front of any caller trace hook. It returns nil when
// telemetry is disabled — the query then runs exactly as before. Queries
// under a non-default measure record under a per-measure label
// ("rds_density", "scan_rds_enhanced", ...), so dashboards separate
// measures the way they separate query kinds.
func (e *Engine) instrument(kind string, opts *Options) func(*Metrics, error) {
	if e.tel == nil {
		return nil
	}
	if opts.Measure != nil {
		kind += "_" + opts.Measure.Name()
	}
	trace, done := e.tel.Query(kind, opts.Trace)
	opts.Trace = trace
	return done
}

// NewEngine indexes coll in memory and returns a ready engine. A
// document concept outside o panics, naming the document, as
// DynamicEngine.AddDocument does.
func NewEngine(o *Ontology, coll *Collection) *Engine {
	mustCheckOntology("NewEngine", o, coll)
	return &Engine{
		inner: core.NewEngine(o, index.BuildMemInverted(coll), index.BuildMemForward(coll), coll.NumDocs(), nil),
	}
}

// Filenames used by SaveIndexes / OpenDiskEngine within a data directory.
const (
	OntologyFile = "ontology.cro"
	InvertedFile = "inverted.crs"
	ForwardFile  = "forward.crs"
)

// SaveIndexes writes disk-backed inverted and forward indexes for coll
// into dir.
func SaveIndexes(dir string, coll *Collection) error {
	if err := store.BuildInvertedFile(filepath.Join(dir, InvertedFile), coll); err != nil {
		return err
	}
	return store.BuildForwardFile(filepath.Join(dir, ForwardFile), coll)
}

// OpenDiskEngine opens the disk-backed indexes previously written by
// SaveIndexes. numDocs must match the indexed collection. cacheBlocks
// bounds the per-file decoded block cache (0 disables caching). An
// inverted file holding a concept outside o fails the open. Close the
// engine when done.
func OpenDiskEngine(o *Ontology, dir string, numDocs, cacheBlocks int) (*Engine, error) {
	io := &store.IOStats{}
	inv, err := store.OpenInverted(filepath.Join(dir, InvertedFile), io, cacheBlocks)
	if err != nil {
		return nil, err
	}
	if c, ok := inv.MaxConcept(); ok {
		if err := corpus.CheckConcepts([]ConceptID{c}, o.NumConcepts()); err != nil {
			inv.Close()
			return nil, fmt.Errorf("conceptrank: %s: %w", InvertedFile, err)
		}
	}
	fwd, err := store.OpenForward(filepath.Join(dir, ForwardFile), io, cacheBlocks)
	if err != nil {
		inv.Close()
		return nil, err
	}
	return &Engine{
		inner: core.NewEngine(o, inv, fwd, numDocs, io),
		files: []interface{ Close() error }{inv, fwd},
	}, nil
}

// DynamicEngine is an Engine over a mutable collection: documents added
// with AddDocument are searchable immediately, with no precomputation or
// index rebuild — the operational advantage the paper claims for kNDS over
// distance-precomputation schemes such as the Threshold Algorithm.
// AddDocument may run concurrently with queries.
type DynamicEngine struct {
	Engine
	dyn         *index.Dynamic
	journal     *store.Journal
	numConcepts int // the ontology's size: added concepts must lie below it
}

// NewDynamicEngine returns an empty, growable engine over o.
func NewDynamicEngine(o *Ontology) *DynamicEngine {
	dyn := index.NewDynamic()
	return &DynamicEngine{
		Engine:      Engine{inner: core.NewEngineDynamic(o, dyn, dyn, dyn.NumDocs, nil)},
		dyn:         dyn,
		numConcepts: o.NumConcepts(),
	}
}

// NewDynamicEngineFrom bulk-loads an existing collection and stays
// growable. A document concept outside o panics, naming the document, as
// AddDocument does.
func NewDynamicEngineFrom(o *Ontology, coll *Collection) *DynamicEngine {
	mustCheckOntology("NewDynamicEngineFrom", o, coll)
	dyn := index.FromCollection(coll)
	return &DynamicEngine{
		Engine:      Engine{inner: core.NewEngineDynamic(o, dyn, dyn, dyn.NumDocs, nil)},
		dyn:         dyn,
		numConcepts: o.NumConcepts(),
	}
}

// mustCheckOntology is the bulk-load check of the constructors without an
// error result: a document concept outside o panics with an error naming
// the constructor and the document.
func mustCheckOntology(ctor string, o *Ontology, coll *Collection) {
	if err := coll.CheckOntology(o.NumConcepts()); err != nil {
		panic(fmt.Errorf("conceptrank: %s: %w", ctor, err))
	}
}

// OpenJournaledEngine opens a growable engine whose documents are durably
// logged to a write-ahead journal at path: existing intact records are
// replayed on open (a torn tail from a crash is truncated), and every
// AddDocument is appended and fsynced before it returns. A record with a
// concept outside o fails the open with an error naming the record.
func OpenJournaledEngine(o *Ontology, path string) (*DynamicEngine, error) {
	dyn := index.NewDynamic()
	_, err := store.ReplayJournal(path, func(r store.JournalRecord) error {
		concepts := make([]ConceptID, len(r.Concepts))
		for i, c := range r.Concepts {
			concepts[i] = ConceptID(c)
		}
		if err := corpus.CheckConcepts(concepts, o.NumConcepts()); err != nil {
			return fmt.Errorf("journal record %d (%q): %w", dyn.NumDocs(), r.Name, err)
		}
		dyn.AddDocument(r.Name, concepts)
		return nil
	})
	if err != nil {
		return nil, err
	}
	j, err := store.OpenJournal(path)
	if err != nil {
		return nil, err
	}
	e := &DynamicEngine{
		Engine: Engine{
			inner: core.NewEngineDynamic(o, dyn, dyn, dyn.NumDocs, nil),
			files: []interface{ Close() error }{j},
		},
		dyn:         dyn,
		journal:     j,
		numConcepts: o.NumConcepts(),
	}
	return e, nil
}

// AddDocument indexes a new document and returns its ID. On a journaled
// engine the document is logged and fsynced first. Any error
// AddDocumentDurable would return — a journal failure, or a concept
// outside the ontology — panics rather than silently dropping the
// document (callers that need softer handling should use
// AddDocumentDurable).
func (e *DynamicEngine) AddDocument(name string, concepts []ConceptID) DocID {
	id, err := e.AddDocumentDurable(name, concepts)
	if err != nil {
		panic(fmt.Errorf("conceptrank: AddDocument %q: %w", name, err))
	}
	return id
}

// AddDocumentDurable is AddDocument with an explicit error: a concept
// outside the ontology is rejected before anything is journaled or
// indexed, and a journal failure is returned as is.
func (e *DynamicEngine) AddDocumentDurable(name string, concepts []ConceptID) (DocID, error) {
	if err := corpus.CheckConcepts(concepts, e.numConcepts); err != nil {
		return 0, err
	}
	if e.journal != nil {
		set := make([]uint32, len(concepts))
		for i, c := range concepts {
			set[i] = uint32(c)
		}
		sort.Slice(set, func(i, j int) bool { return set[i] < set[j] })
		dedup := set[:0]
		for i, c := range set {
			if i == 0 || c != set[i-1] {
				dedup = append(dedup, c)
			}
		}
		if err := e.journal.Append(store.JournalRecord{Name: name, Concepts: dedup}); err != nil {
			return 0, err
		}
		if err := e.journal.Sync(); err != nil {
			return 0, err
		}
	}
	return e.dyn.AddDocument(name, concepts), nil
}

// NumDocs returns the current collection size.
func (e *DynamicEngine) NumDocs() int { return e.dyn.NumDocs() }

// DocName returns the name a document was added under.
func (e *DynamicEngine) DocName(id DocID) string { return e.dyn.Name(id) }

// DocConcepts returns a document's indexed concept set.
func (e *DynamicEngine) DocConcepts(id DocID) ([]ConceptID, error) { return e.dyn.Concepts(id) }

// Close releases disk resources (no-op for memory engines).
func (e *Engine) Close() error {
	var first error
	for _, f := range e.files {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	e.files = nil
	return first
}

// RDSContext returns the k documents most relevant to the query concepts.
// Cancellation is observed at wave boundaries inside kNDS (once per BFS
// depth level); a cancelled query returns ctx.Err() with nil results and
// the metrics accumulated so far.
func (e *Engine) RDSContext(ctx context.Context, query []ConceptID, opts Options) ([]Result, *Metrics, error) {
	done := e.instrument("rds", &opts)
	res, m, err := e.inner.RDSContext(ctx, query, opts)
	if done != nil {
		done(m, err)
	}
	return res, m, err
}

// SDSContext returns the k documents most similar to the query document's
// concept set; see RDSContext for the cancellation contract.
func (e *Engine) SDSContext(ctx context.Context, queryDoc []ConceptID, opts Options) ([]Result, *Metrics, error) {
	done := e.instrument("sds", &opts)
	res, m, err := e.inner.SDSContext(ctx, queryDoc, opts)
	if done != nil {
		done(m, err)
	}
	return res, m, err
}

// OpenRDS plans a relevant-document query and returns a resumable cursor:
// page through the ranking with Next, extend it with GrowK (results are
// bitwise identical to a fresh query with the larger k), cancel and retry
// at wave boundaries via contexts. Close the cursor when done. Cursor
// queries are not per-query telemetry-recorded; install Options.Trace for
// span-level observation.
func (e *Engine) OpenRDS(query []ConceptID, opts Options) (*Cursor, error) {
	return e.inner.OpenRDS(query, opts)
}

// OpenSDS plans a similar-document query as a resumable cursor; see
// OpenRDS.
func (e *Engine) OpenSDS(queryDoc []ConceptID, opts Options) (*Cursor, error) {
	return e.inner.OpenSDS(queryDoc, opts)
}

// TopKPairs returns the k document pairs with the smallest symmetric
// distance Ddd, in ascending canonical (distance, A, B) order, without
// evaluating all O(n^2) candidates: per-concept exact Ddc vectors (the
// same cache-aware seeds RDS queries use) drive a level-synchronous
// bounded join that prunes candidate pairs against the running k-th best
// pair. opts.Workers > 1 splits the join into that many document ranges
// whose range-pair tasks run concurrently. Results are bitwise identical
// to the naive oracle at every option setting; the cache installed with
// EnableCache serves the seed vectors. See DESIGN.md, "All-pairs
// semantic join".
func (e *Engine) TopKPairs(ctx context.Context, opts PairOptions) ([]PairResult, *PairMetrics, error) {
	return e.inner.TopKPairs(ctx, opts)
}

// FullScanRDS ranks by scanning the whole collection (the evaluation
// baseline; exact but slow). WithK selects the result count (default 10),
// WithWorkers > 1 partitions the scan across a worker pool with results
// identical to an unpartitioned scan, and WithMeasure selects the
// distance. An engine with a cache (EnableCache) folds the RDS scan from
// seed vectors, with identical rankings.
func (e *Engine) FullScanRDS(query []ConceptID, opts ...Option) ([]Result, *Metrics, error) {
	return e.fullScan(false, query, opts)
}

// FullScanSDS is the full-scan baseline for similarity queries, with the
// same options contract as FullScanRDS.
func (e *Engine) FullScanSDS(queryDoc []ConceptID, opts ...Option) ([]Result, *Metrics, error) {
	return e.fullScan(true, queryDoc, opts)
}

func (e *Engine) fullScan(sds bool, query []ConceptID, opts []Option) ([]Result, *Metrics, error) {
	var o Options
	for _, fn := range opts {
		fn(&o)
	}
	kind := "scan_rds"
	if sds {
		kind = "scan_sds"
	}
	done := e.instrument(kind, &o)
	var (
		res []Result
		m   *Metrics
		err error
	)
	if sds {
		res, m, err = e.inner.FullScanSDSContext(context.Background(), query, o)
	} else {
		res, m, err = e.inner.FullScanRDSContext(context.Background(), query, o)
	}
	if done != nil {
		done(m, err)
	}
	return res, m, err
}

// SaveOntology writes o to path in the checksummed binary format.
func SaveOntology(path string, o *Ontology) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := o.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadOntology reads an ontology written by SaveOntology.
func LoadOntology(path string) (*Ontology, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	o, err := ontology.ReadFrom(f)
	if err != nil {
		return nil, fmt.Errorf("conceptrank: load %s: %w", path, err)
	}
	return o, nil
}

// SaveCollection writes coll to path.
func SaveCollection(path string, coll *Collection) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := coll.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadCollection reads a collection written by SaveCollection.
func LoadCollection(path string) (*Collection, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	c, err := corpus.ReadFrom(f)
	if err != nil {
		return nil, fmt.Errorf("conceptrank: load %s: %w", path, err)
	}
	return c, nil
}

// FindConcept looks a concept up by its primary term or any synonym
// (case-sensitive). The first call builds a term→concept map on the
// ontology (guarded by sync.Once, so concurrent callers are safe); every
// lookup afterwards is O(1). Ambiguous terms resolve exactly as the former
// linear scan did: lowest ConceptID wins, primary name before synonyms.
func FindConcept(o *Ontology, term string) (ConceptID, bool) {
	return o.LookupTerm(term)
}

// FindConcepts is the bulk form of FindConcept: ids[i] holds the concept
// for terms[i] and is only meaningful when found[i] is true.
func FindConcepts(o *Ontology, terms []string) (ids []ConceptID, found []bool) {
	ids = make([]ConceptID, len(terms))
	found = make([]bool, len(terms))
	for i, t := range terms {
		ids[i], found[i] = o.LookupTerm(t)
	}
	return ids, found
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"regexp"
)

// This file is the single table BENCHMARK.json is generated and validated
// from: the workloads, the end-to-end metrics with their regression
// bounds, and the per-layer metrics. `-list` prints it, `-write-spec`
// regenerates the JSON, and the smoke test checks that a run emits exactly
// these names.

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type endToEndSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

const (
	wlPatient  = "patient-sds-exam"
	wlTraverse = "radio-rds-traverse"
	wlIngest   = "radio-zipf-ingest"
	wlServe    = "serve-zipf-open"
)

// benchCommand is how the driver starts one run from the root of a
// checkout; it appends --workload, --seed, --seconds and --trace.
var benchCommand = []string{"go", "run", "./benchmark"}

// runSeconds is how long one run replays its op list after the warm-up
// pass: 4 passes of the open loop, 7 to 24 of the closed loops. The driver's
// budget for a whole series leaves about 37 s per run, build, set-ups and
// answer check included; a run takes about 26 s.
const runSeconds = 20

var workloadSpecs = []workloadSpec{
	{wlPatient, "dense PATIENT corpus, closed loop: DRC probes (drc/radix/dewey) do over 80% of the work; traversal changes should not move it"},
	{wlTraverse, "sparse RADIO corpus at eps 0, closed loop: CSR traversal, postings and the bound table do the work, zero DRC calls; exam-kernel changes should not move it"},
	{wlIngest, "Zipf reads interleaved 4:1 with AddDocument on a cached dynamic engine: every write stales the seed cache, so reads pay refresh and eviction, not the clean hit path"},
	{wlServe, "real crserve fleet (2 nodes + coordinator) under a 60 req/s open loop over HTTP: RPC, merge and HTTP edge dominate, engine work is small"},
}

// The bounds come from the A/A calibration recorded in benchmark/README.md.
// There is one bound per metric, so its least steady workload sets it. On
// the shared reference box every timed metric has a cell whose quartile
// spread over ten runs is above 10% (memory latency there doubles for
// seconds at a time), and a bound below the spread makes the driver refuse
// the benchmark; they sit at the 25% the driver allows, and the README says
// per cell what a comparison can resolve. rss_peak_mb spreads about 5%.
var endToEndSpecs = []endToEndSpec{
	{"setup_s", "s", "lower", 0.25},
	{"query_p50_ms", "ms", "lower", 0.25},
	{"query_p95_ms", "ms", "lower", 0.25},
	{"throughput_qps", "ops/s", "higher", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"rss_peak_mb", "MiB", "lower", 0.15},
}

var layerSpecs = []layerSpec{
	// core: Metrics / Metrics.Stages of the traced pass of the named workload.
	{"core.stage_plan_us_per_op", "us", "lower"},
	{"core.stage_seed_us_per_op", "us", "lower"},
	{"core.stage_wave_us_per_op", "us", "lower"},
	{"core.stage_bound_us_per_op", "us", "lower"},
	{"core.stage_exam_us_per_op", "us", "lower"},
	{"core.stage_collect_us_per_op", "us", "lower"},
	{"core.stage_merge_us_per_op", "us", "lower"},
	{"core.self_us_per_op", "us", "lower"},
	{"core.waves_per_op", "count", "lower"},
	{"core.nodes_visited_per_op", "count", "lower"},
	{"core.docs_discovered_per_op", "count", "lower"},
	{"core.docs_examined_per_op", "count", "lower"},
	{"core.drc_calls_per_op", "count", "lower"},
	{"core.examined_precision", "ratio", "higher"},
	// drc, radix, dewey: replay of patient-sds-exam (query, examined doc) pairs.
	{"drc.prepare_us_per_query", "us", "lower"},
	{"drc.probe_us_p50", "us", "lower"},
	{"drc.probe_ns_per_concept", "ns", "lower"},
	{"drc.probe_allocs_per_probe", "count", "lower"},
	{"radix.build_us_per_doc", "us", "lower"},
	{"radix.nodes_per_build", "count", "lower"},
	{"dewey.addresses_per_concept", "count", "lower"},
	{"dewey.enumerate_us_per_concept", "us", "lower"},
	{"distance.pair_ns", "ns", "lower"},
	// ontology, index: replay of the nodes radio-rds-traverse visits.
	{"ontology.neighbors_ns_per_node", "ns", "lower"},
	{"index.postings_ns_per_lookup", "ns", "lower"},
	{"index.filter_s", "s", "lower"},
	{"index.build_s", "s", "lower"},
	{"index.dynamic_add_us_p50", "us", "lower"},
	// store: this sandbox's file system, not a device.
	{"store.load_ontology_s", "s", "lower"},
	{"store.load_collection_s", "s", "lower"},
	{"store.save_indexes_s", "s", "lower"},
	{"store.bytes_per_posting", "B", "lower"},
	{"store.lookup_us_cold", "us", "lower"},
	{"store.lookup_us_warm", "us", "lower"},
	{"store.disk_rds_ms_per_op", "ms", "lower"},
	{"store.disk_rds_io_ms_per_op", "ms", "lower"},
	{"store.journal_add_us_p50", "us", "lower"},
	{"store.journal_bytes_per_doc", "B", "lower"},
	// cache: Stats deltas of the traced pass, plus direct calls.
	{"cache.seed_hit_rate", "ratio", "higher"},
	{"cache.seed_refreshes_per_op", "count", "lower"},
	{"cache.pair_hit_rate", "ratio", "higher"},
	{"cache.evictions_per_op", "count", "lower"},
	{"cache.bytes_mb", "MiB", "lower"},
	{"cache.get_seed_ns", "ns", "lower"},
	{"cache.put_seed_ns", "ns", "lower"},
	// the layer ladder: whole engine -> sharded -> coordinator -> crserve,
	// each over the same ops.
	{"shard.sharded2_ms_per_op", "ms", "lower"},
	{"shard.overhead_ms_per_op", "ms", "lower"},
	{"shard.merge_us_per_op", "us", "lower"},
	{"shard.cancelled_shards_per_op", "count", "higher"},
	{"cluster.coordinator_ms_per_op", "ms", "lower"},
	{"cluster.overhead_ms_per_op", "ms", "lower"},
	{"cluster.rpcs_per_op", "count", "lower"},
	{"cluster.rpc_bytes_per_op", "B", "lower"},
	{"cluster.node_service_ms_per_rpc", "ms", "lower"},
	{"cluster.rpc_wire_ms_per_rpc", "ms", "lower"},
	{"cluster.failed_rpcs", "count", "lower"},
	{"crserve.ready_s", "s", "lower"},
	{"crserve.http_ms_per_op", "ms", "lower"},
	{"crserve.overhead_ms_per_op", "ms", "lower"},
	{"crserve.response_bytes_per_op", "B", "lower"},
	{"crserve.shed_rate", "ratio", "lower"},
	{"loadgen.late_ms_p95", "ms", "lower"},
	{"loadgen.achieved_qps", "ops/s", "higher"},
	// runtime: MemStats deltas of the traced pass.
	{"pool.alloc_kb_per_op", "KiB", "lower"},
	{"pool.alloc_objects_per_op", "count", "lower"},
	{"runtime.gc_cycles_per_1k_ops", "count", "lower"},
	{"runtime.gc_pause_ms_total", "ms", "lower"},
	// context
	{"gen.ontology_s", "s", "lower"},
	{"gen.corpus_s", "s", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []endToEndSpec `json:"end_to_end"`
	PerLayer   []layerSpec    `json:"per_layer"`
}

// benchmarkJSON renders the table as the BENCHMARK.json the driver reads.
func benchmarkJSON() []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	// Encoding plain structs of strings and numbers cannot fail.
	_ = enc.Encode(benchmarkFile{
		Command:    benchCommand,
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloadSpecs,
		EndToEnd:   endToEndSpecs,
		PerLayer:   layerSpecs,
	})
	return buf.Bytes()
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validateSpec checks the table against the limits the driver enforces, so
// a bad edit fails `go test ./benchmark` rather than the driver's first run.
func validateSpec() error {
	seen := map[string]bool{}
	name := func(n string) error {
		if !nameRE.MatchString(n) {
			return fmt.Errorf("bad name %q", n)
		}
		if seen[n] {
			return fmt.Errorf("name %q used twice", n)
		}
		seen[n] = true
		return nil
	}
	metric := func(n, unit, better string) error {
		if err := name(n); err != nil {
			return err
		}
		if !unitRE.MatchString(unit) {
			return fmt.Errorf("%s: bad unit %q", n, unit)
		}
		if better != "lower" && better != "higher" {
			return fmt.Errorf("%s: better is %q", n, better)
		}
		return nil
	}
	if n := len(workloadSpecs); n < 2 || n > 8 {
		return fmt.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range workloadSpecs {
		if err := name(w.Name); err != nil {
			return err
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			return fmt.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if n := len(endToEndSpecs); n < 1 || n > 16 {
		return fmt.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	for _, m := range endToEndSpecs {
		if err := metric(m.Name, m.Unit, m.Better); err != nil {
			return err
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			return fmt.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !seen["setup_s"] {
		return fmt.Errorf("setup_s is missing")
	}
	if n := len(layerSpecs); n < 1 || n > 128 {
		return fmt.Errorf("%d per-layer metrics, want 1..128", n)
	}
	for _, m := range layerSpecs {
		if err := metric(m.Name, m.Unit, m.Better); err != nil {
			return err
		}
	}
	if runSeconds < 1 || runSeconds > 60 {
		return fmt.Errorf("run_seconds %d outside 1..60", runSeconds)
	}
	if n := len(benchmarkJSON()); n > 64<<10 {
		return fmt.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", n)
	}
	return nil
}

func printList(w io.Writer) {
	fmt.Fprintln(w, "workloads:")
	for _, s := range workloadSpecs {
		fmt.Fprintf(w, "  %-20s %s\n", s.Name, s.Why)
	}
	fmt.Fprintln(w, "end-to-end metrics:")
	for _, m := range endToEndSpecs {
		fmt.Fprintf(w, "  %-34s %-6s %-6s bound %.0f%%\n", m.Name, m.Unit, m.Better, m.Bound*100)
	}
	fmt.Fprintln(w, "per-layer metrics:")
	for _, m := range layerSpecs {
		fmt.Fprintf(w, "  %-34s %-6s %s\n", m.Name, m.Unit, m.Better)
	}
}

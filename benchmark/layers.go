package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"conceptrank"
	"conceptrank/internal/cache"
	"conceptrank/internal/core"
	"conceptrank/internal/distance"
	"conceptrank/internal/drc"
	"conceptrank/internal/index"
	"conceptrank/internal/radix"
	"conceptrank/internal/store"
)

// The per-layer measurements of the traced run. Every layer is measured
// from outside: by timing calls into its exported functions, by reading
// what those functions return, and through hooks that already exist
// (Options.Trace, Options.OnWave). Nothing here adds a span or a counter
// inside the program.

// sink keeps results alive so the compiler cannot drop the timed calls.
var sink int

// measure fills s with every per-layer metric that does not depend on the
// workload being traced, and writes the ladder's spans to
// benchmark/out/trace-ladder.json.
func (s *sharedLayers) measure(env *runEnv, seed int64) error {
	d := env.d
	out := map[string]float64{}
	out["gen.ontology_s"] = d.genOntology.Seconds()
	out["gen.corpus_s"] = d.genCorpus.Seconds()
	if err := replayExam(env, seed, out); err != nil {
		return fmt.Errorf("drc replay: %w", err)
	}
	distanceLayer(d, seed, out)
	if err := replayTraverse(env, seed, out); err != nil {
		return fmt.Errorf("traversal replay: %w", err)
	}
	if err := indexLayer(env, seed, out); err != nil {
		return fmt.Errorf("index layer: %w", err)
	}
	if err := storeLayer(env, seed, out); err != nil {
		return fmt.Errorf("store layer: %w", err)
	}
	cacheLayer(d, out)
	t := newTracer()
	if err := s.ladder(env, seed, t, out); err != nil {
		return err
	}
	if _, err := t.write(env.outDir, "ladder"); err != nil {
		return err
	}
	s.metrics = out
	return nil
}

// replayExam runs the first ops of patient-sds-exam through cursors, takes
// the (query, examined document) pairs from Cursor.Examined, and replays
// them through the DRC kernel, the radix DAG and the Dewey enumeration on
// their own.
func replayExam(env *runEnv, seed int64, out map[string]float64) error {
	d := env.d
	eng := conceptrank.NewEngine(d.o, d.patient)
	defer eng.Close()
	ops := patientOps(d, seed)
	ops = ops[:min(len(ops), max(1, d.sc.ladderOps/4))]
	type pair struct {
		o    *op
		docs []conceptrank.DocID
	}
	var pairs []pair
	for i := range ops {
		o := &ops[i]
		open := eng.OpenRDS
		if o.Kind == opSDS {
			open = eng.OpenSDS
		}
		cur, err := open(o.Concepts, o.options())
		if err != nil {
			return err
		}
		_, _, err = cur.Run(context.Background())
		p := pair{o: o}
		for _, r := range cur.Examined() {
			p.docs = append(p.docs, r.Doc)
		}
		_ = cur.Close()
		if err != nil {
			return err
		}
		pairs = append(pairs, p)
	}

	var (
		ac       = drc.NewAddressCache(d.o, 0, 0)
		scratch  drc.Scratch
		prepare  time.Duration
		probes   []float64
		probeNS  float64
		concepts int
		mallocs  uint64
	)
	for _, p := range pairs {
		t0 := time.Now()
		prep := drc.PrepareCached(d.o, p.o.Concepts, 0, ac)
		prepare += time.Since(t0)
		probe := prep.DocQueryScratch
		if p.o.Kind == opSDS {
			probe = prep.DocDocScratch
		}
		m0 := readMem().mallocs
		for _, id := range p.docs {
			doc := d.patient.Doc(id).Concepts
			t1 := time.Now()
			if _, err := probe(doc, &scratch); err != nil {
				return err
			}
			dt := time.Since(t1)
			probes = append(probes, us(dt))
			probeNS += float64(dt)
			concepts += len(doc) + len(p.o.Concepts)
		}
		mallocs += readMem().mallocs - m0
	}
	out["drc.prepare_us_per_query"] = ratio(us(prepare), float64(len(pairs)))
	out["drc.probe_us_p50"] = median(probes)
	out["drc.probe_ns_per_concept"] = ratio(probeNS, float64(concepts))
	out["drc.probe_allocs_per_probe"] = ratio(float64(mallocs), float64(len(probes)))

	var (
		ws       radix.Workspace
		build    time.Duration
		nodes    int
		builds   int
		distinct = map[conceptrank.ConceptID]bool{}
	)
	for _, p := range pairs {
		for _, id := range p.docs {
			doc := d.patient.Doc(id).Concepts
			t0 := time.Now()
			dag := ws.NewDAG(d.o)
			for _, c := range doc {
				if err := dag.InsertConcept(c, radix.MarkDoc, 0); err != nil {
					return err
				}
			}
			build += time.Since(t0)
			nodes += dag.NumNodes()
			builds++
			for _, c := range doc {
				distinct[c] = true
			}
		}
	}
	out["radix.build_us_per_doc"] = ratio(us(build), float64(builds))
	out["radix.nodes_per_build"] = ratio(float64(nodes), float64(builds))

	cold := drc.NewAddressCache(d.o, 0, 0)
	var enumerate time.Duration
	addresses := 0
	for c := range distinct {
		t0 := time.Now()
		a := cold.Addresses(c)
		enumerate += time.Since(t0)
		addresses += len(a)
	}
	out["dewey.addresses_per_concept"] = ratio(float64(addresses), float64(len(distinct)))
	out["dewey.enumerate_us_per_concept"] = ratio(us(enumerate), float64(len(distinct)))
	return nil
}

func distanceLayer(d *dataset, seed int64, out map[string]float64) {
	r := rand.New(rand.NewSource(seed))
	pairs := make([][2]conceptrank.ConceptID, d.sc.distancePairs)
	for i := range pairs {
		pairs[i] = [2]conceptrank.ConceptID{d.radioElig[r.Intn(len(d.radioElig))], d.radioElig[r.Intn(len(d.radioElig))]}
	}
	t0 := time.Now()
	for _, p := range pairs {
		sink += distance.ConceptDistance(d.o, p[0], p[1])
	}
	out["distance.pair_ns"] = ratio(float64(time.Since(t0)), float64(len(pairs)))
}

// replayTraverse collects the nodes radio-rds-traverse visits with the
// OnWave hook, then times the ontology's neighbour lists and the inverted
// index's postings over exactly those nodes.
func replayTraverse(env *runEnv, seed int64, out map[string]float64) error {
	d := env.d
	eng := conceptrank.NewEngine(d.o, d.radio)
	defer eng.Close()
	var visited []conceptrank.ConceptID
	for _, o := range traverseOps(d, seed, d.sc.ladderOps, epsTraverse) {
		opts := o.options()
		opts.OnWave = func(w core.WaveInfo) {
			for _, v := range w.Visited {
				visited = append(visited, v.Node)
			}
		}
		if _, _, err := eng.RDSContext(context.Background(), o.Concepts, opts); err != nil {
			return err
		}
	}
	t0 := time.Now()
	for _, n := range visited {
		sink += len(d.o.Parents(n)) + len(d.o.Children(n))
	}
	out["ontology.neighbors_ns_per_node"] = ratio(float64(time.Since(t0)), float64(len(visited)))
	inv := index.BuildMemInverted(d.radio)
	t0 = time.Now()
	for _, n := range visited {
		p, _ := inv.Postings(n) // a concept without documents has no postings; that is a lookup too
		sink += len(p)
	}
	out["index.postings_ns_per_lookup"] = ratio(float64(time.Since(t0)), float64(len(visited)))
	return nil
}

func indexLayer(env *runEnv, seed int64, out map[string]float64) error {
	d := env.d
	raw, err := conceptrank.LoadCollection(filepath.Join(env.dataDir, rawFile("RADIO")))
	if err != nil {
		return err
	}
	t0 := time.Now()
	filtered := sectionFilter(d.o, raw)
	out["index.filter_s"] = time.Since(t0).Seconds()
	t0 = time.Now()
	inv, fwd := index.BuildMemInverted(filtered), index.BuildMemForward(filtered)
	out["index.build_s"] = time.Since(t0).Seconds()
	sink += inv.NumConceptsIndexed()
	runtime.KeepAlive(fwd)

	dyn := conceptrank.NewDynamicEngineFrom(d.o, d.radio)
	defer dyn.Close()
	out["index.dynamic_add_us_p50"] = median(timeAdds(dyn, ingestOps(d, seed)))
	return nil
}

// timeAdds feeds the writes of an ingest op list to eng and returns the
// time of each in microseconds.
func timeAdds(eng *conceptrank.DynamicEngine, ops []op) []float64 {
	var times []float64
	added := 0
	for i := range ops {
		if ops[i].Kind != opAdd {
			continue
		}
		t0 := time.Now()
		ingestAdd(eng, &added, &ops[i], nil)
		times = append(times, us(time.Since(t0)))
	}
	return times
}

func fileSize(path string) float64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return float64(st.Size())
}

// storeLayer measures the disk-backed structures. The files sit in the
// sandbox's page cache and fsync is whatever the sandbox makes it, so
// these are this sandbox's numbers, not a device's.
func storeLayer(env *runEnv, seed int64, out map[string]float64) error {
	d := env.d
	t0 := time.Now()
	if _, err := conceptrank.LoadOntology(filepath.Join(env.dataDir, conceptrank.OntologyFile)); err != nil {
		return err
	}
	out["store.load_ontology_s"] = time.Since(t0).Seconds()
	t0 = time.Now()
	if _, err := conceptrank.LoadCollection(filepath.Join(env.dataDir, rawFile("RADIO"))); err != nil {
		return err
	}
	out["store.load_collection_s"] = time.Since(t0).Seconds()

	dir := filepath.Join(env.dataDir, "disk")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t0 = time.Now()
	if err := conceptrank.SaveIndexes(dir, d.radio); err != nil {
		return err
	}
	out["store.save_indexes_s"] = time.Since(t0).Seconds()
	postings := 0
	for _, doc := range d.radio.Docs() {
		postings += len(doc.Concepts)
	}
	invPath := filepath.Join(dir, conceptrank.InvertedFile)
	out["store.bytes_per_posting"] = ratio(fileSize(invPath), float64(postings))

	// Every eligible concept occurs in the collection, so every lookup hits.
	lookups := func(cacheBlocks, rounds int) (float64, error) {
		inv, err := store.OpenInverted(invPath, &store.IOStats{}, cacheBlocks)
		if err != nil {
			return 0, err
		}
		defer inv.Close()
		var last time.Duration
		for r := 0; r < rounds; r++ {
			t0 := time.Now()
			for _, c := range d.radioElig {
				p, err := inv.Postings(c)
				if err != nil {
					return 0, err
				}
				sink += len(p)
			}
			last = time.Since(t0)
		}
		return ratio(us(last), float64(len(d.radioElig))), nil
	}
	var err error
	if out["store.lookup_us_cold"], err = lookups(0, 1); err != nil {
		return err
	}
	if out["store.lookup_us_warm"], err = lookups(len(d.radioElig), 2); err != nil {
		return err
	}

	disk, err := conceptrank.OpenDiskEngine(d.o, dir, d.radio.NumDocs(), 256)
	if err != nil {
		return err
	}
	defer disk.Close()
	var total, io time.Duration
	ops := traverseOps(d, seed, d.sc.ladderOps, epsTraverse)
	for i := range ops {
		t0 := time.Now()
		_, m, err := disk.RDSContext(context.Background(), ops[i].Concepts, ops[i].options())
		if err != nil {
			return err
		}
		total += time.Since(t0)
		io += m.IOTime
	}
	out["store.disk_rds_ms_per_op"] = ratio(ms(total), float64(len(ops)))
	out["store.disk_rds_io_ms_per_op"] = ratio(ms(io), float64(len(ops)))

	journal := filepath.Join(env.dataDir, "journal.crj")
	je, err := conceptrank.OpenJournaledEngine(d.o, journal)
	if err != nil {
		return err
	}
	adds := timeAdds(je, ingestOps(d, seed))
	if err := je.Close(); err != nil {
		return err
	}
	out["store.journal_add_us_p50"] = median(adds)
	out["store.journal_bytes_per_doc"] = ratio(fileSize(journal), float64(len(adds)))
	return nil
}

// cacheLayer times the cache's own get and put on seed vectors the size
// of a RADIO one.
func cacheLayer(d *dataset, out map[string]float64) {
	c := cache.New(cache.Config{})
	docs := make([]cache.DocDist, d.radio.NumDocs())
	for i := range docs {
		docs[i] = cache.DocDist{Doc: conceptrank.DocID(i), Dist: int32(i % 7)}
	}
	seed := cache.Seed{Gen: len(docs), Docs: docs}
	n := min(len(d.radioElig), 1000)
	t0 := time.Now()
	for _, k := range d.radioElig[:n] {
		c.PutSeed(1, uint32(k), seed)
	}
	out["cache.put_seed_ns"] = ratio(float64(time.Since(t0)), float64(n))
	t0 = time.Now()
	for _, k := range d.radioElig[:n] {
		s, _ := c.GetSeed(1, uint32(k))
		sink += s.Gen
	}
	out["cache.get_seed_ns"] = ratio(float64(time.Since(t0)), float64(n))
}

// shardedSystem is the in-process sharded engine as a ladder rung.
type shardedSystem struct {
	inProcess
	eng *conceptrank.ShardedEngine
}

func (s *shardedSystem) close() { _ = s.eng.Close() }
func (s *shardedSystem) do(ctx context.Context, o *op, _ *opTrace) (opResult, error) {
	res, sm, err := s.eng.RDSContext(ctx, o.Concepts, o.options())
	if err != nil {
		return opResult{}, err
	}
	return opResult{sum: checksum(res), m: &sm.Merged, cancelled: sm.CancelledShards}, nil
}

// ladder runs the same ops up the rungs whole engine -> in-process sharded
// -> coordinator (in-process twin) -> crserve over HTTP, all without a
// distance cache. Each op climbs all four rungs back to back, so a busy
// spell on the machine hits the rungs alike; a rung's cost is the median
// over ops, and its overhead the median over ops of the difference to the
// rung below. It closes with a short open-loop run against the fleet,
// which is where the load generator's own numbers come from.
func (s *sharedLayers) ladder(env *runEnv, seed int64, t *tracer, out map[string]float64) error {
	d := env.d
	ops := traverseOps(d, seed, d.sc.ladderOps, epsZipf)
	n := float64(len(ops))

	se, err := conceptrank.NewShardedEngine(d.o, d.radio, conceptrank.ShardConfig{Shards: fleetShards})
	if err != nil {
		return err
	}
	sharded := &shardedSystem{eng: se}
	defer sharded.close()
	single := &engineSystem{eng: conceptrank.NewEngine(d.o, d.radio)}
	defer single.close()
	tw, err := newTwin(d.o, d.radio, 0, t)
	if err != nil {
		return err
	}
	defer tw.close()
	// The top rung is the real binary; the smoke run has none and climbs a
	// second twin instead, so that every metric still gets a value.
	t0 := time.Now()
	var top system
	if env.smoke {
		top, err = newTwin(d.o, d.radio, 0, nil)
	} else {
		top, err = spawnFleet(env.crserve, env.dataDir, 0, env.conns)
	}
	if err != nil {
		return err
	}
	defer top.close()
	out["crserve.ready_s"] = time.Since(t0).Seconds()

	rungs := []struct {
		name string
		sys  system
		t    *tracer
	}{{"single engine", single, nil}, {"sharded engine", sharded, nil}, {"coordinator twin", tw, t}, {"crserve", top, nil}}
	lat := make([][]float64, len(rungs))
	res := make([][]opResult, len(rungs))
	var twinMem memCounters
	for i := range ops {
		for r, rung := range rungs {
			var mem0 memCounters
			if rung.sys == tw {
				mem0 = readMem()
			}
			t0 := time.Now()
			got, err := doOp(rung.sys, &ops[i], i, rung.t)
			took := ms(time.Since(t0))
			if err != nil {
				return fmt.Errorf("%s, op %d: %w", rung.name, i, err)
			}
			if rung.sys == tw {
				twinMem.add(readMem().sub(mem0))
			}
			if r > 0 && got.sum != res[0][i].sum {
				return fmt.Errorf("%s disagrees with the single engine on op %d", rung.name, i)
			}
			lat[r] = append(lat[r], took)
			res[r] = append(res[r], got)
		}
	}
	diff := func(hi, lo int) float64 {
		d := make([]float64, len(ops))
		for i := range d {
			d[i] = lat[hi][i] - lat[lo][i]
		}
		return median(d)
	}
	var merge time.Duration
	cancelled := 0
	for _, r := range res[1] {
		merge += r.m.Stages[conceptrank.StageMerge].Time
		cancelled += r.cancelled
	}
	out["shard.sharded2_ms_per_op"] = median(lat[1])
	out["shard.overhead_ms_per_op"] = diff(1, 0)
	out["shard.merge_us_per_op"] = us(merge) / n
	// Reported, not asserted: what counts as a cancelled shard is the open
	// tier-1 item (TestCrossShardCancellation).
	out["shard.cancelled_shards_per_op"] = float64(cancelled) / n

	rec := tw.rec
	rpcs := float64(rec.rpcs)
	out["cluster.coordinator_ms_per_op"] = median(lat[2])
	out["cluster.overhead_ms_per_op"] = diff(2, 1)
	out["cluster.rpcs_per_op"] = rpcs / n
	out["cluster.rpc_bytes_per_op"] = float64(rec.bytes) / n
	out["cluster.node_service_ms_per_rpc"] = ratio(ms(rec.handler), rpcs)
	out["cluster.rpc_wire_ms_per_rpc"] = ratio(ms(rec.client-rec.handler), rpcs)
	out["cluster.failed_rpcs"] = float64(rec.failed)

	bytes := 0
	for _, r := range res[3] {
		bytes += r.bytes
	}
	out["crserve.http_ms_per_op"] = median(lat[3])
	out["crserve.overhead_ms_per_op"] = diff(3, 2)
	out["crserve.response_bytes_per_op"] = float64(bytes) / n

	open := serveOps(d, seed)
	open = open[:min(len(open), d.sc.ladderOps)]
	op, err := runPass(top, open, passOpts{due: schedule(seed, len(open), serveRate), conns: env.conns})
	if err != nil {
		return fmt.Errorf("open-loop run: %w", err)
	}
	shed := 0
	for _, r := range op.res {
		if r.shed {
			shed++
		}
	}
	out["crserve.shed_rate"] = float64(shed) / float64(len(open))
	out["loadgen.late_ms_p95"] = quantile(op.late, 0.95)
	out["loadgen.achieved_qps"] = float64(len(open)) / op.wall.Seconds()
	s.twin, s.twinOps = twinMem, len(ops)
	return nil
}

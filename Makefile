# Development targets; CI (.github/workflows/ci.yml) runs the same steps.

GO ?= go

.PHONY: build test test-race vet lint skip-gate examples cli-smoke bench experiments serve-demo serve-cluster api-check api-snapshot

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static analysis: vet and the gofmt gate always; staticcheck when it is on
# PATH (CI installs it, local machines may not have it — we never install
# on the fly).
lint: vet skip-gate
	@test -z "$$(gofmt -l .)" || { gofmt -l .; echo "files above need gofmt -w"; exit 1; }
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

# No test may skip on the machine's CPU count: a test that hides on the
# builder's box is how a red tier-1 shipped once. A test that needs a
# schedule must build it (see TestCrossShardCancellation's gated steps),
# and the width-sensitive packages run at several widths in test-race.
skip-gate:
	@! grep -rn -A3 -E 'runtime\.(NumCPU|GOMAXPROCS)\(' --include='*_test.go' . \
		| grep -E '\.Skip(f|Now)?\(' \
		|| { echo "a _test.go file skips on NumCPU/GOMAXPROCS (see above)"; exit 1; }

# Tier-1 (with build). ./... includes ./benchmark: the repository
# benchmark's own tests — spec/BENCHMARK.json agreement and a smoke run of
# every workload — are part of it.
test:
	$(GO) test ./...

# Run every example to completion. `go build ./...` only compiles them, and
# they are the only non-test callers of much of the facade.
examples:
	@for d in examples/*/; do \
		echo "go run ./$$d"; \
		$(GO) run ./$$d >/dev/null || exit 1; \
	done

# End-to-end smoke of the command-line tools: crgen writes a small data
# directory into a temp dir and crsearch answers on it — one-shot, paged,
# baseline runs must agree, serial, ranged and cached pair joins must
# agree, misused and removed flags must be refused
# (the checks are in cmd/crsearch/smoke.sh; about a second after the build).
cli-smoke:
	GO="$(GO)" sh cmd/crsearch/smoke.sh

# Race-detect the concurrency-bearing packages: the kNDS engine under
# concurrent queries and its partitioned scan, sharded execution (node
# fleets + coordinator, over loopback and over the in-memory transport),
# the group / sharded-map primitives, the shared address cache, the
# semantic-distance cache, the telemetry registry, the pooled scratches
# of the dense kernels (distance, ontology, radix), and crserve's edge
# cursor store over loopback fleets — CI's package list. The
# cluster grids, the engine's concurrent-queries test and its
# pair-join tests run again at scheduler widths 1, 2 and 8: their answers
# must not depend on how many goroutines really run at once.
test-race:
	$(GO) test -race -count=2 ./internal/cache/... ./internal/cluster/... ./internal/core/... ./internal/distance/... ./internal/drc/... ./internal/ontology/... ./internal/pool/... ./internal/radix/... ./internal/telemetry/... ./cmd/crserve/
	$(GO) test -race -cpu 1,2,8 ./internal/cluster/
	$(GO) test -race -cpu 1,2,8 -run TestConcurrentQueries ./internal/core/
	$(GO) test -race -cpu 1,2,8 -run TestTopKPairs ./internal/core/

# The repository benchmark (BENCHMARK.json, benchmark/README.md): the four
# fixed workloads, six end-to-end metrics each, answers verified. It is the
# one measurement of sharding, serving, caching, allocation and tracing
# cost; `experiments` below regenerates the paper's tables.
bench:
	$(GO) run ./benchmark -workload all

# Public API surface gate. api/conceptrank.txt is the checked-in `go doc`
# snapshot of the root package, followed by the method set of each of the
# facade's own struct types (API_TYPES): `go doc ./` alone prints
# `type Engine struct{ ... }` and hides its methods. api-check fails when
# the exported surface (or its package doc) drifts without the snapshot
# being regenerated, so API changes are always explicit in review. After an
# intentional change, run api-snapshot and commit the diff. `go doc ./`
# prints a config alias such as CacheConfig as one line, so the snapshot
# also lists the exported fields of every struct a facade config alias
# names: a new knob shows up in api-check like a new method.
API_TYPES = Engine DynamicEngine ShardedEngine
API_CONFIGS = internal/core:Options internal/core:PairOptions internal/cache:Config \
	internal/telemetry:Config internal/ontogen:Config internal/cluster:ShardConfig \
	internal/cluster:CoordinatorConfig internal/cluster:AdmissionConfig internal/cluster:NodeConfig
API_DOC = { $(GO) doc ./ && for t in $(API_TYPES); do echo; $(GO) doc ./ $$t | grep '^func ('; done; \
	for c in $(API_CONFIGS); do pkg=$${c%:*}; echo; $(GO) doc ./$$pkg $${c\#*:} \
		| sed -n '/^type .* struct {$$/,/^}$$/p' | grep -v '^[[:space:]]*\(//.*\)\{0,1\}$$' \
		| sed "1s|^type |type $${pkg\#\#*/}.|"; done; }

api-check:
	@$(API_DOC) | diff -u api/conceptrank.txt - \
		|| { echo "public API surface drifted from api/conceptrank.txt; run 'make api-snapshot' and commit the result"; exit 1; }

api-snapshot:
	@$(API_DOC) > api/conceptrank.txt

# Regenerate the EXPERIMENTS.md tables at laptop scale.
experiments:
	$(GO) run ./cmd/crbench -scale small -exp all

# Introspection demo: a synthetic-corpus query server with background demo
# traffic; watch `curl localhost:6060/metrics` move, browse /debug/slowlog
# and /debug/pprof.
serve-demo:
	$(GO) run ./cmd/crserve -listen :6060 -demo 50ms

# Distributed demo on one machine: three shard nodes plus a coordinator on
# :6060 speaking the same /search surface as serve-demo. Ctrl-C stops all
# four (each drains gracefully).
serve-cluster:
	$(GO) run ./cmd/crserve -node -shard-index 0 -shard-count 3 -listen :7001 & \
	$(GO) run ./cmd/crserve -node -shard-index 1 -shard-count 3 -listen :7002 & \
	$(GO) run ./cmd/crserve -node -shard-index 2 -shard-count 3 -listen :7003 & \
	sleep 2; \
	$(GO) run ./cmd/crserve -coordinator -peers 'http://localhost:7001;http://localhost:7002;http://localhost:7003' -listen :6060; \
	kill %1 %2 %3 2>/dev/null; wait

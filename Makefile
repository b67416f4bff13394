GO ?= go

.PHONY: all build vet fmt-check test test-short test-race fuzz cluster-test chaos multihost-smoke check metrics-lint bench-check bench-smoke bench-ab ci

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Every tracked Go file is gofmt-clean.
fmt-check:
	test -z "$$(gofmt -l $$(git ls-files '*.go'))"

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Race-detector pass over the concurrent layers (sweep service, durable
# result store, cluster coordinator, metric registry/tracer, the twin's
# RunBatch fan-out and the dashboard reading a twin mid-run) — the
# packages whose invariants are all about shared state under load.
test-race:
	$(GO) test -race ./internal/service/... ./internal/store/... \
		./internal/cluster/... ./internal/obs/... \
		./internal/optimize/... ./internal/surrogate/... ./internal/uq/... \
		./internal/core/... ./internal/viz/...

# Short native-fuzzing pass over the decoders of crash-torn and outside
# bytes: the telemetry stream reader, the store's entry reader and the
# sweep journal reader. Each starts from its seed corpus under
# testdata/fuzz.
fuzz:
	$(GO) test ./internal/telemetry -run '^$$' -fuzz '^FuzzReadStream$$' -fuzztime 10s
	$(GO) test ./internal/store -run '^$$' -fuzz '^FuzzReadEntry$$' -fuzztime 10s
	$(GO) test ./internal/store -run '^$$' -fuzz '^FuzzReadJournal$$' -fuzztime 10s

# Distributed-sweep fabric suite under the race detector: wire
# round-trip hash stability, rendezvous sharding, worker health and
# re-dispatch, 429 backpressure honoring, and the multi-node chaos
# tests (worker death, cross-node lease single-flight).
cluster-test:
	$(GO) test -race ./internal/cluster/...

# Fault-injection suite: panics mid-simulation, deadline overruns,
# transient and permanent failures, corrupted/truncated store entries,
# queue saturation, kill-restart recovery (both the result store and
# the durable sweep journal — coordinator killed mid-sweep and resumed,
# idempotent resubmission), and the multi-node chaos tests (worker
# killed mid-sweep, lease single-flight across nodes) — under the race
# detector.
chaos:
	$(GO) test -race -run 'Chaos|Restart|Corrupt|Truncated|Backpressure|CancelReleases|Journal|Recover|Idempotent' \
		./internal/service/... ./internal/store/... ./internal/cluster/...

# Two-process smoke: a worker and a coordinator as separate serve
# processes sharing one store directory; the coordinator is kill -9'd
# mid-sweep and restarted, and must resume the journaled sweep to
# completion and dedupe a same-key resubmission to the original id.
multihost-smoke: build
	./scripts/multihost_smoke.sh

# Lint the live /metrics exposition of a fully wired server against the
# strict format parser and the naming conventions.
metrics-lint:
	./scripts/metrics_lint.sh

# Static and runtime conformance: vet plus the exposition lint.
check: vet metrics-lint

# The benchmark harness is its own module (twinbench/go.mod), so the
# root `go test ./...` never builds it: vet and test it here, so that
# deleting a symbol the benchmark uses fails CI.
bench-check:
	cd twinbench && $(GO) vet . && $(GO) test .

# Benchmark smoke: every twinbench workload for 2 s on seed 1, failing
# on any failed output check (the seed-1 bit-goldens included), a run
# with no attempted operation, or a twinbench build error.
bench-smoke:
	./scripts/bench_smoke.sh

# Paired A/B benchmark of the working tree against REV: ABBA-interleaved
# twinbench runs per seed, each metric's paired-ratio median and range,
# and a verdict against BENCHMARK.json's bounds. Minutes per seed; not
# part of ci.
REV ?= HEAD
WORKLOAD ?= cold-replay
SEEDS ?= 1 7
PAIRS ?= 10
bench-ab:
	./scripts/bench_ab.sh $(REV) $(WORKLOAD) "$(SEEDS)" $(PAIRS)

ci: build vet fmt-check test check bench-check bench-smoke

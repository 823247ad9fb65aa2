# Local entry points mirroring .github/workflows/ci.yml — `make ci`
# runs exactly what CI runs.

GO ?= go

# Benchmarks covered by the machine-readable perf artifact and the CI
# perf gate: stream-vs-batch analyzer throughput, the rolling window
# evaluator and compiled-DAG step microbenchmarks, and per-scenario
# trace-generation throughput (root package), plus the event-scheduler
# and trace-codec (JSONL and binary columnar) microbenchmarks
# (internal/sim, internal/trace), the work-stealing batch executor
# (internal/parallel), the fleet ingest benchmarks in both wire formats
# (cmd/dominod) and the RCA-store insert, query, and write-ahead
# journal append/replay benchmarks (internal/rcastore). Every benchmark processes a sizable batch per
# iteration, and the gate runs -count=5 with benchjson keeping the best
# of the repeats — on shared hardware interference only makes numbers
# worse, so best-of-5 is the stable estimate to gate on.
BENCH_GATE_PATTERN = BenchmarkStreamAnalyzer|BenchmarkScenarioTraceGen|BenchmarkEngine|BenchmarkCodec|BenchmarkWindowEval|BenchmarkIncrementalStep|BenchmarkDominodIngest|BenchmarkRCAStore|BenchmarkBatchExecutor
BENCH_GATE_PKGS = . ./internal/sim ./internal/trace ./internal/parallel ./cmd/dominod ./internal/rcastore

# Absolute perf contracts the binary ingest fast path must clear on
# every run, on top of the relative gate: the negotiated binary format
# must sustain at least 2x the committed JSONL fleet-ingest baseline
# (1,282,859 records/s; measured best-of-5 on the baseline hardware is
# ~3.6x, the floor leaves headroom for shared-runner noise). Enforced
# by benchdiff -floor, which also fails if the benchmark vanishes.
BENCH_FLOORS = -floor 'BenchmarkDominodIngestBinary:records/s=2565718'

.PHONY: build vet fmt fmt-check test perfbench-test bench bench-json bench-diff dominod-smoke obs-smoke chaos-smoke fleet-smoke doclint mdcheck examples-check ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmt rewrites files in place; fmt-check (used by ci) only complains.
fmt:
	gofmt -w .

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test -race ./...

# The benchmark harness is its own module (perfbench/go.mod), so
# `go test ./...` at the root does not reach its tests.
perfbench-test:
	cd perfbench && $(GO) test ./...

# One iteration of every benchmark: regenerates every paper artifact
# through the batch engine (sequential and parallel) as a smoke test.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# Machine-readable perf snapshot: refreshes the committed baseline
# BENCH_scenarios.json that `make bench-diff` gates against. Run this
# (and commit the result) after intentional perf changes or when moving
# the baseline to new hardware. Two recipe lines, not a pipe: a bench
# failure must fail the target, and benchjson itself rejects input with
# no benchmark lines.
bench-json:
	$(GO) test -bench='$(BENCH_GATE_PATTERN)' -benchtime=3x -count=5 -run='^$$' $(BENCH_GATE_PKGS) > BENCH_raw.txt
	$(GO) run ./cmd/benchjson < BENCH_raw.txt > BENCH_scenarios.json && rm -f BENCH_raw.txt
	@echo "wrote BENCH_scenarios.json"

# Perf-regression gate: run the gated benchmarks fresh, convert to
# JSON (BENCH_fresh.json), and compare against the committed
# BENCH_scenarios.json baseline. Fails (exit 1) when any throughput
# metric drops — or allocation metric grows — by more than 30%, and
# when a baselined benchmark vanishes. The report lands in
# BENCH_diff.txt; CI uploads both artifacts.
bench-diff:
	$(GO) test -bench='$(BENCH_GATE_PATTERN)' -benchtime=3x -count=5 -run='^$$' $(BENCH_GATE_PKGS) > BENCH_raw.txt
	$(GO) run ./cmd/benchjson < BENCH_raw.txt > BENCH_fresh.json && rm -f BENCH_raw.txt
	$(GO) run ./cmd/benchdiff -baseline BENCH_scenarios.json -current BENCH_fresh.json $(BENCH_FLOORS) -o BENCH_diff.txt

# End-to-end smoke of the live ingest service: start dominod, POST 8
# concurrent generated session streams, assert each /report/{id}
# matches batch analysis of the same trace.
dominod-smoke:
	$(GO) test ./cmd/dominod -run 'TestDominodSmoke' -count=1 -v

# Observability smoke: boot dominod with the pprof listener, ingest a
# generated session, validate /metrics through cmd/promlint, dump the
# flight recording, and capture a CPU profile. Artifacts land in
# obs-smoke/ (CI uploads them).
obs-smoke:
	sh scripts/obs_smoke.sh

# Crash-recovery smoke: ingest a fleet workload, kill -9 dominod
# mid-upload, restart on the surviving write-ahead journal, and assert
# the final checkpoint is byte-identical to a graceful run's. Artifacts
# (daemon logs, both checkpoints, the post-crash journal) land in
# chaos-smoke/ (CI uploads them).
chaos-smoke:
	sh scripts/chaos_smoke.sh

# Fleet failover smoke: three dominod backends behind dominolb plus a
# clean reference node; kill -9 one backend mid-upload, SIGTERM-drain
# another under an in-flight stream, saturate the survivor's ingest
# slots, and assert every balancer-served report is byte-identical to
# the clean run and the federated /metrics lints. Artifacts land in
# fleet-smoke/ (CI uploads them).
fleet-smoke:
	sh scripts/fleet_smoke.sh

# Documentation gates — CI fails on doc drift like it fails on tests.
# doclint: every package needs a package comment; every exported façade
# symbol (root package) needs a doc comment. mdcheck: relative links in
# the top-level docs must resolve.
doclint:
	$(GO) run ./cmd/doclint -symbols .
	$(GO) run ./cmd/doclint ./internal/... ./cmd/...

mdcheck:
	$(GO) run ./cmd/mdcheck README.md ARCHITECTURE.md ROADMAP.md

# Build and vet the documented examples by name: a façade change that
# breaks one then fails a step that says "examples", not a wildcard.
examples-check:
	$(GO) build ./examples/...
	$(GO) vet ./examples/...

ci: build vet fmt-check test perfbench-test bench bench-diff dominod-smoke obs-smoke chaos-smoke fleet-smoke doclint mdcheck examples-check

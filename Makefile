GO ?= go

.PHONY: all build vet fmt lint test race bench-smoke bench-record bench-diff bench-evaluate bench-scale bench-scale-record bench-dist bench-dist-record trace-smoke examples-smoke fuzz-smoke bench-test check

# Benchmarks guarded by the >10% regression gate (cmd/benchdiff against
# BENCH_step.json): generation cost (including the 4000-task and the
# 50k-task generations), the island ring's step, front extraction, and
# the evaluation kernels.
BENCH_GATE = BenchmarkStep|BenchmarkTypedStep|BenchmarkIslands4x25|BenchmarkParetoFront|BenchmarkEvaluate

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# gofmt gate: fails listing any file (fixtures included) that is not
# gofmt-clean.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# detlint: the determinism/hot-path static analysis suite (internal/lint).
# Prints a per-analyzer findings summary and exits nonzero on any finding.
lint:
	$(GO) run ./cmd/detlint

# -shuffle=on randomizes test execution order each run, so accidental
# inter-test order dependence fails loudly instead of lurking.
test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race -shuffle=on ./...

# One iteration of each Step, Evaluate (kernel) and island-ring
# benchmark: catches benchmarks that no longer compile or panic,
# without paying for a full measurement run. -short keeps the smoke fast: the Step pattern also
# matches the scale-slice BenchmarkScaleStep benchmarks, whose
# 50k/200k-task trace synthesis alone costs tens of seconds and which
# self-skip under -short.
bench-smoke:
	$(GO) test -short -run '^$$' -bench 'Step|Evaluate|Islands4x25' -benchtime 1x -benchmem .

# Re-measure the gated benchmarks and refresh the canonical baseline at
# the repo root (BENCH_step.json). -stat median collapses the -count 3
# repeats so one noisy run does not skew the baseline (or, below, fail
# the compare).
bench-record:
	$(GO) test -run '^$$' -bench '$(BENCH_GATE)' -benchtime 500ms -count 3 -benchmem . | tee /tmp/bench_step.txt
	$(GO) run ./cmd/benchdiff -stat median -record BENCH_step.json /tmp/bench_step.txt

# Compare the current tree against the recorded baseline; fails on >10%
# regression in ns/op or allocs/op.
bench-diff:
	$(GO) test -run '^$$' -bench '$(BENCH_GATE)' -benchtime 500ms -count 3 -benchmem . > /tmp/bench_new.txt
	$(GO) run ./cmd/benchdiff -stat median BENCH_step.json /tmp/bench_new.txt

# Evaluation-kernel slice of the regression gate: the machine-major kernel
# every replay runs, as full evaluations of a random and an evolved
# allocation on the large traces.
bench-evaluate:
	$(GO) test -run '^$$' -bench 'BenchmarkEvaluate' -benchtime 500ms -count 3 -benchmem . > /tmp/bench_eval.txt
	$(GO) run ./cmd/benchdiff -stat median BENCH_step.json /tmp/bench_eval.txt

# Scale slice of the regression gate: paper-sized populations stepping
# over datagen-synthesized 50k/200k-task instances, compared against
# BENCH_scale.json. Minutes of wall clock (trace synthesis dominates),
# so the slice is deliberately not part of make check — run it when
# touching the arena or the evaluation path. -benchtime 1x with -count 2
# bounds the cost while still letting benchdiff average; the 0.30
# threshold matches the other long-trace slices.
bench-scale:
	$(GO) test -run '^$$' -bench BenchmarkScale -benchtime 1x -count 2 -benchmem . > /tmp/bench_scale.txt
	$(GO) run ./cmd/benchdiff -stat median -threshold 0.30 -bench BenchmarkScale BENCH_scale.json /tmp/bench_scale.txt

# Refresh the scale baseline after an intentional change to the arena
# or kernels.
bench-scale-record:
	$(GO) test -run '^$$' -bench BenchmarkScale -benchtime 1x -count 2 -benchmem . | tee /tmp/bench_scale.txt
	$(GO) run ./cmd/benchdiff -bench BenchmarkScale -record BENCH_scale.json /tmp/bench_scale.txt

# Distributed-islands slice of the regression gate (DESIGN.md §15): the
# wire codec hot paths and full coordinator round trips over in-process
# pipes against the in-process Islands baseline, compared against
# BENCH_dist.json.
# The recorded baseline is honest about its host: 2 cores, Go 1.24.0,
# GOMAXPROCS=2 (the default). On so few cores the worker-count ladder
# measures scheduling and wire overhead, not speedup — on 4+ cores
# re-record and expect the 4-worker run to beat the in-process baseline.
bench-dist:
	$(GO) test -run '^$$' -bench BenchmarkDist -benchtime 300ms -count 3 -benchmem ./internal/dist > /tmp/bench_dist.txt
	$(GO) run ./cmd/benchdiff -stat median -threshold 0.30 BENCH_dist.json /tmp/bench_dist.txt

# Refresh the distributed baseline after an intentional wire or
# scheduler change.
bench-dist-record:
	$(GO) test -run '^$$' -bench BenchmarkDist -benchtime 300ms -count 3 -benchmem ./internal/dist | tee /tmp/bench_dist.txt
	$(GO) run ./cmd/benchdiff -stat median -record BENCH_dist.json /tmp/bench_dist.txt

# End-to-end telemetry smoke: run a short traced optimization through
# cmd/tradeoff and a traced multi-engine study (the ablation) through
# cmd/experiments, then validate and analyze each JSONL trace with
# cmd/tracestat. A trace times its phases without -phase-profile too:
# the plain traced run must record a nonzero phase_ns entry.
trace-smoke:
	$(GO) run ./cmd/tradeoff -generations 20 -pop 20 -tasks 60 -phase-profile -trace /tmp/trace_smoke.jsonl > /dev/null
	$(GO) run ./cmd/tracestat /tmp/trace_smoke.jsonl > /dev/null
	$(GO) run ./cmd/tradeoff -generations 20 -pop 20 -tasks 60 -trace /tmp/trace_smoke_plain.jsonl > /dev/null
	$(GO) run ./cmd/tracestat /tmp/trace_smoke_plain.jsonl > /dev/null
	@grep -q '"phase_ns":\[[0-9,]*[1-9]' /tmp/trace_smoke_plain.jsonl || { echo "trace-smoke: -trace without -phase-profile wrote all-zero phase_ns"; exit 1; }
	$(GO) run ./cmd/tracestat -json /tmp/trace_smoke.jsonl > /dev/null
	$(GO) run ./cmd/experiments -ablation 1 -scale 0.02 -pop 20 -phase-profile -trace /tmp/exp_trace_smoke.jsonl > /dev/null
	$(GO) run ./cmd/tracestat /tmp/exp_trace_smoke.jsonl > /dev/null

# Examples smoke: run every program under examples/ and fail on the
# first non-zero exit. Some library paths have no other non-test caller
# (dvfs's OptimizeWeighted and ExtendFront run only in
# examples/dvfsfront), so this is where a broken one shows.
examples-smoke:
	@for d in examples/*/; do echo "run $$d"; $(GO) run ./$$d > /dev/null || exit 1; done

# Fuzz smoke: ten seconds of coverage-guided fuzzing on each target
# that holds a hand-derived fast path to its reference: the merge that
# builds every child from its parents' execution sequences
# (FuzzRepairOrder), migrant validation, materialized and packed
# (FuzzInjectRejectsMalformed), and the kernel's inline utility tiers
# (FuzzTaskRecordUtility); on the wire codec, whose elites decode into
# reused buffers on the hot path and must match a fresh decode
# (FuzzWireCodec); and on the external decoders, an islands snapshot
# through to a restored run (FuzzIslandsSnapshotRestore), a -loadtrace
# trace (FuzzDecodeTrace) and a -system HCS description
# (FuzzSystemJSON), each through to an evaluation. The trace and
# system inputs are large, and minimizing each new one can take the
# whole budget, so their minimization is capped at 5 s. A failing input
# lands in the package's testdata/fuzz directory, where plain go test
# replays it.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzRepairOrder$$' -fuzztime 10s ./internal/nsga2
	$(GO) test -run '^$$' -fuzz '^FuzzInjectRejectsMalformed$$' -fuzztime 10s ./internal/nsga2
	$(GO) test -run '^$$' -fuzz '^FuzzIslandsSnapshotRestore$$' -fuzztime 10s ./internal/nsga2
	$(GO) test -run '^$$' -fuzz '^FuzzWireCodec$$' -fuzztime 10s ./internal/dist
	$(GO) test -run '^$$' -fuzz '^FuzzTaskRecordUtility$$' -fuzztime 10s ./internal/sched
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeTrace$$' -fuzztime 10s -fuzzminimizetime 5s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzSystemJSON$$' -fuzztime 10s -fuzzminimizetime 5s ./internal/core

# The end-to-end benchmark (bench/, see bench/README.md) is a module of
# its own, so the root go test ./... never builds it. Vet and test it
# here, so that a change to a public call it makes cannot break it
# unnoticed.
bench-test:
	cd bench && $(GO) vet ./... && $(GO) test ./...

check: build vet fmt lint race bench-test bench-smoke bench-dist trace-smoke examples-smoke fuzz-smoke

# CI and local development run the identical commands: .github/workflows/ci.yml
# invokes these targets and nothing else.

GO ?= go

.PHONY: all build test allocs bench serve-smoke dispatch-smoke plan-smoke workload-smoke obs-smoke bounds-smoke calib-smoke lint staticcheck fmt

all: lint build test

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# Allocation budgets, without the race detector: under -race sync.Pool
# deliberately drops a share of its Puts, so the exact-zero assertions
# (Latency on a stable point, disabled spans, warm simulator runs) relax
# there through internal/race's build-tagged constant; here they are exact.
allocs:
	$(GO) test -run 'Alloc' -count=1 ./internal/... .

# One iteration per benchmark: keeps bench_test.go compiling and running
# without turning CI into a measurement job.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' .

# Smoke-test the sweep service: start sweepd, run builtin:figure3 both
# in-process and via -addr, diff the results, and emit BENCH_serve.json
# (points/sec over HTTP) for the CI artifact.
serve-smoke:
	bash scripts/serve_smoke.sh
	@cat BENCH_serve.json

# Smoke-test the distributed dispatcher: 3 sweepd shards, figure3
# through cmd/sweep -shards with one shard killed mid-run (diffed
# against in-process), plus a batched-vs-per-cell throughput gate
# emitting BENCH_dispatch.json.
dispatch-smoke:
	bash scripts/dispatch_smoke.sh
	@cat BENCH_dispatch.json

# Smoke-test the capacity planner: 2 sweepd shards, the CI-sized
# builtin plan searched over the fleet, gated on a non-empty
# sim-certified frontier matching the in-process run, emitting
# BENCH_plan.json (candidates/sec, sim evals saved vs a grid).
plan-smoke:
	bash scripts/plan_smoke.sh
	@cat BENCH_plan.json

# Smoke-test the workload subsystem's determinism contract: record a
# 512-PE bursty (MMPP) run to an NDJSON arrival trace, replay it, and
# fail unless the replayed Result is bit-identical to the recording
# run's, emitting BENCH_workload.json (events/sec both ways).
workload-smoke:
	bash scripts/workload_smoke.sh
	@cat BENCH_workload.json

# Smoke-test the worst-case bound backend: run the hard-SLO builtin
# plan (cheapest-hard-sla) over a 2-shard fleet and in-process, diff
# the two, gate on a non-empty fully certified frontier with zero
# bound violations (every certified sim mean under its guarantee), and
# gate bound throughput within 10x of plain model evaluation, emitting
# BENCH_bounds.json.
bounds-smoke:
	bash scripts/bounds_smoke.sh
	@cat BENCH_bounds.json

# Smoke-test fleet-wide observability: a traced dispatched figure3 over
# 2 shards must reassemble into one well-formed span tree (obsreport
# -check), /metrics must parse and carry the engine counters, and
# tracing must cost <= 5% against the untraced run, emitting
# BENCH_obs.json (points/sec with tracing on and off).
obs-smoke:
	bash scripts/obs_smoke.sh
	@cat BENCH_obs.json

# Smoke-test the calibration observatory: mine a with-sim sweep over a
# 2-shard fleet into a calibration map (finite per-region MAPE,
# freshness gate), serve it (/v1/calib, calib_mape gauges, healthz),
# and run the trust-gated builtin plan — the mined region must skip
# its certification sim, the unmined one must escalate — emitting
# BENCH_calib.json (pairs/sec mined, sim evals saved by trust, live
# observation overhead <= 5%).
calib-smoke:
	bash scripts/calib_smoke.sh
	@cat BENCH_calib.json

lint:
	$(GO) vet ./...
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	@test "$$(grep -rl 'http\.NewRequest' --include='*.go' internal cmd | grep -v '_test\.go$$')" = internal/eval/remote.go || { \
		echo "outbound requests must be built in internal/eval/remote.go only (one fleet transport)"; exit 1; }

# staticcheck runs when the binary is available (CI installs it; locally
# it is optional so the default toolchain stays sufficient).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; fi

fmt:
	gofmt -w .

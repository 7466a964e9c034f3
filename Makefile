# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test race vet bench bench-baseline bench-check smoke fleet-smoke sweep sweep-fast fuzz cover cover-audit clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Full test suite under the race detector (what CI runs).
race:
	$(GO) test -race ./...

# Process-level scenarios: the serving tier's real binaries on free ports
# (serve, chaos failover, tracing, brownout) plus the seeded crash drill.
# `make test` runs them too; this target runs only them, uncached.
smoke:
	$(GO) test -count=1 -run 'Scenario|DrillEndToEnd' ./internal/drill/

# Fleet-simulation smoke: the committed 10-machine chaos scenario through
# gefleet under every dispatch policy; gefleet exits non-zero on any
# lost-forever job. Reruns and shard counts are checked by the Go tests
# (TestFleetDeterminism, TestFleetShardMatrix).
fleet-smoke:
	$(GO) run ./cmd/gefleet -machines 10 -duration 30 -chaos @testdata/fleet_chaos.json -compare

# One benchmark iteration per paper figure + ablations (fast, shape-level).
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x .

# Refresh the committed hot-path baseline (BENCH_BASELINE.json) in place,
# preserving its "previous" (pre-optimization) section.
bench-baseline:
	sh scripts/bench_baseline.sh

# Re-measure into bench_candidate.json and gate against the committed
# baseline: >15% ns/op growth or any allocs/op above baseline fails.
bench-check:
	OUT=bench_candidate.json sh scripts/bench_baseline.sh
	$(GO) run ./cmd/gebench -check -baseline BENCH_BASELINE.json -candidate bench_candidate.json

# Regenerate every figure at paper scale (600 s per sweep point).
sweep:
	$(GO) run ./cmd/gesweep -duration 600 -out results
	$(GO) run ./cmd/gesweep -duration 600 -out results -figures ablations

# Same figures at 1/10 scale for a quick look.
sweep-fast:
	$(GO) run ./cmd/gesweep -duration 60 -out results-fast

fuzz:
	$(GO) test -fuzz FuzzLongestFirst -fuzztime 30s ./internal/cut/
	$(GO) test -fuzz FuzzWaterFill -fuzztime 30s ./internal/dist/
	$(GO) test -fuzz FuzzRectifyDiscrete -fuzztime 30s ./internal/dist/
	$(GO) test -fuzz FuzzAllocateEDF -fuzztime 30s ./internal/qopt/
	$(GO) test -fuzz FuzzKernelVsReference -fuzztime 30s ./internal/sim/
	$(GO) test -fuzz FuzzQuantile -fuzztime 30s ./internal/stats/
	$(GO) test -fuzz FuzzReadTrace -fuzztime 30s ./internal/workload/
	$(GO) test -fuzz '^FuzzGenerate$$' -fuzztime 30s ./internal/faults/
	$(GO) test -fuzz FuzzGenerateCluster -fuzztime 30s ./internal/faults/
	$(GO) test -fuzz FuzzNewMatchesReference -fuzztime 30s ./internal/faults/
	$(GO) test -fuzz FuzzCompareShed -fuzztime 30s ./internal/sched/
	$(GO) test -fuzz FuzzPlanMonotone -fuzztime 30s ./internal/governor/

cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

# Coverage of the shipped programs under what CI and the docs run (not the
# tests): per-package coverage and the functions no invocation reaches.
# Writes only under .cover-audit/; its output is sorted by hand.
cover-audit:
	sh scripts/cover_audit.sh

clean:
	rm -f cover.out bench_candidate.json
	rm -rf results-fast .cover-audit

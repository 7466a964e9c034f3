# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test race vet bench bench-baseline bench-check smoke chaos-smoke fleet-smoke obs-smoke brownout-smoke drill-smoke sweep sweep-fast fuzz cover clean

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

# End-to-end serving smoke: boot geserve, load it, SIGTERM, require exit 0.
smoke:
	sh scripts/serve_smoke.sh

# Fleet failover smoke: 3 replicas behind gegate, gechaos black-holes one
# mid-run, geload must see zero failures and the gateway nonzero hedge wins.
chaos-smoke:
	sh scripts/chaos_smoke.sh

# Observability smoke: traced load through gegate + geserve with -span-log
# everywhere; span logs must merge into one causal tree per request, and
# /metricz (Prometheus) + /timeseriez + gestat must all answer.
obs-smoke:
	sh scripts/obs_smoke.sh

# Fleet-simulation smoke: the committed 10-machine chaos scenario through
# gefleet under every dispatch policy; gefleet exits non-zero on any
# lost-forever job. Reruns and shard counts are checked by the Go tests
# (TestFleetDeterminism, TestFleetShardMatrix).
fleet-smoke:
	$(GO) run ./cmd/gefleet -machines 10 -duration 30 -chaos @testdata/fleet_chaos.json -compare

# Live-GE brownout smoke: governed replicas at 2x capacity must degrade
# (quality >= Q_GE - 0.05, zero failures) and a starved replica must shed
# with drain-derived Retry-After hints.
brownout-smoke:
	sh scripts/brownout_smoke.sh

# Crash-recovery drill smoke: gedrill SIGKILLs and pauses real replicas on
# a seeded schedule; zero acked-then-lost requests, bounded rejoin through
# the slow-start ramp, goodput recovery, quality floor.
drill-smoke:
	sh scripts/drill_smoke.sh

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

clean:
	rm -f cover.out bench_candidate.json
	rm -rf results-fast

#!/bin/sh
# Coverage audit: which statements of the shipped programs does no
# documented invocation run? Builds every command, the five examples and
# perfbench with -cover, runs what CI and the docs run with GOCOVERDIR set,
# merges the counters with `go tool covdata`, and prints per-package
# coverage, the statement totals and the functions that never ran. Sorting
# what never ran (error paths, code only tests reach, code only faults or
# overload reach) is left to the reader. Run from the repository root:
#
#   make cover-audit       # everything it writes goes under .cover-audit/
set -eu

AUDIT="$(pwd)/.cover-audit"
rm -rf "$AUDIT"
mkdir -p "$AUDIT/bin" "$AUDIT/cov" "$AUDIT/merged" "$AUDIT/out" "$AUDIT/tmp"
BIN="$AUDIT/bin"
OUT="$AUDIT/out"
COVER="-cover -coverpkg=goodenough/..."
export GOCOVERDIR="$AUDIT/cov" TMPDIR="$AUDIT/tmp"

go build $COVER -o "$BIN/" ./cmd/... ./examples/...
go build -C perfbench $COVER -o "$BIN/perfbench" .

# Figures: make sweep's two passes at a short duration, and the ASCII plot.
"$BIN/gesweep" -duration 5 -out "$OUT/figs"
"$BIN/gesweep" -duration 5 -out "$OUT/figs" -figures ablations
"$BIN/gesweep" -duration 5 -out "$OUT/figs" -figures fig3 -ascii

# Fleet: the fleet-smoke line, the verify skill's lines, one traced chaos
# run, the policy list and each dispatch policy.
"$BIN/gefleet" -machines 10 -duration 30 -chaos @testdata/fleet_chaos.json -compare
"$BIN/gefleet" -machines 10 -duration 20 -machine-mtbf 30 -machine-mttr 5 -csv
"$BIN/gefleet" -machines 10 -duration 30 -chaos @testdata/fleet_chaos.json \
	-events "$OUT/fleet.events.jsonl" -trace "$OUT/fleet.trace.json" -report
"$BIN/gefleet" -list
for d in rr least-loaded p2c ideal; do
	"$BIN/gefleet" -machines 10 -duration 10 -dispatch "$d"
done

# Single machine: the verify skill's gesim lines, then every output at once.
"$BIN/gesim" -list
"$BIN/gesim" -scheduler ge -rate 154 -duration 20
"$BIN/gesim" -scheduler ge -rate 154 -duration 20 -csv
"$BIN/gesim" -rate 180 -duration 30 -kill-cores 1,4,9,14 -kill-at 5
"$BIN/gesim" -rate 180 -cap-watts 160 -cap-at 10 -cap-for 20
"$BIN/gesim" -rate 180 -stuck-core 3 -stuck-speed 1.2 -stuck-at 5
"$BIN/gesim" -rate 150 -fault-mtbf 60 -fault-mttr 10 -csv
"$BIN/gesim" -rate 180 -kill-cores 3 -kill-at 5 -stuck-core 3 -stuck-speed 1.2 -stuck-at 4
"$BIN/gesim" -rate 180 -kill-cores 1,4 -csv
"$BIN/gesim" -compare -rate 154 -duration 20
"$BIN/gesim" -rate 180 -duration 10 -kill-cores 2 -kill-at 3 -events "$OUT/run.events.jsonl" \
	-trace "$OUT/run.trace.json" -decisions "$OUT/run.decisions.jsonl" -report \
	-timeline "$OUT/run.timeline.csv"

# Traces and capacity planning.
"$BIN/getrace" export -duration 10 -o "$OUT/trace.jsonl"
"$BIN/getrace" replay "$OUT/trace.jsonl"
"$BIN/gecap"

for e in discretedvfs mixedworkload powerbudget quickstart websearch; do
	"$BIN/$e"
done

# perfbench keeps its serving scratch under .bench_build/ in the working
# directory, so it runs from the audit's own.
for w in sim-overload fleet-chaos serve-light serve-brownout; do
	for t in 0 1; do
		(cd "$OUT" && "$BIN/perfbench" --workload "$w" --seconds 1 --trace "$t")
	done
done

# gebench folds a one-iteration run and checks it against the committed
# baseline; one iteration is too noisy to pass the gate, so its verdict
# is ignored.
go test -run '^$' -bench 'BenchmarkKernel' -benchmem -benchtime 1x ./internal/sim/ >"$OUT/bench.txt"
"$BIN/gebench" -note audit <"$OUT/bench.txt" >"$OUT/bench.json"
"$BIN/gebench" -check -baseline BENCH_BASELINE.json -candidate "$OUT/bench.json" || true

# The drill builds its child binaries with go build, which GOFLAGS
# instruments; the test binary itself is built without coverage, because
# go test -cover redirects the children's counters.
go test -c -o "$BIN/drill.test" ./internal/drill/
(cd internal/drill && GOFLAGS="$COVER" "$BIN/drill.test" -test.count=1 \
	-test.run 'Scenario|DrillEndToEnd|FailedShutdown')
GOFLAGS="$COVER" "$BIN/gedrill" -seed 7 -replicas 3 -rate 40 -duration 8s -governed \
	-workdir "$OUT/drill" -rejoin-bound 5s -goodput-frac 0.9 -json "$OUT/drill/report.json"

go tool covdata merge -i="$GOCOVERDIR" -o="$AUDIT/merged"
go tool covdata percent -i="$AUDIT/merged"
go tool covdata textfmt -i="$AUDIT/merged" -o="$AUDIT/profile.txt"
# The totals and the function list leave out the examples and perfbench,
# whose own code is not the program under audit (go tool cover also cannot
# find perfbench's sources, as it is a module of its own).
grep -Ev '^goodenough/(examples|perfbench)/' "$AUDIT/profile.txt" >"$AUDIT/program.txt"
go tool cover -func="$AUDIT/program.txt" >"$AUDIT/func.txt"
echo
echo "functions that never ran:"
awk '$NF == "0.0%" { print $1, $2 }' "$AUDIT/func.txt"
awk 'NR > 1 {
	stmts[$1] = $2
	if ($3 > 0) ran[$1] = 1
} END {
	for (b in stmts) {
		total += stmts[b]
		if (!(b in ran)) missed += stmts[b]
	}
	printf "\nstatements: %d, never run: %d\n", total, missed
}' "$AUDIT/program.txt"
awk '$NF == "0.0%" { n++ } END { printf "functions never run: %d\n", n }' "$AUDIT/func.txt"

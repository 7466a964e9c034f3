#!/bin/sh
# End-to-end brownout smoke: real traffic at ~2x capacity through
# gegate -> governed geserve replicas must brown out, not fall over.
#
# Phase A: two governed replicas behind a quality-aware gateway take a
# closed-loop load at twice their worker count. Gate: zero client-visible
# failures, achieved batch quality within 0.05 of Q_GE, at least one
# governor cut actually happened (the brownout was real, not headroom).
#
# Phase B: one replica with a starvation budget is hit directly. Gate: it
# sheds (429), every shed carries a parseable positive Retry-After derived
# from the drain rate (no_hint == 0), and nothing errors.
#
# Used by `make brownout-smoke` and the CI brownout-smoke job.
set -eu

ADDR1=${ADDR1:-127.0.0.1:8381}
ADDR2=${ADDR2:-127.0.0.1:8382}
GATE=${GATE:-127.0.0.1:8380}
QGE=0.9
TMP=$(mktemp -d)
PIDS=""
# A kill of a process that already exited fails; guarded, it can neither
# set the exit status nor skip the rm under set -e.
cleanup() {
    for pid in $PIDS; do
        kill "$pid" 2>/dev/null || true
    done
    rm -rf "$TMP"
}
trap cleanup EXIT

go build -o "$TMP/geserve" ./cmd/geserve
go build -o "$TMP/gegate" ./cmd/gegate
go build -o "$TMP/geload" ./cmd/geload

wait_healthy() {
    i=0
    until curl -fsS "http://$1/healthz" >/dev/null 2>&1; do
        i=$((i + 1))
        if [ "$i" -ge 50 ]; then
            echo "brownout-smoke: $1 never became healthy" >&2
            exit 1
        fi
        sleep 0.2
    done
}

# csv_field FILE N prints column N of the data row of a geload -csv report.
csv_field() {
    awk -F, -v n="$2" 'NR==2{print $n}' "$1"
}

echo "brownout-smoke: phase A — governed fleet at 2x capacity"
for ADDR in "$ADDR1" "$ADDR2"; do
    "$TMP/geserve" -addr "$ADDR" -concurrency 2 -queue 4 \
        -timeout 15s -drain-timeout 2s \
        -governor -governor-budget 1.5 -governor-quantum 50ms \
        -governor-qge "$QGE" -governor-nominal 500ms -governor-window 2s \
        -decision-log "$TMP/decisions-$ADDR.jsonl" 2>"$TMP/serve-$ADDR.log" &
    PIDS="$PIDS $!"
done
wait_healthy "$ADDR1"
wait_healthy "$ADDR2"

"$TMP/gegate" -addr "$GATE" -replicas "http://$ADDR1,http://$ADDR2" \
    -quality-aware -no-hedge -probe-interval 200ms 2>"$TMP/gate.log" &
PIDS="$PIDS $!"
wait_healthy "$GATE"

curl -fsS "http://$ADDR1/readyz" | grep -q '^ready state=' || {
    echo "brownout-smoke: governed readyz missing state" >&2
    exit 1
}

# 2x capacity: 8 closed-loop workers against 2 replicas x 2 slots.
"$TMP/geload" -url "http://$GATE" -mode closed -concurrency 8 -requests 40 \
    -run-duration 100 -retries 4 -backoff 100ms -csv >"$TMP/loadA.csv"
sed -n 2p "$TMP/loadA.csv"

ERRORS=$(csv_field "$TMP/loadA.csv" 6)
NOHINT=$(csv_field "$TMP/loadA.csv" 8)
OK=$(csv_field "$TMP/loadA.csv" 3)
QMEAN=$(csv_field "$TMP/loadA.csv" 19)
[ "$ERRORS" = "0" ] || {
    echo "brownout-smoke: phase A saw $ERRORS client-visible failures, want 0" >&2
    exit 1
}
[ "$NOHINT" = "0" ] || {
    echo "brownout-smoke: phase A saw $NOHINT hintless sheds, want 0" >&2
    exit 1
}
[ "$OK" -gt 0 ] || {
    echo "brownout-smoke: phase A admitted nothing" >&2
    exit 1
}
awk -v q="$QMEAN" -v qge="$QGE" \
    'BEGIN { exit !(q >= qge - 0.05) }' || {
    echo "brownout-smoke: phase A batch quality $QMEAN below Q_GE - 0.05" >&2
    exit 1
}
CUTS=0
for ADDR in "$ADDR1" "$ADDR2"; do
    C=$(curl -fsS "http://$ADDR/metricz?format=plain" \
        | awk '$2 == "governor_cut_total" {print $3}')
    CUTS=$((CUTS + ${C:-0}))
done
[ "$CUTS" -gt 0 ] || {
    echo "brownout-smoke: no governor cuts under 2x load — overload never bit" >&2
    exit 1
}
echo "brownout-smoke: phase A ok (ok=$OK q_mean=$QMEAN cuts=$CUTS)"

kill $PIDS 2>/dev/null
wait 2>/dev/null || true
PIDS=""

echo "brownout-smoke: phase B — starvation budget must shed with hints"
"$TMP/geserve" -addr "$ADDR1" -concurrency 2 -queue 2 \
    -timeout 15s -drain-timeout 2s \
    -governor -governor-budget 0.05 -governor-quantum 20ms \
    -governor-qge "$QGE" -governor-nominal 500ms 2>"$TMP/serve-B.log" &
PIDS="$PIDS $!"
wait_healthy "$ADDR1"

"$TMP/geload" -url "http://$ADDR1" -mode closed -concurrency 4 -requests 16 \
    -run-duration 100 -retries 1 -backoff 100ms -csv >"$TMP/loadB.csv"
sed -n 2p "$TMP/loadB.csv"

SHED=$(csv_field "$TMP/loadB.csv" 5)
ERRORS=$(csv_field "$TMP/loadB.csv" 6)
NOHINT=$(csv_field "$TMP/loadB.csv" 8)
BSHED=$(curl -fsS "http://$ADDR1/metricz?format=plain" \
    | awk '$2 == "brownout_shed_total" {print $3}')
[ "$ERRORS" = "0" ] || {
    echo "brownout-smoke: phase B saw $ERRORS errors, want 0" >&2
    exit 1
}
[ "${BSHED:-0}" -gt 0 ] || {
    echo "brownout-smoke: phase B never shed (brownout_shed_total=0)" >&2
    exit 1
}
[ "$NOHINT" = "0" ] || {
    echo "brownout-smoke: phase B saw $NOHINT sheds without Retry-After, want 0" >&2
    exit 1
}
# A shedding replica must also tell probes via readyz.
READY=$(curl -s -o /dev/null -w '%{http_code}' "http://$ADDR1/readyz")
echo "brownout-smoke: phase B ok (geload_shed=$SHED brownout_shed_total=$BSHED readyz=$READY)"

kill $PIDS 2>/dev/null
wait 2>/dev/null || true
PIDS=""
echo "brownout-smoke: all phases passed"

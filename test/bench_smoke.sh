#!/bin/sh
# Bench smoke: a quick E17 run must pass its internal correctness checks
# (the indexed and parallel engines against the seed baseline), emit
# JSONL rows carrying engine counters, and write a well-formed span
# trace when asked.
set -eu

BENCH="$1"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

"$BENCH" E17 --quick "--trace-json=$tmp/trace.jsonl" > "$tmp/out"

grep -q '"engine":"indexed-serial".*"counters":{"' "$tmp/out" \
  || { echo "bench-smoke: E17 rows carry no counters" >&2; exit 1; }

[ -s "$tmp/trace.jsonl" ] \
  || { echo "bench-smoke: --trace-json produced no spans" >&2; exit 1; }
grep -q '"span":"rpq.eval"' "$tmp/trace.jsonl" \
  || { echo "bench-smoke: trace is missing the rpq.eval span" >&2; exit 1; }
if grep -v '^{"span":".*","domain":[0-9]*,"depth":[0-9]*,"start_s":[0-9.]*,"end_s":[0-9.]*,"dur_ms":[0-9.]*}$' "$tmp/trace.jsonl"; then
  echo "bench-smoke: malformed trace line" >&2
  exit 1
fi

# E22 is fatal on any disagreement between the packed kernel (serial or
# width-2) and one on-the-fly walk per source, so a zero exit is itself
# the parity gate; additionally pin that the rows carry the packed-kernel
# counters and a genuine width-2 row.
"$BENCH" E22 --quick > "$tmp/e22.out"

grep -q '"engine":"bitset-serial".*"rpq.bitset.sweeps":' "$tmp/e22.out" \
  || { echo "bench-smoke: E22 bitset row carries no packed-kernel counters" >&2; exit 1; }
grep -q '"engine":"bitset-parallel".*"rpq.par_width":2' "$tmp/e22.out" \
  || { echo "bench-smoke: E22 has no width-2 row" >&2; exit 1; }
grep -q '"graph":"hub".*"engine":"bitset-serial"' "$tmp/e22.out" \
  || { echo "bench-smoke: E22 is missing the hub workload" >&2; exit 1; }

# E25 is fatal on answer equality between push, pull, adaptive and the
# per-source walks, on the count-only O(blocks) pin, and on the policy
# gating cases, so a zero exit is itself the gate; additionally pin the
# row shapes and — since E25 shares the kernel with E22 — a fatal
# no-regression gate on the E22 hub row measured above: the packed
# kernel must still beat the per-source walks on the hub workload.
"$BENCH" E25 --quick > "$tmp/e25.out"

grep -q '"phase":"stream","graph":"random_graph".*"mode":"push".*"rpq.bitset.materialized":[1-9]' "$tmp/e25.out" \
  || { echo "bench-smoke: E25 stream row carries no emission counter" >&2; exit 1; }
grep -q '"phase":"stream".*"mode":"adaptive"' "$tmp/e25.out" \
  || { echo "bench-smoke: E25 emitted no adaptive stream row" >&2; exit 1; }
grep -q '"phase":"count_pull".*"mode":"pull".*"rpq.bitset.pull_sweeps":[1-9]' "$tmp/e25.out" \
  || { echo "bench-smoke: E25 pull row did not pull" >&2; exit 1; }
if grep '"phase":"count_pull"' "$tmp/e25.out" | grep -q '"rpq.bitset.materialized"'; then
  echo "bench-smoke: E25 count-only row materialized pairs" >&2; exit 1
fi
grep -q '"phase":"policy".*"reason":"few_units"' "$tmp/e25.out" \
  || { echo "bench-smoke: E25 emitted no few_units policy row" >&2; exit 1; }
grep -q '"phase":"policy".*"reason":"calibrated_serial"' "$tmp/e25.out" \
  || { echo "bench-smoke: E25 emitted no calibrated_serial policy row" >&2; exit 1; }
grep -q '"phase":"persistence","format":"binary"' "$tmp/e25.out" \
  || { echo "bench-smoke: E25 emitted no binary persistence row" >&2; exit 1; }

hub_regressed=$(awk '
  /"graph":"hub"/ && /"engine":"walk-serial"/ {
    if (match($0, /"elapsed_ms":[0-9.]+/))
      walk = substr($0, RSTART + 13, RLENGTH - 13)
  }
  /"graph":"hub"/ && /"engine":"bitset-serial"/ {
    if (match($0, /"elapsed_ms":[0-9.]+/))
      bitset = substr($0, RSTART + 13, RLENGTH - 13)
  }
  END {
    if (walk == "" || bitset == "") { print "missing"; exit }
    if (bitset + 0 < walk + 0) print "ok"; else print "regressed"
  }' "$tmp/e22.out")
[ "$hub_regressed" = "ok" ] \
  || { echo "bench-smoke: E22 hub row regressed ($hub_regressed): packed kernel no longer beats walk-serial" >&2; exit 1; }

# E20 enforces its own fatal checks: warm-cache answers equal cold,
# warm >= 3x faster, planner answers equal left-to-right, planner faster
# on the skewed graph.  Here we additionally pin the row shape.
"$BENCH" E20 --quick > "$tmp/e20.out"

grep -q '"phase":"cache","mode":"warm"' "$tmp/e20.out" \
  || { echo "bench-smoke: E20 emitted no warm-cache row" >&2; exit 1; }
grep -q '"phase":"planner","planner":true.*"est_card":' "$tmp/e20.out" \
  || { echo "bench-smoke: E20 planner row carries no estimate" >&2; exit 1; }

# E23 is fatal on any divergence between the incremental-update pipeline
# and the full-reload baseline (answer equality, hit-rate strictly
# above, warm migration, binary round-trip), so a zero exit is itself
# the gate; additionally pin that the incremental row shows retained
# products and a non-zero hit rate while the baseline shows none, and
# that both persistence formats emitted a timing row.
"$BENCH" E23 --quick > "$tmp/e23.out"

grep -q '"mode":"incremental".*"hit_rate":0\.[1-9].*"invalidated_by_label":0' "$tmp/e23.out" \
  || { echo "bench-smoke: E23 incremental row shows no warm hit rate" >&2; exit 1; }
grep -q '"mode":"incremental".*"retained":[1-9]' "$tmp/e23.out" \
  || { echo "bench-smoke: E23 incremental row retained nothing" >&2; exit 1; }
grep -q '"mode":"full_reload".*"hit_rate":0\.000' "$tmp/e23.out" \
  || { echo "bench-smoke: E23 baseline row is not cache-cold" >&2; exit 1; }
grep -q '"phase":"persistence","format":"binary"' "$tmp/e23.out" \
  || { echo "bench-smoke: E23 emitted no binary persistence row" >&2; exit 1; }
grep -q '"phase":"persistence","format":"text"' "$tmp/e23.out" \
  || { echo "bench-smoke: E23 emitted no text persistence row" >&2; exit 1; }

# E24 is fatal on its structural invariants (always fsyncs every
# append, the weaker policies group-commit, recovery replays every
# record and answers queries like the live graph), so a zero exit is
# itself the gate; additionally pin that all three policy rows and the
# recovery rows were emitted.
"$BENCH" E24 --quick > "$tmp/e24.out"

grep -q '"phase":"append","policy":"always".*"fsyncs":[1-9]' "$tmp/e24.out" \
  || { echo "bench-smoke: E24 always row shows no fsyncs" >&2; exit 1; }
grep -q '"phase":"append","policy":"interval:5"' "$tmp/e24.out" \
  || { echo "bench-smoke: E24 emitted no interval policy row" >&2; exit 1; }
grep -q '"phase":"append","policy":"never".*"fsyncs":0' "$tmp/e24.out" \
  || { echo "bench-smoke: E24 never row is not fsync-free" >&2; exit 1; }
grep -q '"phase":"recovery","records":[1-9]' "$tmp/e24.out" \
  || { echo "bench-smoke: E24 emitted no recovery row" >&2; exit 1; }

echo "bench-smoke: E17 counters/trace, E22 kernel parity, E25 push/pull + streaming, E20 plan, E23 update and E24 durability checks OK"

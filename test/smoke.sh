#!/bin/sh
# End-to-end CLI smoke test: resource-limit flags and exit codes.
#
# Exit-code contract (see bin/gqd.ml): 0 complete, 1 parse/unknown-node,
# 2 evaluation, 3 I/O, 4 budget exhausted (partial result printed).
set -eu

GQD="$1"
tmp=$(mktemp -d)
trap 'kill "${SRV:-}" 2> /dev/null || true; rm -rf "$tmp"' EXIT

run_expect() {
  expected=$1
  shift
  set +e
  "$@" > "$tmp/out" 2> "$tmp/err"
  code=$?
  set -e
  if [ "$code" -ne "$expected" ]; then
    echo "smoke: expected exit $expected, got $code: $*" >&2
    cat "$tmp/err" >&2
    exit 1
  fi
}

"$GQD" demo > "$tmp/bank.graph"

# Unbounded and amply-budgeted runs complete with exit 0.
run_expect 0 "$GQD" rpq "$tmp/bank.graph" 'Transfer*'
run_expect 0 "$GQD" rpq "$tmp/bank.graph" 'Transfer*' --max-steps 100000 --timeout 10
grep -q 'a1 -> a2' "$tmp/out" || { echo "smoke: missing pair in output" >&2; exit 1; }

# A tiny step budget yields a partial result and exit 4; the stderr
# line names the tripped resource and the work done.
run_expect 4 "$GQD" rpq "$tmp/bank.graph" 'Transfer*' --max-steps 5
grep -q 'partial result (budget exhausted: step budget; steps=' "$tmp/err" \
  || { echo "smoke: missing partial-result report" >&2; exit 1; }

# A result cap likewise trips, after printing exactly that many pairs.
run_expect 4 "$GQD" rpq "$tmp/bank.graph" 'Transfer*' --max-results 3
[ "$(wc -l < "$tmp/out")" -eq 3 ] || { echo "smoke: result cap not honoured" >&2; exit 1; }

# An expired deadline trips at the periodic check (every 256 steps), so it
# needs an input with enough work: a 300-edge line graph.
{
  i=0
  while [ "$i" -le 300 ]; do echo "node n$i N"; i=$((i + 1)); done
  i=0
  while [ "$i" -lt 300 ]; do echo "edge e$i n$i a n$((i + 1))"; i=$((i + 1)); done
} > "$tmp/line.graph"
run_expect 4 "$GQD" rpq "$tmp/line.graph" 'a*' --timeout 0
grep -q 'partial result (budget exhausted: deadline; steps=' "$tmp/err" \
  || { echo "smoke: missing deadline report" >&2; exit 1; }

# Parallel evaluation must agree with serial: same pairs, same order,
# regardless of the domain count.
run_expect 0 "$GQD" rpq "$tmp/bank.graph" 'Transfer*' --domains 1
cp "$tmp/out" "$tmp/serial.out"
run_expect 0 "$GQD" rpq "$tmp/bank.graph" 'Transfer*' --domains 2
cmp -s "$tmp/serial.out" "$tmp/out" \
  || { echo "smoke: --domains 2 output differs from --domains 1" >&2; exit 1; }

# Error paths: bad regex is a parse error (1), bad node name too (1),
# no matching path is an evaluation error (2), missing file is I/O (3).
run_expect 1 "$GQD" rpq "$tmp/bank.graph" 'Transfer)('
run_expect 1 "$GQD" rpq "$tmp/bank.graph" 'Transfer*' --from nosuchnode
run_expect 2 "$GQD" shortest "$tmp/bank.graph" 'NoSuchLabel' a1 a3
run_expect 3 "$GQD" rpq "$tmp/nosuch.graph" 'Transfer*'

# Golden-file checks: stdout (and --metrics stderr) must match the
# recorded outputs byte for byte.
golden="$(dirname "$0")/golden"
check_golden() {
  name=$1
  file=$2
  diff -u "$golden/$name" "$file" \
    || { echo "smoke: golden mismatch for $name" >&2; exit 1; }
}

run_expect 0 "$GQD" info "$tmp/bank.graph"
check_golden info.out "$tmp/out"

run_expect 0 "$GQD" rpq "$tmp/bank.graph" 'Transfer.Transfer*'
check_golden rpq_pairs.out "$tmp/out"

run_expect 0 "$GQD" shortest "$tmp/bank.graph" 'Transfer*' a1 a3
check_golden shortest.out "$tmp/out"

run_expect 0 "$GQD" query "$tmp/bank.graph" \
  'MATCH (x:Account)-[:Transfer]->(y) RETURN x.owner, y.owner'
check_golden query.out "$tmp/out"

# --metrics: the counter summary is deterministic on a serial run.
run_expect 0 "$GQD" rpq "$tmp/bank.graph" 'Transfer.Transfer*' \
  --metrics --domains 1
check_golden rpq_pairs.out "$tmp/out"
check_golden metrics.err "$tmp/err"

# --trace-json: every line is a JSON object with the span fields.
run_expect 0 "$GQD" rpq "$tmp/bank.graph" 'Transfer.Transfer*' \
  --trace-json "$tmp/trace.jsonl"
[ -s "$tmp/trace.jsonl" ] || { echo "smoke: empty trace file" >&2; exit 1; }
grep -cq '"span":"rpq.eval"' "$tmp/trace.jsonl" \
  || { echo "smoke: missing rpq.eval span" >&2; exit 1; }
if grep -v '^{"span":".*","domain":[0-9]*,"depth":[0-9]*,"start_s":[0-9.]*,"end_s":[0-9.]*,"dur_ms":[0-9.]*}$' "$tmp/trace.jsonl"; then
  echo "smoke: malformed trace line" >&2; exit 1
fi

# --- gqd --serve: the crash-proof session mode ----------------------------
# Golden transcripts, run from inside $tmp so file paths in replies are
# relative and stable.  Each session pins GQ_FAILPOINTS itself (including
# pinning it empty) so the transcripts hold under `make check-faults`,
# which runs the whole suite with an ambient fault schedule.
GQD_ABS=$(cd "$(dirname "$GQD")" && pwd)/$(basename "$GQD")

printf 'node n1 N\nfrobnicate x y\n' > "$tmp/bad.graph"

# Transcript 1: every second supervised evaluation raises an injected
# transient fault.  The session retries them (the "attempts":2 replies),
# classifies a malformed graph and a missing file without dying, survives
# a budget-exhausting query, keeps answering, and exits 0.
cat > "$tmp/serve_faults.in" <<'EOF'
ping
load bank.graph
rpq Transfer*
set max-steps 5
rpq Transfer*
rpq Transfer)(
load bad.graph
load nosuch.graph
set max-steps none
rpq-from a1 Transfer*
quit
EOF
set +e
(cd "$tmp" && GQ_FAILPOINTS="serve.eval=every:2" "$GQD_ABS" --serve \
  < serve_faults.in > serve_faults.out 2> serve_faults.err)
code=$?
set -e
[ "$code" -eq 0 ] || {
  echo "smoke: serve fault session exited $code" >&2
  cat "$tmp/serve_faults.err" >&2
  exit 1
}
check_golden serve_faults.out "$tmp/serve_faults.out"
[ "$(grep -c '"attempts":2' "$tmp/serve_faults.out")" -ge 3 ] \
  || { echo "smoke: expected at least 3 retried (injected) faults" >&2; exit 1; }

# Transcript 2: two consecutive budget exhaustions trip the rpq breaker
# (threshold 2); the third query is served degraded under the small fixed
# budget, and `stats` reports the open breaker.  No failpoints armed.
cat > "$tmp/serve_breaker.in" <<'EOF'
load bank.graph
set max-steps 2
rpq Transfer*
rpq Transfer*
rpq Transfer*
stats
quit
EOF
set +e
(cd "$tmp" && GQ_FAILPOINTS= "$GQD_ABS" --serve --breaker-threshold 2 \
  < serve_breaker.in > serve_breaker.out 2> serve_breaker.err)
code=$?
set -e
[ "$code" -eq 0 ] || {
  echo "smoke: serve breaker session exited $code" >&2
  cat "$tmp/serve_breaker.err" >&2
  exit 1
}
check_golden serve_breaker.out "$tmp/serve_breaker.out"

# Transcript 3: the EXPLAIN surface.  The first `plan` is a cold miss,
# the `rpq` warms both the plan and product caches, the second `plan`
# reports hits, the CRPQ `plan` shows the selectivity-ordered atoms, and
# a second `load` bumps the generation: `stats` shows the dropped
# products and the final `plan` sees the product cold again while the
# query-only plan survives.
cat > "$tmp/serve_plan.in" <<'EOF'
load bank.graph
plan Transfer.Transfer*
rpq Transfer.Transfer*
plan Transfer.Transfer*
plan x -[Transfer*]-> y, y -[isBlocked]-> z
stats
load bank.graph
stats
plan Transfer.Transfer*
quit
EOF
set +e
(cd "$tmp" && GQ_FAILPOINTS= "$GQD_ABS" --serve \
  < serve_plan.in > serve_plan.out 2> serve_plan.err)
code=$?
set -e
[ "$code" -eq 0 ] || {
  echo "smoke: serve plan session exited $code" >&2
  cat "$tmp/serve_plan.err" >&2
  exit 1
}
check_golden serve_plan.out "$tmp/serve_plan.out"

# --- gqd --listen: the concurrent multi-client server ---------------------
# Transcript 4: admission control over a unix socket.  Everything that
# reaches this transcript is deterministic: sheds are decided by
# counters (connection cap, in-flight quota), not timing, and the
# 200 ms evaluation delay only holds a request in flight long enough
# for the pipelined overflow to arrive behind it.

SOCK="$tmp/gq.sock"
SRV=

wait_sock() {
  i=0
  while [ ! -S "$1" ]; do
    i=$((i + 1))
    [ "$i" -le 100 ] || { echo "smoke: server socket never appeared" >&2; exit 1; }
    sleep 0.05
  done
}

: > "$tmp/serve_server.out"

# (a) A zero-capacity server answers the connection itself with a
#     structured shed reply and closes it; draining it exits 0.
GQ_FAILPOINTS= "$GQD_ABS" --listen "unix:$SOCK" --max-clients 0 \
  > /dev/null 2> "$tmp/serve_server.err" &
SRV=$!
wait_sock "$SOCK"
printf 'ping\n' | GQ_FAILPOINTS= "$GQD_ABS" client "unix:$SOCK" --pipeline \
  >> "$tmp/serve_server.out"
kill -TERM "$SRV"
wait "$SRV" || {
  echo "smoke: --max-clients 0 server exited nonzero" >&2
  cat "$tmp/serve_server.err" >&2
  exit 1
}

# (b) One worker, a one-request in-flight quota, and a 200 ms delay per
#     evaluation: a pipelined burst gets its head admitted and the
#     overflow shed with structured retry hints.  The graph one client
#     loads is the shared snapshot — a second client queries it without
#     loading.  Finally SIGTERM lands while a request is mid-evaluation:
#     graceful drain still delivers that reply, exits 0, and unlinks
#     the socket.
( cd "$tmp" && GQ_FAILPOINTS="serve.eval=delay:200" \
  exec "$GQD_ABS" --listen "unix:$SOCK" --workers 1 --client-inflight 1 \
  > /dev/null 2> "$tmp/serve_server.err" ) &
SRV=$!
wait_sock "$SOCK"
printf 'load bank.graph\nrpq Transfer*\nrpq Transfer*\n' \
  | GQ_FAILPOINTS= "$GQD_ABS" client "unix:$SOCK" --pipeline \
  >> "$tmp/serve_server.out"
printf 'rpq-from a1 Transfer*\n' \
  | GQ_FAILPOINTS= "$GQD_ABS" client "unix:$SOCK" \
  >> "$tmp/serve_server.out"
printf 'shortest a1 a3 Transfer*\n' \
  | GQ_FAILPOINTS= "$GQD_ABS" client "unix:$SOCK" --pipeline \
  >> "$tmp/serve_server.out" &
CLI=$!
sleep 0.1
kill -TERM "$SRV"
wait "$CLI" || { echo "smoke: client lost its in-flight reply" >&2; exit 1; }
wait "$SRV" || {
  echo "smoke: drain exited nonzero" >&2
  cat "$tmp/serve_server.err" >&2
  exit 1
}
[ ! -S "$SOCK" ] || { echo "smoke: drain left the socket behind" >&2; exit 1; }
SRV=
check_golden serve_server.out "$tmp/serve_server.out"

# Transcript 5: request batching.  One worker and a 300 ms evaluation
# delay hold the first client's `load` in flight while both clients'
# identical cached `rpq` requests queue behind it; the worker then pops
# one, steals the other (same plan-cache entry, same budgets) and
# answers both from a single multi-source run.  Each client's transcript
# must be byte-identical to what a solo run would have answered, under
# its own request id, and `stats` afterwards counts both batch members.
( cd "$tmp" && GQ_FAILPOINTS="serve.eval=delay:300" \
  exec "$GQD_ABS" --listen "unix:$SOCK" --workers 1 \
  > /dev/null 2> "$tmp/serve_batch.err" ) &
SRV=$!
wait_sock "$SOCK"
printf 'load bank.graph\nrpq Transfer.Transfer*\n' \
  | GQ_FAILPOINTS= "$GQD_ABS" client "unix:$SOCK" --pipeline \
  > "$tmp/serve_batch_a.out" &
CLI_A=$!
sleep 0.1
printf 'rpq Transfer.Transfer*\n' \
  | GQ_FAILPOINTS= "$GQD_ABS" client "unix:$SOCK" --pipeline \
  > "$tmp/serve_batch_b.out" &
CLI_B=$!
wait "$CLI_A" || { echo "smoke: batch leader client failed" >&2; exit 1; }
wait "$CLI_B" || { echo "smoke: batch follower client failed" >&2; exit 1; }
printf 'stats\n' | GQ_FAILPOINTS= "$GQD_ABS" client "unix:$SOCK" \
  > "$tmp/serve_batch_stats.out"
kill -TERM "$SRV"
wait "$SRV" || {
  echo "smoke: batch server exited nonzero" >&2
  cat "$tmp/serve_batch.err" >&2
  exit 1
}
SRV=
check_golden serve_batch_a.out "$tmp/serve_batch_a.out"
check_golden serve_batch_b.out "$tmp/serve_batch_b.out"
grep -q '"batched":2' "$tmp/serve_batch_stats.out" \
  || { echo "smoke: stats did not report 2 batched requests" >&2
       cat "$tmp/serve_batch_stats.out" >&2; exit 1; }

# --- binary persistence & one-shot deltas ---------------------------------

# Round-trip: save-bin writes a GQB1 snapshot; every graph-reading
# subcommand sniffs the magic and accepts it, with byte-identical output.
run_expect 0 "$GQD" save-bin "$tmp/bank.graph" "$tmp/bank.gqb"
grep -q 'nodes, 10 edges,' "$tmp/out" \
  || { echo "smoke: save-bin summary missing" >&2; exit 1; }
run_expect 0 "$GQD" info "$tmp/bank.gqb"
check_golden info.out "$tmp/out"
run_expect 0 "$GQD" rpq "$tmp/bank.gqb" 'Transfer.Transfer*'
check_golden rpq_pairs.out "$tmp/out"

# Corruption is rejected with the structured parse error (exit 1), never
# a crash: a truncated file fails the length check, a scribbled payload
# fails the checksum.
head -c 40 "$tmp/bank.gqb" > "$tmp/trunc.gqb"
run_expect 1 "$GQD" info "$tmp/trunc.gqb"
grep -q 'error: cannot parse binary graph' "$tmp/err" \
  || { echo "smoke: truncated binary not rejected cleanly" >&2; cat "$tmp/err" >&2; exit 1; }
cp "$tmp/bank.gqb" "$tmp/flip.gqb"
printf 'XXXX' | dd of="$tmp/flip.gqb" bs=1 seek=40 count=4 conv=notrunc 2> /dev/null
run_expect 1 "$GQD" info "$tmp/flip.gqb"
grep -q 'error: cannot parse binary graph' "$tmp/err" \
  || { echo "smoke: corrupted binary not rejected cleanly" >&2; cat "$tmp/err" >&2; exit 1; }

# One-shot deltas: add-edge/del-edge/delta-load apply incrementally and
# report the delta; --out persists, and errors keep the exit-code
# contract (unknown edge name is a parse error).
run_expect 0 "$GQD" add-edge "$tmp/bank.graph" t99 a4 Transfer a1 amount=5 \
  --out "$tmp/bank_upd.graph"
check_golden delta_add.out "$tmp/out"
run_expect 0 "$GQD" del-edge "$tmp/bank_upd.graph" t99
check_golden delta_del.out "$tmp/out"
printf 'add x1 a1 Transfer a3\ndel t1\n' > "$tmp/batch.delta"
run_expect 0 "$GQD" delta-load "$tmp/bank.graph" "$tmp/batch.delta" \
  --out "$tmp/bank_delta.gqb" --binary
run_expect 0 "$GQD" info "$tmp/bank_delta.gqb"
run_expect 1 "$GQD" del-edge "$tmp/bank.graph" nosuch
run_expect 0 "$GQD" delta-load "$tmp/bank.graph" /dev/null # empty batch is a no-op
run_expect 3 "$GQD" delta-load "$tmp/bank.graph" "$tmp/nosuch.delta"

# Transcript 6: snapshot isolation under a live update stream.  Two
# workers; every level sweep of the multi-source kernel sleeps 400 ms,
# and `rpq Transfer*` on the bank graph takes five sweeps, so client A's
# `rpq` holds its epoch-1 snapshot for ~2 s.  Mid-flight, client B applies add-edge/del-edge (epochs 2 and
# 3) — A's answers must be byte-identical to a pre-delta run, while
# client C, arriving after the writes, sees the updated graph, and
# `stats` reports the final epoch, the delta count, and the label-keyed
# invalidation of the Transfer product that was warm when the first
# write landed.
( cd "$tmp" && GQ_FAILPOINTS="rpq.bfs.step=delay:400" \
  exec "$GQD_ABS" --listen "unix:$SOCK" --workers 2 \
  > /dev/null 2> "$tmp/serve_update.err" ) &
SRV=$!
wait_sock "$SOCK"
printf 'load bank.graph\nrpq Transfer*\n' \
  | GQ_FAILPOINTS= "$GQD_ABS" client "unix:$SOCK" --pipeline \
  > "$tmp/serve_update_a.out" &
CLI_A=$!
sleep 0.4
printf 'add-edge t11 a4 Transfer a1\ndel-edge t1\nsave-bin snap.gqb\n' \
  | GQ_FAILPOINTS= "$GQD_ABS" client "unix:$SOCK" \
  > "$tmp/serve_update_b.out"
printf 'rpq Transfer*\n' | GQ_FAILPOINTS= "$GQD_ABS" client "unix:$SOCK" \
  > "$tmp/serve_update_c.out"
printf 'stats\n' | GQ_FAILPOINTS= "$GQD_ABS" client "unix:$SOCK" \
  > "$tmp/serve_update_stats.out"
wait "$CLI_A" || { echo "smoke: pinned reader lost its reply" >&2; exit 1; }
kill -TERM "$SRV"
wait "$SRV" || {
  echo "smoke: update server exited nonzero" >&2
  cat "$tmp/serve_update.err" >&2
  exit 1
}
SRV=
check_golden serve_update_a.out "$tmp/serve_update_a.out"
check_golden serve_update_b.out "$tmp/serve_update_b.out"
check_golden serve_update_c.out "$tmp/serve_update_c.out"
"$GQD_ABS" info "$tmp/snap.gqb" > "$tmp/snap.info"
grep -q 'edges:  10' "$tmp/snap.info" \
  || { echo "smoke: mid-stream binary snapshot wrong" >&2; cat "$tmp/snap.info" >&2; exit 1; }
grep -q '"epoch":3' "$tmp/serve_update_stats.out" \
  || { echo "smoke: stats missing final epoch" >&2; cat "$tmp/serve_update_stats.out" >&2; exit 1; }
grep -q '"deltas":2' "$tmp/serve_update_stats.out" \
  || { echo "smoke: stats missing delta count" >&2; cat "$tmp/serve_update_stats.out" >&2; exit 1; }
grep -q '"invalidated_by_label":1' "$tmp/serve_update_stats.out" \
  || { echo "smoke: stats missing label invalidation" >&2; cat "$tmp/serve_update_stats.out" >&2; exit 1; }

echo "smoke: all CLI checks passed"

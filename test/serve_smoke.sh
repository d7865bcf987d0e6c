#!/bin/sh
# Concurrent-load smoke for `gqd --listen`: one server, one hostile
# client (expensive queries, oversized lines, binary garbage) and six
# well-behaved clients hammering it at the same time.  Fatal if any
# well-behaved reply is dropped, garbled, shed, or an error, and the
# final SIGTERM drain must exit 0 and unlink the socket.  Run by
# `make check-serve` at GQ_DOMAINS=1 and 4.
set -eu

GQD=$1
GQD_ABS=$(cd "$(dirname "$GQD")" && pwd)/$(basename "$GQD")
tmp=$(mktemp -d)
SRV=
trap 'kill "${SRV:-}" 2> /dev/null || true; rm -rf "$tmp"' EXIT

"$GQD_ABS" demo > "$tmp/bank.graph"
SOCK="$tmp/gq.sock"

( cd "$tmp" && GQ_FAILPOINTS= exec "$GQD_ABS" --listen "unix:$SOCK" \
    --queue-depth 256 > /dev/null 2> "$tmp/server.err" ) &
SRV=$!
i=0
while [ ! -S "$SOCK" ]; do
  i=$((i + 1))
  [ "$i" -le 100 ] || { echo "serve-smoke: server socket never appeared" >&2; exit 1; }
  sleep 0.05
done

# Seed the shared snapshot once; every client then queries it.
printf 'load bank.graph\n' | "$GQD_ABS" client "unix:$SOCK" > "$tmp/load.out"
grep -q '"status":"ok"' "$tmp/load.out" \
  || { echo "serve-smoke: load failed" >&2; cat "$tmp/load.out" >&2; exit 1; }

# The well-behaved mix: synchronous clients, one reply per line.
j=0
while [ $j -lt 5 ]; do
  printf 'ping\nrpq Transfer*\nrpq-from a1 Transfer*\nshortest a1 a3 Transfer*\nquery MATCH (x:Account)-[:Transfer]->(y) RETURN x.owner, y.owner\n'
  j=$((j + 1))
done > "$tmp/cmds.txt"
total=$(wc -l < "$tmp/cmds.txt")

# The hostile pipeline: floods without reading, mixing expensive
# queries with frames the wire layer must reject.
k=0
while [ $k -lt 20 ]; do
  printf 'rpq (Transfer.Transfer)*\n'
  head -c 30000 /dev/zero | tr '\0' 'z'
  printf '\n'
  printf '\303\050\n'
  printf 'no-such-command\n'
  k=$((k + 1))
done > "$tmp/hostile.txt"
"$GQD_ABS" client "unix:$SOCK" --pipeline \
  < "$tmp/hostile.txt" > "$tmp/hostile.out" 2>&1 || true &
HPID=$!

pids=
c=0
while [ $c -lt 6 ]; do
  "$GQD_ABS" client "unix:$SOCK" < "$tmp/cmds.txt" > "$tmp/wb$c.out" &
  pids="$pids $!"
  c=$((c + 1))
done
for p in $pids; do
  wait "$p" || { echo "serve-smoke: well-behaved client exited nonzero" >&2; exit 1; }
done
wait "$HPID" || true

# Every well-behaved reply arrived, parses, and succeeded.
c=0
while [ $c -lt 6 ]; do
  got=$(wc -l < "$tmp/wb$c.out")
  [ "$got" -eq "$total" ] \
    || { echo "serve-smoke: client $c got $got of $total replies" >&2; exit 1; }
  bad=$(grep -cv '^{"id":[0-9][0-9]*,"cmd":"[a-z-]*","status":"' "$tmp/wb$c.out" || true)
  [ "$bad" -eq 0 ] \
    || { echo "serve-smoke: client $c has $bad garbled replies" >&2; cat "$tmp/wb$c.out" >&2; exit 1; }
  shed=$(grep -c '"status":"shed"' "$tmp/wb$c.out" || true)
  [ "$shed" -eq 0 ] \
    || { echo "serve-smoke: well-behaved client $c was shed $shed times" >&2; exit 1; }
  errs=$(grep -c '"status":"error"' "$tmp/wb$c.out" || true)
  [ "$errs" -eq 0 ] \
    || { echo "serve-smoke: client $c got $errs error replies" >&2; cat "$tmp/wb$c.out" >&2; exit 1; }
  c=$((c + 1))
done

# The hostile client was answered, not crashed into: it must have seen
# at least one structured reply per line it managed to deliver.
grep -q '"status":"error"' "$tmp/hostile.out" \
  || { echo "serve-smoke: hostile client saw no structured errors" >&2; exit 1; }

kill -TERM "$SRV"
wait "$SRV" || {
  echo "serve-smoke: drain exited nonzero" >&2
  cat "$tmp/server.err" >&2
  exit 1
}
SRV=
[ ! -S "$SOCK" ] || { echo "serve-smoke: drain left the socket behind" >&2; exit 1; }

# Per-client ordering: a second server with two workers, whose loads and
# deltas are slowed by 5 ms so a read started beside its write would lose
# the race.  Each round pipelines `load; rpq a; add-edge; rpq <fresh
# label>` in one write; every read must see the write before it.
printf 'node n0 N\nnode n1 N\nnode n2 N\nedge e0 n0 a n1\nedge e1 n1 a n2\n' > "$tmp/line.graph"
{ cat "$tmp/line.graph"; printf 'edge e2 n2 a n0\n'; } > "$tmp/tri.graph"
SOCK="$tmp/gq-order.sock"
( cd "$tmp" && GQ_FAILPOINTS=graph.load=delay:5,graph.delta=delay:5 exec \
    "$GQD_ABS" --listen "unix:$SOCK" --workers 2 > /dev/null 2> "$tmp/order.err" ) &
SRV=$!
i=0
while [ ! -S "$SOCK" ]; do
  i=$((i + 1))
  [ "$i" -le 100 ] || { echo "serve-smoke: ordering socket never appeared" >&2; exit 1; }
  sleep 0.05
done
round=0
while [ $round -lt 40 ]; do
  if [ $((round % 2)) -eq 0 ]; then g=line.graph; n=2; else g=tri.graph; n=3; fi
  printf 'load %s\nrpq a\nadd-edge w n0 l%d n1\nrpq l%d\n' "$g" $round $round \
    | "$GQD_ABS" client "unix:$SOCK" --pipeline > "$tmp/order.out"
  if grep -q 'no graph loaded' "$tmp/order.out" \
    || ! grep -q "^{\"id\":2,\"cmd\":\"rpq\",\"status\":\"ok\".*\"count\":$n}" "$tmp/order.out" \
    || ! grep -q '^{"id":4,"cmd":"rpq","status":"ok".*"count":1}' "$tmp/order.out"; then
    echo "serve-smoke: round $round read a stale state" >&2
    cat "$tmp/order.out" >&2
    exit 1
  fi
  round=$((round + 1))
done
kill -TERM "$SRV"
wait "$SRV" || { echo "serve-smoke: ordering server drain exited nonzero" >&2; exit 1; }
SRV=

# Single-source reads across writes, on a like server that admits a
# ten-request pipeline (in-flight counts drop only once a reply is
# written, so the default per-client quota would shed it): each round
# pipelines `rpq-from` between two writes, the first on a label the
# warm `a*` product does not read (so that product migrates to the new
# snapshot) and the second on one it does.  Every rpq-from answer must
# equal a cold multi-source evaluation (the `rpq` CLI, filtered to the
# source) of the graph at the epoch the preceding write reported.
cold() { # FILE SRC REGEX -> the answers array of a reply
  printf '[%s]' "$("$GQD_ABS" rpq "$1" "$3" \
    | awk -v s="$2" '$1 == s { printf "%s\"%s\"", (n++ ? "," : ""), $3 }')"
}
expect() { # ID ANSWERS: reply ID is an ok rpq-from carrying ANSWERS
  line=$(grep "^{\"id\":$1,\"cmd\":\"rpq-from\",\"status\":\"ok\"" "$tmp/from.out" || true)
  case "$line" in
    *"\"answers\":$2,"*) ;;
    *)
      echo "serve-smoke: round $round rpq-from id $1 expected $2" >&2
      cat "$tmp/from.out" >&2
      exit 1 ;;
  esac
}
for g in line tri; do
  { cat "$tmp/$g.graph"; printf 'edge w1 n2 b n1\n'; } > "$tmp/$g.s1.graph"
  { cat "$tmp/$g.s1.graph"; printf 'edge w2 n2 a n0\n'; } > "$tmp/$g.s2.graph"
  eval "${g}_3=\$(cold \"\$tmp/$g.graph\" n0 'a*')"
  eval "${g}_5=\$(cold \"\$tmp/$g.s1.graph\" n0 'a*.b')"
  eval "${g}_7=\$(cold \"\$tmp/$g.s1.graph\" n1 'a*')"
  eval "${g}_9=\$(cold \"\$tmp/$g.s2.graph\" n1 'a*')"
  eval "${g}_10=\$(cold \"\$tmp/$g.s2.graph\" n0 'a*.b')"
done
SOCK="$tmp/gq-from.sock"
( cd "$tmp" && GQ_FAILPOINTS=graph.load=delay:5,graph.delta=delay:5 exec \
    "$GQD_ABS" --listen "unix:$SOCK" --workers 2 --client-inflight 16 \
    > /dev/null 2> "$tmp/from.err" ) &
SRV=$!
i=0
while [ ! -S "$SOCK" ]; do
  i=$((i + 1))
  [ "$i" -le 100 ] || { echo "serve-smoke: rpq-from socket never appeared" >&2; exit 1; }
  sleep 0.05
done
round=0
while [ $round -lt 20 ]; do
  if [ $((round % 2)) -eq 0 ]; then g=line; else g=tri; fi
  printf 'load %s.graph\nrpq a*\nrpq-from n0 a*\nadd-edge w1 n2 b n1\nrpq-from n0 a*.b\nrpq a*\nrpq-from n1 a*\nadd-edge w2 n2 a n0\nrpq-from n1 a*\nrpq-from n0 a*.b\n' "$g" \
    | "$GQD_ABS" client "unix:$SOCK" --pipeline > "$tmp/from.out"
  e4=$(sed -n 's/^{"id":4,"cmd":"add-edge","status":"ok".*"epoch":\([0-9]*\).*/\1/p' "$tmp/from.out")
  e8=$(sed -n 's/^{"id":8,"cmd":"add-edge","status":"ok".*"epoch":\([0-9]*\).*/\1/p' "$tmp/from.out")
  [ -n "$e4" ] && [ -n "$e8" ] && [ "$e8" -eq $((e4 + 1)) ] || {
    echo "serve-smoke: round $round writes did not report consecutive epochs" >&2
    cat "$tmp/from.out" >&2
    exit 1
  }
  for id in 3 5 7 9 10; do
    eval "want=\$${g}_$id"
    expect "$id" "$want"
  done
  round=$((round + 1))
done
kill -TERM "$SRV"
wait "$SRV" || { echo "serve-smoke: rpq-from server drain exited nonzero" >&2; exit 1; }
SRV=

echo "serve-smoke: 6 clients x $total replies clean under hostile load, 40 ordered write-then-read rounds, 20 rpq-from-across-writes rounds (GQ_DOMAINS=${GQ_DOMAINS:-default})"

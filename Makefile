.PHONY: all check perfbench-selftest check-faults check-plan check-serve check-bitset check-kernel check-updates check-recovery test bench bench-smoke clean

all:
	dune build @all

# The tier-1 gate: build everything (libs, CLI, bench, examples) and run
# the full test suite, including the CLI smoke test (test/smoke.sh),
# then re-run it under a canned fault schedule and with the plan layer
# toggled off and on.
check:
	dune build @all
	dune runtest
	$(MAKE) check-faults
	$(MAKE) check-plan
	$(MAKE) check-serve
	$(MAKE) check-bitset
	$(MAKE) check-kernel
	$(MAKE) check-updates
	$(MAKE) check-recovery
	$(MAKE) perfbench-selftest

# The serve benchmark's self-test (perfbench/run.py --self-test): builds
# the benchmark driver against the current libraries and runs every
# workload briefly, untraced and traced.  A library API change that
# breaks the driver's build fails here, not only in a benchmark run.
perfbench-selftest:
	python3 perfbench/run.py --self-test

# The whole suite again with every library failpoint site armed — a
# delay-only schedule, so checks take the armed slow path (registry
# lookup, counters, sleeps) without changing any answer; the serve-mode
# transcripts pin their own GQ_FAILPOINTS on top.  Run at pool widths 1
# and 4 so the armed sites are also crossed from parallel domains.
FAULT_SCHEDULE = graph.load=delay:1,graph.delta=delay:0,graph.save=delay:0,rpq.product.build=delay:0,rpq.bfs.step=delay:0,crpq.join.atom=delay:0,pool.fork=delay:0,serve.eval=delay:0,wal.append=delay:0,wal.fsync=delay:0,wal.checkpoint=delay:0,wal.rotate=delay:0
check-faults:
	dune build @all
	GQ_FAILPOINTS="$(FAULT_SCHEDULE)" GQ_DOMAINS=1 dune runtest --force
	GQ_FAILPOINTS="$(FAULT_SCHEDULE)" GQ_DOMAINS=4 dune runtest --force

# The whole suite twice more: once with the plan layer fully disabled
# (no compilation cache, left-to-right atom order, no backward
# evaluation) and once pinned on.  The golden files and the differential
# properties pin the answers, so both runs passing means caching and
# planning never change results.
check-plan:
	dune build @all
	GQ_PLAN_CACHE=off GQ_PLAN=off dune runtest --force
	GQ_PLAN_CACHE=on GQ_PLAN=on dune runtest --force

# Concurrent-load smoke for `gqd --listen` (test/serve_smoke.sh): six
# synchronous clients and one hostile flooder against one server, fatal
# on any dropped, garbled, shed or failed well-behaved reply, ending in
# a SIGTERM drain that must exit 0.  Run single- and multi-worker.
check-serve:
	dune build bin/gqd.exe
	GQ_DOMAINS=1 bash test/serve_smoke.sh _build/default/bin/gqd.exe
	GQ_DOMAINS=4 bash test/serve_smoke.sh _build/default/bin/gqd.exe

# The whole suite with the bit-parallel multi-source kernel forced off
# (scalar stamped-array engine) and forced on, each at pool widths 1 and
# 4.  The differential properties and the golden files pin the answers,
# so all four runs passing means the packed kernel is answer-equivalent
# to the scalar one under every width; kernel-sensitive goldens pin
# GQ_BITSET themselves.
check-bitset:
	dune build @all
	GQ_BITSET=off GQ_DOMAINS=1 dune runtest --force
	GQ_BITSET=off GQ_DOMAINS=4 dune runtest --force
	GQ_BITSET=on GQ_DOMAINS=1 dune runtest --force
	GQ_BITSET=on GQ_DOMAINS=4 dune runtest --force

# The whole suite with the packed kernel on and the sweep direction
# pinned to push-only, pull-only, and the adaptive heuristic, each at
# pool widths 1 and 4.  The differential properties and goldens pin the
# answers, so all six runs passing means the pull direction and the
# per-sweep switching never change results under any width; goldens
# whose counters are direction-sensitive pin GQ_PULL_THRESHOLD
# themselves (empty = adaptive default).
check-kernel:
	dune build @all
	GQ_BITSET=on GQ_PULL_THRESHOLD=push GQ_DOMAINS=1 dune runtest --force
	GQ_BITSET=on GQ_PULL_THRESHOLD=push GQ_DOMAINS=4 dune runtest --force
	GQ_BITSET=on GQ_PULL_THRESHOLD=pull GQ_DOMAINS=1 dune runtest --force
	GQ_BITSET=on GQ_PULL_THRESHOLD=pull GQ_DOMAINS=4 dune runtest --force
	GQ_BITSET=on GQ_PULL_THRESHOLD= GQ_DOMAINS=1 dune runtest --force
	GQ_BITSET=on GQ_PULL_THRESHOLD= GQ_DOMAINS=4 dune runtest --force

# The update/persistence suite (test/test_updates.ml) under the armed
# delta/save failpoint sites, at pool widths 1 and 4: the model-based
# properties must hold when incremental application is crossed from
# parallel domains and every update-path failpoint takes the armed
# slow path.
UPDATE_SCHEDULE = graph.delta=delay:0,graph.save=delay:0,graph.load=delay:0
check-updates:
	dune build test/test_updates.exe
	GQ_FAILPOINTS="$(UPDATE_SCHEDULE)" GQ_DOMAINS=1 dune exec test/test_updates.exe
	GQ_FAILPOINTS="$(UPDATE_SCHEDULE)" GQ_DOMAINS=4 dune exec test/test_updates.exe

# The WAL crash-recovery suite (test/test_wal.ml: model-based recovery
# properties, torn tails, injected faults, every recovery edge case)
# plus the SIGKILL smoke (test/recover_smoke.sh), both with the WAL
# failpoint sites armed on the delay slow path, at pool widths 1 and 4.
RECOVERY_SCHEDULE = wal.append=delay:0,wal.fsync=delay:0,wal.checkpoint=delay:0,wal.rotate=delay:0,graph.save=delay:0,graph.delta=delay:0
check-recovery:
	dune build test/test_wal.exe bin/gqd.exe
	GQ_FAILPOINTS="$(RECOVERY_SCHEDULE)" GQ_DOMAINS=1 dune exec test/test_wal.exe
	GQ_FAILPOINTS="$(RECOVERY_SCHEDULE)" GQ_DOMAINS=4 dune exec test/test_wal.exe
	GQ_FAILPOINTS="$(RECOVERY_SCHEDULE)" GQ_DOMAINS=1 bash test/recover_smoke.sh _build/default/bin/gqd.exe
	GQ_FAILPOINTS="$(RECOVERY_SCHEDULE)" GQ_DOMAINS=4 bash test/recover_smoke.sh _build/default/bin/gqd.exe

test: check

bench:
	dune exec bench/main.exe -- --quick

# Quick E17 run with a span trace; exits nonzero if the indexed or
# parallel engines ever disagree with the seed baseline, if the JSONL
# rows carry no counters, or if the trace is empty or malformed.  Also
# wired into `dune runtest` via test/dune.
bench-smoke:
	dune build bench/main.exe
	bash test/bench_smoke.sh _build/default/bench/main.exe

clean:
	dune clean

.PHONY: all check check-env perfbench-selftest check-faults check-serve check-updates check-recovery test bench bench-smoke clean

all:
	dune build @all

# The tier-1 gate: build everything (libs, CLI, bench, examples) and run
# the full test suite, including the CLI smoke test (test/smoke.sh),
# then re-run it at pool widths 1 and 4 with and without a canned fault
# schedule.
check:
	dune build @all
	$(MAKE) check-env
	dune runtest
	$(MAKE) check-faults
	$(MAKE) check-serve
	$(MAKE) check-updates
	$(MAKE) check-recovery
	$(MAKE) perfbench-selftest

# The serve benchmark's self-test (perfbench/run.py --self-test): builds
# the benchmark driver against the current libraries and runs every
# workload briefly, untraced and traced.  A library API change that
# breaks the driver's build fails here, not only in a benchmark run.
perfbench-selftest:
	python3 perfbench/run.py --self-test

# The library and the CLI read exactly two environment variables,
# GQ_DOMAINS and GQ_FAILPOINTS: fail on any other getenv (or on one
# whose variable name is not a literal) in lib/ or bin/.
check-env:
	@bad=$$(grep -rnoE '(Sys|Unix)\.(getenv(_opt)?|environment)([[:space:]]+"[^"]*")?' \
	  --include='*.ml' lib bin | grep -vE '"GQ_(DOMAINS|FAILPOINTS)"$$'); \
	if [ -n "$$bad" ]; then \
	  echo "check-env: lib/ or bin/ reads an environment variable other than GQ_DOMAINS or GQ_FAILPOINTS:" >&2; \
	  echo "$$bad" >&2; exit 1; \
	fi

# The whole suite again under the only two settings that are still
# configuration: pool width (GQ_DOMAINS 1 and 4, so parallel paths are
# crossed from several domains) and the fault schedule (unset, and every
# library failpoint site armed with a delay-only schedule, so checks take
# the armed slow path — registry lookup, counters, sleeps — without
# changing any answer; the serve-mode transcripts pin their own
# GQ_FAILPOINTS on top).
FAULT_SCHEDULE = graph.load=delay:1,graph.delta=delay:0,graph.save=delay:0,rpq.product.build=delay:0,rpq.bfs.step=delay:0,crpq.join.atom=delay:0,pool.fork=delay:0,serve.eval=delay:0,wal.append=delay:0,wal.fsync=delay:0,wal.checkpoint=delay:0,wal.rotate=delay:0
check-faults:
	dune build @all
	env -u GQ_FAILPOINTS GQ_DOMAINS=1 dune runtest --force
	env -u GQ_FAILPOINTS GQ_DOMAINS=4 dune runtest --force
	GQ_FAILPOINTS="$(FAULT_SCHEDULE)" GQ_DOMAINS=1 dune runtest --force
	GQ_FAILPOINTS="$(FAULT_SCHEDULE)" GQ_DOMAINS=4 dune runtest --force

# Concurrent-load smoke for `gqd --listen` (test/serve_smoke.sh): six
# synchronous clients and one hostile flooder against one server, fatal
# on any dropped, garbled, shed or failed well-behaved reply, ending in
# a SIGTERM drain that must exit 0.  Run single- and multi-worker.
check-serve:
	dune build bin/gqd.exe
	GQ_DOMAINS=1 bash test/serve_smoke.sh _build/default/bin/gqd.exe
	GQ_DOMAINS=4 bash test/serve_smoke.sh _build/default/bin/gqd.exe

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

#!/usr/bin/env python3
"""Serve benchmark: drives `gqd --listen` through three seeded workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload log_mix --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The first form builds gqd and the driver from source with dune, in the
benchmark's own workspace under .perfbench/build, runs one workload and
prints, as its last stdout line, one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  The exit code is 0 only when every
checked answer matched.

--self-test runs every workload briefly with a small seed, untraced and
traced, and asserts that each metric named in BENCHMARK.json is emitted
with its unit and that nothing failed.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.getcwd()
# The benchmark's dune workspace: its own project file plus links to the
# sources it compiles.
BUILD = os.path.join(".perfbench", "build")
SOURCES = {"lib": "lib", "bin": "bin", "driver": os.path.join("perfbench", "driver")}
DRIVER = os.path.join(BUILD, "_build", "default", "driver", "perfbench.exe")
GQD = os.path.join(BUILD, "_build", "default", "bin", "gqd.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    """Build gqd and the driver; dune output goes to stderr."""
    for need in SOURCES.values():
        if not os.path.isdir(os.path.join(ROOT, need)):
            fail("not the root of a full checkout (missing %s)" % need)
    os.makedirs(BUILD, exist_ok=True)
    for name, src in SOURCES.items():
        link = os.path.join(BUILD, name)
        if not os.path.islink(link):
            os.symlink(os.path.join("..", "..", src), link)
    shutil.copyfile(os.path.join("perfbench", "dune-project"),
                    os.path.join(BUILD, "dune-project"))
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet",
         "./bin/gqd.exe", "./driver/perfbench.exe"],
        cwd=BUILD, stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=850)
    if r.returncode != 0:
        fail("build failed")


def run_driver(args, capture=False):
    cmd = [DRIVER, "--gqd", GQD,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # Its own process group: on a timeout the driver and every server it
    # started are killed together, then reaped.
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE if capture else None,
                         text=True, start_new_session=True)
    try:
        out, _ = p.communicate(timeout=175)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        fail("timed out")
    return subprocess.CompletedProcess(cmd, p.returncode, out, None)


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ok = True
    for w in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            a = argparse.Namespace(workload=w["name"], seed=1, seconds=2, trace=trace)
            r = run_driver(a, capture=True)
            lines = r.stdout.strip().splitlines()
            res = json.loads(lines[-1]) if lines else {}
            got = res.get("metrics", {})
            problems = []
            if r.returncode != 0:
                problems.append("exit code %d" % r.returncode)
            if res.get("correct") is not True or res.get("failed") != 0:
                problems.append("correct=%s failed=%s" % (res.get("correct"), res.get("failed")))
            for m in bench[key]:
                v = got.get(m["name"])
                if v is None or v.get("unit") != m["unit"] or not isinstance(v.get("value"), (int, float)):
                    problems.append("metric %s missing or mis-typed: %r" % (m["name"], v))
            extra = set(got) - {m["name"] for m in bench[key]}
            if extra:
                problems.append("unlisted metrics: %s" % sorted(extra))
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print("self-test %-9s trace=%d: %s" % (w["name"], trace, status))
            ok = ok and not problems
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    build()
    if args.self_test:
        sys.exit(self_test())
    if args.workload is None or args.seed is None:
        fail("--workload and --seed are required")
    sys.exit(run_driver(args).returncode)


if __name__ == "__main__":
    main()

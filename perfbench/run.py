#!/usr/bin/env python3
"""Repository benchmark: builds libvanet and the harness, then runs one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from anywhere inside a checkout; everything is built into and written
under <checkout>/.bench_build (or $CARGO_TARGET_DIR when set, relative to
the checkout). The last stdout line is the harness's result object; the
build log goes to stderr. Exits non-zero without a result when the build
or the run fails.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
TARGETS = ["perfbench_run", "perfbench_selftest"]
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the harness; raises on failure."""
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD / ".build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not any((BUILD / f).exists() for f in ("build.ninja", "Makefile")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(
                ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release", *generator],
                check=True, stdout=sys.stderr)
        jobs = str(min(4, len(os.sched_getaffinity(0))))
        subprocess.run(
            ["cmake", "--build", str(BUILD), "--target", *TARGETS, "-j", jobs],
            check=True, stdout=sys.stderr)


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec, {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=2008)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1
    common = ["--root", str(ROOT), "--work", str(BUILD)]
    if args.selftest:
        return subprocess.run([str(BUILD / "perfbench_selftest"), *common],
                              timeout=RUN_TIMEOUT_S).returncode

    spec, names = declared_metrics(args.trace)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    try:
        run = subprocess.run(
            [str(BUILD / "perfbench_run"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), *common],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        print("\n".join(lines), file=sys.stderr)
        return run.returncode
    result = json.loads(lines[-1])
    if set(result["metrics"]) != names:
        print(f"perfbench: harness metrics {sorted(result['metrics'])} differ "
              f"from BENCHMARK.json {sorted(names)}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Same-host perfbench A/B: a git revision (parent) against this checkout (change).

    python3 tools/perf_ab.py REV [--seconds S]

REV is checked out from local git history into a temporary worktree that is
removed on exit; the change side is this checkout, uncommitted edits
included. Each side runs its own perfbench/run.py --trace 0, 10 pairs per
BENCHMARK.json workload at seeds 2008..2017, parent first in even pairs.
One markdown row per (workload, end-to-end metric) gives the parent median
and IQR, the change median, the delta, the pairs the change won (ties count
for neither) and a verdict from the metric's `better` and `bound`:
  regressed  the change median is worse than the parent's by > bound x parent
  gain       >= 9/10 pairs won and the median gap exceeds the parent IQR
  same       anything else
Exit 1 on a regressed row or a failed change run (non-zero exit, "correct":
false or failed > 0), 2 when a parent run fails (no verdict), else 0.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
FIRST_SEED = 2008
GAIN_WINS = 9  # of PAIRS


def run_failure(run):
    """Why one perfbench run cannot count, or None when it is usable."""
    if run["returncode"] != 0:
        return f"exited {run['returncode']}"
    result = run["result"]
    if result is None:
        return "printed no result object"
    if result.get("correct") is not True:
        return '"correct": false'
    if result.get("failed", 0) > 0:
        return f"failed {result['failed']} of {result.get('attempted')}"
    return None


def judge(spec, pairs):
    """Verdict for collected runs: (rows, exit code, problems).

    `pairs` maps each workload to a list of {"parent": run, "change": run}
    where a run is {"returncode": int, "result": dict or None}; a pair may
    lack its second run when collection stopped at a failure.
    """
    problems = {"parent": [], "change": []}
    for workload, runs in pairs.items():
        for i, pair in enumerate(runs):
            for side, run in pair.items():
                why = run_failure(run)
                if why:
                    problems[side].append(f"{side} run {workload} pair {i} "
                                          f"(seed {FIRST_SEED + i}): {why}")
    if problems["parent"]:
        return [], 2, problems["parent"] + problems["change"]
    if problems["change"]:
        return [], 1, problems["change"]

    rows = []
    for workload, runs in pairs.items():
        for metric in spec["end_to_end"]:
            name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
            parent = [p["parent"]["result"]["metrics"][name]["value"] for p in runs]
            change = [p["change"]["result"]["metrics"][name]["value"] for p in runs]
            p_med, c_med = statistics.median(parent), statistics.median(change)
            q1, _, q3 = statistics.quantiles(parent, n=4)
            won = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
            gap = sign * (c_med - p_med)  # > 0: the change is better
            if -gap > metric["bound"] * p_med:
                verdict = "regressed"
            elif won * PAIRS >= GAIN_WINS * len(runs) and gap > q3 - q1:
                verdict = "gain"
            else:
                verdict = "same"
            rows.append({"workload": workload, "metric": name,
                         "unit": metric["unit"], "parent_median": p_med,
                         "parent_iqr": q3 - q1, "change_median": c_med,
                         "delta_pct": 100.0 * (c_med - p_med) / p_med if p_med else 0.0,
                         "won": won, "pairs": len(runs), "verdict": verdict})
    return rows, int(any(r["verdict"] == "regressed" for r in rows)), []


def render(rows):
    lines = ["| workload | metric | parent median | parent IQR | change median "
             "| delta | pairs won | verdict |",
             "|---|---|---:|---:|---:|---:|---:|---|"]
    for r in rows:
        verdict = f"**{r['verdict']}**" if r["verdict"] == "regressed" else r["verdict"]
        lines.append(
            f"| {r['workload']} | `{r['metric']}` ({r['unit']}) "
            f"| {r['parent_median']:.4g} | {r['parent_iqr']:.3g} "
            f"| {r['change_median']:.4g} | {r['delta_pct']:+.1f}% "
            f"| {r['won']}/{r['pairs']} | {verdict} |")
    return "\n".join(lines)


def perfbench(checkout, workload, seed, seconds):
    """One `perfbench/run.py --trace 0` run of `checkout`."""
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)  # an absolute one would share builds
    proc = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, env=env)
    lines = proc.stdout.splitlines()
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    host = next((line for line in lines if line.startswith("# host ")), None)
    return {"returncode": proc.returncode, "result": result, "host": host}


def collect(parent_root, spec, seconds):
    """Runs the pairs; stops at the first failed run (its verdict is set)."""
    sides = {"parent": parent_root, "change": ROOT}
    pairs, hosts = {}, {}
    for workload in (w["name"] for w in spec["workloads"]):
        pairs[workload] = []
        for i in range(PAIRS):
            pair = {}
            pairs[workload].append(pair)
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                print(f"perf_ab: {workload} pair {i} {side}", file=sys.stderr)
                pair[side] = perfbench(sides[side], workload, FIRST_SEED + i, seconds)
                hosts.setdefault(side, pair[side]["host"])
                if run_failure(pair[side]):
                    return pairs, hosts
    return pairs, hosts


def git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="parent revision (any local commit-ish)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="perfbench run length (default: BENCHMARK.json)")
    args = parser.parse_args(argv)
    try:
        rev = git("rev-parse", "--verify", "--quiet", f"{args.rev}^{{commit}}")
    except subprocess.CalledProcessError:
        print(f"perf_ab: unknown revision {args.rev!r}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # still clean up
    temp = Path(tempfile.mkdtemp(prefix="perf_ab."))
    worktree = temp / "parent"
    try:
        git("worktree", "add", "--detach", str(worktree), rev)
        pairs, hosts = collect(worktree, spec, args.seconds)
    except subprocess.CalledProcessError as error:
        print(f"perf_ab: cannot check out {rev}: {error}", file=sys.stderr)
        return 2
    finally:
        subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force",
                        str(worktree)], stderr=subprocess.DEVNULL)
        shutil.rmtree(temp, ignore_errors=True)
        subprocess.run(["git", "-C", str(ROOT), "worktree", "prune"])

    rows, code, problems = judge(spec, pairs)
    print(f"### perfbench A/B: `{rev[:10]}` (parent) vs this checkout (change), "
          f"{PAIRS} pairs of {args.seconds:g} s runs\n")
    print("```")
    for side in ("parent", "change"):
        print(hosts.get(side) or f"# host ({side}: none printed)")
    print("```\n")
    if rows:
        print(render(rows))
    for problem in problems:
        print(f"- {problem}")
    print(f"\nexit {code}: " + {0: "no regression", 1: "change fails the gate",
                                 2: "parent run failed; no verdict"}[code])
    return code


if __name__ == "__main__":
    sys.exit(main())

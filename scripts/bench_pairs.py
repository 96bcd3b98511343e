#!/usr/bin/env python3
"""Alternating parent/change pairs of ``perfbench/run.py``, written to ``BENCH_<tag>.json``.

    python3 scripts/bench_pairs.py PARENT CHANGE --tag NAME [--workloads W ...]
        [--pairs 10] [--seed 0] [--seconds 30] [--out DIR] [--tier1]

PARENT and CHANGE are two checkouts of this repository. For each workload,
pair i runs both sides at workload seed ``--seed + i``, each run in a fresh
process, the parent first in even pairs and the change first in odd ones.
Every run must report ``correct``, and both runs of a pair must print the
same ``digest`` lines.

For each workload and each end-to-end metric of the parent's
``BENCHMARK.json``, the JSON holds each side's median and quartiles, the
ratio of the medians (change over parent), the pairs the change wins and
loses (ties count for neither), the parent's spread (interquartile range
over median), the bound and one verdict:

- ``better``: the change wins at least nine tenths of the pairs and the
  medians differ by more than the parent's interquartile range;
- ``past bound``: the change's median is worse than the parent's by more
  than the bound, the regression the benchmark refuses;
- ``worse within bound``: the change loses nine tenths of the pairs and the
  medians differ by more than the parent's interquartile range;
- ``undecided``: none of these, and the parent's spread is wider than the
  bound, so the pairs cannot show the metric within it;
- ``within bound``: otherwise.

The same rows are printed as a markdown table. ``--tier1`` also times each
side's Tier-1 suite once. Exits 1 if any run is not correct or any pair's
digests differ.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("acceptance", "scale", "logged")
SIDES = ("parent", "change")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in a fresh process: its correctness,
    digest lines and end-to-end metric values."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{tree}: {' '.join(cmd[1:])} printed no result:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    return {
        "correct": result["correct"],
        "digests": sorted(line for line in lines if line.startswith("digest ")),
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def quartiles(values: list[float]) -> dict[str, float]:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """One metric over the pairs: each side's quartiles, wins and the verdict."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (change - parent) < 0: the change is better
    p, c = quartiles(parent), quartiles(change)
    wins = sum(sign * (b - a) < 0 for a, b in zip(parent, change))
    losses = sum(sign * (b - a) > 0 for a, b in zip(parent, change))
    gap = sign * (c["median"] - p["median"])  # > 0: the change is worse
    iqr = p["q3"] - p["q1"]
    spread = iqr / p["median"]
    decisive = 0.9 * len(parent)
    if wins >= decisive and -gap > iqr:
        verdict = "better"
    elif gap > bound * abs(p["median"]):
        verdict = "past bound"
    elif losses >= decisive and gap > iqr:
        verdict = "worse within bound"
    elif spread > bound:
        verdict = "undecided"
    else:
        verdict = "within bound"
    return {"parent": p, "change": c, "ratio": c["median"] / p["median"], "wins": wins,
            "losses": losses, "parent_spread": spread, "bound": bound, "better": better,
            "verdict": verdict}


def tier1(tree: Path) -> dict:
    """Wall seconds and exit status of one Tier-1 run in ``tree``."""
    env = {**os.environ, "PYTHONPATH": str(Path(tree).resolve() / "src")}
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
                          cwd=tree, env=env, capture_output=True, text=True)
    return {"seconds": time.perf_counter() - start, "returncode": proc.returncode}


def git_rev(tree: Path) -> str | None:
    proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=tree,
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def table(workloads: dict) -> str:
    def num(x):
        return f"{x:.0f}" if abs(x) >= 1e4 else f"{x:.4g}"

    def cell(q):
        return f"{num(q['median'])} ({num(q['q1'])}, {num(q['q3'])})"

    rows = ["| workload | metric | parent median (q1, q3) | change median (q1, q3) | ratio "
            "| wins | parent spread | bound | verdict |",
            "|---|---|---|---|---|---|---|---|---|"]
    for name, work in workloads.items():
        pairs = len(work["runs"])
        for metric, m in work["metrics"].items():
            rows.append(f"| {name} | `{metric}` | {cell(m['parent'])} | {cell(m['change'])} "
                        f"| {m['ratio']:.3f} | {m['wins']}/{pairs} | {m['parent_spread']:.1%} "
                        f"| {m['bound']:.0%} | {m['verdict']} |")
    return "\n".join(rows)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--tag", required=True)
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0, help="workload seed of the first pair")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--out", type=Path, default=Path("."))
    parser.add_argument("--tier1", action="store_true", help="also time each side's Tier-1 suite")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seed < 0 or args.seconds <= 0:
        parser.error("--pairs must be >= 1, --seed >= 0 and --seconds > 0")
    for tree in (args.parent, args.change):
        if not (tree / "perfbench" / "run.py").is_file():
            parser.error(f"{tree} has no perfbench/run.py")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    trees = {"parent": args.parent, "change": args.change}
    spec = json.loads((args.parent / "BENCHMARK.json").read_text())["end_to_end"]
    failures: list[str] = []
    workloads = {}
    for workload in args.workloads:
        runs = []
        for i in range(args.pairs):
            seed = args.seed + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(trees[side], workload, seed, args.seconds)
                if not pair[side]["correct"]:
                    failures.append(f"{workload} seed {seed}: {side} run not correct")
            if pair["parent"]["digests"] != pair["change"]["digests"]:
                failures.append(f"{workload} seed {seed}: digests differ")
            runs.append(pair)
            print(f"{workload} pair {i + 1}/{args.pairs} (seed {seed}) done", file=sys.stderr)
        metrics = {
            m["name"]: compare([r["parent"]["metrics"][m["name"]] for r in runs],
                               [r["change"]["metrics"][m["name"]] for r in runs],
                               m["better"], m["bound"])
            for m in spec
        }
        workloads[workload] = {"runs": runs, "metrics": metrics}

    result = {
        "tag": args.tag,
        "seconds": args.seconds,
        "pairs": args.pairs,
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "cpus": os.cpu_count()},
        "revs": {side: git_rev(tree) for side, tree in trees.items()},
        "workloads": workloads,
        "failures": failures,
    }
    if args.tier1:
        result["tier1"] = {side: tier1(tree) for side, tree in trees.items()}
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / f"BENCH_{args.tag}.json").write_text(json.dumps(result, indent=1) + "\n")
    print(table(workloads))
    for side, t in result.get("tier1", {}).items():
        print(f"Tier-1 {side}: {t['seconds']:.1f} s, exit {t['returncode']}")
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

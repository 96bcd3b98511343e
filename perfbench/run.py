#!/usr/bin/env python3
"""Replication-throughput benchmark for interview_markets.

    python3 perfbench/run.py --workload acceptance --seed 0 --seconds 10 --trace 0

Runs the workload's generated configs through the public
``interview_markets.runner.run_experiment`` in passes until ``--seconds``
have elapsed, checks every pass's artifacts, and prints one line per metric
followed by a final JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``attempted`` and ``failed`` count replications. ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer split from a traced run (see
``tracing.py``). Workloads are defined in ``workloads.py``. The package is
imported from ``src/`` next to this directory; without it the benchmark
exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7
MIN_PASSES = 3

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "rep_rounds_per_s": "1/s",
    "peak_rss_mb": "MB",
}
MODULES = ("config", "runner", "engine", "estimation", "central", "decentral",
           "firms", "metrics", "hinted")


class SetupError(Exception):
    """The package under test cannot be imported from this checkout."""


def import_package() -> SimpleNamespace:
    """Import interview_markets afresh from ``src/`` (drops cached modules)."""
    for name in [m for m in sys.modules if m.split(".")[0] == "interview_markets"]:
        del sys.modules[name]
    if not (SRC / "interview_markets" / "__init__.py").is_file():
        raise SetupError(f"no interview_markets package under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    pkg = SimpleNamespace(**{
        name: importlib.import_module(f"interview_markets.{name}") for name in MODULES
    })
    if Path(pkg.runner.__file__).resolve().parent != (SRC / "interview_markets").resolve():
        raise SetupError(f"interview_markets imported from {pkg.runner.__file__}")
    return pkg


def setup(texts: list[str]):
    """Import, parse every config, build every market; the timed set-up."""
    pkg = import_package()
    configs = [pkg.config.config_from_dict(json.loads(text)) for text in texts]
    for config in configs:
        if config.algorithm in pkg.config.MARKET_ALGORITHMS:
            pkg.config.build_market(config)
        else:
            pkg.config.bandit_arms(config)
    return pkg, configs


def digest_dir(path: Path) -> tuple[str, int]:
    """sha256 over every artifact's name and bytes, and their total size."""
    h = hashlib.sha256()
    size = 0
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        data = f.read_bytes()
        size += len(data)
        h.update(f.relative_to(path).as_posix().encode() + b"\0")
        h.update(len(data).to_bytes(8, "little"))
        h.update(data)
    return h.hexdigest(), size


def _series_finite(path: Path) -> bool:
    with open(path) as fh:
        next(fh)
        for line in fh:
            if not all(math.isfinite(float(x)) for x in line.rstrip("\n").split(",")[1:]):
                return False
    return True


def _all_finite(values) -> bool:
    if isinstance(values, list):
        return all(_all_finite(v) for v in values)
    return math.isfinite(values)


def check_artifacts(config, summary: dict, out: Path) -> dict[int, str]:
    """Failed replications of one run_experiment call -> reason."""
    reps = range(config.replications)
    market = summary["kind"] == "market"
    failed: dict[int, str] = {}

    def fail_all(reason):
        return {rep: reason for rep in reps}

    for name in ("manifest.json", "summary.json"):
        if not (out / name).is_file():
            return fail_all(f"missing {name}")
    regret = summary["regret"]
    stats = regret.values() if market else [regret]
    if not all(_all_finite(s["mean"]) and _all_finite(s["stderr"]) for s in stats):
        return fail_all("non-finite regret in summary")
    if market:
        inv = summary["invariants"]
        for key in ("vprime_subset_violations", "vprime_size_violations",
                    "certain_gamma_violations"):
            if inv[key]:
                return fail_all(f"{key} = {inv[key]}")
        if config.algorithm == "cia" and inv["collision_rounds"]:
            return fail_all(f"collision_rounds = {inv['collision_rounds']}")
        matchings = summary["final_matchings"]
        if len(matchings) != config.replications:
            return fail_all(f"{len(matchings)} final matchings")
        for rep, match in enumerate(matchings):
            hired = [f for f in match if f is not None]
            if len(hired) != len(set(hired)):
                failed[rep] = f"final matching {match} is not injective"
    expected = ["series"] + (["rounds", "firms"] if config.log_rounds else [])
    for rep in reps:
        for kind in expected:
            path = out / f"{kind}_rep{rep:04d}.csv"
            if not path.is_file():
                failed[rep] = f"missing {path.name}"
        series = out / f"series_rep{rep:04d}.csv"
        if rep not in failed and not _series_finite(series):
            failed[rep] = "non-finite regret in series"
    return failed


class Workload:
    """One workload's configs, with the checks and tallies across passes."""

    def __init__(self, name: str, seed: int, size: float, out: Path):
        self.name = name
        self.entries = workloads.workload_configs(name, seed, size)
        self.texts = [json.dumps(raw, sort_keys=True) for _, raw in self.entries]
        self.workers = workloads.WORKERS[name]
        self.groups = {"rep_rounds_per_s": [key for key, _ in self.entries]}
        for key, raw in self.entries:
            group = f"rep_rounds_per_s.{workloads.algorithm_group(raw['algorithm'])}"
            self.groups.setdefault(group, []).append(key)
        self.out = out
        self.first_digest: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def setup(self, repeats: int) -> list[float]:
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            self.pkg, self.configs = setup(self.texts)
            times.append(time.perf_counter() - t0)
        return times

    def run_pass(self) -> dict:
        """Every config once; wall per config, checks, layer counts."""
        runner = self.pkg.runner
        walls, rounds = {}, {}
        artifact_bytes = phase_resets = anomalies = 0
        for (key, _), config in zip(self.entries, self.configs):
            out = self.out / key
            shutil.rmtree(out, ignore_errors=True)
            t0 = time.perf_counter()
            try:
                summary = runner.run_experiment(config, out_dir=str(out), workers=self.workers)
            except Exception:  # a failed experiment fails all its replications
                summary, reason = None, traceback.format_exc(limit=3)
            walls[key] = time.perf_counter() - t0
            rounds[key] = config.horizon * config.replications
            self.attempted += config.replications
            if summary is None:
                failed = {rep: reason for rep in range(config.replications)}
            else:
                failed = check_artifacts(config, summary, out)
                digest, size = digest_dir(out)
                artifact_bytes += size
                first = self.first_digest.setdefault(key, digest)
                if digest != first:
                    failed = {rep: f"digest {digest} != first pass {first}"
                              for rep in range(config.replications)}
                if summary["kind"] == "market":
                    counts = summary["phases"]["counts"]
                    phase_resets += sum(counts) - len(counts)
                    anomalies += summary["invariants"]["empty_candidate_anomalies"]
            self.failed += len(failed)
            self.failures += [f"{key} rep {rep}: {why}" for rep, why in sorted(failed.items())]
        return {"walls": walls, "rounds": rounds, "artifact_bytes": artifact_bytes,
                "phase_resets": phase_resets, "anomalies": anomalies}

    def throughput(self, passes: list[dict]) -> dict[str, float]:
        """Replication-rounds per second over the median pass, overall and per group."""
        return {
            name: sum(passes[0]["rounds"][k] for k in keys)
            / statistics.median(sum(p["walls"][k] for k in keys) for p in passes)
            for name, keys in self.groups.items()
        }


def run_passes(work: Workload, until: float, min_passes: int, tracer=None) -> list[dict]:
    """Passes until ``until`` (perf_counter) and at least ``min_passes``."""
    passes = []
    while len(passes) < min_passes or time.perf_counter() < until:
        if tracer is not None:
            tracer.reset()
        result = work.run_pass()
        if tracer is not None:
            result["layers"] = tracing.layer_metrics(tracer)
            result["local_self_s"] = tracer.local_self_s()
            result["spans"] = list(tracer.records)
        passes.append(result)
    return passes


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest worker (Linux: KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def end_to_end(work: Workload, seconds: float) -> tuple[dict, dict]:
    start = time.perf_counter()
    setup_times = work.setup(SETUP_REPEATS)
    passes = run_passes(work, start + seconds, MIN_PASSES)
    walls = [sum(p["walls"].values()) for p in passes]
    throughput = work.throughput(passes)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(walls),
        "rep_rounds_per_s": throughput["rep_rounds_per_s"],
        "peak_rss_mb": peak_rss_mb(),
    }
    extra = {k: (v, "1/s") for k, v in throughput.items() if k not in metrics}
    extra.update({
        "passes": (len(passes), "count"),
        "wall_s.min": (min(walls), "s"),
        "wall_s.max": (max(walls), "s"),
    })
    return metrics, extra


def per_layer(work: Workload, seconds: float, seed: int) -> tuple[dict, dict]:
    start = time.perf_counter()
    work.setup(1)
    plain = run_passes(work, start + seconds / 3, 1)
    tracer = tracing.Tracer()
    patches = tracing.Patches(tracer, work.pkg)
    patches.install()
    try:
        traced = run_passes(work, start + seconds, 1, tracer)
    finally:
        patches.uninstall()

    rows = []
    for p in traced:
        wall = sum(p["walls"].values())
        rows.append({
            **p["layers"],
            "decentral.phase_resets": p["phase_resets"],
            "decentral.empty_candidate_anomalies": p["anomalies"],
            "runner.artifact_bytes": p["artifact_bytes"],
            "trace.wall_s": wall,
            "trace.unattributed_s": wall - p["local_self_s"],
        })
    metrics = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    plain_wall = statistics.median(sum(p["walls"].values()) for p in plain)
    metrics["trace.overhead_ratio"] = metrics["trace.wall_s"] / plain_wall
    throughput = work.throughput(plain)
    for group in tracing.GROUPS:
        metrics[f"runner.rep_rounds_per_s.{group}"] = throughput.get(
            f"rep_rounds_per_s.{group}", 0.0)
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{work.name}-seed{seed}.json"
    with open(trace_file, "w") as fh:
        json.dump({"workload": work.name, "seed": seed, "call_overhead_s": tracer.call_overhead,
                   "passes": [{"metrics": row, "spans": p["spans"]}
                              for row, p in zip(rows, traced)]}, fh)
    extra = {"passes.untraced": (len(plain), "count"), "passes.traced": (len(traced), "count")}
    return {name: metrics[name] for name in tracing.LAYER_UNITS}, extra


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None, size: float = 1.0) -> int:
    """Run one workload; ``size`` scales its horizons (tests use a tiny one)."""
    args = parse_args(argv)
    out = OUT / f"{args.workload}-{os.getpid()}"
    work = Workload(args.workload, args.seed, size, out)
    try:
        if args.trace:
            metrics, extra = per_layer(work, args.seconds, args.seed)
            units = tracing.LAYER_UNITS
        else:
            metrics, extra = end_to_end(work, args.seconds)
            units = E2E_UNITS
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(out, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for key, digest in sorted(work.first_digest.items()):
        print(f"digest {key} {digest}")
    for line in work.failures:
        print(f"FAILED {line}", file=sys.stderr)
    for name, (value, unit) in extra.items():
        print(f"{name} {value} {unit}")
    ratio = work.failed / work.attempted
    print(f"failed_rep_ratio {ratio} failed/attempted ({work.failed}/{work.attempted})")
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    correct = work.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": work.attempted,
        "failed": work.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Per-layer tracing of interview_markets from outside the program.

The traced run wraps each layer's entry points at the class, or at the module
attribute the caller looks up, so no file of the program changes. Every
wrapped call is a span. Open spans are kept on a stack in memory; when a
span closes, its duration and its self time (duration minus the spans nested
in it) fold into per-name totals, because a traced pass makes millions of
fine spans. The coarse spans (experiments, fan-out, replications) are kept
as whole records and written out with the totals when the run ends.

Replications that run in pool workers record into the worker's copy of the
tracer (inherited through fork); the wrapped worker function ships each
replication's totals back with its result, and the wrapped ``_map_reps``
merges them into the benchmark process.

The wrappers' own cost, calibrated on a no-op at install time, is charged to
``wrapper_s`` instead of to the parent span, so a parent's self time is not
inflated by the number of children it calls.
"""

from __future__ import annotations

import functools
import math
import os
import statistics
import time
import weakref
from collections import Counter

from workloads import algorithm_group

GROUPS = ("cia", "drr", "ancdrr", "eancdrr", "bandit")


class Tracer:
    """Span stack and folded per-name totals for one process."""

    def __init__(self):
        self.owner_pid = os.getpid()
        self.pid = self.owner_pid
        self.stack: list[list[float]] = []
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.worker_stats: dict[str, list] = {}
        self.counts: Counter = Counter()
        self.samples: dict[str, list[float]] = {}
        self.records: list[tuple] = []  # (name, pid, start, end) coarse spans
        self.wrapper_s = 0.0
        self.worker_wrapper_s = 0.0
        self.call_overhead = 0.0
        self.last_lists: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def reset(self) -> None:
        self.stack.clear()
        self.stats.clear()
        self.worker_stats.clear()
        self.counts.clear()
        self.samples.clear()
        self.records.clear()
        self.wrapper_s = 0.0
        self.worker_wrapper_s = 0.0

    def enter_worker(self) -> None:
        """First call in a forked worker: drop the parent's open spans."""
        if self.pid != os.getpid():
            self.pid = os.getpid()
            self.reset()

    def take(self) -> dict:
        """This process's totals since the last take, then reset them."""
        delta = {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "counts": dict(self.counts),
            "samples": {k: list(v) for k, v in self.samples.items()},
            "records": list(self.records),
            "wrapper_s": self.wrapper_s,
        }
        self.reset()
        return delta

    def merge_worker(self, delta: dict) -> None:
        for name, (calls, total, own) in delta["stats"].items():
            st = self.worker_stats.setdefault(name, [0, 0.0, 0.0])
            st[0] += calls
            st[1] += total
            st[2] += own
        self.counts.update(delta["counts"])
        for key, values in delta["samples"].items():
            self.samples.setdefault(key, []).extend(values)
        self.records.extend(delta["records"])
        self.worker_wrapper_s += delta["wrapper_s"]

    def local_self_s(self) -> float:
        """Self time of every span closed in this process, plus wrapper cost."""
        return sum(st[2] for st in self.stats.values()) + self.wrapper_s


def span(tracer: Tracer, name: str, fn, after=None, keep: bool = False):
    """Wrap ``fn`` so each call is a span named ``name``.

    ``after(args, result, duration)`` runs once the span has closed; its cost
    goes to ``wrapper_s``. ``keep`` stores the span as a whole record.
    """
    perf = time.perf_counter
    stack = tracer.stack
    stats = tracer.stats

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = [0.0]
        stack.append(frame)
        t0 = perf()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf()
            stack.pop()
            dt = t1 - t0
            st = stats.get(name)
            if st is None:
                st = stats[name] = [0, 0.0, 0.0]
            st[0] += 1
            st[1] += dt
            st[2] += dt - frame[0]
            if keep:
                tracer.records.append((name, tracer.pid, t0, t1))
        extra = tracer.call_overhead
        if after is not None:
            after(args, result, dt)
            extra += perf() - t1
        if stack:
            stack[-1][0] += dt + extra
            tracer.wrapper_s += extra
        return result

    return wrapper


def calibrate(tracer: Tracer, calls: int = 20000, batches: int = 5) -> float:
    """Per-call cost of a span wrapper outside its own measured interval."""

    def noop():
        return None

    wrapped = span(tracer, "_calibration", noop)
    perf = time.perf_counter
    bare_times, wrapped_times = [], []
    for _ in range(batches):
        t0 = perf()
        for _ in range(calls):
            noop()
        bare_times.append((perf() - t0) / calls)
        t0 = perf()
        for _ in range(calls):
            wrapped()
        wrapped_times.append((perf() - t0) / calls)
    calls_made, inside, _ = tracer.stats.pop("_calibration")
    overhead = min(wrapped_times) - min(bare_times) - inside / calls_made
    tracer.call_overhead = max(0.0, overhead)
    return tracer.call_overhead


class Patches:
    """Installs the span wrappers on a package and restores the originals."""

    def __init__(self, tracer: Tracer, pkg):
        self.tracer = tracer
        self.pkg = pkg
        self._saved: list[tuple] = []

    def _set(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _wrap(self, owner, attr: str, name: str, after=None, keep: bool = False):
        self._set(owner, attr, span(self.tracer, name, owner.__dict__[attr], after, keep))

    def install(self) -> None:
        tr = self.tracer
        pkg = self.pkg
        runner, engine, est = pkg.runner, pkg.engine, pkg.estimation
        central, decentral, firms = pkg.central, pkg.decentral, pkg.firms
        metrics, hinted = pkg.metrics, pkg.hinted
        calibrate(tr)

        def count_rounds(args, result, dt):
            tr.counts["engine.rounds"] += result.rounds

        def pref_unchanged(args, result, dt):
            est_obj, owner = args[0], args[1]
            last = tr.last_lists.get(est_obj)
            if last is None:
                last = tr.last_lists[est_obj] = {}
            if last.get(owner) == result:
                tr.counts["estimation.pref_list_unchanged"] += 1
            last[owner] = result

        def candidates(args, result, dt):
            tr.counts["estimation.argmax_candidates"] += len(args[2])

        def abstain(args, result, dt):
            if result == 0:
                tr.counts["firms.abstain"] += 1

        def replication(args, result, dt):
            group = algorithm_group(args[0].algorithm)
            tr.samples.setdefault(group, []).append(dt)

        self._wrap(runner, "run_experiment", "runner.run_experiment", keep=True)
        self._wrap(runner, "run_market_replication", "runner.replication",
                   replication, keep=True)
        self._wrap(runner, "run_bandit_replication", "runner.replication",
                   replication, keep=True)
        self._wrap(runner, "run_horizon", "engine.run_horizon", count_rounds)
        self._wrap(runner, "run_hinted", "hinted.run_hinted")
        self._wrap(engine, "compute_feedback", "engine.compute_feedback")
        self._wrap(engine, "draw_reward", "market.draw_reward")
        cls = est.EstimatorState
        self._wrap(cls, "record", "estimation.record")
        self._wrap(cls, "pref_list", "estimation.pref_list", pref_unchanged)
        self._wrap(cls, "argmax", "estimation.argmax", candidates)
        self._wrap(cls, "snapshot_row", "estimation.snapshot_row")
        self._wrap(central, "agent_proposing_match", "market.agent_proposing_match")
        self._wrap(central.CentralAllocator, "plan", "central.plan")
        for policy in (decentral.CoordinatedPolicy, decentral.CoordinationFreePolicy,
                       decentral.ExtendedCoordinationFreePolicy):
            self._wrap(policy, "plan", "decentral.plan")
            self._wrap(policy, "observe", "decentral.observe")
        self._wrap(firms.StrategicFirmPolicy, "decide", "firms.decide", abstain)
        self._wrap(firms.StrategicFirmPolicy, "observe", "firms.observe")
        self._wrap(metrics.RunRecorder, "__call__", "metrics.recorder")
        for step in ("allprobe_step", "eap_step", "apem_step"):
            self._wrap(hinted.HintedBandit, step, "hinted.step")
        self._wrap(hinted, "expected_max", "hinted.expected_max")
        for worker in ("_market_worker", "_bandit_worker"):
            self._set(runner, worker, self._worker(runner.__dict__[worker]))
        self._set(runner, "_map_reps", self._map_reps(runner.__dict__["_map_reps"]))

    def _worker(self, fn):
        """Worker returns (result, totals); totals only from another process."""
        tr = self.tracer

        @functools.wraps(fn)  # keeps the name pickle resolves in the worker
        def worker(args):
            if os.getpid() == tr.owner_pid:
                return fn(args), None
            tr.enter_worker()
            result = fn(args)
            return result, tr.take()

        return worker

    def _map_reps(self, fn):
        tr = self.tracer
        timed = span(tr, "runner.fanout", fn, keep=True)

        @functools.wraps(fn)
        def map_reps(worker, jobs, workers):
            results = []
            for result, delta in timed(worker, jobs, workers):
                if delta is not None:
                    tr.merge_worker(delta)
                results.append(result)
            return results

        return map_reps

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


LAYER_UNITS: dict[str, str] = {
    "engine.rounds": "count",
    "engine.self_s": "s",
    "engine.compute_feedback_s": "s",
    **{f"estimation.{op}_{kind}": unit
       for op in ("record", "pref_list", "argmax", "snapshot_row")
       for kind, unit in (("calls", "count"), ("s", "s"))},
    "estimation.pref_list_unchanged_ratio": "ratio",
    "estimation.argmax_candidates_mean": "count",
    "market.agent_proposing_match_calls": "count",
    "market.agent_proposing_match_s": "s",
    "market.draw_reward_calls": "count",
    "market.draw_reward_s": "s",
    "central.plan_self_s": "s",
    "decentral.plan_self_s": "s",
    "decentral.observe_s": "s",
    "decentral.phase_resets": "count",
    "decentral.empty_candidate_anomalies": "count",
    "firms.decide_calls": "count",
    "firms.decide_s": "s",
    "firms.abstain_ratio": "ratio",
    "firms.observe_s": "s",
    "metrics.recorder_calls": "count",
    "metrics.recorder_s": "s",
    "hinted.run_hinted_self_s": "s",
    "hinted.step_calls": "count",
    "hinted.step_s": "s",
    "hinted.expected_max_s": "s",
    **{f"runner.replication_s.{g}.{q}": unit
       for g in GROUPS for q, unit in (("p50", "s"), ("p90", "s"), ("n", "count"))},
    "runner.replication_self_s": "s",
    "runner.replications_s": "s",
    "runner.fanout_s": "s",
    "runner.artifacts_s": "s",
    "runner.artifact_bytes": "bytes",
    **{f"runner.rep_rounds_per_s.{g}": "1/s" for g in GROUPS},
    "trace.overhead_ratio": "ratio",
    "trace.wall_s": "s",
    "trace.wrapper_s": "s",
    "trace.unattributed_s": "s",
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced pass, from the folded totals."""
    merged: dict[str, list] = {}
    for source in (tracer.stats, tracer.worker_stats):
        for name, (calls, total, own) in source.items():
            st = merged.setdefault(name, [0, 0.0, 0.0])
            st[0] += calls
            st[1] += total
            st[2] += own

    def calls(name):
        return merged.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return merged.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return merged.get(name, (0, 0.0, 0.0))[2]

    counts = tracer.counts
    out = {
        "engine.rounds": counts["engine.rounds"],
        "engine.self_s": own("engine.run_horizon"),
        "engine.compute_feedback_s": total("engine.compute_feedback"),
    }
    for op in ("record", "pref_list", "argmax", "snapshot_row"):
        out[f"estimation.{op}_calls"] = calls(f"estimation.{op}")
        out[f"estimation.{op}_s"] = total(f"estimation.{op}")
    pref_calls = calls("estimation.pref_list")
    argmax_calls = calls("estimation.argmax")
    decide_calls = calls("firms.decide")
    out.update({
        "estimation.pref_list_unchanged_ratio":
            counts["estimation.pref_list_unchanged"] / pref_calls if pref_calls else 0.0,
        "estimation.argmax_candidates_mean":
            counts["estimation.argmax_candidates"] / argmax_calls if argmax_calls else 0.0,
        "market.agent_proposing_match_calls": calls("market.agent_proposing_match"),
        "market.agent_proposing_match_s": total("market.agent_proposing_match"),
        "market.draw_reward_calls": calls("market.draw_reward"),
        "market.draw_reward_s": total("market.draw_reward"),
        "central.plan_self_s": own("central.plan"),
        "decentral.plan_self_s": own("decentral.plan"),
        "decentral.observe_s": total("decentral.observe"),
        "firms.decide_calls": decide_calls,
        "firms.decide_s": total("firms.decide"),
        "firms.abstain_ratio": counts["firms.abstain"] / decide_calls if decide_calls else 0.0,
        "firms.observe_s": total("firms.observe"),
        "metrics.recorder_calls": calls("metrics.recorder"),
        "metrics.recorder_s": total("metrics.recorder"),
        "hinted.run_hinted_self_s": own("hinted.run_hinted"),
        "hinted.step_calls": calls("hinted.step"),
        "hinted.step_s": total("hinted.step"),
        "hinted.expected_max_s": total("hinted.expected_max"),
        "runner.replication_self_s": own("runner.replication"),
        "runner.replications_s": total("runner.replication"),
        "runner.fanout_s": own("runner.fanout"),
        "runner.artifacts_s": own("runner.run_experiment"),
        "trace.wrapper_s": tracer.wrapper_s + tracer.worker_wrapper_s,
    })
    for group in GROUPS:
        values = tracer.samples.get(group, [])
        out[f"runner.replication_s.{group}.p50"] = statistics.median(values) if values else 0.0
        out[f"runner.replication_s.{group}.p90"] = percentile(values, 0.9) if values else 0.0
        out[f"runner.replication_s.{group}.n"] = len(values)
    return out

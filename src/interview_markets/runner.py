"""Replicated experiment execution and artifact emission.

``run_experiment`` is the one path from a config to its artifacts. It
resolves the config's market or arms, splits the replications into
contiguous blocks (one per process in lockstep, else one per replication)
and maps ``_market_worker`` or ``_bandit_worker`` over them. A worker runs
its block one replication at a time, or as one lockstep block, writes a
logged replication's round and firm logs as each logged round completes
and its other files as soon as it finishes, drops the full record before
the next is built and hands back only what ``summary.json`` reads: no
process holds more than one replication's record (or a lockstep block's
arrays plus one record), both keep its regret rows in one float array,
and no record holds log text.
Each distinct CSV cell is rendered once: a series value equal to its
agent's value one retained round before, or to its left neighbour, reuses
that cell's text, and ``RunRecorder`` renders only a logged round's t and
rewards, looking the rest of its text up. The summary reads the records
in job order, which is replication order, so output bytes do not depend on
worker scheduling.
Replication i uses seed base_seed + i; re-running any single replication
reproduces its series exactly.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import random
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .central import CentralAllocator
from .config import ExperimentConfig, MARKET_ALGORITHMS, experiment_source
from .decentral import (
    CoordinatedPolicy,
    CoordinationFreePolicy,
    ExtendedCoordinationFreePolicy,
)
from .engine import run_horizon
from .errors import ConfigError
from .estimation import EstimatorState, OracleEstimator
from .firms import StrategicFirmPolicy
from .hinted import run_hinted
from .market import Market, gale_shapley, ground_truth_prefs, market_to_dict
from .metrics import INVARIANTS, RunRecorder, SERIES_KINDS, plateau_from_values

ENV_OUT_DIR = "INTERVIEW_MARKETS_OUT"


def checkpoint_rounds(T: int, stride: int) -> list[int]:
    """The rounds a replication keeps: every ``stride``-th plus the summary's."""
    return sorted(set(range(stride, T + 1, stride)).union(summary_checkpoints(T)))


def summary_checkpoints(T: int) -> list[int]:
    """Rounds 1, T, T // 10 and every power of ten up to T."""
    marks = {1, T}
    p = 10
    while p <= T:
        marks.add(p)
        p *= 10
    if T >= 10:
        marks.add(T // 10)
    return sorted(marks)


def market_baselines(
    market: Market,
) -> tuple[tuple[int, ...], tuple[float, ...], tuple[float, ...]]:
    """Agent-optimal partners, and optimal/pessimal partner means, by deferred acceptance."""
    agent_prefs, firm_prefs = ground_truth_prefs(market)
    best = gale_shapley(agent_prefs, firm_prefs, "agents").agent_match
    worst = gale_shapley(agent_prefs, firm_prefs, "firms").agent_match
    opt = tuple(market.agent_means[a][best[a]] for a in range(market.n))
    pess = tuple(market.agent_means[a][worst[a]] for a in range(market.n))
    return best, opt, pess


@dataclass
class RepOutput:
    rep: int
    rows: np.ndarray  # float64 (checkpoint_rounds, SERIES_KINDS, agent); lists once trimmed
    converged_round: Optional[int]
    final_matching: tuple
    events: dict[str, int]  # every name in INVARIANTS -> its count
    invalid: dict[int, tuple[int, ...]]  # summary checkpoint t -> RunRecorder.invalid[t]
    phase_log: list = field(default_factory=list)


def _market_policy(config: ExperimentConfig, market: Market, agent_est, firm_est, policy_rng):
    n, m = market.n, market.m
    if config.algorithm == "cia":
        return CentralAllocator(n, m, agent_est, firm_est)
    if config.algorithm == "drr":
        return CoordinatedPolicy(n, m, agent_est)
    if config.algorithm == "ancdrr":
        return CoordinationFreePolicy(n, m, agent_est)
    if config.algorithm == "eancdrr":
        return ExtendedCoordinationFreePolicy(n, m, agent_est, config.lam, policy_rng)
    raise ConfigError(f"not a market algorithm: {config.algorithm}")


def replication_streams(seed: int) -> tuple[random.Random, random.Random]:
    """A market replication's reward and policy streams, seeded from ``seed``."""
    master = random.Random(seed)
    return random.Random(master.getrandbits(64)), random.Random(master.getrandbits(64))


def run_market_replication(
    config: ExperimentConfig, market: Market, rep: int, logs: tuple = ()
) -> RepOutput:
    """One scalar replication; a logged config writes its round and firm
    logs to ``logs`` (two open text files) as each logged round completes,
    and logs nothing without them."""
    reward_rng, policy_rng = replication_streams(config.base_seed + rep)
    n, m = market.n, market.m
    agent_est = EstimatorState(n, m)
    firm_est = (
        OracleEstimator(market.firm_means)
        if config.firm_mode == "certain"
        else EstimatorState(m, n)
    )
    policy = _market_policy(config, market, agent_est, firm_est, policy_rng)
    firm_policy = StrategicFirmPolicy(n, m, config.firm_mode)
    best, base_opt, base_pess = market_baselines(market)
    T, stride = config.horizon, config.stride
    recorder = RunRecorder(
        market,
        base_opt,
        base_pess,
        agent_est,
        best,
        summary_checkpoints(T),
        expect_no_collisions=config.algorithm == "cia",
        certain_firms=config.firm_mode == "certain",
        retain_rounds=checkpoint_rounds(T, stride),
        log_rounds=[*range(stride, T + 1, stride), T] if config.log_rounds and logs else (),
        logs=logs,
    )
    result = run_horizon(
        market,
        agent_est,
        firm_est,
        policy,
        firm_policy,
        T,
        reward_rng,
        recorder,
        interview_budget=3 if config.algorithm == "eancdrr" else 2,
    )
    return RepOutput(
        rep=rep,
        rows=recorder.stored_rows(),
        converged_round=result.converged_round,
        final_matching=result.final_matching.agent_match,
        events={name: recorder.events[name] for name in INVARIANTS},
        invalid=recorder.invalid,
        phase_log=getattr(policy, "phase_log", []),
    )


_LOCKSTEP_BLOCKS = {  # in lockstep.py
    "cia": "run_cia_block", "drr": "run_drr_block", "eancdrr": "run_eancdrr_block"
}


def _runs_lockstep(config: ExperimentConfig, market: Market) -> bool:
    """Configs whose replications run as lockstep blocks (``lockstep.py``)."""
    return (
        config.algorithm in _LOCKSTEP_BLOCKS
        and market.reward_model.kind == "bernoulli"
        and not config.log_rounds
    )


def _market_worker(args) -> list[RepOutput]:
    """The replications of one block, on the scalar engine or as a lockstep block.

    Writes each replication's files to ``out``, its round and firm logs
    while it runs, and trims its record, before the next replication's is
    built, to what the summary reads: rows at the summary checkpoints.
    """
    config, market, reps, out = args
    if _runs_lockstep(config, market):
        from . import lockstep

        outs = getattr(lockstep, _LOCKSTEP_BLOCKS[config.algorithm])(config, market, reps)
    elif config.log_rounds:
        outs = (_logged_replication(config, market, rep, out) for rep in reps)
    else:
        outs = (run_market_replication(config, market, rep) for rep in reps)
    T = config.horizon
    retained, marks = checkpoint_rounds(T, config.stride), summary_checkpoints(T)
    at_marks = np.searchsorted(retained, marks)
    kept = []
    for rep_out in outs:
        _write_market_files(out, rep_out, retained)
        rows = rep_out.rows[at_marks].tolist()  # lists cross the pool in less memory
        kept.append(replace(rep_out, rows=rows))
        del rep_out  # else the full record lives on while the next one runs
    return kept


def _logged_replication(config: ExperimentConfig, market: Market, rep: int, out: Path):
    """``run_market_replication`` writing its logs to ``out`` as it runs; a
    replication that raises leaves neither log file."""
    paths = [out / f"{kind}_rep{rep:04d}.csv" for kind in ("rounds", "firms")]
    try:
        with (
            _open_csv(paths[0], ["t", "agent", "interviewed", "applied", "matched", "reward"])
            as rounds,
            _open_csv(paths[1], ["t", "firm", "gamma", "vacant"]) as firms,
        ):
            return run_market_replication(config, market, rep, (rounds, firms))
    except BaseException:
        for path in paths:
            path.unlink(missing_ok=True)
        raise


def _write_market_files(out: Path, rep_out: RepOutput, retained: list[int]) -> None:
    """A replication's series, and its phase log when it has one."""
    _write_lines(
        out / f"series_rep{rep_out.rep:04d}.csv",
        ["t", "agent"] + [f"{kind}_regret" for kind in SERIES_KINDS],
        _series_lines(retained, rep_out.rows),
    )
    if rep_out.phase_log:
        _write_csv(
            out / f"phases_rep{rep_out.rep:04d}.csv",
            ["phase", "t_gs", "triggers", "committed"],
            [
                (
                    p["index"],
                    p["t_gs"],
                    p["triggers"],
                    ";".join(
                        f"{a + 1}:{f + 1}"
                        for a, f in enumerate(p["committed"] or [])
                        if f is not None
                    ),
                )
                for p in rep_out.phase_log
            ],
        )


_CHUNK_VALUES = 512  # series values turned into Python floats at a time


def _series_lines(retained: list[int], rows: np.ndarray):
    """A series CSV line per retained round and agent; a repeated cell reuses its text.

    A cell's text is the ``repr`` of its float. A nonzero value equal to the
    same agent's value in the same column one retained round before, or to
    the value left of it on the line, reuses that cell's text: 0.0 and -0.0
    compare equal but print differently, and NaN equals nothing. Rows become
    Python floats a bounded chunk of rounds at a time.
    """
    step = max(1, _CHUNK_VALUES // rows[0].size)
    prev = [(0.0,) * 4 + ("",) * 4] * rows.shape[2]  # an agent's last values and texts
    for start in range(0, len(retained), step):
        chunk = rows[start:start + step].transpose(0, 2, 1).tolist()  # (round, agent, kind)
        for t, agents in zip(retained[start:start + step], chunk):
            for a, (x, y, u, v) in enumerate(agents):
                px, py, pu, pv, sx, sy, su, sv = prev[a]
                sx = sx if x and x == px else repr(x)
                sy = sy if y and y == py else sx if y and y == x else repr(y)
                su = su if u and u == pu else sy if u and u == y else repr(u)
                sv = sv if v and v == pv else su if v and v == u else repr(v)
                prev[a] = x, y, u, v, sx, sy, su, sv
                yield f"{t},{a + 1},{sx},{sy},{su},{sv}\n"


@dataclass
class BanditRepOutput:
    rep: int
    regret_at: dict[int, float]
    last_quarter_pulls: list[int]


def run_bandit_replication(
    config: ExperimentConfig, means, model, rep: int
) -> BanditRepOutput:
    rng = random.Random(config.base_seed + rep)
    result = run_hinted(
        config.algorithm,
        means,
        model,
        config.horizon,
        rng,
        epsilon=config.epsilon,
        target_rank=config.target_rank,
    )
    retain = checkpoint_rounds(config.horizon, config.stride)
    regret_at = {t: float(result.cumulative_regret[t - 1]) for t in retain}
    return BanditRepOutput(rep, regret_at, result.last_quarter_pulls.tolist())


def _bandit_worker(args) -> list[BanditRepOutput]:
    """The replications of one block: writes each one's series to ``out``,
    keeps its regret at the summary checkpoints."""
    config, (means, model), reps, out = args
    marks = summary_checkpoints(config.horizon)
    kept = []
    for rep in reps:
        rep_out = run_bandit_replication(config, means, model, rep)
        _write_csv(out / f"series_rep{rep:04d}.csv", ["t", "hinted_regret"],
                   rep_out.regret_at.items())
        kept.append(replace(rep_out, regret_at={t: rep_out.regret_at[t] for t in marks}))
        del rep_out  # else the full record lives on while the next one runs
    return kept


def _process_count(workers: int, jobs: int) -> int:
    """Processes for ``jobs`` jobs: no more than ``workers``, which is outside
    input, nor than the CPUs this process may use."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(workers, jobs, cpus or 1)


def _map_reps(worker, jobs, workers: int):
    processes = _process_count(workers, len(jobs))
    if processes <= 1:
        return [worker(job) for job in jobs]
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(processes=processes) as pool:
        return pool.map(worker, jobs, chunksize=1)


def config_hash(config: ExperimentConfig) -> str:
    payload = json.dumps(config.canonical_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def resolve_out_dir(config: ExperimentConfig, override: Optional[str] = None) -> Path:
    if override == "":
        raise ConfigError("out_dir override must not be empty")
    if override:
        return Path(override)
    if config.out_dir:
        return Path(config.out_dir)
    env = os.environ.get(ENV_OUT_DIR)
    if env:
        return Path(env)
    return Path("out")


def _open_csv(path: Path, header: list[str]):
    """``path`` opened for writing finished CSV text, its header written."""
    fh = open(path, "w", newline="")
    fh.write(",".join(header) + "\n")
    return fh


def _write_lines(path: Path, header: list[str], lines) -> None:
    """The header, then ``lines``: finished CSV text, each ending in a newline."""
    with _open_csv(path, header) as fh:
        fh.writelines(lines)


def _write_csv(path: Path, header: list[str], rows) -> None:
    """Cells render with ``str``, which for a float is its shortest ``repr``."""
    _write_lines(path, header, (",".join(map(str, row)) + "\n" for row in rows))


def _mean_stderr(values: np.ndarray) -> tuple[list, list]:
    mean = values.mean(axis=0)
    if values.shape[0] > 1:
        err = values.std(axis=0, ddof=1) / np.sqrt(values.shape[0])
    else:
        err = np.zeros_like(mean)
    return mean.tolist(), err.tolist()


def _plateau(mean, marks: list[int], T: int) -> dict:
    """``plateau_from_values`` of a mean series at rounds ``T // 10`` and ``T``."""
    early, late = mean[marks.index(max(1, T // 10))], mean[marks.index(T)]
    return plateau_from_values(float(early), float(late))


def run_experiment(
    config: ExperimentConfig,
    out_dir: Optional[str] = None,
    workers: int = 1,
) -> dict:
    """Execute all replications, write CSV/JSON artifacts, return the summary."""
    if workers < 1:
        raise ConfigError(f"workers must be at least 1, got {workers}")
    source = experiment_source(config)  # a rejected source leaves no directory
    out = resolve_out_dir(config, out_dir)
    out.mkdir(parents=True, exist_ok=True)

    is_market = config.algorithm in MARKET_ALGORITHMS
    in_lockstep = is_market and _runs_lockstep(config, source)
    if in_lockstep:  # only when used; before the fork, so the workers share the module
        from . import lockstep  # noqa: F401
    count = config.replications
    # a lockstep block costs per round, so one a process; one-replication
    # jobs let idle workers cover a slow one
    k = _process_count(workers, count) if in_lockstep else count
    jobs = [(config, source, range(count * i // k, count * (i + 1) // k), out) for i in range(k)]
    worker = _market_worker if is_market else _bandit_worker
    reps = [r for outs in _map_reps(worker, jobs, workers) for r in outs]

    T = config.horizon
    marks = summary_checkpoints(T)
    summarize = _market_summary if is_market else _bandit_summary
    summary = {
        "algorithm": config.algorithm,
        "horizon": T,
        "replications": count,
        "checkpoints": marks,
        "plateau_window": [max(1, T // 10), T],
        **summarize(source, reps, marks),
    }
    manifest = {
        "tool": "interview-markets",
        "version": __version__,
        "config_hash": config_hash(config),
        "config": config.canonical_dict(),
        "seeds": list(range(config.base_seed, config.base_seed + config.replications)),
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary


def _market_summary(market: Market, reps: list[RepOutput], marks: list[int]) -> dict:
    n, T = market.n, marks[-1]  # the last summary checkpoint is the horizon
    series_stats = {}
    mean_rows = {}
    rows = np.array([rep_out.rows for rep_out in reps])  # (reps, marks, kinds, agents)
    for k, kind in enumerate(SERIES_KINDS):
        mean, err = _mean_stderr(rows[:, :, k])
        series_stats[kind] = {"mean": mean, "stderr": err}
        mean_rows[kind] = np.asarray(mean)  # (marks, agents)

    mean, err = _mean_stderr(np.array([[r.invalid[t] for t in marks] for r in reps]))
    invalid_lists = {"mean": mean, "stderr": err}  # (marks, agents), as each regret kind

    plateaus = {
        kind: [_plateau(mean_rows[kind][:, a], marks, T) for a in range(n)]
        for kind in ("pseudo_optimal", "pseudo_pessimal")
    }

    converged = [r.converged_round for r in reps]
    phase_counts = [len(r.phase_log) for r in reps] if reps[0].phase_log else []
    late_phase_starts = (
        [
            sum(1 for p in r.phase_log if p["t_gs"] > T // 2 and p["index"] > 0)
            for r in reps
        ]
        if reps[0].phase_log
        else []
    )
    imperfect_commits = 0
    for r in reps:
        for p in r.phase_log:
            profile = p["committed"]
            if profile is None:
                continue  # horizon ended before this phase committed
            if any(f is None for f in profile) or len(set(profile)) != len(profile):
                imperfect_commits += 1

    return {
        "kind": "market",
        "market": market_to_dict(market),
        "regret": series_stats,
        "invalid_lists": invalid_lists,
        "plateau": plateaus,
        "convergence": {
            "fraction": sum(1 for c in converged if c is not None) / len(converged),
            "rounds": converged,
        },
        "final_matchings": [list(r.final_matching) for r in reps],
        "phases": {
            "counts": phase_counts,
            "late_starts": late_phase_starts,
        },
        "invariants": {
            **{name: sum(r.events[name] for r in reps) for name in INVARIANTS},
            "imperfect_commits": imperfect_commits,
        },
    }


def _bandit_summary(arms, reps: list[BanditRepOutput], marks: list[int]) -> dict:
    means, model = arms
    mean, err = _mean_stderr(np.array([[r.regret_at[t] for t in marks] for r in reps]))
    pulls = np.array([r.last_quarter_pulls for r in reps])
    return {
        "kind": "bandit",
        "arms": list(means),
        "reward_kind": model.kind,
        "regret": {"mean": mean, "stderr": err},
        "plateau": _plateau(mean, marks, marks[-1]),
        "last_quarter_top_pulled": [int(np.argmax(p)) + 1 for p in pulls],
    }

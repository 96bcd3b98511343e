"""Replicated experiment execution and artifact emission.

Each replication owns its market copy, RNG streams, and recorder; results
are merged in replication order so output bytes do not depend on worker
scheduling. Replication i uses seed base_seed + i; re-running any single
replication reproduces its series exactly.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .central import CentralAllocator
from .config import ExperimentConfig, MARKET_ALGORITHMS, bandit_arms, build_market
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


def market_baselines(market: Market) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Optimal/pessimal stable-partner means via the two deferred-acceptance runs."""
    agent_prefs, firm_prefs = ground_truth_prefs(market)
    best = gale_shapley(agent_prefs, firm_prefs, "agents").agent_match
    worst = gale_shapley(agent_prefs, firm_prefs, "firms").agent_match
    opt = tuple(market.agent_means[a][best[a]] for a in range(market.n))
    pess = tuple(market.agent_means[a][worst[a]] for a in range(market.n))
    return opt, pess


@dataclass
class RepOutput:
    rep: int
    seed: int
    rows: dict[int, tuple]  # t -> (opt, pess, pseudo_opt, pseudo_pess) tuples
    converged_round: Optional[int]
    final_matching: tuple
    events: dict[str, int]  # every name in INVARIANTS -> its count
    phase_log: list = field(default_factory=list)
    round_log: list = field(default_factory=list)
    firm_log: list = field(default_factory=list)


def _market_policy(
    config: ExperimentConfig, market: Market, agent_est, firm_est, policy_rng, events
):
    n, m = market.n, market.m
    if config.algorithm == "cia":
        return CentralAllocator(n, m, agent_est, firm_est)
    if config.algorithm == "drr":
        return CoordinatedPolicy(n, m, agent_est)
    if config.algorithm == "ancdrr":
        return CoordinationFreePolicy(n, m, agent_est, events)
    if config.algorithm == "eancdrr":
        return ExtendedCoordinationFreePolicy(n, m, agent_est, config.lam, policy_rng, events)
    raise ConfigError(f"not a market algorithm: {config.algorithm}")


def replication_streams(seed: int) -> tuple[random.Random, random.Random]:
    """A market replication's reward and policy streams, seeded from ``seed``."""
    master = random.Random(seed)
    return random.Random(master.getrandbits(64)), random.Random(master.getrandbits(64))


def run_market_replication(
    config: ExperimentConfig, market: Market, rep: int
) -> RepOutput:
    seed = config.base_seed + rep
    reward_rng, policy_rng = replication_streams(seed)
    n, m = market.n, market.m
    agent_est = EstimatorState(n, m)
    firm_est = (
        OracleEstimator(market.firm_means)
        if config.firm_mode == "certain"
        else EstimatorState(m, n)
    )
    events = Counter()  # the replication's invariant events, from policy and recorder
    policy = _market_policy(config, market, agent_est, firm_est, policy_rng, events)
    firm_policy = StrategicFirmPolicy(n, m, config.firm_mode)
    base_opt, base_pess = market_baselines(market)
    retain = checkpoint_rounds(config.horizon, config.stride)
    recorder = RunRecorder(
        market,
        base_opt,
        base_pess,
        expect_no_collisions=config.algorithm == "cia",
        certain_firms=config.firm_mode == "certain",
        retain_rounds=retain,
        events=events,
    )
    if config.log_rounds:
        recorder.keep_outcomes()
    result = run_horizon(
        market,
        agent_est,
        firm_est,
        policy,
        firm_policy,
        config.horizon,
        reward_rng,
        recorder,
        interview_budget=3 if config.algorithm == "eancdrr" else 2,
    )
    out = RepOutput(
        rep=rep,
        seed=seed,
        rows=recorder.stored_rows(),
        converged_round=result.converged_round,
        final_matching=result.final_matching.agent_match,
        events={name: events[name] for name in INVARIANTS},
    )
    if hasattr(policy, "phase_log"):
        out.phase_log = list(policy.phase_log)
    if config.log_rounds and recorder.outcomes is not None:
        stride = config.stride
        for outcome in recorder.outcomes:
            if outcome.t % stride and outcome.t != config.horizon:
                continue
            for a in range(n):
                matched = outcome.matching.agent_match[a]
                out.round_log.append(
                    (
                        outcome.t,
                        a + 1,
                        ";".join(str(f + 1) for f in outcome.interviews[a]),
                        ";".join(str(f + 1) for f in outcome.applications[a]),
                        "" if matched is None else matched + 1,
                        outcome.rewards[a],
                    )
                )
            for f in range(m):
                out.firm_log.append(
                    (outcome.t, f + 1, outcome.gamma[f], int(f in outcome.vprime))
                )
    return out


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
    """The replications of one job: one scalar run, or a lockstep block."""
    config, market, reps = args
    if _runs_lockstep(config, market):
        from . import lockstep

        return getattr(lockstep, _LOCKSTEP_BLOCKS[config.algorithm])(config, market, reps)
    return [run_market_replication(config, market, rep) for rep in reps]


@dataclass
class BanditRepOutput:
    rep: int
    seed: int
    regret_at: dict[int, float]
    last_quarter_pulls: list[int]


def run_bandit_replication(
    config: ExperimentConfig, means, model, rep: int
) -> BanditRepOutput:
    seed = config.base_seed + rep
    rng = random.Random(seed)
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
    return BanditRepOutput(rep, seed, regret_at, result.last_quarter_pulls.tolist())


def _bandit_worker(args) -> BanditRepOutput:
    config, means, model, rep = args
    return run_bandit_replication(config, means, model, rep)


def _map_reps(worker, jobs, workers: int):
    if workers <= 1 or len(jobs) <= 1:
        return [worker(job) for job in jobs]
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(processes=min(workers, len(jobs))) as pool:
        return pool.map(worker, jobs, chunksize=1)


def config_hash(config: ExperimentConfig) -> str:
    payload = json.dumps(config.canonical_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def resolve_out_dir(config: ExperimentConfig, override: Optional[str] = None) -> Path:
    if override:
        return Path(override)
    if config.out_dir:
        return Path(config.out_dir)
    env = os.environ.get(ENV_OUT_DIR)
    if env:
        return Path(env)
    return Path("out")


def _write_csv(path: Path, header: list[str], rows) -> None:
    """Cells render with ``str``, which for a float is its shortest ``repr``."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(str, row)) + "\n" for row in rows)


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
    res = plateau_from_values(float(early), float(late))
    return {"ratio": res.ratio, "zero_denominator": res.zero_denominator}


def run_experiment(
    config: ExperimentConfig,
    out_dir: Optional[str] = None,
    workers: int = 1,
) -> dict:
    """Execute all replications, write CSV/JSON artifacts, return the summary."""
    out = resolve_out_dir(config, out_dir)
    out.mkdir(parents=True, exist_ok=True)

    if config.algorithm in MARKET_ALGORITHMS:
        summary = _run_market_experiment(config, out, workers)
    else:
        summary = _run_bandit_experiment(config, out, workers)

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


def _run_market_experiment(config: ExperimentConfig, out: Path, workers: int) -> dict:
    market = build_market(config)
    count = config.replications
    if _runs_lockstep(config, market):  # one contiguous block per worker
        # imported only for configs that use it, and before the workers
        # fork, so that they share the loaded module
        from . import lockstep  # noqa: F401

        k = max(1, min(workers, count))
        blocks = [range(count * i // k, count * (i + 1) // k) for i in range(k)]
    else:
        blocks = [range(rep, rep + 1) for rep in range(count)]
    jobs = [(config, market, block) for block in blocks]
    reps = [r for outs in _map_reps(_market_worker, jobs, workers) for r in outs]
    reps.sort(key=lambda r: r.rep)
    n = market.n
    T = config.horizon
    retained = checkpoint_rounds(T, config.stride)

    for rep_out in reps:
        rows = [
            (t, a + 1) + tuple(rep_out.rows[t][k][a] for k in range(len(SERIES_KINDS)))
            for t in retained
            for a in range(n)
        ]
        _write_csv(
            out / f"series_rep{rep_out.rep:04d}.csv",
            ["t", "agent"] + [f"{kind}_regret" for kind in SERIES_KINDS],
            rows,
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
        if rep_out.round_log:
            _write_csv(
                out / f"rounds_rep{rep_out.rep:04d}.csv",
                ["t", "agent", "interviewed", "applied", "matched", "reward"],
                rep_out.round_log,
            )
            _write_csv(
                out / f"firms_rep{rep_out.rep:04d}.csv",
                ["t", "firm", "gamma", "vacant"],
                rep_out.firm_log,
            )

    marks = summary_checkpoints(T)
    series_stats = {}
    mean_rows = {}
    for k, kind in enumerate(SERIES_KINDS):
        values = np.array(
            [[rep_out.rows[t][k] for t in marks] for rep_out in reps]
        )  # (reps, marks, agents)
        mean, err = _mean_stderr(values)
        series_stats[kind] = {"mean": mean, "stderr": err}
        mean_rows[kind] = np.asarray(mean)  # (marks, agents)

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
        "algorithm": config.algorithm,
        "market": market_to_dict(market),
        "horizon": T,
        "replications": config.replications,
        "checkpoints": marks,
        "plateau_window": [max(1, T // 10), T],
        "regret": series_stats,
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


def _run_bandit_experiment(config: ExperimentConfig, out: Path, workers: int) -> dict:
    means, model = bandit_arms(config)
    jobs = [(config, means, model, rep) for rep in range(config.replications)]
    reps = _map_reps(_bandit_worker, jobs, workers)
    reps.sort(key=lambda r: r.rep)
    T = config.horizon
    retained = checkpoint_rounds(T, config.stride)

    for rep_out in reps:
        _write_csv(
            out / f"series_rep{rep_out.rep:04d}.csv",
            ["t", "hinted_regret"],
            [(t, rep_out.regret_at[t]) for t in retained],
        )

    marks = summary_checkpoints(T)
    values = np.array([[r.regret_at[t] for t in marks] for r in reps])
    mean, err = _mean_stderr(values)
    pulls = np.array([r.last_quarter_pulls for r in reps])
    top_pulled = [int(np.argmax(p)) + 1 for p in pulls]

    return {
        "kind": "bandit",
        "algorithm": config.algorithm,
        "arms": list(means),
        "reward_kind": model.kind,
        "horizon": T,
        "replications": config.replications,
        "checkpoints": marks,
        "plateau_window": [max(1, T // 10), T],
        "regret": {"mean": mean, "stderr": err},
        "plateau": _plateau(mean, marks, T),
        "last_quarter_top_pulled": top_pulled,
    }

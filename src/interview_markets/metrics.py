"""Regret accounting, list validity, plateau ratios, and the minimum reward
gaps (the paper's Δ) that set each agent's and firm's regret scale."""

from __future__ import annotations

import functools
from array import array
from collections import Counter
from typing import Collection, Sequence, TextIO

import numpy as np

from .engine import RoundOutcome
from .estimation import validity
from .market import Market, ground_truth_prefs


def min_gaps(market: Market, best: Sequence[int]) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Each agent's and firm's least distance from the mean of its partner in
    the agent-optimal stable matching ``best`` to any other peer's, 0 with no
    other peer; a firm that matching leaves vacant measures from 0."""

    def gap(row, partner):
        base = row[partner] if partner is not None else 0.0
        return min((abs(base - u) for j, u in enumerate(row) if j != partner), default=0.0)

    holder = {f: a for a, f in enumerate(best)}
    agent_min_gap = tuple(gap(row, best[a]) for a, row in enumerate(market.agent_means))
    firm_min_gap = tuple(gap(row, holder.get(f)) for f, row in enumerate(market.firm_means))
    return agent_min_gap, firm_min_gap


def plateau_from_values(early: float, late: float) -> dict:
    """``{"ratio", "zero_denominator"}`` as ``summary.json`` holds them: the
    ratio late/early, with a guard for tiny, zero, or negative denominators:
    below 1 the series counts as flat (ratio 1) iff it grew by at most 1
    between the checkpoints, else infinity."""
    if early < 1.0:
        return {"ratio": 1.0 if late <= early + 1.0 else float("inf"), "zero_denominator": True}
    return {"ratio": late / early, "zero_denominator": False}


SERIES_KINDS = ("optimal", "pessimal", "pseudo_optimal", "pseudo_pessimal")

# the events a replication counts, summed over replications into
# summary.json["invariants"]
INVARIANTS = (
    "collision_rounds",
    "vprime_subset_violations",
    "vprime_size_violations",
    "gamma_zero_rounds",
    "certain_gamma_violations",
    "consecutive_abstentions",
    "empty_candidate_anomalies",  # 0 by construction: no engine counts it, an empty set raises
)


# logged rounds whose round-log keys a recorder caches text for: a settled
# run repeats a few keys, and a 20x30 ancdrr run that keeps learning cycles
# through 16 to 32 rounds' worth of agent keys
_CACHED_ROUNDS = 64


def _agent_cells(a: int, interviews, applications, f) -> str:
    """An agent's round-log line between the round and the reward, 1-based."""
    ivs, apps = (";".join([str(g + 1) for g in firms]) for firms in (interviews, applications))
    return f"{a + 1},{ivs},{apps},{'' if f is None else f + 1},"


def _firm_lines(gamma, vacant) -> tuple[str, ...]:
    """A round's firm-log lines after the round: 1-based firm, gamma, 1 if vacant."""
    return tuple(f"{f + 1},{g},{int(f in vacant)}\n" for f, g in enumerate(gamma))


class RunRecorder:
    """Aggregates one replication: regret series, invariants, list validity, logs.

    Checks every round, adding each failure to ``events``: the vacancy set
    is contained in the hiring-change set, at least m-n firms are vacant, at
    most one application per firm when `expect_no_collisions`, gamma stays 1
    in certain mode, and no firm abstains twice in a row. At each of
    ``retain_rounds``, one flat float buffer gains the four cumulative regret
    rows (``SERIES_KINDS`` order, one value per agent). At each of
    ``validity_rounds``, ``invalid[t]`` flags (1) every agent whose list in
    ``agent_est`` is invalid for its agent-optimal stable partner ``best``.
    At each of ``log_rounds``, the two writable text files ``logs`` (rounds,
    firms) each get that round's finished CSV text, so the recorder holds
    none: a line per agent (t, 1-based agent, interviewed and applied firms
    joined by ``;``, matched firm or empty, reward as ``str`` renders it) and
    per firm (t, firm, gamma, 1 if vacant), firms 1-based, each line ending
    in a newline. A logged round renders only its t and rewards: an agent's
    cells between them are cached by (agent, interviews, applications,
    match), and the firm lines after t by (gamma, vacant set), each cache
    holding the keys of at most ``_CACHED_ROUNDS`` logged rounds, least
    recently used first out.
    """

    def __init__(
        self,
        market: Market,
        baseline_opt: Sequence[float],
        baseline_pess: Sequence[float],
        agent_est,
        best: Sequence[int],
        validity_rounds: Collection[int],
        retain_rounds: Collection[int],
        expect_no_collisions: bool = False,
        certain_firms: bool = False,
        log_rounds: Collection[int] = (),
        logs: Sequence[TextIO] = (),
    ):
        self.market = market
        n = market.n
        self._retain = frozenset(retain_rounds)
        self._stored = array("d")  # each retained round's rows, in round order
        # the pseudo twins accumulate baseline minus the matched firm's mean:
        # same expectation as the realized series, far lower variance
        self._cum_opt = [0.0] * n
        self._cum_pess = [0.0] * n
        self._cum_pseudo_opt = [0.0] * n
        self._cum_pseudo_pess = [0.0] * n
        self._base_opt = tuple(baseline_opt)
        self._base_pess = tuple(baseline_pess)
        self._agent_est, self._targets = agent_est, list(zip(ground_truth_prefs(market)[0], best))
        self._validity_rounds = frozenset(validity_rounds)
        self.invalid: dict[int, tuple[int, ...]] = {}
        self.expect_no_collisions = expect_no_collisions
        self.certain_firms = certain_firms
        self.events: Counter = Counter()
        self._prev_gamma: Sequence[int] = (1,) * market.m
        self._prev_pool: Sequence[int] = (0,) * market.m
        self._log_rounds = frozenset(log_rounds)
        if self._log_rounds:
            self._write_rounds, self._write_firms = (fh.write for fh in logs)
        self._agent_cells = functools.lru_cache(_CACHED_ROUNDS * n)(_agent_cells)
        self._firm_lines = functools.lru_cache(_CACHED_ROUNDS)(_firm_lines)

    def __call__(self, outcome: RoundOutcome) -> None:
        market = self.market
        co, cp = self._cum_opt, self._cum_pess
        cpo, cpp = self._cum_pseudo_opt, self._cum_pseudo_pess
        rows = zip(self._base_opt, self._base_pess, outcome.rewards,
                   outcome.matching.agent_match, market.agent_means)
        for a, (bo, bp, x, f, row) in enumerate(rows):
            co[a] += bo - x
            cp[a] += bp - x
            u = row[f] if f is not None else 0.0
            cpo[a] += bo - u
            cpp[a] += bp - u
        t = outcome.t
        if t in self._retain:
            self._stored.extend(co + cp + cpo + cpp)
        if t in self._validity_rounds:
            est = self._agent_est
            self.invalid[t] = tuple(
                int(not validity(est.pref_list(a), truth, b))
                for a, (truth, b) in enumerate(self._targets)
            )
        if t in self._log_rounds:
            at, cells = f"{t},", self._agent_cells
            agents = zip(range(market.n), outcome.interviews, outcome.applications,
                         outcome.matching.agent_match, outcome.rewards)
            self._write_rounds("".join([
                f"{at}{cells(a, ivs, apps, f)}{x!s}\n" for a, ivs, apps, f, x in agents
            ]))
            self._write_firms(at + at.join(self._firm_lines(outcome.gamma, outcome.vprime)))

        events = self.events
        if not outcome.vprime <= outcome.v:
            events["vprime_subset_violations"] += 1
        if len(outcome.vprime) < market.m - market.n:
            events["vprime_size_violations"] += 1
        # pool sizes matter only for collisions and for abstaining firms: a
        # previous round's sizes are read only where it had a gamma of 0
        gamma = outcome.gamma
        if self.expect_no_collisions or 0 in gamma:
            pool_sizes = [0] * market.m
            for apps in outcome.applications:
                for f in apps:
                    pool_sizes[f] += 1
            if self.expect_no_collisions and max(pool_sizes) > 1:
                events["collision_rounds"] += 1
            prev_gamma, prev_pool = self._prev_gamma, self._prev_pool
            for f, g in enumerate(gamma):
                if g == 0:
                    events["gamma_zero_rounds"] += 1
                    if self.certain_firms:
                        events["certain_gamma_violations"] += 1
                    if prev_gamma[f] == 0 and prev_pool[f] > 0 and pool_sizes[f] > 0:
                        events["consecutive_abstentions"] += 1
            self._prev_pool = pool_sizes
        self._prev_gamma = gamma

    # -- results -----------------------------------------------------------
    def stored_rows(self) -> np.ndarray:
        """A float64 ``(rounds, 4, n)`` view: the buffer cannot grow while it lives."""
        return np.frombuffer(self._stored).reshape(-1, len(SERIES_KINDS), self.market.n)

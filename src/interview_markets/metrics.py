"""Regret accounting, reward gaps, plateau ratios and validity instrumentation."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

from .engine import RoundOutcome
from .estimation import validity
from .market import Market, PrefList, StableSet, ground_truth_prefs


@dataclass(frozen=True)
class GapTable:
    """Absolute mean differences to the stable baselines, both sides.

    Firm-side gaps pair crosswise with the lattice: a firm's optimal-side
    baseline is its partner in the agent-optimal matching (the firm-pessimal
    one) and vice versa. Firms left unmatched by the stable set use the
    vacancy utility 0 as baseline.
    """

    agent_optimal: tuple[tuple[float, ...], ...]
    agent_pessimal: tuple[tuple[float, ...], ...]
    firm_optimal: tuple[tuple[float, ...], ...]
    firm_pessimal: tuple[tuple[float, ...], ...]
    agent_min_gap: tuple[float, ...]
    firm_min_gap: tuple[float, ...]


def gap_table(market: Market, stable_set: StableSet) -> GapTable:
    n, m = market.n, market.m
    agent_opt_rows, agent_pess_rows, a_min = [], [], []
    for a in range(n):
        u = market.agent_means[a]
        base_o = u[stable_set.best_partner[a]]
        base_p = u[stable_set.worst_partner[a]]
        row_o = tuple(abs(base_o - u[f]) for f in range(m))
        row_p = tuple(abs(base_p - u[f]) for f in range(m))
        agent_opt_rows.append(row_o)
        agent_pess_rows.append(row_p)
        a_min.append(min(g for f, g in enumerate(row_o) if f != stable_set.best_partner[a]) if m > 1 else 0.0)

    # firm partners under the two lattice extremes
    def partner_of_firm(extreme: str) -> list[Optional[int]]:
        partners: list[Optional[int]] = [None] * m
        source = stable_set.best_partner if extreme == "agent_optimal" else stable_set.worst_partner
        for a, f in enumerate(source):
            partners[f] = a
        return partners

    in_agent_opt = partner_of_firm("agent_optimal")
    in_agent_pess = partner_of_firm("agent_pessimal")
    firm_opt_rows, firm_pess_rows, f_min = [], [], []
    for f in range(m):
        u = market.firm_means[f]
        base_o = u[in_agent_opt[f]] if in_agent_opt[f] is not None else 0.0
        base_p = u[in_agent_pess[f]] if in_agent_pess[f] is not None else 0.0
        firm_opt_rows.append(tuple(abs(base_o - u[a]) for a in range(n)))
        firm_pess_rows.append(tuple(abs(base_p - u[a]) for a in range(n)))
        anchor = in_agent_opt[f]
        others = [abs(base_o - u[a]) for a in range(n) if a != anchor]
        f_min.append(min(others) if others else 0.0)
    return GapTable(
        tuple(agent_opt_rows),
        tuple(agent_pess_rows),
        tuple(firm_opt_rows),
        tuple(firm_pess_rows),
        tuple(a_min),
        tuple(f_min),
    )


@dataclass(frozen=True)
class PlateauResult:
    ratio: float
    zero_denominator: bool = False


def plateau_from_values(early: float, late: float) -> PlateauResult:
    """Ratio late/early with a guard for tiny, zero, or negative denominators:
    below 1 the series counts as flat (ratio 1) iff it grew by at most 1
    between the checkpoints, else infinity."""
    if early < 1.0:
        return PlateauResult(1.0 if late <= early + 1.0 else float("inf"), True)
    return PlateauResult(late / early, False)


def count_invalid_rounds(
    est_lists: Sequence[PrefList], truth_list: PrefList, target: int
) -> int:
    """How many of the recorded estimated lists are invalid for the target."""
    return sum(1 for lst in est_lists if not validity(lst, truth_list, target).valid)


class InvalidityCounter:
    """Online invalid-round counter for chosen (owner, target) pairs.

    ``side`` is "agent" or "firm"; owners index into that side's estimator.
    """

    def __init__(self, market: Market, pairs: Sequence[tuple[str, int, int]]):
        agent_truth, firm_truth = ground_truth_prefs(market)
        self._truth = {"agent": agent_truth, "firm": firm_truth}
        self.pairs = tuple(pairs)
        self.counts = {pair: 0 for pair in self.pairs}
        self.rounds = 0

    def observe(self, agent_est, firm_est) -> None:
        self.rounds += 1
        for side, owner, target in self.pairs:
            est = agent_est if side == "agent" else firm_est
            lst = est.pref_list(owner)
            if not validity(lst, self._truth[side][owner], target).valid:
                self.counts[(side, owner, target)] += 1


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


class RunRecorder:
    """Aggregates one replication: regret series, invariants, logs.

    Checks every round, adding each failure to ``events``: the vacancy set
    is contained in the hiring-change set, at least m-n firms are vacant, at
    most one application per firm when `expect_no_collisions`, gamma stays 1
    in certain mode, and no firm abstains twice in a row.
    """

    def __init__(
        self,
        market: Market,
        baseline_opt: Sequence[float],
        baseline_pess: Sequence[float],
        expect_no_collisions: bool = False,
        certain_firms: bool = False,
        retain_rounds: Optional[Sequence[int]] = None,
    ):
        self.market = market
        n = market.n
        self._retain = frozenset(retain_rounds) if retain_rounds is not None else None
        self._stored: dict[int, tuple] = {}  # t -> one row per series kind
        # the pseudo twins accumulate baseline minus the matched firm's mean:
        # same expectation as the realized series, far lower variance
        self._cum_opt = [0.0] * n
        self._cum_pess = [0.0] * n
        self._cum_pseudo_opt = [0.0] * n
        self._cum_pseudo_pess = [0.0] * n
        self._base_opt = tuple(baseline_opt)
        self._base_pess = tuple(baseline_pess)
        self.expect_no_collisions = expect_no_collisions
        self.certain_firms = certain_firms
        self.events: Counter = Counter()
        self._prev_gamma: Sequence[int] = (1,) * market.m
        self._prev_pool: Sequence[int] = (0,) * market.m
        self.outcomes: Optional[list[RoundOutcome]] = None

    def keep_outcomes(self) -> "RunRecorder":
        self.outcomes = []
        return self

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
        if self._retain is None or t in self._retain:
            self._stored[t] = (tuple(co), tuple(cp), tuple(cpo), tuple(cpp))

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
        if self.outcomes is not None:
            self.outcomes.append(outcome)

    # -- results -----------------------------------------------------------
    def stored_rows(self) -> dict[int, tuple]:
        return dict(self._stored)

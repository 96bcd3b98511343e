"""Synchronous round protocol: interviews, applications/hiring, feedback.

Within a round every decision (interview targets, applications, hiring,
strategic deferral) uses estimates as of the round's start; the round's own
interview draws only influence the next round. Policies observe strictly
local information plus the broadcast vacancy sets, never hire identities.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional, Protocol, Sequence

from .errors import ParameterError, ProtocolError
from .estimation import first_in
from .market import Market, Matching, draw_reward


@dataclass(slots=True)
class AgentPlan:
    """One agent's round intent.

    ``interviews`` is the draw list (a repeated firm is sampled twice);
    ``applications`` is priority-ordered, empty means abstain.
    """

    interviews: tuple[int, ...]
    applications: tuple[int, ...] = ()


@dataclass(slots=True)
class AgentFeedback:
    """What agents may observe at the end of a round: the broadcast vacancy
    sets plus each agent's own applications and own match."""

    vprime: frozenset[int]
    v: frozenset[int]
    own_applications: tuple[tuple[int, ...], ...]
    own_match: tuple[Optional[int], ...]


@dataclass(slots=True)
class RoundOutcome:
    """One round: per agent its interviews, applications, firm (``match``,
    None if unmatched) and reward; per firm ``gamma``; the vacancy sets."""

    t: int
    interviews: tuple[tuple[int, ...], ...]
    applications: tuple[tuple[int, ...], ...]
    gamma: tuple[int, ...]
    match: tuple[Optional[int], ...]
    rewards: tuple[float, ...]
    vprime: frozenset[int]
    v: frozenset[int]


class AgentSidePolicy(Protocol):
    def plan(self, t: int) -> Sequence[AgentPlan]: ...

    def observe(self, t: int, feedback: AgentFeedback) -> None: ...


class FirmSidePolicy(Protocol):
    """``decide`` gets a firm's best applicant under ``order`` and returns
    gamma (0: stay vacant); ``observe`` gets each firm's pool and hire."""

    def decide(self, firm: int, best: int, order: Sequence[int]) -> int: ...

    def observe(self, firm: int, pool: Sequence[int], hired: Optional[int]) -> None: ...


@dataclass(slots=True)
class SimResult:
    rounds: int
    final_matching: Matching  # the last round's match, validated once
    converged_round: Optional[int]


def compute_feedback(
    firm_hold: Sequence[Optional[int]], prev_hold: Sequence[Optional[int]]
) -> tuple[frozenset[int], frozenset[int]]:
    """V' = vacant firms; V adds firms whose hire changed since last round."""
    vprime = frozenset([f for f, a in enumerate(firm_hold) if a is None])
    changed = [f for f, (a, b) in enumerate(zip(firm_hold, prev_hold)) if a != b]
    return vprime, vprime.union(changed)


def run_horizon(
    market: Market,
    agent_est,
    firm_est,
    agent_policy: AgentSidePolicy,
    firm_policy: FirmSidePolicy,
    T: int,
    rng: random.Random,
    recorder: Optional[Callable[[RoundOutcome], None]] = None,
    interview_budget: int = 2,
    start_round: int = 1,
    initial_matching: Optional[Matching] = None,
) -> SimResult:
    """Run rounds start_round .. start_round+T-1 and return the final state.

    ``initial_matching`` seeds the hiring-change comparison for the first
    round (defaults to the empty matching).
    """
    if T < 1:
        raise ParameterError(f"horizon must be >= 1, got {T}")
    n, m = market.n, market.m
    firm_ids = frozenset(range(m))  # the firms a plan may interview
    agent_means = market.agent_means
    firm_means = market.firm_means
    model = market.reward_model
    sample_agent_side = not agent_est.oracle
    sample_firm_side = not firm_est.oracle

    prev_hold: list[Optional[int]] = [None] * m
    if initial_matching is not None:
        prev_hold = list(initial_matching.firm_match)

    # convergence tracking: first round of the current all-matched constant streak
    streak_start: Optional[int] = None
    last_match: Optional[tuple[Optional[int], ...]] = None

    bernoulli = model.kind == "bernoulli"
    rand = rng.random
    agent_record, firm_record = agent_est.record, firm_est.record
    decide, firm_observe = firm_policy.decide, firm_policy.observe

    for t in range(start_round, start_round + T):
        plans = agent_policy.plan(t)
        if len(plans) != n:
            raise ProtocolError(f"policy produced {len(plans)} plans for {n} agents", t)
        pools: list[list[int]] = [[] for _ in range(m)]
        for a, plan in enumerate(plans):
            draws = plan.interviews
            if not 2 <= len(draws) <= interview_budget:
                raise ProtocolError(
                    f"agent {a} interviews {len(draws)} firms, budget is"
                    f" [2, {interview_budget}]",
                    t,
                )
            if not firm_ids.issuperset(draws):
                f = next(f for f in draws if f not in firm_ids)
                raise ProtocolError(f"agent {a} interviews firm {f}, outside 0..{m - 1}", t)
            if len(plan.applications) > 2:
                raise ProtocolError(f"agent {a} applies to more than two firms", t)
            for f in plan.applications:
                if f not in draws:
                    raise ProtocolError(f"agent {a} applies to non-interviewed firm {f}", t)
                pools[f].append(a)

        # hiring reads only round-start estimates and draws no randomness, so
        # it runs before this round's interviews; firms without applicants
        # keep gamma 1 and are never ranked
        gamma = [1] * m
        offers: list[Optional[int]] = [None] * m
        for f, pool in enumerate(pools):
            if not pool:
                continue
            order = firm_est.pref_list(f)
            best = pool[0] if len(pool) == 1 else first_in(order, pool)
            gamma[f] = decide(f, best, order)
            if gamma[f]:
                offers[f] = best

        # interview stage: one draw per side per listed firm
        for a, plan in enumerate(plans):
            row_a = agent_means[a]
            for f in plan.interviews:
                if sample_agent_side:
                    if bernoulli:
                        v = 1.0 if rand() < row_a[f] else 0.0
                    else:
                        v = draw_reward(row_a[f], model, rng)
                    agent_record(a, f, v)
                if sample_firm_side:
                    if bernoulli:
                        v = 1.0 if rand() < firm_means[f][a] else 0.0
                    else:
                        v = draw_reward(firm_means[f][a], model, rng)
                    firm_record(f, a, v)

        # acceptance by priority
        agent_match: list[Optional[int]] = [None] * n
        firm_hold: list[Optional[int]] = [None] * m
        for a, plan in enumerate(plans):
            for f in plan.applications:
                if offers[f] == a:
                    agent_match[a] = f
                    firm_hold[f] = a
                    break

        rewards = []
        for a, f in enumerate(agent_match):
            if f is None:
                rewards.append(0.0)
            elif bernoulli:
                rewards.append(1.0 if rand() < agent_means[a][f] else 0.0)
            else:
                rewards.append(draw_reward(agent_means[a][f], model, rng))

        vprime, v = compute_feedback(firm_hold, prev_hold)

        for f, pool in enumerate(pools):
            firm_observe(f, pool, firm_hold[f])
        match = tuple(agent_match)
        apps = tuple([plan.applications for plan in plans])
        agent_policy.observe(t, AgentFeedback(vprime, v, apps, match))

        if recorder is not None:
            recorder(
                RoundOutcome(
                    t,
                    tuple([plan.interviews for plan in plans]),
                    apps,
                    tuple(gamma),
                    match,
                    tuple(rewards),
                    vprime,
                    v,
                )
            )

        if match != last_match:  # else the streak, or its absence, continues
            streak_start = t if None not in match else None
            last_match = match
        prev_hold = firm_hold

    return SimResult(T, Matching(match, m), streak_start)

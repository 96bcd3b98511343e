"""Decentralized agent algorithms.

Three policies share the rejection-clock machinery but differ in feedback:

* ``CoordinatedPolicy`` (vacancy feedback only): alternates fixed-length
  distributed deferred-acceptance phases with committing phases, using the
  vacancy count as the shared re-synchronization signal.
* ``CoordinationFreePolicy`` (hiring-change feedback): every round applies to
  the best firm that either never rejected the agent or changed hands since
  it last did.
* ``ExtendedCoordinationFreePolicy``: the k=3 randomized variant that keeps a
  matched anchor firm and only probes upward with probability lambda,
  applying to a pair of firms so a failed probe does not vacate the anchor.

A hiring-change event lands in an agent's candidate bookkeeping only when it
happens strictly after the agent's latest rejection by that firm; the round
of the rejection itself never re-opens the firm.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from .engine import AgentFeedback, AgentPlan
from .errors import ParameterError, ProtocolError
from .estimation import first_in
from .central import round_robin_firm


@dataclass
class DrrState:
    """One ``drr`` agent within the current phase."""

    r: list[int]  # round of the last rejection by each firm, 0 = never
    rej_flag: bool = False  # own applied firm went vacant since t_gs
    snapshot: Optional[tuple[int, ...]] = None  # its pref_list at t_gs
    frozen_candidates: Optional[tuple[int, ...]] = None
    committed: Optional[int] = None
    trigger: Optional[str] = None  # "rej" or "inc" once it abstains to signal


@dataclass
class AncdrrState:
    """A coordination-free agent's firm bookkeeping: the firms closed to it,
    each of which made a non-strategic rejection of it and has not changed
    hands strictly after its latest one."""

    closed: set[int] = field(default_factory=set)


@dataclass
class EancdrrState(AncdrrState):
    anchor: Optional[int] = None  # firm last held, or first applied to


def drr_phase_length(n: int) -> int:
    """Rounds of a coordinated phase's deferred acceptance before it commits."""
    return 3 * n * n


def drr_candidate_set(r: list[int], t_gs: int, t: int, agent: int) -> tuple[int, ...]:
    """Firms with no recorded rejection since the current phase started."""
    cand = tuple(f for f, last in enumerate(r) if last < t_gs)
    if not cand:
        raise ProtocolError(
            f"agent {agent} has an empty candidate set in coordinated phase", t
        )
    return cand


def _best_open_firm(order, state: AncdrrState, t: int, agent: int) -> int:
    """First firm of ``order`` that never rejected the agent or changed hands
    since it last did. On a market with m >= n there always is one: a firm
    still closed to the agent has held one other agent without a break since
    it rejected it, so at most n - 1 < m firms are closed."""
    closed = state.closed
    for f in order:
        if f not in closed:
            return f
    raise ProtocolError(f"agent {agent} has no open firm", t)


class CoordinatedPolicy:
    """Vacancy-feedback learner with synchronized updating/committing phases.

    All agents share one phase start ``t_gs`` and phase flag ``rho``
    (1 = committing), so they cannot fall out of step.
    """

    def __init__(self, n: int, m: int, agent_est):
        self.n = n
        self.m = m
        self.agent_est = agent_est
        self.phase_length = drr_phase_length(n)
        self.t_gs = 1
        self.rho = 0
        self.states = [DrrState([0] * m) for _ in range(n)]
        # phase log rows: (index, t_gs, trigger kinds, committed profile)
        self.phase_log: list[dict] = [
            {"index": 0, "t_gs": 1, "triggers": "init", "committed": None}
        ]

    # -- engine interface ------------------------------------------------
    def plan(self, t: int) -> list[AgentPlan]:
        t_gs = self.t_gs
        commit_round = t_gs + self.phase_length
        plans = []
        if t <= commit_round:
            # distributed deferred acceptance on the t_gs snapshot; the
            # boundary round replays the settled profile and commits it
            for i, st in enumerate(self.states):
                rr = round_robin_firm(i, t, self.m)
                if st.snapshot is None:  # a phase's states start without one
                    st.snapshot = self.agent_est.snapshot_row(i)
                cand = drr_candidate_set(st.r, t_gs, t, i)
                target = first_in(st.snapshot, cand)
                if t == commit_round:
                    st.committed = target
                    st.frozen_candidates = cand
                plans.append(AgentPlan((target, rr), (target,)))
            if t == commit_round:
                self.rho = 1
                self.phase_log[-1]["committed"] = [st.committed for st in self.states]
        else:
            for i, st in enumerate(self.states):
                rr = round_robin_firm(i, t, self.m)
                current = self.agent_est.argmax(i, st.frozen_candidates)
                if st.rej_flag:
                    st.trigger = "rej"
                elif current != st.committed:
                    st.trigger = "inc"
                if st.trigger is not None:
                    plans.append(AgentPlan((current, rr), ()))  # abstain to signal
                else:
                    plans.append(AgentPlan((current, rr), (current,)))
        return plans

    def observe(self, t: int, feedback: AgentFeedback) -> None:
        vac_signal = self.rho == 1 and len(feedback.vprime) > self.m - self.n
        kinds = set()
        for i, st in enumerate(self.states):
            applied = feedback.own_applications[i]
            matched = feedback.own_match[i]
            if applied:
                f = applied[0]
                if matched is None:
                    if f in feedback.vprime:
                        st.rej_flag = True  # strategic abstention hit this agent
                    else:
                        st.r[f] = t  # rejected in favor of another hire
            if st.trigger is not None:
                kinds.add(st.trigger)
            elif vac_signal:
                kinds.add("vac")
        if kinds:
            self.t_gs = t + 1
            self.rho = 0
            self.states = [DrrState([0] * self.m) for _ in range(self.n)]
            self.phase_log.append(
                {
                    "index": len(self.phase_log),
                    "t_gs": t + 1,
                    "triggers": "+".join(sorted(kinds)),
                    "committed": None,
                }
            )


class CoordinationFreePolicy:
    """Hiring-change-feedback learner; no cross-agent coordination."""

    def __init__(self, n: int, m: int, agent_est):
        self.n = n
        self.m = m
        self.agent_est = agent_est
        self.states = [AncdrrState() for _ in range(n)]

    def plan(self, t: int) -> list[AgentPlan]:
        plans = []
        for i, st in enumerate(self.states):
            rr = round_robin_firm(i, t, self.m)
            target = _best_open_firm(self.agent_est.pref_list(i), st, t, i)
            plans.append(AgentPlan((target, rr), (target,)))
        return plans

    def observe(self, t: int, feedback: AgentFeedback) -> None:
        _apply_v_events_then_rejections(self.states, feedback)


class ExtendedCoordinationFreePolicy:
    """k=3 randomized variant: probe upward with probability lambda, keep the
    previous anchor otherwise, and apply to both so losing the probe does not
    vacate the anchor."""

    def __init__(self, n: int, m: int, agent_est, lam: float, rng: random.Random):
        if not 0.0 < lam < 1.0:
            raise ParameterError(f"lambda must be in (0, 1), got {lam}")
        self.n = n
        self.m = m
        self.agent_est = agent_est
        self.lam = lam
        self.rng = rng
        self.states = [EancdrrState() for _ in range(n)]

    def plan(self, t: int) -> list[AgentPlan]:
        plans = []
        for i, st in enumerate(self.states):
            rr = round_robin_firm(i, t, self.m)
            target = _best_open_firm(self.agent_est.pref_list(i), st, t, i)
            anchor = st.anchor
            if anchor is None:
                plans.append(AgentPlan((target, rr), (target,)))
                continue
            interviews = (target, anchor, rr)
            if target == anchor:
                applications: tuple[int, ...] = (target,)
            elif self.rng.random() < self.lam:
                applications = (target, anchor)  # probe first, anchor as backstop
            else:
                applications = (anchor,)
            plans.append(AgentPlan(interviews, applications))
        return plans

    def observe(self, t: int, feedback: AgentFeedback) -> None:
        _apply_v_events_then_rejections(self.states, feedback)
        for i, st in enumerate(self.states):
            matched = feedback.own_match[i]
            if matched is not None:
                st.anchor = matched
            elif st.anchor is None and feedback.own_applications[i]:
                st.anchor = feedback.own_applications[i][0]


def _apply_v_events_then_rejections(states: list[AncdrrState], feedback: AgentFeedback) -> None:
    """Order matters: this round's hiring changes re-open firms first, then
    this round's rejections close them again, so a firm that rejected the
    agent while changing hands stays closed."""
    v = feedback.v
    for i, st in enumerate(states):
        st.closed -= v
        matched = feedback.own_match[i]
        for f in feedback.own_applications[i]:
            if matched != f and f not in feedback.vprime:
                st.closed.add(f)

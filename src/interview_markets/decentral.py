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
from .estimation import argmax_snapshot, snapshot_pref_order
from .central import round_robin_firm


@dataclass
class AgentState:
    """Per-agent private state shared by the decentralized policies."""

    m: int
    r: list[int] = field(default_factory=list)  # last non-strategic rejection, 0=never
    reopened: list[bool] = field(default_factory=list)  # hiring change after r
    rho: int = 0  # 1 = committing
    t_gs: int = 1
    rej_flag: bool = False  # own applied firm went vacant since t_gs
    snapshot: Optional[list] = None  # (count, mean) rows frozen at t_gs
    frozen_candidates: Optional[tuple[int, ...]] = None
    committed: Optional[int] = None
    prev_apply: Optional[int] = None
    anchor: Optional[int] = None

    def __post_init__(self):
        if not self.r:
            self.r = [0] * self.m
        if not self.reopened:
            self.reopened = [False] * self.m


def drr_candidate_set(state: AgentState) -> tuple[int, ...]:
    """Firms with no recorded rejection since the current phase started."""
    t_gs = state.t_gs
    cand = tuple(f for f in range(state.m) if state.r[f] < t_gs)
    if not cand:
        raise ProtocolError("empty candidate set in coordinated phase")
    return cand


def ancdrr_candidate_set(state: AgentState) -> tuple[int, ...]:
    """Firms never rejecting the agent, or re-opened by a later hiring change."""
    return tuple(
        f for f in range(state.m) if state.r[f] == 0 or state.reopened[f]
    )


def _best_open_firm(order, state: AgentState) -> Optional[int]:
    """First firm of ``order`` in ``ancdrr_candidate_set(state)``, or None."""
    r, reopened = state.r, state.reopened
    for f in order:
        if r[f] == 0 or reopened[f]:
            return f
    return None


class CoordinatedPolicy:
    """Vacancy-feedback learner with synchronized updating/committing phases."""

    def __init__(self, n: int, m: int, agent_est, phase_length: Optional[int] = None):
        self.n = n
        self.m = m
        self.agent_est = agent_est
        self.phase_length = phase_length if phase_length is not None else 3 * n * n
        self.states = [AgentState(m) for _ in range(n)]
        self._self_trigger: list[Optional[str]] = [None] * n
        # phase log rows: (index, t_gs, trigger kinds, committed profile)
        self.phase_log: list[dict] = [
            {"index": 0, "t_gs": 1, "triggers": "init", "committed": None}
        ]

    # -- helpers ---------------------------------------------------------
    def in_updating(self) -> bool:
        return self.states[0].rho == 0

    def _snapshot_top_n(self, st: AgentState) -> tuple[int, ...]:
        return snapshot_pref_order(st.snapshot)[: self.n]

    def _assert_synchronized(self, t: int) -> None:
        first = (self.states[0].rho, self.states[0].t_gs)
        for i, st in enumerate(self.states):
            if (st.rho, st.t_gs) != first:
                raise ProtocolError(
                    f"agent {i} desynchronized: {(st.rho, st.t_gs)} vs {first}", t
                )

    # -- engine interface ------------------------------------------------
    def plan(self, t: int) -> list[AgentPlan]:
        self._assert_synchronized(t)
        t_gs = self.states[0].t_gs
        commit_round = t_gs + self.phase_length
        plans = []
        if t <= commit_round:
            # distributed deferred acceptance on the t_gs snapshot; the
            # boundary round replays the settled profile and commits it
            for i, st in enumerate(self.states):
                rr = round_robin_firm(i, t, self.m)
                if t == t_gs or st.snapshot is None:
                    st.snapshot = self.agent_est.snapshot_row(i)
                    st.rho = 0
                cand = drr_candidate_set(st)
                target = argmax_snapshot(st.snapshot, cand)
                if t == commit_round:
                    st.rho = 1
                    st.committed = target
                    st.frozen_candidates = cand
                plans.append(AgentPlan((target, rr), (target,)))
            if t == commit_round:
                entry = self.phase_log[-1]
                entry["committed"] = [st.committed for st in self.states]
                entry["committed_in_top_n"] = all(
                    st.committed in self._snapshot_top_n(st) for st in self.states
                )
        else:
            for i, st in enumerate(self.states):
                rr = round_robin_firm(i, t, self.m)
                current = self.agent_est.argmax(i, st.frozen_candidates)
                if st.rej_flag:
                    self._self_trigger[i] = "rej"
                elif current != st.committed:
                    self._self_trigger[i] = "inc"
                if self._self_trigger[i] is not None:
                    plans.append(AgentPlan((current, rr), ()))  # abstain to signal
                else:
                    plans.append(AgentPlan((current, rr), (current,)))
        return plans

    def observe(self, t: int, feedback: AgentFeedback) -> None:
        vac_signal = len(feedback.vprime) > self.m - self.n
        kinds = set()
        resets = False
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
            if self._self_trigger[i] is not None:
                kinds.add(self._self_trigger[i])
                resets = True
            elif st.rho == 1 and vac_signal:
                kinds.add("vac")
                resets = True
        if resets:
            for i, st in enumerate(self.states):
                st.t_gs = t + 1
                st.rho = 0
                st.r = [0] * self.m
                st.rej_flag = False
                st.snapshot = None
                st.frozen_candidates = None
                st.committed = None
                self._self_trigger[i] = None
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
        self.states = [AgentState(m) for _ in range(n)]
        self.empty_candidate_anomalies = 0

    def plan(self, t: int) -> list[AgentPlan]:
        plans = []
        for i, st in enumerate(self.states):
            rr = round_robin_firm(i, t, self.m)
            target = _best_open_firm(self.agent_est.pref_list(i), st)
            if target is None:
                self.empty_candidate_anomalies += 1
                target = st.prev_apply if st.prev_apply is not None else rr
            st.prev_apply = target
            plans.append(AgentPlan((target, rr), (target,)))
        return plans

    def observe(self, t: int, feedback: AgentFeedback) -> None:
        _apply_v_events_then_rejections(self.states, t, feedback)


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
        self.states = [AgentState(m) for _ in range(n)]
        self.empty_candidate_anomalies = 0

    def plan(self, t: int) -> list[AgentPlan]:
        plans = []
        for i, st in enumerate(self.states):
            rr = round_robin_firm(i, t, self.m)
            target = _best_open_firm(self.agent_est.pref_list(i), st)
            if target is None:
                self.empty_candidate_anomalies += 1
                target = st.anchor if st.anchor is not None else rr
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
        _apply_v_events_then_rejections(self.states, t, feedback)
        for i, st in enumerate(self.states):
            matched = feedback.own_match[i]
            if matched is not None:
                st.anchor = matched
            elif st.anchor is None and feedback.own_applications[i]:
                st.anchor = feedback.own_applications[i][0]


def _apply_v_events_then_rejections(
    states: list[AgentState], t: int, feedback: AgentFeedback
) -> None:
    """Order matters: this round's hiring changes re-open firms first, then
    this round's rejections close them again, so a firm that rejected the
    agent while changing hands stays closed."""
    for st in states:
        for f in feedback.v:
            if st.r[f] >= 1:
                st.reopened[f] = True
    for i, st in enumerate(states):
        matched = feedback.own_match[i]
        for f in feedback.own_applications[i]:
            if matched != f and f not in feedback.vprime:
                st.r[f] = t
                st.reopened[f] = False

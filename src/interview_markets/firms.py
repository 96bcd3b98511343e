"""Firm-side strategic rejection: deferral bookkeeping and the abstain trigger.

Timestamps use 0 as a "never happened" sentinel; a strategic rejection
therefore requires an actually recorded rejection (r >= 1) at or after the
firm's last vacancy (r >= c).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence


@dataclass
class FirmState:
    """Private deferral clocks of one firm.

    ``r[a]``: last round this firm rejected agent ``a`` while hiring someone
    else. ``c``: last round the firm was vacant. ``mode`` is ``certain`` or
    ``uncertain``; certain firms never abstain.
    """

    n_agents: int
    mode: str = "uncertain"
    r: list[int] = field(default_factory=list)
    c: int = 0

    def __post_init__(self):
        if not self.r:
            self.r = [0] * self.n_agents


def strategic_rejection_decision(
    state: FirmState,
    applicants: Sequence[int],
    order: Sequence[int],
    t: int,
) -> int:
    """Hiring flag gamma for a round with a nonempty applicant pool.

    Abstains (gamma 0) iff the firm is uncertain and some agent it currently
    ranks above its best applicant was rejected at or after its last vacancy.
    """
    if state.mode == "certain" or not applicants:
        return 1
    pool = set(applicants)
    for a in order:
        if a in pool:
            break  # a is the estimated-best applicant; only agents above it matter
        if state.r[a] >= 1 and state.r[a] >= state.c:
            return 0
    return 1


def update_firm_rej_vars(
    state: FirmState,
    t: int,
    applicants: Sequence[int],
    hired: Optional[int],
) -> FirmState:
    """End-of-round clock update.

    A realized hire stamps ``r`` for every passed-over applicant, so a hire
    from a one-applicant pool stamps nothing; any vacant round (abstention,
    empty pool, or a declined offer) stamps ``c``.
    """
    if hired is None:
        state.c = t
    elif len(applicants) > 1:
        r = state.r
        for a in applicants:
            if a != hired:
                r[a] = t
    return state


class StrategicFirmPolicy:
    """Engine-facing wrapper holding one FirmState per firm."""

    def __init__(self, n_agents: int, n_firms: int, mode: str):
        if mode not in ("certain", "uncertain"):
            raise ValueError(f"firm mode must be 'certain' or 'uncertain', got {mode!r}")
        self.mode = mode
        self.states = [FirmState(n_agents, mode) for _ in range(n_firms)]

    def decide(self, t: int, firm: int, pool: Sequence[int], order: Sequence[int]) -> int:
        return strategic_rejection_decision(self.states[firm], pool, order, t)

    def observe(self, t: int, firm: int, pool: Sequence[int], hired: Optional[int]) -> None:
        update_firm_rej_vars(self.states[firm], t, pool, hired)

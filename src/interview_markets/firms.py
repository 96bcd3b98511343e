"""Firm-side strategic rejection: one policy holding every firm's deferral clocks.

Timestamps use 0 as a "never happened" sentinel; a strategic rejection
therefore requires an actually recorded rejection (r >= 1) at or after the
firm's last vacancy (r >= c).
"""

from __future__ import annotations

from typing import Optional, Sequence


class StrategicFirmPolicy:
    """``r[f][a]``: last round firm ``f`` rejected agent ``a`` while hiring
    someone else. ``c[f]``: last round firm ``f`` was vacant. ``mode`` is
    ``certain`` or ``uncertain``; certain firms never abstain."""

    def __init__(self, n_agents: int, n_firms: int, mode: str):
        if mode not in ("certain", "uncertain"):
            raise ValueError(f"firm mode must be 'certain' or 'uncertain', got {mode!r}")
        self.mode = mode
        self.r = [[0] * n_agents for _ in range(n_firms)]
        self.c = [0] * n_firms

    def decide(self, t: int, firm: int, pool: Sequence[int], order: Sequence[int]) -> int:
        """Hiring flag gamma: 0 (abstain) iff the firm is uncertain and some
        agent it ranks above its best applicant was rejected at or after its
        last vacancy."""
        if self.mode == "certain" or not pool:
            return 1
        r, c = self.r[firm], self.c[firm]
        for a in order:
            if a in pool:
                return 1  # a is the estimated-best applicant; only agents above it matter
            if r[a] >= 1 and r[a] >= c:
                return 0
        return 1

    def observe(self, t: int, firm: int, pool: Sequence[int], hired: Optional[int]) -> None:
        """End-of-round clock update. A realized hire stamps ``r`` for every
        passed-over applicant, so a hire from a one-applicant pool stamps
        nothing; any vacant round (abstention, empty pool, or a declined
        offer) stamps ``c``."""
        if hired is None:
            self.c[firm] = t
        elif len(pool) > 1:
            r = self.r[firm]
            for a in pool:
                if a != hired:
                    r[a] = t

"""Firm-side strategic rejection: one policy holding every firm's passed-over sets.

A firm's ``passed`` set holds the agents it rejected while hiring someone
else since it was last vacant: a vacant round clears it, and a hire adds the
applicants it passed over. A firm is never vacant in a round in which it
rejects someone, so membership is "rejected at or after the last vacancy".
"""

from __future__ import annotations

from typing import Optional, Sequence


class StrategicFirmPolicy:
    """``passed[f]``: the agents firm ``f`` rejected while hiring someone
    else since its last vacancy. ``mode`` is ``certain`` or ``uncertain``;
    certain firms never abstain."""

    def __init__(self, n_firms: int, mode: str):
        if mode not in ("certain", "uncertain"):
            raise ValueError(f"firm mode must be 'certain' or 'uncertain', got {mode!r}")
        self.mode = mode
        self.passed: list[set[int]] = [set() for _ in range(n_firms)]

    def decide(self, firm: int, pool: Sequence[int], order: Sequence[int]) -> int:
        """Hiring flag gamma: 0 (abstain) iff the firm is uncertain and some
        agent it ranks above its best applicant is in its passed set."""
        passed = self.passed[firm]
        if self.mode == "certain" or not pool or not passed:
            return 1
        for a in order:
            if a in pool:
                return 1  # a is the estimated-best applicant; only agents above it matter
            if a in passed:
                return 0
        return 1

    def observe(self, firm: int, pool: Sequence[int], hired: Optional[int]) -> None:
        """End-of-round update. Any vacant round (abstention, empty pool, or
        a declined offer) clears the passed set; a realized hire adds every
        passed-over applicant, so a hire from a one-applicant pool adds
        nothing."""
        if hired is None:
            self.passed[firm].clear()
        elif len(pool) > 1:
            passed = self.passed[firm]
            for a in pool:
                if a != hired:
                    passed.add(a)

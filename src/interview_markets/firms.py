"""Firm-side strategic rejection: one policy holding every firm's passed-over sets.

An uncertain firm's ``passed`` set holds the agents it rejected while hiring
someone else since it was last vacant: a vacant round clears it, and a hire
adds the applicants it passed over. A firm is never vacant in a round in
which it rejects someone, so membership is "rejected at or after the last
vacancy". A certain firm's set stays empty, so it never abstains.
"""

from __future__ import annotations

from typing import Optional, Sequence


class StrategicFirmPolicy:
    """``passed[f]``: the agents firm ``f`` rejected while hiring someone
    else since its last vacancy, kept only for ``uncertain`` firms. ``mode``
    is ``certain`` or ``uncertain``."""

    def __init__(self, n_firms: int, mode: str):
        if mode not in ("certain", "uncertain"):
            raise ValueError(f"firm mode must be 'certain' or 'uncertain', got {mode!r}")
        self.uncertain = mode == "uncertain"
        self.passed: list[set[int]] = [set() for _ in range(n_firms)]

    def decide(self, firm: int, best: int, order: Sequence[int]) -> int:
        """Hiring flag gamma for the firm's estimated-best applicant ``best``
        (``estimation.first_in`` of ``order`` over its pool): 0 (abstain) iff
        the firm passed over an agent it ranks above ``best``."""
        passed = self.passed[firm]
        return 0 if passed and not passed.isdisjoint(order[: order.index(best)]) else 1

    def observe(self, firm: int, pool: Sequence[int], hired: Optional[int]) -> None:
        """End-of-round update. Any vacant round (abstention, empty pool, or
        a declined offer) clears the passed set; a realized hire by an
        uncertain firm adds every passed-over applicant, so a hire from a
        one-applicant pool adds nothing."""
        if hired is None:
            self.passed[firm].clear()
        elif self.uncertain and len(pool) > 1:
            passed = self.passed[firm]
            for a in pool:
                if a != hired:
                    passed.add(a)

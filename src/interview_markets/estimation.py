"""Empirical-mean estimators, estimated preference lists, validity diagnostics.

Estimated lists order never-observed peers first (optimistic), then by
decreasing empirical mean, breaking ties by ascending peer index. Each owner
keeps its peers' keys in that order as observations arrive: ``record``
bisects for the old and new slot of the one peer whose mean changed and
moves only that peer, so the order is maintained on ``record``, never
re-sorted on read. ``argmax`` over a candidate set is the first candidate in
that same order, so a list's head and the selection rule never disagree.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Collection, Iterable, Sequence

from .errors import ObservationError
from .market import PrefList


def _sort_key(count: float, mean: float, index: int) -> tuple[int, float, int]:
    # unobserved first, then decreasing mean, then ascending index
    return (1, -mean, index) if count > 0 else (0, 0.0, index)


class EstimatorState:
    """Running sums/counts for one side of the market.

    ``rows`` owners each estimating ``cols`` peers; a single simulation is
    the only writer, snapshots are plain copies.
    """

    oracle = False

    def __init__(self, rows: int, cols: int):
        self.rows = rows
        self.cols = cols
        self.sums = [[0.0] * cols for _ in range(rows)]
        self.counts = [[0] * cols for _ in range(rows)]
        # each owner's current key per peer, and the same keys kept sorted
        key_of = [[_sort_key(0, 0.0, j) for j in range(cols)] for _ in range(rows)]
        self._keys = [list(row) for row in key_of]
        self._rows = list(zip(self.sums, self.counts, self._keys, key_of))
        self._lists: list = [None] * rows  # PrefList memo, cleared when the order changes

    def record(self, owner: int, peer: int, value: float) -> "EstimatorState":
        if not 0.0 <= value <= 1.0:
            raise ObservationError(f"observation {value} outside [0, 1]")
        sums, counts, keys, key_of = self._rows[owner]
        old = key_of[peer]
        s = sums[peer] = sums[peer] + value
        c = counts[peer] = counts[peer] + 1
        key = key_of[peer] = _sort_key(c, s / c, peer)
        # only this peer moves: i is its old slot, j its new one counted
        # while the old key is still in the list
        i = bisect_left(keys, old)
        j = bisect_left(keys, key)
        if j == i or j == i + 1:
            keys[i] = key  # same rank, so the memoized list stays valid
        else:
            del keys[i]
            keys.insert(j if j < i else j - 1, key)
            self._lists[owner] = None
        return self

    def count(self, owner: int, peer: int) -> int:
        return self.counts[owner][peer]

    def mean(self, owner: int, peer: int) -> float | None:
        c = self.counts[owner][peer]
        return self.sums[owner][peer] / c if c else None

    def pref_list(self, owner: int) -> PrefList:
        result = self._lists[owner]
        if result is None:
            result = self._lists[owner] = tuple([k[2] for k in self._keys[owner]])
        return result

    def argmax(self, owner: int, candidates: Collection[int]) -> int:
        """Best peer among candidates under the estimated order."""
        for key in self._keys[owner]:
            if key[2] in candidates:
                return key[2]
        raise ValueError(f"no candidate among {self.cols} peers: {candidates!r}")

    def snapshot_row(self, owner: int) -> list[tuple[int, float]]:
        """Frozen (count, mean) pairs for later ranking decisions."""
        return [
            (c, s / c if c else 0.0)
            for c, s in zip(self.counts[owner], self.sums[owner])
        ]


class OracleEstimator:
    """Estimator view of a side that knows its true means (certain mode)."""

    oracle = True

    def __init__(self, true_means: Sequence[Sequence[float]]):
        self._means = [list(row) for row in true_means]
        self.rows = len(self._means)
        self.cols = len(self._means[0]) if self._means else 0
        self._lists = [
            tuple(sorted(range(self.cols), key=lambda j: (-row[j], j)))
            for row in self._means
        ]

    def record(self, owner: int, peer: int, value: float) -> "OracleEstimator":
        return self  # ground truth never moves

    def count(self, owner: int, peer: int) -> float:
        return math.inf

    def mean(self, owner: int, peer: int) -> float:
        return self._means[owner][peer]

    def pref_list(self, owner: int) -> PrefList:
        return self._lists[owner]

    def argmax(self, owner: int, candidates: Iterable[int]) -> int:
        row = self._means[owner]
        return min(candidates, key=lambda j: (-row[j], j))

    def snapshot_row(self, owner: int) -> list[tuple[float, float]]:
        return [(math.inf, u) for u in self._means[owner]]


def argmax_snapshot(snapshot: Sequence[tuple[float, float]], candidates: Iterable[int]) -> int:
    """Best candidate under a frozen (count, mean) row."""
    return min(
        candidates,
        key=lambda j: _sort_key(snapshot[j][0], snapshot[j][1], j),
    )


def snapshot_pref_order(snapshot: Sequence[tuple[float, float]]) -> tuple[int, ...]:
    """Full preference order induced by a frozen (count, mean) row."""
    return tuple(
        sorted(
            range(len(snapshot)),
            key=lambda j: _sort_key(snapshot[j][0], snapshot[j][1], j),
        )
    )


@dataclass(frozen=True)
class ValidityReport:
    valid: bool
    offending: tuple[int, ...]  # ranked above target in estimate, below in truth


def validity(est_list: PrefList, truth_list: PrefList, target: int) -> ValidityReport:
    """Is the estimated set above `target` a subset of the true set above it?"""
    est_above = est_list[: est_list.index(target)]
    truth_above = set(truth_list[: truth_list.index(target)])
    offending = tuple(p for p in est_above if p not in truth_above)
    return ValidityReport(not offending, offending)


def topk_aligned(est_list: PrefList, truth_list: PrefList, k: int) -> bool:
    """Do the two lists agree element-wise and order-wise on the top k?"""
    if not 1 <= k <= len(truth_list):
        raise ValueError(f"k must be in 1..{len(truth_list)}, got {k}")
    return est_list[:k] == truth_list[:k]

"""Empirical-mean estimators, estimated preference lists, list validity.

Estimated lists order never-observed peers first (optimistic), then by
decreasing empirical mean, breaking ties by ascending peer index: the key
``_sort_key``. Each owner keeps its peers' keys in that order as
observations arrive: ``record`` bisects for the old and new slot of the one
peer whose mean changed and moves only that peer, so the order is maintained
on ``record``, never re-sorted on read. The oracle's lists are
``market.rank_order`` of the true means, the same rule with every peer
observed. The best of a candidate set is ``first_in`` the owner's list, so a
list's head and the selection rule never disagree. ``pref_list`` returns an
immutable tuple that ``record`` replaces rather than edits, so a list kept
from an earlier round (``snapshot_row``) is that round's order.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Collection, Sequence

from .errors import ObservationError
from .market import PrefList, rank_order


def _sort_key(count: float, mean: float, index: int) -> tuple[int, float, int]:
    # unobserved first, then decreasing mean, then ascending index
    return (1, -mean, index) if count > 0 else (0, 0.0, index)


def first_in(order: PrefList, candidates: Collection[int]) -> int:
    """The first peer of ``order`` among ``candidates``: the best candidate."""
    for j in order:
        if j in candidates:
            return j
    raise ValueError(f"no candidate among {len(order)} peers: {candidates!r}")


class EstimatorState:
    """Running sums/counts for one side of the market.

    ``rows`` owners each estimating ``cols`` peers; a single simulation is
    the only writer, snapshots are plain copies.
    """

    oracle = False

    def __init__(self, rows: int, cols: int):
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

    def pref_list(self, owner: int) -> PrefList:
        result = self._lists[owner]
        if result is None:
            result = self._lists[owner] = tuple([k[2] for k in self._keys[owner]])
        return result

    def argmax(self, owner: int, candidates: Collection[int]) -> int:
        """Best peer among candidates under the estimated order. No policy
        calls it; it stays because ``perfbench/tracing.py`` wraps it."""
        return first_in(self.pref_list(owner), candidates)

    def snapshot_row(self, owner: int) -> PrefList:
        """The owner's current order, which later records leave as it is."""
        return self.pref_list(owner)


class OracleEstimator:
    """Estimator view of a side that knows its true means (certain mode)."""

    oracle = True

    def __init__(self, true_means: Sequence[Sequence[float]]):
        self._lists = [rank_order(row) for row in true_means]

    def record(self, owner: int, peer: int, value: float) -> "OracleEstimator":
        return self  # ground truth never moves

    def pref_list(self, owner: int) -> PrefList:
        return self._lists[owner]

    def snapshot_row(self, owner: int) -> PrefList:
        return self.pref_list(owner)


def validity(est_list: PrefList, truth_list: PrefList, target: int) -> bool:
    """Is the estimated set above `target` a subset of the true set above it?"""
    return set(est_list[: est_list.index(target)]) <= set(truth_list[: truth_list.index(target)])

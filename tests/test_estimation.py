import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interview_markets.errors import ObservationError
from interview_markets.estimation import (
    EstimatorState,
    OracleEstimator,
    _sort_key,
    topk_aligned,
    validity,
)


class TestRecord:
    def test_running_mean(self):
        est = EstimatorState(1, 2)
        for v in (1.0, 0.0, 1.0):
            est.record(0, 0, v)
        assert est.count(0, 0) == 3
        assert est.mean(0, 0) == pytest.approx(2 / 3)

    def test_unobserved_is_undefined(self):
        est = EstimatorState(1, 2)
        assert est.mean(0, 1) is None
        assert est.count(0, 1) == 0

    def test_out_of_range_rejected(self):
        est = EstimatorState(1, 1)
        with pytest.raises(ObservationError):
            est.record(0, 0, 1.5)
        with pytest.raises(ObservationError):
            est.record(0, 0, -0.1)

    def test_monte_carlo_mean(self):
        rng = random.Random(42)
        est = EstimatorState(1, 1)
        for _ in range(10_000):
            est.record(0, 0, 1.0 if rng.random() < 0.3 else 0.0)
        assert abs(est.mean(0, 0) - 0.3) < 0.02

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(0, 1), min_size=1, max_size=30))
    def test_order_insensitive(self, values):
        forward = EstimatorState(1, 1)
        backward = EstimatorState(1, 1)
        for v in values:
            forward.record(0, 0, v)
        for v in reversed(values):
            backward.record(0, 0, v)
        assert forward.mean(0, 0) == pytest.approx(backward.mean(0, 0))


class TestEstimatedPrefList:
    def test_unobserved_first(self):
        est = EstimatorState(1, 3)
        est.record(0, 0, 0.4)
        est.record(0, 2, 0.9)
        assert est.pref_list(0) == (1, 2, 0)

    def test_tie_broken_by_index(self):
        est = EstimatorState(1, 2)
        est.record(0, 0, 0.5)
        est.record(0, 1, 0.5)
        assert est.pref_list(0) == (0, 1)

    def test_oracle_mode_equals_truth_order(self):
        oracle = OracleEstimator([[0.2, 0.9, 0.5]])
        assert oracle.pref_list(0) == (1, 2, 0)
        oracle.record(0, 0, 1.0)  # no effect
        assert oracle.pref_list(0) == (1, 2, 0)

    def test_argmax_respects_list_head(self):
        est = EstimatorState(1, 4)
        est.record(0, 1, 0.9)
        est.record(0, 3, 0.2)
        for candidates in ([0, 1, 2, 3], [1, 3], [3], [0, 2]):
            head = next(f for f in est.pref_list(0) if f in candidates)
            assert est.argmax(0, candidates) == head


def resorted_key(est, owner):
    """The ranking key of every peer of ``owner``, from the running sums."""
    sums, counts = est.sums[owner], est.counts[owner]
    return lambda j: _sort_key(counts[j], sums[j] / counts[j] if counts[j] else 0.0, j)


# ties (repeated 0, 1/2, 1) and arbitrary means both occur
OBSERVATIONS = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0, 1))


class TestMaintainedOrder:
    """The order kept up by ``record`` is the one a full re-sort gives."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_equals_full_resort(self, data):
        rows = data.draw(st.integers(1, 3), label="rows")
        cols = data.draw(st.integers(1, 7), label="cols")
        est = EstimatorState(rows, cols)
        records = data.draw(
            st.lists(
                st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1), OBSERVATIONS),
                max_size=60,
            ),
            label="records",
        )
        for owner, peer, value in records:
            est.record(owner, peer, value)
            for o in range(rows):
                key = resorted_key(est, o)
                listed = est.pref_list(o)
                assert listed == tuple(sorted(range(cols), key=key))
                assert est.pref_list(o) is listed  # memoized until the order moves
                candidates = data.draw(
                    st.sets(st.integers(0, cols - 1), min_size=1), label="candidates"
                )
                assert est.argmax(o, candidates) == min(candidates, key=key)

    def test_argmax_of_nothing_raises(self):
        with pytest.raises(ValueError):
            EstimatorState(1, 3).argmax(0, ())


class TestValidity:
    def test_exact_estimate_valid_everywhere(self):
        truth = (0, 1, 2, 3)
        for target in truth:
            assert validity(truth, truth, target).valid

    def test_swap_above_target_stays_valid(self):
        report = validity((1, 0, 2), (0, 1, 2), 2)
        assert report.valid and report.offending == ()

    def test_promoted_low_peer_invalidates(self):
        report = validity((2, 0, 1), (0, 1, 2), 0)
        assert not report.valid
        assert report.offending == (2,)


class TestTopKAlignment:
    def test_exact_estimate(self):
        for k in (1, 2, 3):
            assert topk_aligned((0, 1, 2), (0, 1, 2), k)

    def test_tail_swap(self):
        assert topk_aligned((0, 2, 1), (0, 1, 2), 1)
        assert not topk_aligned((0, 2, 1), (0, 1, 2), 2)

    def test_full_length_alignment_is_equality(self):
        assert topk_aligned((2, 0, 1), (2, 0, 1), 3)
        assert not topk_aligned((2, 1, 0), (2, 0, 1), 3)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            topk_aligned((0, 1), (0, 1), 0)
        with pytest.raises(ValueError):
            topk_aligned((0, 1), (0, 1), 3)

    @pytest.mark.parametrize("size", [2, 3, 4, 5])
    def test_equivalence_with_validity(self, size):
        # alignment of the top k is the same as validity w.r.t. every member
        # of the true top k; exhaustive over all estimates (truth fixed to
        # the identity order, which is w.l.o.g. up to relabeling)
        truth = tuple(range(size))
        for est in itertools.permutations(range(size)):
            for k in range(1, size + 1):
                aligned = topk_aligned(est, truth, k)
                all_valid = all(validity(est, truth, f).valid for f in truth[:k])
                assert aligned == all_valid, (est, k)


class TestInvalidRoundsUnderRoundRobin:
    """A single agent interviewing round-robin stops producing invalid lists.

    The draw stream is replicated with numpy for speed; the module's
    validity report is cross-checked on sampled rounds.
    """

    def test_second_half_nearly_clean(self):
        means = (0.85, 0.65, 0.45, 0.25)
        m = len(means)
        T = 100_000  # round t interviews firm (t-1) % m; target is firm 0
        t_grid = np.arange(1, T + 1)
        counts = ((t_grid[None, :] - 1 - np.arange(m)[:, None]) // m) + 1
        counts = np.maximum(counts, 0)
        first_half = second_half = 0
        for seed in range(50):
            np_rng = np.random.default_rng(seed)
            per_firm = T // m + 1
            draws = np_rng.random((m, per_firm)) < np.asarray(means)[:, None]
            cums = draws.cumsum(axis=1) / np.arange(1, per_firm + 1)
            means_now = np.take_along_axis(cums, np.maximum(counts - 1, 0), axis=1)
            # ties break by index, so only strictly larger means displace firm 0
            invalid = (counts.min(axis=0) == 0) | (means_now[1:] > means_now[0]).any(axis=0)
            first_half += int(invalid[: T // 2].sum())
            second_half += int(invalid[T // 2 :].sum())
        assert first_half > 0
        assert second_half < 0.01 * first_half

    def test_numpy_replica_agrees_with_module(self):
        means = (0.85, 0.65, 0.45, 0.25)
        m = len(means)
        T = 400
        rng = random.Random(77)
        est = EstimatorState(1, m)
        flags_module = []
        for t in range(1, T + 1):
            f = (t - 1) % m
            est.record(0, f, 1.0 if rng.random() < means[f] else 0.0)
            flags_module.append(not validity(est.pref_list(0), (0, 1, 2, 3), 0).valid)
        # replay the same stream manually
        rng = random.Random(77)
        sums = [0.0] * m
        counts = [0] * m
        flags_manual = []
        for t in range(1, T + 1):
            f = (t - 1) % m
            sums[f] += 1.0 if rng.random() < means[f] else 0.0
            counts[f] += 1
            if min(counts) == 0:
                flags_manual.append(True)
                continue
            mean0 = sums[0] / counts[0]
            flags_manual.append(any(sums[j] / counts[j] > mean0 for j in range(1, m)))
        assert flags_module == flags_manual

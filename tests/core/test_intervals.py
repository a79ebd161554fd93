"""Unit and property tests for the interval-set algebra."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.errors import DataError
from repro.core.intervals import IntervalSet, union_all


def interval_sets(max_intervals: int = 6, hi: float = 100.0):
    pair = st.tuples(
        st.floats(0.0, hi, allow_nan=False), st.floats(0.0, hi, allow_nan=False)
    ).map(lambda t: (min(t), max(t)))
    return st.lists(pair, max_size=max_intervals).map(IntervalSet)


class TestConstruction:
    def test_empty(self):
        assert not IntervalSet()
        assert IntervalSet().total() == 0.0
        assert len(IntervalSet.empty()) == 0

    def test_single(self):
        s = IntervalSet.single(1.0, 3.0)
        assert list(s) == [(1.0, 3.0)]
        assert s.total() == 2.0

    def test_rejects_inverted(self):
        with pytest.raises(DataError):
            IntervalSet([(3.0, 1.0)])

    def test_drops_empty_intervals(self):
        assert len(IntervalSet([(1.0, 1.0), (2.0, 2.0)])) == 0

    def test_merges_overlapping(self):
        s = IntervalSet([(0.0, 2.0), (1.0, 3.0)])
        assert list(s) == [(0.0, 3.0)]

    def test_merges_touching(self):
        s = IntervalSet([(0.0, 1.0), (1.0, 2.0)])
        assert list(s) == [(0.0, 2.0)]

    def test_sorts(self):
        s = IntervalSet([(5.0, 6.0), (0.0, 1.0)])
        assert list(s) == [(0.0, 1.0), (5.0, 6.0)]

    def test_equality_and_hash(self):
        a = IntervalSet([(0.0, 1.0), (1.0, 2.0)])
        b = IntervalSet([(0.0, 2.0)])
        assert a == b
        assert hash(a) == hash(b)


class TestQueries:
    def test_contains(self):
        s = IntervalSet([(0.0, 1.0), (2.0, 3.0)])
        assert s.contains(0.5)
        assert s.contains(0.0)
        assert not s.contains(1.0)  # half-open
        assert not s.contains(1.5)
        assert s.contains(2.5)

    def test_span(self):
        assert IntervalSet([(1.0, 2.0), (5.0, 6.0)]).span() == (1.0, 6.0)

    def test_span_empty_raises(self):
        with pytest.raises(DataError):
            IntervalSet().span()


class TestMaskRoundTrip:
    def test_from_mask_basic(self):
        mask = np.array([False, True, True, False, True])
        s = IntervalSet.from_mask(mask)
        assert list(s) == [(1.0, 3.0), (4.0, 5.0)]

    def test_to_mask_inverts(self):
        mask = np.array([True, False, True, True, False, False, True])
        s = IntervalSet.from_mask(mask, t0=10.0, dt=2.0)
        np.testing.assert_array_equal(s.to_mask(7, t0=10.0, dt=2.0), mask)

    def test_from_mask_all_false(self):
        assert not IntervalSet.from_mask(np.zeros(5, dtype=bool))

    def test_from_mask_all_true(self):
        s = IntervalSet.from_mask(np.ones(4, dtype=bool), t0=1.0, dt=0.5)
        assert list(s) == [(1.0, 3.0)]

    @given(st.lists(st.booleans(), max_size=64))
    def test_round_trip_property(self, bits):
        mask = np.array(bits, dtype=bool)
        s = IntervalSet.from_mask(mask)
        np.testing.assert_array_equal(s.to_mask(len(bits)), mask)


class TestAlgebra:
    def test_union(self):
        a = IntervalSet([(0.0, 2.0)])
        b = IntervalSet([(1.0, 3.0)])
        assert list(a.union(b)) == [(0.0, 3.0)]

    def test_intersect(self):
        a = IntervalSet([(0.0, 2.0), (4.0, 6.0)])
        b = IntervalSet([(1.0, 5.0)])
        assert list(a.intersect(b)) == [(1.0, 2.0), (4.0, 5.0)]

    def test_intersect_disjoint(self):
        assert not IntervalSet([(0.0, 1.0)]).intersect(IntervalSet([(2.0, 3.0)]))

    def test_complement(self):
        s = IntervalSet([(1.0, 2.0)])
        assert list(s.complement(0.0, 3.0)) == [(0.0, 1.0), (2.0, 3.0)]

    def test_complement_of_empty(self):
        assert list(IntervalSet().complement(0.0, 2.0)) == [(0.0, 2.0)]

    def test_difference(self):
        a = IntervalSet([(0.0, 10.0)])
        b = IntervalSet([(2.0, 3.0), (5.0, 6.0)])
        assert list(a.difference(b)) == [(0.0, 2.0), (3.0, 5.0), (6.0, 10.0)]

    def test_clip(self):
        s = IntervalSet([(0.0, 10.0)])
        assert list(s.clip(2.0, 4.0)) == [(2.0, 4.0)]

    def test_shift(self):
        s = IntervalSet([(1.0, 2.0)]).shift(10.0)
        assert list(s) == [(11.0, 12.0)]

    def test_union_all(self):
        s = union_all([IntervalSet([(0.0, 1.0)]), IntervalSet([(0.5, 2.0)])])
        assert list(s) == [(0.0, 2.0)]

    @given(interval_sets(), interval_sets())
    def test_intersection_subset_property(self, a, b):
        inter = a.intersect(b)
        assert inter.total() <= min(a.total(), b.total()) + 1e-9

    @given(interval_sets(), interval_sets())
    def test_union_superset_property(self, a, b):
        union = a.union(b)
        assert union.total() >= max(a.total(), b.total()) - 1e-9
        assert union.total() <= a.total() + b.total() + 1e-9

    @given(interval_sets())
    def test_complement_partitions_window(self, s):
        clipped = s.clip(0.0, 100.0)
        comp = s.complement(0.0, 100.0)
        assert clipped.total() + comp.total() == pytest.approx(100.0)
        assert not clipped.intersect(comp)

    @given(interval_sets(), interval_sets())
    def test_de_morgan(self, a, b):
        lo, hi = 0.0, 100.0
        left = a.union(b).complement(lo, hi)
        right = a.complement(lo, hi).intersect(b.complement(lo, hi))
        assert left == right

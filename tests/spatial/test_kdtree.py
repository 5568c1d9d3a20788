"""Tests for the k-d tree and its incremental nearest-neighbour stream."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.spatial import KDTree

coords = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False)


class TestConstruction:
    def test_empty_tree(self):
        tree = KDTree(np.zeros((0, 2)))
        assert len(tree) == 0
        assert list(tree.iter_nearest([0.0, 0.0])) == []

    def test_payload_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="payloads"):
            KDTree([[0.0, 0.0], [1.0, 1.0]], payloads=["a"])

    def test_bad_leaf_size_raises(self):
        with pytest.raises(ValueError, match="leaf_size"):
            KDTree([[0.0, 0.0]], leaf_size=0)

    def test_default_payloads_are_indices(self):
        tree = KDTree([[0.0], [5.0], [2.0]])
        dist, payload = next(tree.iter_nearest([4.9]))
        assert payload == 1
        assert dist == pytest.approx(0.1)

    def test_duplicate_points_all_returned(self):
        pts = [[1.0, 1.0]] * 20
        tree = KDTree(pts)
        results = list(tree.iter_nearest([0.0, 0.0]))
        assert len(results) == 20
        assert all(d == pytest.approx(np.sqrt(2)) for d, _ in results)


class TestQueries:
    def test_query_dim_mismatch_raises(self):
        tree = KDTree([[0.0, 0.0]])
        with pytest.raises(ValueError, match="shape"):
            list(tree.iter_nearest([0.0, 0.0, 0.0]))

    def test_nearest_k(self):
        tree = KDTree([[0.0], [1.0], [2.0], [3.0]])
        got = tree.nearest([0.2], k=2)
        assert [p for _, p in got] == [0, 1]

    def test_nearest_invalid_k(self):
        tree = KDTree([[0.0]])
        with pytest.raises(ValueError):
            tree.nearest([0.0], k=0)

    def test_range_query(self):
        tree = KDTree([[0.0], [1.0], [2.0], [10.0]])
        got = tree.range_query([0.0], radius=2.5)
        assert [p for _, p in got] == [0, 1, 2]

    def test_range_query_negative_radius(self):
        tree = KDTree([[0.0]])
        with pytest.raises(ValueError):
            tree.range_query([0.0], radius=-1.0)

    def test_custom_payloads(self):
        tree = KDTree([[0.0], [9.0]], payloads=["near", "far"])
        assert tree.nearest([1.0])[0][1] == "near"


class TestOrderingProperty:
    @settings(max_examples=40, deadline=None)
    @given(
        arrays(np.float64, st.tuples(st.integers(1, 60), st.just(3)), elements=coords),
        arrays(np.float64, (3,), elements=coords),
    )
    def test_stream_matches_brute_force_order(self, pts, q):
        tree = KDTree(pts, leaf_size=4)
        stream = [d for d, _ in tree.iter_nearest(q)]
        brute = sorted(np.linalg.norm(pts - q, axis=1))
        np.testing.assert_allclose(stream, brute, atol=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(
        arrays(np.float64, st.tuples(st.integers(1, 60), st.just(2)), elements=coords),
        arrays(np.float64, (2,), elements=coords),
    )
    def test_stream_is_monotone(self, pts, q):
        tree = KDTree(pts)
        dists = [d for d, _ in tree.iter_nearest(q)]
        assert all(a <= b + 1e-12 for a, b in zip(dists, dists[1:]))

    @settings(max_examples=20, deadline=None)
    @given(
        arrays(np.float64, st.tuples(st.integers(1, 40), st.just(2)), elements=coords),
        arrays(np.float64, (2,), elements=coords),
        st.integers(1, 10),
    )
    def test_knn_matches_brute_force_set(self, pts, q, k):
        k = min(k, len(pts))
        tree = KDTree(pts, leaf_size=2)
        got = tree.nearest(q, k=k)
        brute = sorted(np.linalg.norm(pts - q, axis=1))[:k]
        np.testing.assert_allclose([d for d, _ in got], brute, atol=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(2, 3).flatmap(
            lambda d: st.tuples(
                arrays(
                    np.float64, st.tuples(st.integers(1, 50), st.just(d)),
                    elements=coords,
                ),
                arrays(np.float64, (d,), elements=coords),
            )
        ),
        st.floats(min_value=0.0, max_value=40.0),
    )
    def test_range_query_matches_brute_force_filter(self, data, radius):
        """The probe join's region probe: exactly the points within the
        radius (distances computed as the traversal does), nearest
        first."""
        pts, q = data
        tree = KDTree(pts, leaf_size=4)
        got = tree.range_query(q, radius)
        diff = pts - q
        dists = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        assert sorted(p for _, p in got) == np.flatnonzero(dists <= radius).tolist()
        assert [d for d, _ in got] == sorted(d for d, _ in got)
        for d, p in got:
            assert d == dists[p]

    def test_laziness_partial_consumption(self):
        # Consuming one element must not require distances to everything:
        # we only verify the generator protocol here (cheap smoke check).
        rng = np.random.default_rng(7)
        tree = KDTree(rng.normal(size=(1000, 2)), leaf_size=16)
        it = tree.iter_nearest([0.0, 0.0])
        first = next(it)
        second = next(it)
        assert first[0] <= second[0]

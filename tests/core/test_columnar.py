"""Unit tests for the columnar prefix layer: ``ColumnarPrefix`` growth,
frozen-cursor mode, the scorer's derived slabs (running maxima,
range-based scoring/bounding) and ``TopKBuffer.add_many``."""

import itertools

import numpy as np
import pytest

from repro.core import (
    AccessKind,
    EuclideanLogScoring,
    Relation,
    TopKBuffer,
)
from repro.core.access import DistanceAccess, ScoreAccess, open_streams
from repro.core.batchscore import QuadraticBatchScorer
from repro.core.columnar import ColumnarPrefix


def random_relation(seed, size=20, d=3, name="R"):
    rng = np.random.default_rng(seed)
    return Relation(
        name,
        rng.uniform(0.05, 1.0, size),
        rng.uniform(-3, 3, (size, d)),
        sigma_max=1.0,
    )


class TestColumnarPrefixGrowth:
    def test_extend_grows_amortised(self):
        prefix = ColumnarPrefix(dim=2)
        start_cap = prefix.capacity
        for i in range(100):
            prefix.extend(np.array([[i, -i]], dtype=float), [float(i)], [i])
        assert len(prefix) == 100
        # Doubling growth: capacity is a power-of-two multiple of the
        # start, not 1-per-extend reallocations.
        assert prefix.capacity >= 100
        assert prefix.capacity / start_cap in {2.0**k for k in range(10)}
        vecs, scores, tids = prefix.arrays()
        assert vecs.shape == (100, 2)
        np.testing.assert_array_equal(scores, np.arange(100.0))
        np.testing.assert_array_equal(tids, np.arange(100))

    def test_block_extends_match_row_extends(self):
        rng = np.random.default_rng(0)
        vecs = rng.normal(size=(37, 4))
        scores = rng.uniform(size=37)
        tids = np.arange(37)
        one = ColumnarPrefix(dim=4)
        for i in range(37):
            one.extend(vecs[i : i + 1], scores[i : i + 1], tids[i : i + 1])
        other = ColumnarPrefix(dim=4)
        other.extend(vecs[:20], scores[:20], tids[:20])
        other.extend(vecs[20:], scores[20:], tids[20:])
        for a, b in zip(one.arrays(), other.arrays()):
            np.testing.assert_array_equal(a, b)

    def test_arrays_slice_bounds_checked(self):
        prefix = ColumnarPrefix(dim=1)
        prefix.extend(np.zeros((1, 1)), [1.0], [0])
        with pytest.raises(ValueError, match="outside the filled prefix"):
            prefix.arrays(0, 2)
        with pytest.raises(ValueError, match="outside the filled prefix"):
            prefix.arrays(-1, 1)

    def test_old_views_stay_valid_after_growth(self):
        """Growth reallocates, but previously returned views keep their
        (append-only, hence immutable) prefix data."""
        prefix = ColumnarPrefix(dim=1)
        prefix.extend(np.array([[7.0]]), [0.5], [3])
        vecs_before, scores_before, _ = prefix.arrays()
        # Force at least one reallocation.
        prefix.extend(np.arange(64.0)[:, None], np.arange(64.0), np.arange(64))
        assert vecs_before[0, 0] == 7.0 and scores_before[0] == 0.5

    def test_misaligned_columns_rejected(self):
        with pytest.raises(ValueError, match="misaligned"):
            ColumnarPrefix.from_arrays(np.zeros((3, 2)), np.zeros(2), np.arange(3))


class TestFrozenPrefix:
    def test_advance_cursor(self):
        vecs = np.arange(10.0).reshape(5, 2)
        prefix = ColumnarPrefix.from_arrays(vecs, np.ones(5), np.arange(5))
        assert len(prefix) == 0 and prefix.frozen
        prefix.advance(3)
        assert len(prefix) == 3
        got, _, _ = prefix.arrays()
        np.testing.assert_array_equal(got, vecs[:3])

    def test_advance_beyond_backing_rejected(self):
        prefix = ColumnarPrefix.from_arrays(np.zeros((2, 1)), np.zeros(2), np.arange(2))
        with pytest.raises(ValueError, match="advance"):
            prefix.advance(3)

    def test_extend_on_frozen_rejected(self):
        prefix = ColumnarPrefix.from_arrays(np.zeros((2, 1)), np.zeros(2), np.arange(2))
        with pytest.raises(ValueError, match="frozen"):
            prefix.extend(np.zeros((1, 1)), [0.0], [0])

    def test_advance_on_growing_rejected(self):
        with pytest.raises(ValueError, match="growing"):
            ColumnarPrefix(dim=1).advance(1)


class TestStreamPrefixes:
    def test_sorted_stream_prefix_tracks_pulls(self):
        rel = random_relation(1)
        stream = DistanceAccess(rel, np.zeros(3))
        assert len(stream.prefix) == 0
        stream.next_block(5)
        vecs, scores, tids = stream.prefix.arrays()
        assert len(stream.prefix) == 5
        for row, tup in enumerate(stream.seen):
            np.testing.assert_array_equal(vecs[row], tup.vector)
            assert scores[row] == tup.score
            assert tids[row] == tup.tid

    def test_score_stream_prefix_is_score_ordered(self):
        rel = random_relation(3)
        stream = ScoreAccess(rel)
        stream.next_block(len(rel))
        _, scores, _ = stream.prefix.arrays()
        assert list(scores) == sorted(scores, reverse=True)

    def test_next_block_slices_match_repeated_next(self):
        rel = random_relation(4)
        q = np.zeros(3)
        blocked = DistanceAccess(rel, q)
        stepped = DistanceAccess(rel, q)
        pulled = []
        while True:
            block = blocked.next_block(7)
            if not block:
                break
            pulled.extend(block)
        singles = []
        while True:
            tup = stepped.next()
            if tup is None:
                break
            singles.append(tup)
        assert [t.tid for t in pulled] == [t.tid for t in singles]
        assert blocked.last_distance == stepped.last_distance
        for a, b in zip(blocked.prefix.arrays(), stepped.prefix.arrays()):
            np.testing.assert_array_equal(a, b)

    def test_custom_metric_distances_computed_once_and_reported(self):
        rel = Relation("R", [1.0, 1.0], [[0.0, 3.0], [2.0, 2.0]])
        calls = {"n": 0}

        def manhattan(x, y):
            calls["n"] += 1
            return float(np.abs(x - y).sum())

        stream = DistanceAccess(rel, np.zeros(2), metric=manhattan)
        # One evaluation per tuple at open time, none per pull.
        assert calls["n"] == len(rel)
        stream.next_block(len(rel))
        assert calls["n"] == len(rel)
        assert stream.last_distance == pytest.approx(4.0)


def exhaustive_scores(scoring, query, pools):
    """Canonical scores of every combination of ``pools``."""
    return [
        scoring.make_combination(tuples, query).score
        for tuples in itertools.product(*pools)
    ]


def exhaustive_topk(scoring, query, pools, k):
    """The canonical top-K: every combination inserted one by one."""
    buf = TopKBuffer(k)
    for tuples in itertools.product(*pools):
        buf.add(scoring.make_combination(tuples, query))
    return buf


class TestPrefixSlabs:
    SCORING = EuclideanLogScoring(1.3, 0.7, 2.1)

    def _bound_scorer(self, seed=0, n=2, d=3):
        rng = np.random.default_rng(seed)
        relations = [
            random_relation(seed + i, d=d, name=f"R{i}") for i in range(n)
        ]
        query = rng.uniform(-1, 1, d)
        streams = open_streams(relations, AccessKind.DISTANCE, query)
        scorer = QuadraticBatchScorer(self.SCORING, query)
        scorer.bind_streams(streams)
        return scorer, streams

    def test_score_ranges_matches_exhaustive_scores(self):
        scorer, streams = self._bound_scorer()
        for s in streams:
            s.next_block(9)
        ranges = [(0, 0, 9), (1, 2, 9)]
        pools = [streams[0].seen[0:9], streams[1].seen[2:9]]
        batch = scorer.score_ranges(ranges)
        np.testing.assert_allclose(
            batch.ravel(),
            exhaustive_scores(self.SCORING, scorer.query, pools),
            rtol=0,
            atol=1e-12,
        )

    def test_slab_syncs_incrementally_after_block_pulls(self):
        scorer, streams = self._bound_scorer(seed=5)
        streams[0].next_block(4)
        streams[1].next_block(4)
        first = scorer.score_ranges([(0, 0, 4), (1, 0, 4)])
        streams[0].next_block(6)
        second = scorer.score_ranges([(0, 0, 10), (1, 0, 4)])
        # The old rows must be byte-stable across slab growth.
        np.testing.assert_array_equal(second[:4, :], first)

    def test_ranges_upper_bound_dominates_exhaustive_scores(self):
        """Over a full prefix (running maxima) against a suffix range
        (the pulled block), the bound is at least every canonical score."""
        scorer, streams = self._bound_scorer(seed=7)
        for s in streams:
            s.next_block(12)
        ranges = [(0, 0, 12), (1, 5, 12)]
        pools = [streams[0].seen[0:12], streams[1].seen[5:12]]
        bound = scorer.ranges_upper_bound(ranges)
        assert bound >= max(exhaustive_scores(self.SCORING, scorer.query, pools))

    def test_ranges_upper_bound_dominates_batch(self):
        scorer, streams = self._bound_scorer(seed=11)
        for s in streams:
            s.next_block(15)
        ranges = [(0, 0, 15), (1, 0, 15)]
        bound = scorer.ranges_upper_bound(ranges)
        assert bound >= scorer.score_ranges(ranges).max() - 1e-9

    def test_add_cross_ranges_matches_exhaustive_insertion(self):
        for k in (1, 3, 10):
            scorer, streams = self._bound_scorer(seed=13)
            for s in streams:
                s.next_block(14)
            ranges = [(0, 0, 14), (1, 0, 14)]
            pools = [streams[0].seen, streams[1].seen]
            via_ranges = TopKBuffer(k)
            assert scorer.add_cross_ranges(ranges, via_ranges) == 14 * 14
            slow = exhaustive_topk(self.SCORING, scorer.query, pools, k)
            assert [c.key for c in via_ranges.ranked()] == [
                c.key for c in slow.ranked()
            ]
            assert [c.score for c in via_ranges.ranked()] == [
                c.score for c in slow.ranked()
            ]

    def test_add_cross_ranges_sieve_with_full_buffer(self):
        """Once the buffer is full the staged sieve kicks in; retained
        sets must stay identical to exhaustive insertion."""
        scorer, streams = self._bound_scorer(seed=17)
        streams[0].next_block(6)
        streams[1].next_block(6)
        sieved = TopKBuffer(3)
        scorer.add_cross_ranges([(0, 0, 6), (1, 0, 6)], sieved)
        # Grow and rescore: kth is now finite, exercising every stage.
        streams[0].next_block(8)
        scorer.add_cross_ranges([(0, 6, 14), (1, 0, 6)], sieved)
        dense = exhaustive_topk(
            self.SCORING, scorer.query, [streams[0].seen, streams[1].seen], 3
        )
        assert [c.key for c in sieved.ranked()] == [c.key for c in dense.ranked()]


class TestAddMany:
    def _combos(self, seed, count):
        rng = np.random.default_rng(seed)
        scoring = EuclideanLogScoring()
        rel_a = random_relation(seed, size=count, d=2)
        rel_b = random_relation(seed + 1, size=count, d=2)
        query = np.zeros(2)
        return [
            scoring.make_combination((rel_a[i], rel_b[i]), query)
            for i in range(count)
        ]

    def test_matches_sequential_add(self):
        combos = self._combos(0, 30)
        combos.sort(key=lambda c: (-c.score, c.key))
        batch, single = TopKBuffer(5), TopKBuffer(5)
        retained = batch.add_many(combos)
        singles = sum(single.add(c) for c in combos)
        assert retained == singles
        assert [c.key for c in batch.ranked()] == [c.key for c in single.ranked()]

    def test_duplicates_ignored(self):
        combos = self._combos(1, 10)
        buf = TopKBuffer(20)
        assert buf.add_many(combos) == 10
        assert buf.add_many(combos) == 0

    def test_tied_scores_keep_key_order(self):
        scoring = EuclideanLogScoring()
        query = np.zeros(2)
        rel_a = Relation("A", [1.0] * 6, np.zeros((6, 2)), sigma_max=1.0)
        rel_b = Relation("B", [1.0] * 6, np.zeros((6, 2)), sigma_max=1.0)
        combos = [
            scoring.make_combination((rel_a[i], rel_b[j]), query)
            for i in range(6)
            for j in range(6)
        ]
        batch, single = TopKBuffer(4), TopKBuffer(4)
        batch.add_many(combos)
        for c in combos:
            single.add(c)
        assert [c.key for c in batch.ranked()] == [c.key for c in single.ranked()]

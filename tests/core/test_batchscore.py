"""The vectorised combination scorer must agree with the canonical path.

Pools are relations opened through ``open_streams`` and pulled whole, so
the scorer reads them as columnar prefix ranges exactly as the engine
does; every result is checked against exhaustive ``make_combination``
insertion (the canonical arithmetic the brute-force oracle uses).
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AccessKind,
    EuclideanLogScoring,
    LinearScoring,
    Relation,
    TopKBuffer,
)
from repro.core.access import open_streams
from repro.core.batchscore import QuadraticBatchScorer


def pulled_streams(relations, query):
    """One distance stream per relation, every tuple pulled."""
    streams = open_streams(relations, AccessKind.DISTANCE, query)
    for stream in streams:
        stream.next_block(len(stream.relation))
    return streams


def random_streams(rng, sizes, d, query):
    relations = [
        Relation(
            f"R{idx}",
            rng.uniform(0.05, 1.0, size),
            rng.uniform(-2, 2, (size, d)),
            sigma_max=1.0,
        )
        for idx, size in enumerate(sizes)
    ]
    return pulled_streams(relations, query)


def bound_scorer(scoring, query, streams):
    scorer = QuadraticBatchScorer(scoring, query)
    scorer.bind_streams(streams)
    return scorer


def full_ranges(streams):
    return [(j, 0, s.depth) for j, s in enumerate(streams)]


def exhaustive(scoring, query, pools, k):
    """The canonical top-K: every combination inserted one by one."""
    buf = TopKBuffer(k)
    for tuples in itertools.product(*pools):
        buf.add(scoring.make_combination(tuples, query))
    return buf


class TestScoreRanges:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.integers(1, 5), min_size=1, max_size=3),
        st.integers(1, 4),
        st.sampled_from(["log", "linear"]),
        st.randoms(use_true_random=False),
    )
    def test_matches_scalar_scoring(self, sizes, d, family, rnd):
        rng = np.random.default_rng(rnd.randint(0, 2**32 - 1))
        scoring = (
            EuclideanLogScoring(1.3, 0.7, 2.1)
            if family == "log"
            else LinearScoring(1.3, 0.7, 2.1)
        )
        query = rng.uniform(-1, 1, d)
        streams = random_streams(rng, sizes, d, query)
        scorer = bound_scorer(scoring, query, streams)
        batch = scorer.score_ranges(full_ranges(streams))
        assert batch.shape == tuple(sizes)
        for coords in itertools.product(*(range(s) for s in sizes)):
            tuples = [s.seen[c] for s, c in zip(streams, coords)]
            expected = scoring.score_combination(tuples, query)
            assert batch[coords] == pytest.approx(expected, rel=1e-9, abs=1e-9)

    def test_linear_scoring_supported(self):
        rng = np.random.default_rng(0)
        scoring = LinearScoring(1.0, 1.0, 1.0)
        query = np.zeros(2)
        streams = random_streams(rng, [3, 3], 2, query)
        scorer = bound_scorer(scoring, query, streams)
        batch = scorer.score_ranges(full_ranges(streams))
        expected = scoring.score_combination(
            [streams[0].seen[1], streams[1].seen[2]], query
        )
        assert batch[1, 2] == pytest.approx(expected, abs=1e-9)


class TestAddCrossRanges:
    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.integers(1, 6), min_size=2, max_size=3),
        st.integers(1, 5),
        st.randoms(use_true_random=False),
    )
    def test_buffer_equals_exhaustive_insertion(self, sizes, k, rnd):
        rng = np.random.default_rng(rnd.randint(0, 2**32 - 1))
        scoring = EuclideanLogScoring()
        query = rng.uniform(-1, 1, 2)
        streams = random_streams(rng, sizes, 2, query)
        scorer = bound_scorer(scoring, query, streams)

        fast = TopKBuffer(k)
        count = scorer.add_cross_ranges(full_ranges(streams), fast)
        assert count == int(np.prod(sizes))

        slow = exhaustive(scoring, query, [s.seen for s in streams], k)
        assert [c.key for c in fast.ranked()] == [c.key for c in slow.ranked()]
        assert [c.score for c in fast.ranked()] == pytest.approx(
            [c.score for c in slow.ranked()]
        )

    def test_empty_range_short_circuits(self):
        query = np.zeros(2)
        streams = random_streams(np.random.default_rng(2), [3, 3], 2, query)
        scorer = bound_scorer(EuclideanLogScoring(), query, streams)
        buf = TopKBuffer(3)
        assert scorer.add_cross_ranges([(0, 0, 0), (1, 0, 0)], buf) == 0
        assert scorer.add_cross_ranges([(0, 0, 3), (1, 2, 2)], buf) == 0
        assert len(buf) == 0

    def test_heavy_ties_keep_deterministic_tie_break(self):
        """With far more than ``k + _SLACK`` equal-score candidates, the
        partition cut must not drop tied combinations the sequential
        engine would retain under the tuple-id tie-break (regression:
        argpartition used to keep an arbitrary subset of the ties)."""
        scoring = EuclideanLogScoring()
        query = np.zeros(2)
        # Every tuple identical in score and vector: all 36 combinations
        # tie exactly; k + _SLACK = 13 < 36.
        relations = [
            Relation(name, np.ones(6), np.zeros((6, 2)), sigma_max=1.0)
            for name in ("A", "B")
        ]
        streams = pulled_streams(relations, query)
        scorer = bound_scorer(scoring, query, streams)
        fast = TopKBuffer(5)
        scorer.add_cross_ranges(full_ranges(streams), fast)

        slow = exhaustive(scoring, query, [s.seen for s in streams], 5)
        assert [c.key for c in fast.ranked()] == [c.key for c in slow.ranked()]

    def test_heavy_ties_two_levels(self):
        """Mixed tie cohorts across the partition boundary."""
        scoring = EuclideanLogScoring()
        query = np.zeros(2)
        tids = np.arange(8)
        scores = np.where(tids % 2 == 0, 1.0, 0.5)
        vectors = np.where((tids < 4)[:, None], [0.0, 0.0], [1.0, 0.0])
        relations = [
            Relation(name, scores, vectors, sigma_max=1.0) for name in ("A", "B")
        ]
        for k in (3, 5, 10):
            streams = pulled_streams(relations, query)
            scorer = bound_scorer(scoring, query, streams)
            fast = TopKBuffer(k)
            scorer.add_cross_ranges(full_ranges(streams), fast)
            slow = exhaustive(scoring, query, [s.seen for s in streams], k)
            assert [c.key for c in fast.ranked()] == [
                c.key for c in slow.ranked()
            ], f"tie cohort dropped at k={k}"

    def test_incremental_pulls_match_sequential_engine_semantics(self):
        """Scoring each pull against the other stream's prefix (as the
        engine does) fills the buffer exactly like scoring everything at
        once."""
        rng = np.random.default_rng(3)
        scoring = EuclideanLogScoring()
        query = np.zeros(2)
        relations = [
            Relation(
                f"R{idx}",
                rng.uniform(0.05, 1.0, 5),
                rng.uniform(-2, 2, (5, 2)),
                sigma_max=1.0,
            )
            for idx in range(2)
        ]
        streams = open_streams(relations, AccessKind.DISTANCE, query)
        scorer = bound_scorer(scoring, query, streams)

        incremental = TopKBuffer(4)
        for step in range(5):
            streams[0].next()
            scorer.add_cross_ranges(
                [(0, step, step + 1), (1, 0, streams[1].depth)], incremental
            )
            streams[1].next()
            scorer.add_cross_ranges(
                [(0, 0, streams[0].depth), (1, step, step + 1)], incremental
            )

        oneshot_streams = pulled_streams(relations, query)
        oneshot = TopKBuffer(4)
        bound_scorer(scoring, query, oneshot_streams).add_cross_ranges(
            full_ranges(oneshot_streams), oneshot
        )
        assert [c.key for c in incremental.ranked()] == [
            c.key for c in oneshot.ranked()
        ]
        slow = exhaustive(scoring, query, [list(r) for r in relations], 4)
        assert [c.key for c in oneshot.ranked()] == [c.key for c in slow.ranked()]

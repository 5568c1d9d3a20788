"""Integration tests combining engine knobs that interact: dominance +
bound period + service streams, on both access kinds."""

import numpy as np
import pytest

from repro.core import AccessKind, EuclideanLogScoring, Relation, brute_force_topk, tbpa, tbrr
from repro.service import make_service_streams


def instance(seed, n=2, size=25, d=2):
    rng = np.random.default_rng(seed)
    rels = [
        Relation(
            f"R{i}", rng.uniform(0.05, 1, size), rng.uniform(-2, 2, (size, d)),
            sigma_max=1.0,
        )
        for i in range(n)
    ]
    return rels, rng.uniform(-0.5, 0.5, d)


class TestKnobCombinations:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_all_knobs_together(self, seed):
        relations, query = instance(seed)
        scoring = EuclideanLogScoring()
        expected = brute_force_topk(relations, scoring, query, 4)
        engine = tbpa(
            relations, scoring, query, 4,
            kind=AccessKind.DISTANCE,
            dominance_period=2,
            bound_period=3,
        )
        result = engine.run()
        assert [c.key for c in result.combinations] == [c.key for c in expected]

    def test_dominance_with_bound_period_batched_sync(self):
        """Dominance passes must survive batched (multi-pull) syncs."""
        relations, query = instance(2, size=40)
        scoring = EuclideanLogScoring()
        expected = brute_force_topk(relations, scoring, query, 5)
        for bp in (1, 5):
            result = tbrr(
                relations, scoring, query, 5,
                kind=AccessKind.DISTANCE, dominance_period=1, bound_period=bp,
            ).run()
            assert [c.key for c in result.combinations] == [
                c.key for c in expected
            ]

    def test_service_streams_with_dominance(self):
        relations, query = instance(3, size=30)
        scoring = EuclideanLogScoring()
        expected = brute_force_topk(relations, scoring, query, 3)
        engine = tbpa(
            relations, scoring, query, 3,
            kind=AccessKind.DISTANCE, dominance_period=4,
        )
        engine.stream_factory = lambda: make_service_streams(
            relations, kind=AccessKind.DISTANCE, query=query, page_size=7
        )
        result = engine.run()
        assert [c.key for c in result.combinations] == [c.key for c in expected]

    def test_score_access_with_bound_period(self):
        relations, query = instance(4, size=30)
        scoring = EuclideanLogScoring()
        expected = brute_force_topk(relations, scoring, query, 3)
        result = tbpa(
            relations, scoring, query, 3,
            kind=AccessKind.SCORE, bound_period=4,
        ).run()
        assert [c.key for c in result.combinations] == [c.key for c in expected]

    def test_three_relations_all_knobs(self):
        relations, query = instance(5, n=3, size=10)
        scoring = EuclideanLogScoring()
        expected = brute_force_topk(relations, scoring, query, 5)
        result = tbpa(
            relations, scoring, query, 5,
            kind=AccessKind.DISTANCE, dominance_period=3, bound_period=2,
        ).run()
        assert [c.key for c in result.combinations] == [c.key for c in expected]

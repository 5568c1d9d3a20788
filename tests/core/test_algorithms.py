"""End-to-end correctness of CBRR/CBPA/TBRR/TBPA against the brute-force
oracle, on randomised instances and both access kinds, plus the paper's
optimality relations (Theorem 3.5: TBPA never deeper than TBRR)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ALGORITHMS,
    AccessKind,
    EuclideanLogScoring,
    LinearScoring,
    Relation,
    brute_force_topk,
    make_algorithm,
)


def random_instance(rng, n_rel, sizes, d):
    relations = []
    for i in range(n_rel):
        size = sizes[i]
        scores = rng.uniform(0.05, 1.0, size=size)
        vectors = rng.uniform(-2.0, 2.0, size=(size, d))
        relations.append(Relation(f"R{i+1}", scores, vectors, sigma_max=1.0))
    query = rng.uniform(-1.0, 1.0, size=d)
    return relations, query


def assert_same_topk(got, expected):
    """Scores must match exactly in order; keys may differ only on ties."""
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert g.score == pytest.approx(e.score, abs=1e-9)
    # With the deterministic tie-break, keys must be identical too.
    assert [g.key for g in got] == [e.key for e in expected]


ALGO_NAMES = sorted(ALGORITHMS)


class TestAgainstBruteForceDistance:
    @pytest.mark.parametrize("algo", ALGO_NAMES)
    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(2, 3),
        st.integers(1, 3),
        st.integers(1, 5),
        st.randoms(use_true_random=False),
    )
    def test_topk_matches_oracle(self, algo, n_rel, d, k, rnd):
        rng = np.random.default_rng(rnd.randint(0, 2**32 - 1))
        sizes = rng.integers(3, 9, size=n_rel)
        relations, query = random_instance(rng, n_rel, sizes, d)
        scoring = EuclideanLogScoring(1.0, 1.0, 1.0)
        k = min(k, int(np.prod(sizes)))
        expected = brute_force_topk(relations, scoring, query, k)
        engine = make_algorithm(
            algo, relations, scoring, query, k, kind=AccessKind.DISTANCE
        )
        result = engine.run()
        assert_same_topk(result.combinations, expected)

    @pytest.mark.parametrize("algo", ALGO_NAMES)
    def test_k_exceeding_cross_product(self, algo):
        rng = np.random.default_rng(0)
        relations, query = random_instance(rng, 2, [2, 2], 2)
        scoring = EuclideanLogScoring()
        engine = make_algorithm(
            algo, relations, scoring, query, 4, kind=AccessKind.DISTANCE
        )
        result = engine.run()
        expected = brute_force_topk(relations, scoring, query, 4)
        assert_same_topk(result.combinations, expected)

    @pytest.mark.parametrize("algo", ALGO_NAMES)
    def test_single_relation(self, algo):
        rng = np.random.default_rng(1)
        relations, query = random_instance(rng, 1, [10], 2)
        scoring = EuclideanLogScoring()
        engine = make_algorithm(
            algo, relations, scoring, query, 3, kind=AccessKind.DISTANCE
        )
        result = engine.run()
        expected = brute_force_topk(relations, scoring, query, 3)
        assert_same_topk(result.combinations, expected)

    @pytest.mark.parametrize("algo", ALGO_NAMES)
    def test_weighted_scoring_variants(self, algo):
        rng = np.random.default_rng(2)
        relations, query = random_instance(rng, 2, [8, 8], 2)
        for scoring in (
            EuclideanLogScoring(2.0, 0.5, 3.0),
            EuclideanLogScoring(0.0, 1.0, 1.0),
            LinearScoring(1.0, 1.0, 0.0),
        ):
            expected = brute_force_topk(relations, scoring, query, 5)
            result = make_algorithm(
                algo, relations, scoring, query, 5, kind=AccessKind.DISTANCE
            ).run()
            assert_same_topk(result.combinations, expected)


class TestAgainstBruteForceScore:
    @pytest.mark.parametrize("algo", ALGO_NAMES)
    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(2, 3),
        st.integers(1, 3),
        st.integers(1, 4),
        st.randoms(use_true_random=False),
    )
    def test_topk_matches_oracle(self, algo, n_rel, d, k, rnd):
        rng = np.random.default_rng(rnd.randint(0, 2**32 - 1))
        sizes = rng.integers(3, 8, size=n_rel)
        relations, query = random_instance(rng, n_rel, sizes, d)
        scoring = EuclideanLogScoring(1.0, 1.0, 1.0)
        k = min(k, int(np.prod(sizes)))
        expected = brute_force_topk(relations, scoring, query, k)
        result = make_algorithm(
            algo, relations, scoring, query, k, kind=AccessKind.SCORE
        ).run()
        assert_same_topk(result.combinations, expected)


class TestBoundAndIndexVariants:
    @pytest.mark.parametrize("bound_period", [2, 5])
    def test_bound_period_preserves_correctness(self, bound_period):
        rng = np.random.default_rng(3)
        relations, query = random_instance(rng, 2, [12, 12], 2)
        scoring = EuclideanLogScoring()
        expected = brute_force_topk(relations, scoring, query, 5)
        result = make_algorithm(
            "TBPA", relations, scoring, query, 5,
            kind=AccessKind.DISTANCE, bound_period=bound_period,
        ).run()
        assert_same_topk(result.combinations, expected)

    def test_bound_period_reads_no_less(self):
        rng = np.random.default_rng(4)
        relations, query = random_instance(rng, 2, [25, 25], 2)
        scoring = EuclideanLogScoring()
        exact = make_algorithm(
            "TBRR", relations, scoring, query, 5, kind=AccessKind.DISTANCE
        ).run()
        periodic = make_algorithm(
            "TBRR", relations, scoring, query, 5,
            kind=AccessKind.DISTANCE, bound_period=4,
        ).run()
        assert periodic.sum_depths >= exact.sum_depths

    @pytest.mark.parametrize("period", [1, 4])
    def test_dominance_preserves_correctness(self, period):
        rng = np.random.default_rng(6)
        relations, query = random_instance(rng, 2, [15, 15], 2)
        scoring = EuclideanLogScoring()
        expected = brute_force_topk(relations, scoring, query, 5)
        result = make_algorithm(
            "TBPA", relations, scoring, query, 5,
            kind=AccessKind.DISTANCE, dominance_period=period,
        ).run()
        assert_same_topk(result.combinations, expected)

    def test_dominance_does_not_change_depths(self):
        """Dominated partial combinations can never carry t_M, so pruning
        them must not alter the stopping point."""
        rng = np.random.default_rng(7)
        relations, query = random_instance(rng, 2, [20, 20], 2)
        scoring = EuclideanLogScoring()
        plain = make_algorithm(
            "TBRR", relations, scoring, query, 5, kind=AccessKind.DISTANCE
        ).run()
        pruned = make_algorithm(
            "TBRR", relations, scoring, query, 5,
            kind=AccessKind.DISTANCE, dominance_period=1,
        ).run()
        assert pruned.depths == plain.depths
        assert pruned.counters["entries_dominated"] >= 0


class TestOptimalityRelations:
    """Empirical checks of the paper's optimality statements."""

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 5), st.randoms(use_true_random=False))
    def test_theorem_3_5_tbpa_never_deeper_than_tbrr(self, k, rnd):
        rng = np.random.default_rng(rnd.randint(0, 2**32 - 1))
        relations, query = random_instance(rng, 2, [20, 20], 2)
        scoring = EuclideanLogScoring()
        tbrr = make_algorithm(
            "TBRR", relations, scoring, query, k, kind=AccessKind.DISTANCE
        ).run()
        tbpa = make_algorithm(
            "TBPA", relations, scoring, query, k, kind=AccessKind.DISTANCE
        ).run()
        for i in range(2):
            assert tbpa.depths[i] <= tbrr.depths[i]

    @settings(max_examples=15, deadline=None)
    @given(st.integers(1, 5), st.randoms(use_true_random=False))
    def test_tight_never_reads_more_than_corner_under_rr(self, k, rnd):
        """Tight bounds stop no later than corner bounds on the same pull
        sequence (round-robin makes the sequences comparable)."""
        rng = np.random.default_rng(rnd.randint(0, 2**32 - 1))
        relations, query = random_instance(rng, 2, [20, 20], 2)
        scoring = EuclideanLogScoring()
        cb = make_algorithm(
            "CBRR", relations, scoring, query, k, kind=AccessKind.DISTANCE
        ).run()
        tb = make_algorithm(
            "TBRR", relations, scoring, query, k, kind=AccessKind.DISTANCE
        ).run()
        assert tb.sum_depths <= cb.sum_depths

    def test_run_result_metadata(self):
        rng = np.random.default_rng(8)
        relations, query = random_instance(rng, 2, [10, 10], 2)
        scoring = EuclideanLogScoring()
        result = make_algorithm(
            "TBPA", relations, scoring, query, 3, kind=AccessKind.DISTANCE
        ).run()
        assert result.sum_depths == sum(result.depths)
        assert result.total_seconds > 0
        assert result.bound_seconds >= 0
        assert result.combinations_formed >= len(result.combinations)
        assert result.counters["qp_solves"] > 0

"""Tests for the tight-bound geometry: projections, closed forms, the QP
reduction, batch paths, and the dominance coefficients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import EuclideanLogScoring, LinearScoring
from repro.core.bounds.geometry import (
    completion_terms,
    dominance_coefficients,
    partial_geometry,
    score_access_completion,
    solve_completion,
    solve_completion_batch,
    unconstrained_optimum,
)

SCORING = EuclideanLogScoring(1.0, 1.0, 1.0)


class TestPartialGeometry:
    def test_empty_set(self):
        geo = partial_geometry(np.zeros((0, 2)), np.zeros(2))
        assert geo.projections == ()
        assert geo.residual_sq == 0.0
        assert np.linalg.norm(geo.direction) == pytest.approx(1.0)

    def test_single_point_projection_is_distance(self):
        geo = partial_geometry(np.array([[3.0, 4.0]]), np.zeros(2))
        assert geo.projections[0] == pytest.approx(5.0)
        assert geo.residual_sq == pytest.approx(0.0)

    def test_query_offset(self):
        q = np.array([1.0, 1.0])
        geo = partial_geometry(np.array([[4.0, 5.0]]), q)
        assert geo.projections[0] == pytest.approx(5.0)

    def test_nu_equals_query_degenerate(self):
        # Two symmetric points: centroid at the query.
        geo = partial_geometry(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.zeros(2))
        assert np.linalg.norm(geo.direction) == pytest.approx(1.0)
        # Projections sum to ~0 regardless of the chosen axis.
        assert sum(geo.projections) == pytest.approx(0.0, abs=1e-12)

    @settings(max_examples=40)
    @given(st.integers(1, 5), st.randoms(use_true_random=False))
    def test_pythagoras(self, m, rnd):
        rng = np.random.default_rng(rnd.randint(0, 2**32 - 1))
        pts = rng.normal(size=(m, 3))
        q = rng.normal(size=3)
        geo = partial_geometry(pts, q)
        total_sq = float(((pts - q) ** 2).sum())
        proj_sq = float(np.sum(np.array(geo.projections) ** 2))
        assert total_sq == pytest.approx(proj_sq + geo.residual_sq)


class TestUnconstrainedOptimum:
    def test_paper_closed_form(self):
        # y* = nu * m w_mu / (m w_mu + n w_q) in query-centred coords.
        scoring = EuclideanLogScoring(1.0, 2.0, 3.0)
        nu = np.array([1.0, 0.0])
        y = unconstrained_optimum(scoring, n=3, m=2, nu_centred=nu)
        assert y[0] == pytest.approx(2 * 3.0 / (2 * 3.0 + 3 * 2.0))

    def test_m_zero_is_query(self):
        y = unconstrained_optimum(SCORING, n=2, m=0, nu_centred=np.array([5.0]))
        assert y[0] == 0.0

    def test_zero_weights(self):
        scoring = LinearScoring(1.0, 0.0, 0.0)
        y = unconstrained_optimum(scoring, n=2, m=1, nu_centred=np.array([5.0]))
        assert y[0] == 0.0


class TestSolveCompletionValidation:
    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="both"):
            solve_completion(
                SCORING, 2, np.zeros(1),
                {0: (1.0, np.array([1.0]))}, {0: 0.5}, {0: 1.0},
            )

    def test_partition_required(self):
        with pytest.raises(ValueError, match="partition"):
            solve_completion(
                SCORING, 3, np.zeros(1),
                {0: (1.0, np.array([1.0]))}, {1: 0.5}, {1: 1.0},
            )

    def test_sigma_delta_key_mismatch(self):
        with pytest.raises(ValueError, match="share keys"):
            solve_completion(
                SCORING, 2, np.zeros(1),
                {0: (1.0, np.array([1.0]))}, {1: 0.5}, {0: 1.0},
            )


class TestBoundIsActuallyAchievable:
    """Tightness in miniature (Theorem 3.2): placing real tuples at the
    solver's optimum attains exactly the bound value."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(2, 4),
        st.integers(1, 3),
        st.randoms(use_true_random=False),
    )
    def test_distance_bound_attained_by_construction(self, n, m, rnd):
        m = min(m, n - 1)
        rng = np.random.default_rng(rnd.randint(0, 2**32 - 1))
        query = rng.normal(size=2)
        scoring = EuclideanLogScoring(1.0, 1.0, 1.0)
        seen = {
            i: (float(rng.uniform(0.1, 1.0)), rng.normal(size=2))
            for i in range(m)
        }
        unseen_delta = {j: float(abs(rng.normal())) for j in range(m, n)}
        unseen_sigma = {j: 1.0 for j in range(m, n)}
        result = solve_completion(scoring, n, query, seen, unseen_delta, unseen_sigma)

        # Materialise the continuation: unseen tuples at y*_j with sigma_max.
        from repro.core.relation import RankTuple

        tuples = []
        for i in range(n):
            if i in seen:
                tuples.append(RankTuple(f"R{i}", 0, seen[i][0], seen[i][1]))
            else:
                pos = result.positions[i]
                # The optimum must respect the access constraint.
                assert np.linalg.norm(pos - query) >= unseen_delta[i] - 1e-7
                tuples.append(RankTuple(f"R{i}", 0, 1.0, pos))
        attained = scoring.score_combination(tuples, query)
        assert attained == pytest.approx(result.value, abs=1e-7)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(2, 4),
        st.integers(0, 3),
        st.randoms(use_true_random=False),
    )
    def test_score_bound_attained_by_construction(self, n, m, rnd):
        m = min(m, n - 1)
        rng = np.random.default_rng(rnd.randint(0, 2**32 - 1))
        query = rng.normal(size=2)
        scoring = EuclideanLogScoring(1.0, 1.0, 1.0)
        seen = {
            i: (float(rng.uniform(0.1, 1.0)), rng.normal(size=2))
            for i in range(m)
        }
        unseen_sigma = {j: float(rng.uniform(0.1, 1.0)) for j in range(m, n)}
        result = score_access_completion(scoring, n, query, seen, unseen_sigma)

        from repro.core.relation import RankTuple

        tuples = []
        for i in range(n):
            if i in seen:
                tuples.append(RankTuple(f"R{i}", 0, seen[i][0], seen[i][1]))
            else:
                tuples.append(
                    RankTuple(f"R{i}", 0, unseen_sigma[i], result.positions[i])
                )
        attained = scoring.score_combination(tuples, query)
        assert attained == pytest.approx(result.value, abs=1e-7)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 4), st.randoms(use_true_random=False))
    def test_bound_upper_bounds_random_completions(self, n, rnd):
        """No feasible completion may exceed t(tau)."""
        rng = np.random.default_rng(rnd.randint(0, 2**32 - 1))
        query = np.zeros(2)
        scoring = EuclideanLogScoring(1.0, 1.0, 1.0)
        seen = {0: (float(rng.uniform(0.1, 1.0)), rng.normal(size=2))}
        unseen_delta = {j: float(abs(rng.normal()) + 0.1) for j in range(1, n)}
        unseen_sigma = {j: 1.0 for j in range(1, n)}
        result = solve_completion(scoring, n, query, seen, unseen_delta, unseen_sigma)

        from repro.core.relation import RankTuple

        for _ in range(25):
            tuples = [RankTuple("R0", 0, seen[0][0], seen[0][1])]
            for j in range(1, n):
                direction = rng.normal(size=2)
                direction /= np.linalg.norm(direction)
                radius = unseen_delta[j] + abs(rng.normal())
                tuples.append(
                    RankTuple(
                        f"R{j}", 0, float(rng.uniform(0.1, 1.0)),
                        query + radius * direction,
                    )
                )
            assert scoring.score_combination(tuples, query) <= result.value + 1e-7


class TestBatchConsistency:
    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(2, 4),
        st.integers(1, 3),
        st.integers(1, 6),
        st.randoms(use_true_random=False),
    )
    def test_batch_completion_matches_scalar(self, n, m, entries, rnd):
        m = min(m, n - 1)
        rng = np.random.default_rng(rnd.randint(0, 2**32 - 1))
        scoring = EuclideanLogScoring(0.8, 1.2, 0.6)
        query = rng.normal(size=2)
        member_idx = sorted(rng.choice(n, size=m, replace=False).tolist())
        others = [j for j in range(n) if j not in member_idx]
        unseen_delta = {j: float(abs(rng.normal())) for j in others}
        unseen_sigma = {j: float(rng.uniform(0.2, 1.0)) for j in others}
        scores = rng.uniform(0.1, 1.0, size=(entries, m))
        vectors = rng.normal(size=(entries, m, 2))

        values, thetas = solve_completion_batch(
            scoring, n, query, member_idx, scores, vectors, unseen_delta, unseen_sigma
        )
        for e in range(entries):
            seen = {
                j: (float(scores[e, r]), vectors[e, r])
                for r, j in enumerate(member_idx)
            }
            ref = solve_completion(scoring, n, query, seen, unseen_delta, unseen_sigma)
            assert values[e] == pytest.approx(ref.value, abs=1e-7)
            np.testing.assert_allclose(thetas[e], ref.theta, atol=1e-7)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(2, 4),
        st.integers(1, 3),
        st.integers(1, 6),
        st.randoms(use_true_random=False),
    )
    def test_batch_dominance_matches_scalar(self, n, m, entries, rnd):
        m = min(m, n - 1)
        rng = np.random.default_rng(rnd.randint(0, 2**32 - 1))
        scoring = EuclideanLogScoring(1.0, 0.5, 1.5)
        query = rng.normal(size=2)
        member_idx = sorted(rng.choice(n, size=m, replace=False).tolist())
        others = [j for j in range(n) if j not in member_idx]
        unseen_sigma = {j: float(rng.uniform(0.2, 1.0)) for j in others}
        scores = rng.uniform(0.1, 1.0, size=(entries, m))
        vectors = rng.normal(size=(entries, m, 2))

        unseen_utility = sum(
            scoring.score_utility(unseen_sigma[j]) for j in sorted(unseen_sigma)
        )
        *_, bs, cs = completion_terms(
            scoring, n, query, scores, vectors, unseen_utility
        )
        for e in range(entries):
            seen = {
                j: (float(scores[e, r]), vectors[e, r])
                for r, j in enumerate(member_idx)
            }
            b_ref, c_ref = dominance_coefficients(
                scoring, n, query, seen, unseen_sigma
            )
            np.testing.assert_allclose(bs[e], b_ref, atol=1e-9)
            assert cs[e] == pytest.approx(c_ref, abs=1e-9)


class TestDominanceHalfSpaceSemantics:
    def test_difference_of_objectives_is_linear(self):
        """f_alpha(y) - f_beta(y) must not depend on the quadratic term:
        check at random y that the half-space inequality characterises
        which partial combination offers the better completion."""
        rng = np.random.default_rng(7)
        scoring = EuclideanLogScoring(1.0, 1.0, 1.0)
        n, query = 3, np.zeros(2)
        seen_a = {0: (0.9, np.array([1.0, 0.5])), 1: (0.4, np.array([0.2, -1.0]))}
        seen_b = {0: (0.5, np.array([-1.0, 1.0])), 1: (0.8, np.array([0.7, 0.3]))}
        sigma = {2: 1.0}
        b_a, c_a = dominance_coefficients(scoring, n, query, seen_a, sigma)
        b_b, c_b = dominance_coefficients(scoring, n, query, seen_b, sigma)

        from repro.core.relation import RankTuple

        for _ in range(30):
            y = rng.normal(size=2) * 2
            # alpha's completion value at y (both unseen tuples at y).
            def value(seen):
                tuples = [
                    RankTuple("R0", 0, seen[0][0], seen[0][1]),
                    RankTuple("R1", 0, seen[1][0], seen[1][1]),
                    RankTuple("R2", 0, 1.0, y),
                ]
                return scoring.score_combination(tuples, query)

            diff = value(seen_a) - value(seen_b)
            halfspace = (c_b - c_a) - 2.0 * float((b_a - b_b) @ y)
            assert diff == pytest.approx(halfspace, abs=1e-9)

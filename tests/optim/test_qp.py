"""Tests for the active-set QP solver against analytic and scipy references."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.optim import solve_bound_qp, solve_qp, spread_matrix

weights = st.floats(min_value=0.1, max_value=10.0, allow_nan=False)


class TestSpreadMatrix:
    def test_structure(self):
        h = spread_matrix(3, w_q=1.0, w_mu=1.0)
        a = np.eye(3) - np.ones((3, 3)) / 3
        np.testing.assert_allclose(h, np.eye(3) + a.T @ a, atol=1e-12)

    def test_positive_definite_when_wq_positive(self):
        h = spread_matrix(4, w_q=0.5, w_mu=2.0)
        assert np.linalg.eigvalsh(h).min() > 0

    def test_singular_when_wq_zero(self):
        h = spread_matrix(4, w_q=0.0, w_mu=2.0)
        eig = np.linalg.eigvalsh(h)
        assert eig.min() == pytest.approx(0.0, abs=1e-10)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            spread_matrix(0, 1.0, 1.0)
        with pytest.raises(ValueError):
            spread_matrix(2, -1.0, 1.0)


class TestBoundQP:
    def test_all_fixed(self):
        h = spread_matrix(2, 1.0, 1.0)
        res = solve_bound_qp(h, fixed={0: 1.0, 1: 2.0}, lower={})
        np.testing.assert_allclose(res.x, [1.0, 2.0])
        theta = np.array([1.0, 2.0])
        assert res.value == pytest.approx(float(theta @ h @ theta))

    def test_unconstrained_free_goes_to_zero(self):
        h = spread_matrix(2, 1.0, 1.0)
        res = solve_bound_qp(h, fixed={}, lower={})
        np.testing.assert_allclose(res.x, [0.0, 0.0], atol=1e-10)

    def test_active_bound(self):
        # min theta' I theta with theta0 >= 3 -> theta0 = 3.
        res = solve_bound_qp(np.eye(2), fixed={}, lower={0: 3.0})
        assert res.x[0] == pytest.approx(3.0)
        assert res.x[1] == pytest.approx(0.0, abs=1e-10)
        assert res.active == (0,)

    def test_inactive_bound(self):
        res = solve_bound_qp(np.eye(2), fixed={}, lower={0: -3.0})
        np.testing.assert_allclose(res.x, [0.0, 0.0], atol=1e-10)
        assert res.active == ()

    def test_overlapping_fixed_lower_raises(self):
        with pytest.raises(ValueError, match="disjoint"):
            solve_bound_qp(np.eye(2), fixed={0: 1.0}, lower={0: 0.0})

    def test_out_of_range_index_raises(self):
        with pytest.raises(ValueError, match="out of range"):
            solve_bound_qp(np.eye(2), fixed={5: 1.0}, lower={})

    def test_paper_empty_set_example(self):
        # Table 3, M = {} row: n=3, w_q = w_mu = 1, bounds 1, 2sqrt2, 2sqrt2.
        # The last two coordinates stay at their bounds; the first leaves
        # its bound at 4x = (2/3)(x + 4sqrt2), x = 0.8sqrt2, so the
        # quadratic part's optimum is 2(1.28 + 16) - (4.8sqrt2)^2 / 3 = 19.2.
        h = spread_matrix(3, 1.0, 1.0)
        res = solve_bound_qp(
            h, fixed={}, lower={0: 1.0, 1: 2 * np.sqrt(2), 2: 2 * np.sqrt(2)}
        )
        assert res.x[0] == pytest.approx(0.8 * np.sqrt(2), abs=1e-6)
        assert res.value == pytest.approx(19.2, abs=1e-9)

    def test_interaction_pushes_free_var_up(self):
        # With a big spread penalty the free variable is pulled towards the
        # fixed one rather than to zero.
        h = spread_matrix(2, w_q=0.1, w_mu=10.0)
        res = solve_bound_qp(h, fixed={0: 4.0}, lower={1: 0.0})
        assert res.x[1] > 3.0

    def test_linear_term(self):
        # min x^2 + c x over x >= 0 with c = -4 -> x = 2.
        res = solve_bound_qp(np.eye(1), fixed={}, lower={0: 0.0}, linear=[-4.0])
        assert res.x[0] == pytest.approx(2.0)
        assert res.value == pytest.approx(-4.0)

    def test_constant_term_propagates(self):
        res = solve_bound_qp(np.eye(1), fixed={0: 1.0}, lower={}, constant=7.0)
        assert res.value == pytest.approx(8.0)

    def test_psd_singular_hessian(self):
        # w_q = 0 leaves a flat direction along 1; solver must not blow up.
        h = spread_matrix(2, w_q=0.0, w_mu=1.0)
        res = solve_bound_qp(h, fixed={}, lower={0: 1.0, 1: 1.0})
        assert res.value == pytest.approx(0.0, abs=1e-8)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(2, 5),
        st.integers(0, 4),
        weights,
        weights,
        st.randoms(use_true_random=False),
    )
    def test_kkt_and_grid_optimality(self, n, m, w_q, w_mu, rnd):
        """Random instances: solution is feasible, satisfies KKT, and beats
        a sampled cloud of feasible points."""
        m = min(m, n - 1)
        rng = np.random.default_rng(rnd.randint(0, 2**32 - 1))
        h = spread_matrix(n, w_q, w_mu)
        fixed = {i: float(rng.normal()) for i in range(m)}
        lower = {i: float(abs(rng.normal())) for i in range(m, n)}
        res = solve_bound_qp(h, fixed=fixed, lower=lower)
        for i, v in fixed.items():
            assert res.x[i] == pytest.approx(v)
        for i, l in lower.items():
            assert res.x[i] >= l - 1e-8
        # Sampled optimality check.
        for _ in range(30):
            cand = res.x.copy()
            for i in lower:
                cand[i] = lower[i] + abs(rng.normal(scale=2.0))
            assert res.value <= float(cand @ h @ cand) + 1e-7


class TestGenericQP:
    def test_unconstrained(self):
        q = 2 * np.eye(2)
        c = np.array([-2.0, -4.0])
        res = solve_qp(q, c)
        np.testing.assert_allclose(res.x, [1.0, 2.0], atol=1e-9)

    def test_single_active_constraint(self):
        # min (x-2)^2 s.t. x <= 1  ->  x = 1
        res = solve_qp(np.array([[2.0]]), np.array([-4.0]), [[1.0]], [1.0])
        assert res.x[0] == pytest.approx(1.0)

    def test_matches_bound_qp(self):
        rng = np.random.default_rng(3)
        h = spread_matrix(3, 1.0, 1.0)
        lower = {0: 1.0, 1: 0.5, 2: 2.0}
        res_b = solve_bound_qp(h, fixed={}, lower=lower)
        # Rewrite as generic problem: min theta' H theta s.t. -theta <= -l.
        res_g = solve_qp(
            2 * h,
            np.zeros(3),
            -np.eye(3),
            -np.array([1.0, 0.5, 2.0]),
            x0=np.array([2.0, 2.0, 3.0]),
        )
        np.testing.assert_allclose(res_b.x, res_g.x, atol=1e-6)

    def test_infeasible_x0_raises(self):
        with pytest.raises(ValueError, match="infeasible"):
            solve_qp(np.eye(1), np.zeros(1), [[1.0]], [0.0], x0=np.array([5.0]))

    @pytest.mark.parametrize("seed", range(5))
    def test_against_scipy(self, seed):
        scipy_opt = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(seed)
        n = 3
        sq = rng.normal(size=(n, n))
        q = sq @ sq.T + n * np.eye(n)
        c = rng.normal(size=n)
        a = rng.normal(size=(4, n))
        x_feas = rng.normal(size=n)
        b = a @ x_feas + abs(rng.normal(size=4)) + 0.1
        res = solve_qp(q, c, a, b, x0=x_feas)
        ref = scipy_opt.minimize(
            lambda x: 0.5 * x @ q @ x + c @ x,
            x_feas,
            constraints=[{"type": "ineq", "fun": lambda x: b - a @ x}],
            method="SLSQP",
        )
        assert res.value == pytest.approx(float(ref.fun), abs=1e-5)

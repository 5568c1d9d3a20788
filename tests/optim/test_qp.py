"""Tests for the QP solvers against analytic and scipy references: the
bound QP (the per-pattern enumeration and the masked solver) and the
generic active-set QP."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.optim import (
    solve_bound_qp_batch,
    solve_bound_qp_masked,
    solve_qp,
    spread_matrix,
)

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


def bound_qp(h, fixed, lower):
    """One bound QP through both solvers, ``fixed``/``lower`` as
    ``{index: value}``; coordinates in neither are unconstrained, which
    only the masked solver takes.  Returns ``(value, theta)`` after
    checking the two agree bit for bit where both apply."""
    n = h.shape[0]
    fm = np.zeros((1, n), dtype=bool)
    lm = np.zeros((1, n), dtype=bool)
    vals = np.zeros((1, n))
    for mask, coords in ((fm, fixed), (lm, lower)):
        for i, v in coords.items():
            mask[0, i] = True
            vals[0, i] = v
    values, thetas, _ = solve_bound_qp_masked(h, fm, vals, lm, vals)
    if len(fixed) + len(lower) == n:
        fidx, lidx = sorted(fixed), sorted(lower)
        ref_values, ref_thetas = solve_bound_qp_batch(
            h, fidx, [[fixed[i] for i in fidx]], lidx, [lower[j] for j in lidx]
        )
        assert ref_values[0] == values[0]
        assert (ref_thetas[0] == thetas[0]).all()
    return float(values[0]), thetas[0]


class TestBoundQP:
    def test_all_fixed(self):
        h = spread_matrix(2, 1.0, 1.0)
        value, x = bound_qp(h, fixed={0: 1.0, 1: 2.0}, lower={})
        np.testing.assert_allclose(x, [1.0, 2.0])
        theta = np.array([1.0, 2.0])
        assert value == pytest.approx(float(theta @ h @ theta))

    def test_unconstrained_free_goes_to_zero(self):
        h = spread_matrix(2, 1.0, 1.0)
        _, x = bound_qp(h, fixed={}, lower={})
        np.testing.assert_allclose(x, [0.0, 0.0], atol=1e-10)

    def test_active_bound(self):
        # min theta' I theta with theta0 >= 3 -> theta0 = 3.
        _, x = bound_qp(np.eye(2), fixed={}, lower={0: 3.0})
        assert x[0] == pytest.approx(3.0)
        assert x[1] == pytest.approx(0.0, abs=1e-10)
        _, x = bound_qp(np.eye(2), fixed={}, lower={0: 3.0, 1: -1.0})
        assert x[0] == 3.0 and x[1] == pytest.approx(0.0, abs=1e-10)

    def test_inactive_bound(self):
        _, x = bound_qp(np.eye(2), fixed={}, lower={0: -3.0})
        np.testing.assert_allclose(x, [0.0, 0.0], atol=1e-10)
        _, x = bound_qp(np.eye(2), fixed={}, lower={0: -3.0, 1: -1.0})
        np.testing.assert_allclose(x, [0.0, 0.0], atol=1e-10)

    def test_overlapping_fixed_lower_raises(self):
        with pytest.raises(ValueError, match="partition"):
            solve_bound_qp_batch(np.eye(2), [0], [[1.0]], [0, 1], [0.0, 0.0])
        both = np.array([[True, False]])
        with pytest.raises(ValueError, match="disjoint"):
            solve_bound_qp_masked(
                np.eye(2), both, np.zeros((1, 2)), both, np.zeros((1, 2))
            )

    def test_out_of_range_index_raises(self):
        with pytest.raises(ValueError, match="partition"):
            solve_bound_qp_batch(np.eye(2), [0, 5], [[1.0, 2.0]], [], [])

    def test_paper_empty_set_example(self):
        # Table 3, M = {} row: n=3, w_q = w_mu = 1, bounds 1, 2sqrt2, 2sqrt2.
        # The last two coordinates stay at their bounds; the first leaves
        # its bound at 4x = (2/3)(x + 4sqrt2), x = 0.8sqrt2, so the
        # quadratic part's optimum is 2(1.28 + 16) - (4.8sqrt2)^2 / 3 = 19.2.
        h = spread_matrix(3, 1.0, 1.0)
        value, x = bound_qp(
            h, fixed={}, lower={0: 1.0, 1: 2 * np.sqrt(2), 2: 2 * np.sqrt(2)}
        )
        assert x[0] == pytest.approx(0.8 * np.sqrt(2), abs=1e-6)
        assert value == pytest.approx(19.2, abs=1e-9)

    def test_interaction_pushes_free_var_up(self):
        # With a big spread penalty the free variable is pulled towards the
        # fixed one rather than to zero.
        h = spread_matrix(2, w_q=0.1, w_mu=10.0)
        _, x = bound_qp(h, fixed={0: 4.0}, lower={1: 0.0})
        assert x[1] > 3.0

    def test_psd_singular_hessian(self):
        # w_q = 0 leaves a flat direction along 1; solver must not blow up.
        h = spread_matrix(2, w_q=0.0, w_mu=1.0)
        value, _ = bound_qp(h, fixed={}, lower={0: 1.0, 1: 1.0})
        assert value == pytest.approx(0.0, abs=1e-8)

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
        value, x = bound_qp(h, fixed=fixed, lower=lower)
        for i, v in fixed.items():
            assert x[i] == pytest.approx(v)
        for i, l in lower.items():
            assert x[i] >= l - 1e-8
        # KKT: the gradient 2 H x is >= 0 on every bound and 0 on every
        # coordinate strictly above its bound.
        grad = 2.0 * h @ x
        for i, l in lower.items():
            assert grad[i] >= -1e-7
            if x[i] > l + 1e-7:
                assert grad[i] == pytest.approx(0.0, abs=1e-7)
        # Sampled optimality check.
        for _ in range(30):
            cand = x.copy()
            for i in lower:
                cand[i] = lower[i] + abs(rng.normal(scale=2.0))
            assert value <= float(cand @ h @ cand) + 1e-7


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
        h = spread_matrix(3, 1.0, 1.0)
        lower = np.array([1.0, 0.5, 2.0])
        _, thetas = solve_bound_qp_batch(h, [], np.zeros((1, 0)), [0, 1, 2], lower)
        # Rewrite as generic problem: min theta' H theta s.t. -theta <= -l.
        res_g = solve_qp(
            2 * h,
            np.zeros(3),
            -np.eye(3),
            -lower,
            x0=np.array([2.0, 2.0, 3.0]),
        )
        np.testing.assert_allclose(thetas[0], res_g.x, atol=1e-6)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_bound_qp_with_fixed_coordinates(self, seed):
        # Pinning the fixed coordinates leaves a QP over the free ones:
        # z' Q z + 2 r' z + e' H_EE e with Q = H_FF, r = H_FE e, the bounds
        # -z <= -l.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        h = spread_matrix(n, float(rng.uniform(0.1, 3)), float(rng.uniform(0.1, 3)))
        m = int(rng.integers(0, n))
        fixed = sorted(rng.choice(n, size=m, replace=False).tolist())
        free = [j for j in range(n) if j not in fixed]
        e = rng.normal(size=m)
        lower = rng.normal(size=len(free))
        values, thetas = solve_bound_qp_batch(h, fixed, e[None, :], free, lower)
        q, r = h[np.ix_(free, free)], h[np.ix_(free, fixed)] @ e
        res_g = solve_qp(
            2 * q, 2 * r, -np.eye(len(free)), -lower, x0=np.abs(lower) + 1.0
        )
        const = float(e @ h[np.ix_(fixed, fixed)] @ e)
        np.testing.assert_allclose(thetas[0, free], res_g.x, atol=1e-6)
        assert values[0] == pytest.approx(res_g.value + const, abs=1e-6)

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

"""Tests for the dense Chebyshev-centre simplex and the dominance
feasibility test built on it."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.optim.simplex as simplex_mod
from repro.optim import (
    chebyshev_center,
    polyhedron_feasible_point,
    polyhedron_is_empty,
)


def _row_loop_pivot(tableau, basis, row, col):
    """Reference Gauss-Jordan pivot, one row at a time: the textbook
    form the rank-1 :func:`repro.optim.simplex._pivot` must reproduce."""
    tableau[row] /= tableau[row, col]
    for r in range(len(tableau)):
        if r != row and abs(tableau[r, col]) > 0.0:
            tableau[r] -= tableau[r, col] * tableau[row]
    basis[row] = col


def random_polyhedra(rng, count, d):
    """Mixed feasible / infeasible / degenerate (zero-row, tied) systems."""
    gs, hs = [], []
    for trial in range(count):
        m = int(rng.integers(1, 40))
        g = rng.normal(size=(m, d))
        if trial % 5 == 0:
            g[int(rng.integers(0, m))] = 0.0  # zero row
        if trial % 6 == 0 and m >= 2:
            g[1] = g[0]  # tied half-space directions
        y0 = rng.normal(size=d)
        slack = rng.normal(size=m) * (0.5 if trial % 3 else -0.2)
        gs.append(g)
        hs.append(g @ y0 + slack)
    return gs, hs


class TestChebyshevAndEmptiness:
    def test_unit_box_center(self):
        g = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        h = np.array([1.0, 1.0, 1.0, 1.0])
        center, radius = chebyshev_center(g, h)
        np.testing.assert_allclose(center, [0.0, 0.0], atol=1e-8)
        assert radius == pytest.approx(1.0)

    def test_empty_region_negative_radius(self):
        # x <= 0 and x >= 1.
        g = np.array([[1.0], [-1.0]])
        h = np.array([0.0, -1.0])
        _, radius = chebyshev_center(g, h)
        assert radius == pytest.approx(-0.5)

    def test_halfspace_unbounded_radius_capped(self):
        _, radius = chebyshev_center(np.array([[1.0, 0.0]]), np.array([0.0]))
        assert radius == pytest.approx(1e3)

    def test_zero_row_feasible(self):
        g = np.array([[0.0, 0.0], [1.0, 0.0]])
        h = np.array([1.0, 2.0])
        _, radius = chebyshev_center(g, h)
        assert radius > 0

    def test_zero_row_infeasible(self):
        g = np.array([[0.0, 0.0]])
        h = np.array([-1.0])
        assert polyhedron_is_empty(g, h)

    def test_emptiness_decisions(self):
        assert polyhedron_is_empty([[1.0], [-1.0]], [0.0, -1.0])
        assert not polyhedron_is_empty([[1.0], [-1.0]], [1.0, 0.0])

    def test_thin_region_kept(self):
        # A region that is a single point (x <= 0, x >= 0) is not
        # "robustly empty": pruning must keep it.
        assert not polyhedron_is_empty([[1.0], [-1.0]], [0.0, 0.0])

    @settings(max_examples=50, deadline=None)
    @given(st.integers(2, 4), st.integers(3, 8), st.randoms(use_true_random=False))
    def test_never_reports_feasible_region_empty(self, d, m, rnd):
        """Soundness: if we can exhibit an interior point, the test must
        never claim emptiness (dominance pruning correctness depends on
        this one-sided guarantee)."""
        rng = np.random.default_rng(rnd.randint(0, 2**32 - 1))
        g = rng.normal(size=(m, d))
        y0 = rng.normal(size=d)
        h = g @ y0 + abs(rng.normal(size=m)) + 0.05
        assert not polyhedron_is_empty(g, h)

    def test_witnesses_are_feasible(self):
        rng = np.random.default_rng(3)
        gs, hs = random_polyhedra(rng, 40, 3)
        for g, h in zip(gs, hs):
            point = polyhedron_feasible_point(g, h)
            if point is not None:
                assert (g @ point <= h + 1e-6).all()

    def test_all_zero_rows(self):
        # Pure "0 <= h" systems: feasible iff every h >= 0.
        point = polyhedron_feasible_point(np.zeros((2, 2)), np.array([1.0, 2.0]))
        assert (point == 0.0).all()
        assert polyhedron_feasible_point(
            np.zeros((2, 2)), np.array([1.0, -1.0])
        ) is None

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_all_zero_rows_point_has_d_coordinates(self, d):
        # Once the zero rows are stripped no row is left; the point must
        # still live in R^d, like the centre.
        g = np.zeros((2, d))
        h = np.array([0.5, 0.0])
        point = polyhedron_feasible_point(g, h)
        center, radius = chebyshev_center(g, h)
        assert point.shape == (d,) and (point == 0.0).all()
        assert point.tobytes() == center.tobytes()

    def test_trivial_constraint_counts_skip_the_tableau(self, monkeypatch):
        """m = 0 (all rows stripped), m = 1 (analytic centre) and the
        contradictory zero-row certificate are answered without a
        tableau."""

        def no_tableau(*args, **kwargs):
            raise AssertionError("trivial system reached the simplex")

        monkeypatch.setattr(simplex_mod, "_run_simplex", no_tableau)
        d = 3
        # All rows strip: the whole space, centre at the origin.
        center, radius = chebyshev_center(np.zeros((2, d)), np.array([0.5, 0.0]))
        assert (center == 0.0).all() and radius == 1e3
        # One half-space g'y <= h: the capped ball touches the plane.
        g = np.array([[1.0, -2.0, 0.5]])
        center, radius = chebyshev_center(g, np.array([-3.0]))
        assert radius == 1e3
        norm = np.linalg.norm(g[0])
        assert g[0] @ center + norm * radius == pytest.approx(-3.0)
        # A zero row beside one real row: the real row's analytic centre.
        center, radius = chebyshev_center(
            np.vstack([np.zeros(d), [1.0, 0.0, 0.0]]), np.array([1.0, 2.0])
        )
        assert radius == 1e3 and center.tolist() == [2.0 - 1e3, 0.0, 0.0]
        # A zero row with h < 0: certainly empty.
        center, radius = chebyshev_center(np.zeros((1, d)), np.array([-1.0]))
        assert center is None and radius == -np.inf
        assert polyhedron_is_empty(np.zeros((1, d)), np.array([-1.0]))


    @pytest.mark.parametrize("seed", range(5))
    def test_rank1_pivot_bit_identical_to_row_loop(self, seed, monkeypatch):
        """The rank-1 pivot is the row loop's arithmetic, entry for
        entry: centres and radii are equal with ``==``."""
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 4))
        gs, hs = random_polyhedra(rng, 60, d)
        fast = [chebyshev_center(g, h) for g, h in zip(gs, hs)]
        monkeypatch.setattr(simplex_mod, "_pivot", _row_loop_pivot)
        for (g, h), (center, radius) in zip(zip(gs, hs), fast):
            c_ref, r_ref = chebyshev_center(g, h)
            assert r_ref == radius
            if c_ref is None:
                assert center is None
            else:
                assert (c_ref == center).all()

    @pytest.mark.parametrize("seed", range(5))
    def test_feasible_point_is_the_centre(self, seed):
        """The witness is the Chebyshev centre itself, returned exactly
        when the radius clears ``-tol``; ``polyhedron_is_empty`` is its
        complement."""
        rng = np.random.default_rng(100 + seed)
        gs, hs = random_polyhedra(rng, 50, 2)
        for g, h in zip(gs, hs):
            center, radius = chebyshev_center(g, h)
            point = polyhedron_feasible_point(g, h)
            if center is None or radius < -1e-7:
                assert point is None
                assert polyhedron_is_empty(g, h)
            else:
                assert point.tobytes() == center.tobytes()
                assert not polyhedron_is_empty(g, h)

    def test_array_like_inputs(self):
        """Slices of a stacked ``(B, m, d)`` array, nested lists and
        integer arrays are read as the same float system."""
        rng = np.random.default_rng(9)
        g = rng.normal(size=(7, 12, 2))
        y0 = rng.normal(size=(7, 1, 2))
        h = np.einsum("bmd,bnd->bm", g, y0) + 0.3
        for b in range(7):
            center, radius = chebyshev_center(g[b], h[b])
            assert radius > 0.0
            c_list, r_list = chebyshev_center(g[b].tolist(), h[b].tolist())
            assert r_list == radius and (c_list == center).all()
            point = polyhedron_feasible_point(g[b], h[b])
            assert (g[b] @ point <= h[b] + 1e-9).all()
        square = np.array([[1, 0], [-1, 0], [0, 1], [0, -1]])
        center, radius = chebyshev_center(square, np.array([3, 1, 3, 1]))
        assert radius == pytest.approx(2.0)
        np.testing.assert_allclose(center, [1.0, 1.0], atol=1e-9)

    def test_no_constraints(self):
        # A system with no rows at all is the whole space: the capped
        # ball at the origin.
        for d in (1, 3):
            center, radius = chebyshev_center(np.zeros((0, d)), np.zeros(0))
            assert radius == 1e3
            assert center.shape == (d,) and (center == 0.0).all()


class TestChebyshevLPCases:
    """Hand-solved Chebyshev LPs with two or more rows, so every case
    runs the warm-started tableau: the textbook optimum, redundant
    rows, centres away from the origin (negative right-hand sides),
    unbounded directions, the radius cap and infeasible systems."""

    def test_triangle_incentre(self):
        # The 3-4-5 right triangle x >= 0, y >= 0, 4x + 3y <= 12 has
        # inradius (3 + 4 - 5) / 2 = 1 at (1, 1).
        g = np.array([[-1.0, 0.0], [0.0, -1.0], [4.0, 3.0]])
        h = np.array([0.0, 0.0, 12.0])
        center, radius = chebyshev_center(g, h)
        assert radius == pytest.approx(1.0)
        np.testing.assert_allclose(center, [1.0, 1.0], atol=1e-9)

    def test_redundant_rows(self):
        # Repeating a row, or scaling it, moves neither centre nor radius.
        g = np.array([[-1.0, 0.0], [0.0, -1.0], [4.0, 3.0]])
        h = np.array([0.0, 0.0, 12.0])
        g2 = np.vstack([g, g[2], 2.0 * g[0]])
        h2 = np.concatenate([h, [h[2], 2.0 * h[0]]])
        center, radius = chebyshev_center(g2, h2)
        assert radius == pytest.approx(1.0)
        np.testing.assert_allclose(center, [1.0, 1.0], atol=1e-9)

    def test_box_away_from_origin(self):
        # [-7, -3]^2: the origin violates two rows (negative right-hand
        # sides), so the warm start enters r through r-.
        g = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        h = np.array([-3.0, 7.0, -3.0, 7.0])
        center, radius = chebyshev_center(g, h)
        assert radius == pytest.approx(2.0)
        np.testing.assert_allclose(center, [-5.0, -5.0], atol=1e-9)

    def test_rectangle(self):
        # [0, 4] x [0, 2]: radius 1; the centre is any point of the
        # segment y = 1, 1 <= x <= 3.
        g = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        h = np.array([4.0, 0.0, 2.0, 0.0])
        center, radius = chebyshev_center(g, h)
        assert radius == pytest.approx(1.0)
        assert center[1] == pytest.approx(1.0)
        assert 1.0 - 1e-9 <= center[0] <= 3.0 + 1e-9

    def test_strip_unbounded_along_one_axis(self):
        # 0 <= y <= 2 leaves x free: the ball is bounded by the strip.
        g = np.array([[0.0, 1.0], [0.0, -1.0]])
        h = np.array([2.0, 0.0])
        center, radius = chebyshev_center(g, h)
        assert radius == pytest.approx(1.0)
        assert center[1] == pytest.approx(1.0)

    def test_open_wedge_radius_capped(self):
        # x <= 0, y <= 0 holds arbitrarily large balls: the cap row
        # binds, and the capped ball lies inside the wedge.
        g = np.array([[1.0, 0.0], [0.0, 1.0]])
        h = np.zeros(2)
        center, radius = chebyshev_center(g, h)
        assert radius == pytest.approx(1e3)
        assert (g @ center + radius <= h + 1e-6).all()
        center, radius = chebyshev_center(g, h, r_cap=5.0)
        assert radius == pytest.approx(5.0)
        assert (g @ center + radius <= h + 1e-9).all()

    def test_infeasible_least_violation(self):
        # x <= -1 and x >= 1 (y boxed): max r with x + r <= -1 and
        # -x + r <= -1 gives r = -1, at x = 0.
        g = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        h = np.array([-1.0, -1.0, 1.0, 1.0])
        center, radius = chebyshev_center(g, h)
        assert radius == pytest.approx(-1.0)
        assert center[0] == pytest.approx(0.0, abs=1e-9)
        assert polyhedron_feasible_point(g, h) is None

    @pytest.mark.parametrize("seed", range(8))
    def test_radius_matches_highs(self, seed):
        """On random bounded, full-dimensional polyhedra the dense
        radius equals the optimum of the same LP solved by scipy's
        HiGHS (a test-side oracle), and the ball lies inside."""
        scipy_opt = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(seed)
        n, m = 3, 6
        a = rng.normal(size=(m, n))
        x0 = rng.normal(size=n)
        b = a @ x0 + abs(rng.normal(size=m)) + 0.5  # feasible by construction
        g = np.vstack([a, np.eye(n), -np.eye(n)])  # boxed: bounded
        h = np.concatenate([b, np.full(n, 50.0), np.full(n, 50.0)])
        norms = np.linalg.norm(g, axis=1)
        c = np.zeros(n + 1)
        c[-1] = -1.0
        ref = scipy_opt.linprog(
            c, A_ub=np.hstack([g, norms[:, None]]), b_ub=h,
            bounds=[(None, None)] * n + [(None, 1e3)], method="highs",
        )
        assert ref.status == 0
        center, radius = chebyshev_center(g, h)
        assert radius > 0.0
        assert radius == pytest.approx(-float(ref.fun), abs=1e-6)
        assert (g @ center + norms * radius <= h + 1e-6).all()


@pytest.mark.parametrize("seed", range(5))
def test_emptiness_verdicts_match_highs(seed):
    """Dense ``polyhedron_is_empty`` verdicts equal the verdicts of the
    same Chebyshev LP solved by scipy's HiGHS (``r* < -tol`` or
    infeasible), a test-side oracle only: the library never imports
    scipy."""
    scipy_opt = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(200 + seed)
    gs, hs = random_polyhedra(rng, 60, 2)
    for g, h in zip(gs, hs):
        d = g.shape[1]
        a_ub = np.hstack([g, np.linalg.norm(g, axis=1)[:, None]])
        c = np.zeros(d + 1)
        c[-1] = -1.0
        res = scipy_opt.linprog(
            c, A_ub=a_ub, b_ub=h, bounds=[(None, None)] * d + [(None, 1e3)],
            method="highs",
        )
        assert res.status in (0, 2)
        highs_empty = res.status == 2 or float(res.x[-1]) < -1e-7
        assert polyhedron_is_empty(g, h) == highs_empty

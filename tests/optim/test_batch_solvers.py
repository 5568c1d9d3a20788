"""Differential suite for the bound-QP solver against its one reference.

Every row of :func:`repro.optim.solve_bound_qp_masked` must be
bit-identical to the per-pattern active-set enumeration
(:func:`repro.optim.solve_bound_qp_batch`, ``_solve_pattern``) run on
that row alone.  Degenerate and tie cases included; the singular-Hessian
family (``w_q = 0``) pins optimal *values* only, per the documented
contract (the enumeration falls back to least squares there).

The masked solver solves spread-Hessian rows in closed form and hands
the rest to the enumeration.  Rows whose lower bound sits within the KKT
tolerance of the water level have more than one KKT-passing active set;
the degenerate family pins that the closed form leaves every such row to
the enumeration.
"""

import numpy as np
import pytest

from repro.optim import solve_bound_qp_batch, solve_bound_qp_masked, spread_matrix
from repro.optim.qp import _solve_pattern


def random_patterns(rng, n, num_entries):
    """Random mixed fixed/lower/free patterns plus value arrays."""
    fm = np.zeros((num_entries, n), dtype=bool)
    lm = np.zeros((num_entries, n), dtype=bool)
    fv = np.zeros((num_entries, n))
    lv = np.zeros((num_entries, n))
    for b in range(num_entries):
        kinds = rng.integers(0, 3, size=n)  # 0 fixed, 1 lower, 2 free
        fm[b] = kinds == 0
        lm[b] = kinds == 1
        fv[b, fm[b]] = rng.normal(size=int(fm[b].sum()))
        lv[b, lm[b]] = np.abs(rng.normal(size=int(lm[b].sum())))
    return fm, fv, lm, lv


def enumeration_loop(h, fm, fv, lm, lv):
    """Each row alone through the per-pattern active-set enumeration."""
    xs, vals = [], []
    for b in range(len(fm)):
        fidx = [int(i) for i in np.flatnonzero(fm[b])]
        lidx = [int(i) for i in np.flatnonzero(lm[b])]
        uidx = [int(i) for i in np.flatnonzero(~fm[b] & ~lm[b])]
        v, x = _solve_pattern(
            h, fidx, fv[b : b + 1, fidx], lidx, lv[b : b + 1, lidx], uidx
        )
        xs.append(x[0])
        vals.append(v[0])
    return np.array(vals), np.array(xs)


LEVEL_OFFSETS = [0.0] + [
    sign * mag for mag in (1e-12, 1e-10, 1e-9, 2e-9, 1e-8) for sign in (1, -1)
]


def level_rows(rng, h, count, with_free):
    """Rows with one lower bound at the water level ``c`` plus an offset
    from ``LEVEL_OFFSETS`` (cycled).  ``c`` is read off the enumeration's
    optimum of the same row with that coordinate unconstrained: an
    inactive coordinate sits at the level, which a bound at or below it
    leaves in place."""
    n = h.shape[0]
    fm = np.zeros((count, n), dtype=bool)
    lm = np.zeros((count, n), dtype=bool)
    fv = np.zeros((count, n))
    lv = np.zeros((count, n))
    for b in range(count):
        kinds = rng.integers(0, 3 if with_free else 2, size=n)
        kinds[rng.integers(0, n)] = 1  # at least one lower bound
        fm[b] = kinds == 0
        lm[b] = kinds == 1
        fv[b, fm[b]] = rng.normal(size=int(fm[b].sum()))
        lv[b, lm[b]] = rng.normal(size=int(lm[b].sum()))
        j = int(rng.choice(np.flatnonzero(lm[b])))
        free_j = lm[b : b + 1].copy()
        free_j[0, j] = False
        _, x = enumeration_loop(h, fm[b : b + 1], fv[b : b + 1], free_j, lv[b : b + 1])
        lv[b, j] = x[0, j] + LEVEL_OFFSETS[b % len(LEVEL_OFFSETS)]
    return fm, fv, lm, lv


class TestMaskedQPKernel:
    @pytest.mark.parametrize("seed", range(8))
    def test_bit_identical_to_enumeration_loop(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        h = spread_matrix(n, float(rng.uniform(0.1, 5)), float(rng.uniform(0.1, 5)))
        fm, fv, lm, lv = random_patterns(rng, n, int(rng.integers(1, 40)))
        vals, thetas, _ = solve_bound_qp_masked(h, fm, fv, lm, lv)
        ref_vals, ref_xs = enumeration_loop(h, fm, fv, lm, lv)
        # Bitwise: == on floats, no tolerance.
        assert (vals == ref_vals).all()
        assert (thetas == ref_xs).all()

    def test_tie_degenerate_entries(self):
        # Entries engineered so bounds are weakly active (grad exactly at
        # the boundary) and several entries are exact duplicates.
        h = spread_matrix(3, 1.0, 1.0)
        fm = np.array([[True, False, False]] * 4)
        fv = np.zeros((4, 3))
        lm = np.array([[False, True, True]] * 4)
        lv = np.zeros((4, 3))
        lv[2:, 1:] = 1.0  # clamped away from the unconstrained optimum
        vals, thetas, _ = solve_bound_qp_masked(h, fm, fv, lm, lv)
        ref_vals, ref_xs = enumeration_loop(h, fm, fv, lm, lv)
        assert (vals == ref_vals).all()
        assert (thetas == ref_xs).all()
        # Duplicates resolve identically.
        assert (thetas[0] == thetas[1]).all()
        assert (thetas[2] == thetas[3]).all()

    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("with_free", [False, True])
    def test_bounds_at_the_water_level(self, n, with_free):
        # Rows with a bound at c and c +- {1e-12 .. 1e-8}, mixed into one
        # batch with ordinary rows.  Every row equals the enumeration bit
        # for bit (the closed form never takes a row whose active set is
        # ambiguous), and the ordinary rows take the closed form.
        rng = np.random.default_rng(700 + 10 * n + with_free)
        h = spread_matrix(n, float(rng.uniform(0.1, 5)), float(rng.uniform(0.1, 5)))
        dm, dv, dl, dlv = level_rows(rng, h, 4 * len(LEVEL_OFFSETS), with_free)
        om, ov, ol, olv = random_patterns(rng, n, 40)
        order = rng.permutation(len(dm) + len(om))
        fm, fv, lm, lv = (
            np.concatenate(pair)[order]
            for pair in ((dm, om), (dv, ov), (dl, ol), (dlv, olv))
        )
        ordinary = order >= len(dm)
        vals, thetas, enumerated = solve_bound_qp_masked(h, fm, fv, lm, lv)
        enum_vals, enum_xs = enumeration_loop(h, fm, fv, lm, lv)
        assert (vals == enum_vals).all()
        assert (thetas == enum_xs).all()
        assert not enumerated[ordinary].any()
        # A bound exactly at the level is always degenerate.
        at_level = ~ordinary & (order % len(LEVEL_OFFSETS) == 0)
        assert enumerated[at_level].all()

    def test_every_inactive_count_group(self):
        # ~5,000 random rows in one call: every number of inactive free
        # coordinates, 0..n, gets its own block solve.
        rng = np.random.default_rng(21)
        n, rows = 4, 5000
        kinds = rng.integers(0, 3, size=(rows, n))
        fm, lm = kinds == 0, kinds == 1
        fv = np.where(fm, rng.normal(size=(rows, n)), np.nan)
        lv = np.where(lm, rng.normal(size=(rows, n)), np.nan)
        h = spread_matrix(n, 0.7, 1.3)
        vals, thetas, enumerated = solve_bound_qp_masked(h, fm, fv, lm, lv)
        ref_vals, ref_xs = enumeration_loop(h, fm, fv, lm, lv)
        assert (vals == ref_vals).all()
        assert (thetas == ref_xs).all()
        assert not enumerated.any()
        at_bound = lm & (ref_xs == np.where(lm, lv, np.nan))
        inactive = (~fm & ~at_bound).sum(axis=1)
        assert set(inactive.tolist()) == set(range(n + 1))

    def test_single_relation(self):
        # n = 1 has no off-diagonal value, hence no closed form.
        rng = np.random.default_rng(5)
        h = spread_matrix(1, 0.8, 1.7)
        fm, fv, lm, lv = random_patterns(rng, 1, 12)
        vals, thetas, enumerated = solve_bound_qp_masked(h, fm, fv, lm, lv)
        ref_vals, ref_xs = enumeration_loop(h, fm, fv, lm, lv)
        assert (vals == ref_vals).all()
        assert (thetas == ref_xs).all()
        assert enumerated.all()

    @pytest.mark.parametrize("seed", range(4))
    def test_non_spread_hessian(self, seed):
        # A random positive-definite Hessian runs the enumeration only.
        rng = np.random.default_rng(400 + seed)
        n = 3
        a = rng.normal(size=(n, n))
        h = a.T @ a + np.eye(n) * 0.5
        fm = rng.random((40, n)) < 0.4
        lm = (rng.random((40, n)) < 0.5) & ~fm
        fv = rng.normal(size=(40, n))
        lv = rng.normal(size=(40, n))
        vals, thetas, enumerated = solve_bound_qp_masked(h, fm, fv, lm, lv)
        ref_vals, ref_xs = enumeration_loop(h, fm, fv, lm, lv)
        assert (vals == ref_vals).all()
        assert (thetas == ref_xs).all()
        assert enumerated.all()

    @pytest.mark.parametrize("seed", range(4))
    def test_singular_hessian_values_match(self, seed):
        # w_q = 0 leaves a flat direction; both sides least-squares, so
        # the contract pins the optimal value (unique) only.
        rng = np.random.default_rng(seed)
        n = 3
        h = spread_matrix(n, 0.0, float(rng.uniform(0.5, 3)))
        fm, fv, lm, lv = random_patterns(rng, n, 12)
        vals, _, enumerated = solve_bound_qp_masked(h, fm, fv, lm, lv)
        ref_vals, _ = enumeration_loop(h, fm, fv, lm, lv)
        np.testing.assert_allclose(vals, ref_vals, atol=1e-8)
        # No closed form without a positive-definite Hessian.
        assert enumerated.all()

    def test_grouping_order_is_immaterial(self):
        # The same entries shuffled across the batch give the same
        # per-entry answers (row stability of the kernel arithmetic).
        rng = np.random.default_rng(11)
        h = spread_matrix(4, 1.0, 2.0)
        fm, fv, lm, lv = random_patterns(rng, 4, 25)
        vals, thetas, _ = solve_bound_qp_masked(h, fm, fv, lm, lv)
        perm = rng.permutation(25)
        vals_p, thetas_p, _ = solve_bound_qp_masked(
            h, fm[perm], fv[perm], lm[perm], lv[perm]
        )
        assert (vals_p == vals[perm]).all()
        assert (thetas_p == thetas[perm]).all()

    def test_mask_overlap_rejected(self):
        h = spread_matrix(2, 1.0, 1.0)
        both = np.array([[True, False]])
        with pytest.raises(ValueError, match="disjoint"):
            solve_bound_qp_masked(h, both, np.zeros((1, 2)), both, np.zeros((1, 2)))

    def test_shape_mismatch_rejected(self):
        h = spread_matrix(2, 1.0, 1.0)
        with pytest.raises(ValueError, match="shape"):
            solve_bound_qp_masked(
                h,
                np.zeros((1, 2), dtype=bool),
                np.zeros((1, 3)),
                np.zeros((1, 2), dtype=bool),
                np.zeros((1, 2)),
            )


class TestSubsetQPBatch:
    @pytest.mark.parametrize("seed", range(6))
    def test_bit_identical_to_enumeration_loop(self, seed):
        # One pattern's entries in one call equal each entry alone, and
        # equal the masked solver on the same rows.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        m = int(rng.integers(0, n))
        h = spread_matrix(n, float(rng.uniform(0.1, 5)), float(rng.uniform(0.1, 5)))
        fixed_idx = sorted(rng.choice(n, size=m, replace=False).tolist())
        lower_idx = sorted(set(range(n)) - set(fixed_idx))
        num_entries = int(rng.integers(1, 30))
        fvals = rng.normal(size=(num_entries, m))
        lvals = np.abs(rng.normal(size=len(lower_idx)))
        vals, thetas = solve_bound_qp_batch(h, fixed_idx, fvals, lower_idx, lvals)
        fm = np.zeros((num_entries, n), dtype=bool)
        fm[:, fixed_idx] = True
        fv = np.zeros((num_entries, n))
        fv[:, fixed_idx] = fvals
        lv = np.zeros((num_entries, n))
        lv[:, lower_idx] = lvals
        ref_vals, ref_xs = enumeration_loop(h, fm, fv, ~fm, lv)
        assert (vals == ref_vals).all()
        assert (thetas == ref_xs).all()
        kernel_vals, kernel_thetas, _ = solve_bound_qp_masked(h, fm, fv, ~fm, lv)
        assert (kernel_vals == vals).all()
        assert (kernel_thetas == thetas).all()

    def test_per_entry_bounds(self):
        # ``lower_vals`` may carry one row of bounds per entry.
        rng = np.random.default_rng(9)
        h = spread_matrix(3, 0.7, 1.3)
        fvals = rng.normal(size=(5, 1))
        lvals = np.abs(rng.normal(size=(5, 2)))
        vals, thetas = solve_bound_qp_batch(h, [0], fvals, [1, 2], lvals)
        for e in range(5):
            v, x = solve_bound_qp_batch(h, [0], fvals[e : e + 1], [1, 2], lvals[e])
            assert v[0] == vals[e] and (x[0] == thetas[e]).all()

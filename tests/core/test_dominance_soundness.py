"""Soundness regression for dominance pruning (Section 3.2.2).

Property pinned: **a live partial combination is never flagged
dominated** — under the eager LP loop, under the engine's lazy pass,
under capped constraint sets (dropping competitors can only enlarge
regions) and under the equal-slope screen.  Liveness ground truth is
established constructively: a candidate that wins (within tolerance)
at any probed point certainly has a non-empty dominance region.

The screen flags a row exactly when the simplex's zero-row rule would
call its one-row system against its ``b``-group's live minimum
empty; the planted-gap family below pins that boundary.
"""

import numpy as np
import pytest

from repro.core.bounds.dominance import (
    dominated_mask,
    prepare_dominance_pass,
)
from repro.optim.simplex import polyhedron_feasible_point


def random_family(rng, count, d):
    bs = rng.normal(size=(count, d))
    cs = rng.normal(size=count) * 2.0
    if count >= 4:
        bs[1] = bs[0]          # tied directions: ties resolved by c
        cs[1] = cs[0] + 0.5    # strictly worse everywhere -> dominated
    return bs, cs


def lazy_mask(
    bs, cs, already_dominated, *, quad_coeff, witnesses=None,
    max_lp_constraints=64,
):
    """The engine's lazy pass (``prepare_dominance_pass`` with ``t``,
    then one LP per pending row) with the rows walked worst-first:
    ``t`` ascends in each row's unconstrained optimum value, so the
    walk reaches the likely-dominated rows before any certified one
    and sends them to LPs.  Returns ``(out, lps)`` like
    :func:`dominated_mask`."""
    t = cs - (bs * bs).sum(axis=1) / quad_coeff
    prep = prepare_dominance_pass(
        bs, cs, already_dominated, quad_coeff=quad_coeff,
        max_lp_constraints=max_lp_constraints, witnesses=witnesses, t=t,
    )
    return prep.solve(witnesses), prep.alpha.size


def provably_live(bs, cs, quad_coeff, points):
    """Candidates that win at one of the probed ``points`` (tolerance
    shrunk so the certificate is strict)."""
    vals = 2.0 * points @ bs.T + cs[None, :]  # (P, u)
    best = vals.min(axis=1)
    return (vals <= best[:, None] + 1e-12).any(axis=0)


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize(
    "runner",
    [
        pytest.param(lambda **kw: dominated_mask(**kw), id="scalar"),
        pytest.param(
            lambda **kw: dominated_mask(max_lp_constraints=3, **kw), id="capped"
        ),
        pytest.param(lambda **kw: lazy_mask(**kw), id="lazy"),
        pytest.param(
            lambda **kw: lazy_mask(max_lp_constraints=3, **kw), id="capped-lazy"
        ),
    ],
)
def test_live_combination_never_flagged(seed, runner):
    rng = np.random.default_rng(seed)
    count = int(rng.integers(4, 40))
    d = int(rng.integers(1, 4))
    quad = float(rng.uniform(0.2, 4.0))
    bs, cs = random_family(rng, count, d)
    witnesses = np.full((count, d), np.nan)
    out, _ = runner(
        bs=bs,
        cs=cs,
        already_dominated=np.zeros(count, dtype=bool),
        quad_coeff=quad,
        witnesses=witnesses,
    )
    # Probe a generous point cloud: each candidate's own optimum plus
    # random field points.  Winners there are live by construction.
    points = np.vstack([-bs / quad, rng.normal(size=(200, d)) * 3.0])
    live = provably_live(bs, cs, quad, points)
    flagged_live = out & live
    assert not flagged_live.any(), np.flatnonzero(flagged_live)


@pytest.mark.parametrize("seed", range(6))
def test_lazy_flags_within_eager(seed):
    """From identical inputs the lazy pass flags only rows the eager
    pass flags (its LPs are the eager pass's systems for the walked
    rows), and rows flagged on input stay flagged."""
    rng = np.random.default_rng(100 + seed)
    count = int(rng.integers(5, 30))
    bs, cs = random_family(rng, count, 2)
    already = rng.random(count) < 0.2
    quad = 1.0
    out_e, _ = dominated_mask(
        bs, cs, already.copy(), quad_coeff=quad,
        witnesses=np.full((count, 2), np.nan),
    )
    out_l, lps = lazy_mask(
        bs, cs, already.copy(), quad_coeff=quad,
        witnesses=np.full((count, 2), np.nan),
    )
    assert lps > 0
    assert out_l[already].all()
    assert (out_l <= out_e).all(), np.flatnonzero(out_l & ~out_e)


@pytest.mark.parametrize("runner", [dominated_mask, lazy_mask], ids=["eager", "lazy"])
def test_sequential_passes_with_witness_reuse(runner):
    """Growing competitor fields across passes (the engine's usage):
    cached witnesses never let a dominated candidate slip through, and
    live candidates survive every pass."""
    rng = np.random.default_rng(42)
    d, quad = 2, 1.5
    total = 30
    bs = rng.normal(size=(total, d))
    cs = rng.normal(size=total)
    witnesses = np.full((total, d), np.nan)
    out = np.zeros(total, dtype=bool)
    for upto in (10, 20, total):
        out_prefix, _ = runner(
            bs[:upto], cs[:upto], out[:upto].copy(),
            quad_coeff=quad, witnesses=witnesses[:upto],
        )
        out[:upto] = out_prefix
        points = np.vstack([-bs[:upto] / quad, rng.normal(size=(150, d)) * 3.0])
        live = provably_live(bs[:upto], cs[:upto], quad, points)
        assert not (out[:upto] & live).any()


def test_lp_assembly_matches_capped_competitors():
    """prepare_dominance_pass plus DominancePrep.assemble build exactly
    the capped strongest-competitor systems the LP loop solves."""
    rng = np.random.default_rng(7)
    count = 12
    bs, cs = random_family(rng, count, 2)
    prep = prepare_dominance_pass(
        bs, cs, np.zeros(count, dtype=bool), quad_coeff=1.0,
        max_lp_constraints=5,
    )
    pending = prep.alpha.tolist()
    problems = [(alpha, *prep.assemble(k)) for k, alpha in enumerate(pending)]
    # Assembly flags nothing by itself; only the equal-slope screen
    # flags, and only the planted row 1 (row 0's b, a larger c).
    assert np.flatnonzero(prep.out).tolist() == [1]
    assert problems and 1 not in pending
    for alpha, g, h in problems:
        assert g.shape[0] <= 5 and g.shape == (len(h), 2)
        # Each row is a valid half-space of alpha against some competitor.
        for row, rhs in zip(g, h):
            diffs = 2.0 * (bs[alpha] - bs)
            match = np.isclose(diffs, row[None, :]).all(axis=1)
            match &= np.isclose(cs - cs[alpha], rhs)
            match[alpha] = False
            assert match.any()


#: Gaps above the group minimum's ``c``: at or below the zero-row
#: tolerance (1e-9) the screen must leave a row alone, above it flag it.
SCREEN_GAPS = (0.0, 5e-10, 1e-9, 2e-9, 0.5)


def equal_slope_family(rng, d=2, extra=6):
    """Random rows plus two planted groups sharing one ``b`` row each:
    group A's minimum ``c`` is exactly 0.0 (so every gap is exact), and
    group B's is a random value (gaps as the float sums produce them).
    Returns ``(bs, cs, groups)`` with ``groups`` the planted row indices,
    minimum first."""
    bs = [rng.normal(size=d) for _ in range(extra)]
    cs = list(rng.normal(size=extra))
    groups = []
    for base in (0.0, float(rng.normal())):
        b = rng.normal(size=d)
        rows = []
        for gap in SCREEN_GAPS:
            rows.append(len(bs))
            bs.append(b.copy())
            cs.append(base + gap)
        groups.append(rows)
    return np.array(bs), np.array(cs), groups


@pytest.mark.parametrize("seed", range(6))
def test_equal_slope_screen_flags_exactly_past_tolerance(seed):
    """A planted row is flagged exactly when its gap above the group's
    live minimum exceeds 1e-9, and each flagged row's one-row system
    against that minimum is empty under the simplex's own rule."""
    rng = np.random.default_rng(300 + seed)
    bs, cs, groups = equal_slope_family(rng)
    count = len(cs)
    prep = prepare_dominance_pass(
        bs, cs, np.zeros(count, dtype=bool), quad_coeff=1.0
    )
    planted = [r for rows in groups for r in rows]
    for rows in groups:
        low = rows[0]
        for r in rows:
            rhs = cs[low] - cs[r]  # as the LP assembly computes it
            assert prep.out[r] == (rhs < -1e-9), (r, rhs)
            g = 2.0 * (bs[r] - bs[low])[None, :]
            empty = polyhedron_feasible_point(g, np.array([rhs])) is None
            assert empty == prep.out[r]
    # Group A's gaps are exact: 0, 5e-10 and 1e-9 stay, 2e-9 and 0.5 go.
    assert prep.out[groups[0]].tolist() == [False, False, False, True, True]
    assert prep.screened == int(prep.out[planted].sum())
    # Random rows have distinct b rows: the screen leaves them alone.
    assert not prep.out[np.setdiff1d(np.arange(count), planted)].any()


@pytest.mark.parametrize("runner", [dominated_mask, lazy_mask], ids=["eager", "lazy"])
@pytest.mark.parametrize("seed", range(10))
def test_equal_slope_screen_never_flags_live(seed, runner):
    """Screen flags (and the LPs behind them) never hit a provably live
    row on families with planted equal-``b`` groups."""
    rng = np.random.default_rng(400 + seed)
    d = int(rng.integers(1, 4))
    quad = float(rng.uniform(0.2, 4.0))
    bs, cs, _ = equal_slope_family(rng, d=d, extra=int(rng.integers(2, 20)))
    count = len(cs)
    prep = prepare_dominance_pass(
        bs, cs, np.zeros(count, dtype=bool), quad_coeff=quad
    )
    assert prep.screened > 0
    out, _ = runner(
        bs, cs, np.zeros(count, dtype=bool), quad_coeff=quad,
        witnesses=np.full((count, d), np.nan),
    )
    assert (out >= prep.out).all()  # the screen's flags stand
    points = np.vstack([-bs / quad, rng.normal(size=(200, d)) * 3.0])
    live = provably_live(bs, cs, quad, points)
    assert not (out & live).any(), np.flatnonzero(out & live)


def test_equal_slope_screen_skips_dominated_minimum():
    """A row already flagged does not anchor its group: the next live
    row acts as the minimum, and gaps are measured from it."""
    bs = np.array([[1.0, -0.5]] * 4 + [[0.0, 2.0]])
    cs = np.array([-1.0, 0.0, 5e-10, 0.25, 3.0])
    already = np.array([True, False, False, False, False])
    prep = prepare_dominance_pass(bs, cs, already, quad_coeff=1.0)
    # Against the dominated row 0, rows 1-3 would all be flagged; against
    # the live minimum (row 1) only row 3 is past the tolerance.
    assert prep.out.tolist() == [True, False, False, True, False]
    assert prep.screened == 1

"""Unit tests for the dominance mask (Section 3.2.2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds.dominance import dominated_mask, equal_slope_screen


class TestDominatedMask:
    def test_single_entry_never_dominated(self):
        mask, lps = dominated_mask(
            np.array([[1.0, 0.0]]), np.array([0.0]),
            np.array([False]), quad_coeff=1.0,
        )
        assert not mask[0]
        assert lps == 0

    def test_identical_b_smaller_c_wins(self):
        # Same direction, alpha strictly better constant: beta dominated,
        # by the equal-slope screen alone — no feasibility LP is solved.
        bs = np.array([[1.0, 0.0], [1.0, 0.0]])
        cs = np.array([0.0, 1.0])
        mask, lps = dominated_mask(
            bs, cs, np.array([False, False]), quad_coeff=1.0
        )
        assert list(mask) == [False, True]
        assert lps == 0

    def test_sandwiched_entry_dominated(self):
        # In 1-D with b in {-1, 0, +1} and equal c, the middle entry's
        # region {y: 0 <= -2y + c.. } ... construct explicitly: entry 1
        # never strictly beats both extremes anywhere.
        bs = np.array([[-1.0], [0.0], [1.0]])
        # Give the middle a worse constant so its region is empty.
        cs = np.array([0.0, 2.0, 0.0])
        mask, _ = dominated_mask(bs, cs, np.array([False] * 3), quad_coeff=1.0)
        assert mask[1]
        assert not mask[0] and not mask[2]

    def test_already_dominated_preserved_and_excluded(self):
        bs = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        cs = np.array([0.0, -1.0, 0.0])
        pre = np.array([False, True, False])  # entry 1 pre-flagged
        mask, _ = dominated_mask(bs, cs, pre, quad_coeff=1.0)
        # Entry 1 stays flagged; entry 0 must NOT be killed by the
        # excluded entry 1 (which would otherwise dominate it).
        assert mask[1]
        assert not mask[0]

    def test_distinct_directions_all_survive(self):
        # Symmetric star: each direction has its own winning half-space.
        bs = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        cs = np.zeros(4)
        mask, _ = dominated_mask(bs, cs, np.array([False] * 4), quad_coeff=1.0)
        assert not mask.any()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 10), st.integers(1, 3), st.randoms(use_true_random=False))
    def test_never_flags_the_best_at_any_point(self, u, d, rnd):
        """Soundness: the winner at any probe point is not dominated."""
        rng = np.random.default_rng(rnd.randint(0, 2**32 - 1))
        bs = rng.normal(size=(u, d))
        cs = rng.normal(size=u)
        mask, _ = dominated_mask(
            bs, cs, np.zeros(u, dtype=bool), quad_coeff=1.0
        )
        for _ in range(20):
            y = rng.normal(size=d) * 3
            g = 2.0 * bs @ y + cs
            winner = int(np.argmin(g))
            # Unique winner => certainly non-dominated.
            if (g < g[winner] + 1e-9).sum() == 1:
                assert not mask[winner]

    @settings(max_examples=20, deadline=None)
    @given(st.integers(3, 8), st.randoms(use_true_random=False))
    def test_flagged_entries_are_truly_covered(self, u, rnd):
        """Completeness check of the flagging itself: a dominated entry
        must lose (non-strictly) to someone at every probe point."""
        rng = np.random.default_rng(rnd.randint(0, 2**32 - 1))
        bs = rng.normal(size=(u, 2))
        cs = rng.normal(size=u)
        mask, _ = dominated_mask(bs, cs, np.zeros(u, dtype=bool), quad_coeff=1.0)
        live = np.flatnonzero(~mask)
        for alpha in np.flatnonzero(mask):
            for _ in range(50):
                y = rng.normal(size=2) * 4
                g = 2.0 * bs @ y + cs
                assert g[live].min() <= g[alpha] + 1e-6


def tie_heavy_rows(rng, rows, d=2):
    """``b`` rows from a 3-level grid (so byte-identical rows repeat) and
    ``c`` values whose gaps straddle the 1e-9 zero-row tolerance."""
    bs = rng.choice((-1.0, 0.0, 1.0), size=(rows, d))
    cs = rng.choice((0.0, 1.0), size=rows) + rng.choice(
        (0.0, 4e-10, 8e-10, 3e-9), size=rows
    )
    return bs, cs


def screen(bs, cs, out, groups=None):
    live = (~out).nonzero()[0]
    return equal_slope_screen(
        bs, cs, live, out, None if groups is None else groups[live]
    )


class TestEqualSlopeScreen:
    """Why the engine screens only the subsets that gained rows: a
    screen leaves every live row of a group within the tolerance of the
    group's live minimum, later flags only remove rows, so re-screening
    an unchanged subset flags nothing, while a new row that undercuts a
    group's minimum is caught by the next screen."""

    @pytest.mark.parametrize("seed", range(20))
    def test_rerun_after_more_flags_flags_nothing(self, seed):
        rng = np.random.default_rng(seed)
        bs, cs = tie_heavy_rows(rng, 60)
        out = np.zeros(60, dtype=bool)
        assert screen(bs, cs, out) > 0
        # Arbitrary extra flags, standing in for the LPs' verdicts.
        out |= rng.random(60) < 0.3
        settled = out.copy()
        assert screen(bs, cs, out) == 0
        assert (out == settled).all()

    @pytest.mark.parametrize("seed", range(20))
    def test_undercutting_row_flags_the_older_rows(self, seed):
        rng = np.random.default_rng(seed)
        bs, cs = tie_heavy_rows(rng, 60)
        out = np.zeros(60, dtype=bool)
        screen(bs, cs, out)
        row = int(rng.choice((~out).nonzero()[0]))
        group = (~out & (bs == bs[row]).all(axis=1)).nonzero()[0]
        bs = np.vstack([bs, bs[row]])
        cs = np.append(cs, cs[group].min() - 1.0)
        out = np.append(out, False)
        assert screen(bs, cs, out) == group.size
        assert out[group].all() and not out[-1]

    @pytest.mark.parametrize("seed", range(20))
    def test_many_subsets_in_one_sort(self, seed):
        # Rows of different subsets never share a group, even with
        # byte-identical b; pre-flagged rows stay out of every group.
        rng = np.random.default_rng(seed)
        bs, cs = tie_heavy_rows(rng, 90)
        groups = rng.integers(0, 5, size=90).astype(np.int16)
        already = rng.random(90) < 0.2
        together = already.copy()
        flagged = screen(bs, cs, together, groups)
        alone = already.copy()
        per_subset = 0
        for g in range(5):
            rows = (groups == g).nonzero()[0]
            out = alone[rows]
            per_subset += screen(bs[rows], cs[rows], out)
            alone[rows] = out
        assert flagged == per_subset > 0
        assert (together == alone).all()

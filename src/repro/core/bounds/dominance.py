"""Dominance pruning of partial combinations (Section 3.2.2).

Within one subset ``M``, every partial combination ``tau_alpha`` has an
unconstrained completion objective ``f_alpha(y) = -(a y'y + 2 b_a'y + c_a)``
with the *same* quadratic coefficient ``a`` for all alpha.  The region
where alpha beats beta is therefore the half-space

    2 (b_alpha - b_beta)' y  <=  c_beta - c_alpha          (eq. 16)

and alpha's dominance region is the intersection over all competitors
(eq. 17).  If that polyhedron is empty, ``t_M`` can never be realised by
alpha, so alpha is skipped by all future bound computations — permanently,
because new accesses only add competitors (shrinking regions further).

Emptiness is a feasibility LP (eq. 35), answered by the Chebyshev-centre
test of :mod:`repro.optim.simplex`.  Because the LP cost grows with both
the number of candidates and the number of constraints (the paper remarks
that "solving the LP might be too costly"), three *sound* accelerations
wrap it:

1. **Equal-slope screen** (one grouped sort): live rows with
   byte-identical ``b`` differ only in ``c``, so against the group's
   smallest live ``c`` every other row's half-space has an all-zero
   normal and right-hand side ``c_min - c_alpha``.  The simplex's
   zero-row rule calls such a system empty once that right-hand side is
   below ``-_TOL`` — before any tableau.  The screen applies the same
   rule to the whole group at once and flags those rows up front; a
   flagged row is also a useless competitor (the minimum's half-space
   has the same normal and a tighter right-hand side), so the steps
   below run on the unflagged rows only.  Tie-heavy streams (repeated
   member vectors) produce most of their LPs in this form.  One sort
   keyed by (subset, ``b`` bytes) screens many subsets at once, and a
   subset needs screening only when it gained rows: after a screen
   every live row of a group lies within the tolerance of the group's
   live minimum, and later flags only remove rows.
2. **Witness pre-pass** (vectorised): if alpha beats every competitor at
   its own unconstrained optimum ``y_alpha = -b_alpha / a``, that point
   witnesses ``D(alpha) != {}`` — no LP needed.  Most live combinations
   pass this test.
3. **Capped constraint sets**: for candidates that fail the witness test,
   the LP keeps only the strongest competitors (those with the best value
   at ``y_alpha``).  Dropping constraints only *enlarges* the region, so
   "empty under a subset of constraints" still proves real emptiness,
   while "non-empty" is treated as inconclusive and the candidate is
   conservatively kept.

The engine's pass is also **lazy**: given the subset's completion
bounds ``t``, a pass tests only candidates that could set the subset's
maximum.  All rows share the quadratic term, so a row with an empty
region is beaten at every point by another row and its bound never
exceeds the best non-dominated row's: flags never change ``t_M``, they
only spare later refreshes the flagged rows' re-solves.  So the pass
walks the live rows in descending ``t``, testing each at its cached
witness and at its own optimum, and stops at the first certified row;
only the walked rows above it go to an LP.  The rows below stay live
and unflagged: later passes test them again, and as competitors they
only shrink other rows' regions, which stays sound.

The building blocks are :func:`equal_slope_screen`,
:func:`walk_by_bound` and :func:`pending_lps` (the capped competitor
rows of the pending candidates, as a :class:`DominancePrep`); each
pending LP is one dense :func:`~repro.optim.polyhedron_feasible_point`
call.  The engine's pass (:class:`~repro.core.bounds.tight.TightBound`)
screens the subsets that gained rows in one call, then walks each
subset's live rows straight from its columnar store, building a
:class:`DominancePrep` only when an LP is pending.
:func:`prepare_dominance_pass` runs the same steps on one subset's rows;
without ``t`` it runs the eager full pass, which the public
:func:`dominated_mask` solves: the reference the soundness suites pin.

All directions preserve the invariant correctness depends on: a live
partial combination is never flagged dominated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.optim.simplex import _TOL as _ZERO_ROW_TOL
from repro.optim.simplex import polyhedron_feasible_point

__all__ = [
    "dominated_mask",
    "DominancePrep",
    "equal_slope_screen",
    "pending_lps",
    "prepare_dominance_pass",
    "walk_by_bound",
]

_MAX_LP_CONSTRAINTS = 64
_WITNESS_TOL = 1e-9


def _byte_runs(
    rows: np.ndarray, groups: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Group the float64 ``rows`` by their bytes, within each of
    ``groups`` (one integer id per row) when given: a stable permutation
    that makes rows with identical bytes and group adjacent, and the
    start of each run in it (so ``order[starts]`` is each run's first
    row)."""
    bits = np.ascontiguousarray(rows).view(np.int64)
    if groups is not None:
        bits = np.concatenate((groups.astype(np.int64)[:, None], bits), axis=1)
    order = np.lexsort(bits.T[::-1])
    ranked = bits[order]
    changed = np.logical_or.reduce(ranked[1:] != ranked[:-1], axis=1)
    starts = np.concatenate(([True], changed)).nonzero()[0]
    return order, starts


def equal_slope_screen(
    bs: np.ndarray,
    cs: np.ndarray,
    live: np.ndarray,
    out: np.ndarray,
    groups: np.ndarray | None = None,
) -> int:
    """Flag (in ``out``, in place) every row of ``live`` whose ``c``
    exceeds the smallest ``c`` among the ``live`` rows with byte-identical
    ``b`` by more than the simplex zero-row tolerance; returns the number
    flagged.  ``groups`` (one subset id per ``live`` row) screens many
    subsets in one sort: rows of different subsets never share a group.

    Against that minimum ``beta``, row ``alpha``'s half-space
    ``2 (b_alpha - b_beta)' y <= c_beta - c_alpha`` has an all-zero
    normal, and its right-hand side is computed exactly as the LP
    assembly computes it, so the flag is the verdict the simplex's
    zero-row rule would return for any system holding that row.

    A re-run on rows that have only lost members since flags nothing:
    after a screen every live row of a group is within the tolerance of
    the group's live minimum, and removing rows only raises that minimum.
    So the engine screens only the subsets that gained rows.
    """
    if live.size < 2:
        return 0
    order, starts = _byte_runs(bs[live], groups)
    if starts.size == live.size:
        return 0
    ranked = live[order]
    c_ranked = cs[ranked]
    runs = np.concatenate((starts[1:], [live.size])) - starts
    c_min = np.minimum.reduceat(c_ranked, starts).repeat(runs)
    flag = c_min - c_ranked < -_ZERO_ROW_TOL
    out[ranked[flag]] = True
    return int(np.count_nonzero(flag))


def _witness_prepass(
    bs: np.ndarray,
    cs: np.ndarray,
    live: np.ndarray,
    quad_coeff: float,
    witnesses: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray | None, int]:
    """Passes 0 and 1 (cached witnesses + unconstrained-optimum probes)
    over the (at least two) ``live`` rows.

    Returns ``(survivors, vals, witness_hits)``: the per-live-candidate
    survivor flags, the probe value matrix (``None`` when the pre-pass
    is disabled), and the number of candidates certified by a *cached*
    witness (pass 0 — the cross-pass reuse counter).  ``witnesses`` rows
    of certified survivors are updated in place.
    """
    survivors = np.zeros(len(live), dtype=bool)
    witness_hits = 0
    b_live = bs[live]
    c_live = cs[live]

    # g_alpha(y) = 2 b_alpha' y + c_alpha; alpha beats beta at y iff
    # g_alpha(y) <= g_beta(y).

    # Pass 0: cached witnesses.  vals_w[i, j] = g_j(w_i); candidate i
    # survives if it still wins at its own stored witness.
    if witnesses is not None:
        w_live = witnesses[live]
        cached = ~np.isnan(w_live[:, 0])
        if cached.any():
            vals_w = 2.0 * w_live[cached] @ b_live.T + c_live[None, :]
            own = np.take_along_axis(
                vals_w, np.flatnonzero(cached)[:, None], axis=1
            )[:, 0]
            still_valid = own <= vals_w.min(axis=1) + _WITNESS_TOL
            survivors[np.flatnonzero(cached)[still_valid]] = True
            witness_hits = int(still_valid.sum())

    # Pass 1: probe every candidate's unconstrained optimum
    # y_alpha = -b_alpha / a.  Every *winner at any probed point* is
    # certainly non-dominated, so the full value matrix yields far more
    # witnesses than each candidate's own optimum alone.
    vals = None
    if quad_coeff > 0.0:
        ys = -b_live / quad_coeff  # (u_live, d)
        vals = 2.0 * ys @ b_live.T + c_live[None, :]  # vals[i, j] = g_j(y_i)
        row_min = vals.min(axis=1)
        diag_ok = np.diagonal(vals) <= row_min + _WITNESS_TOL
        if witnesses is not None:
            for pos in np.flatnonzero(diag_ok & ~survivors):
                witnesses[live[pos]] = ys[pos]
        survivors |= diag_ok
        winners = vals <= row_min[:, None] + _WITNESS_TOL
        win_rows = winners.argmax(axis=0)
        new_winners = winners.any(axis=0) & ~survivors
        if witnesses is not None:
            for pos in np.flatnonzero(new_winners):
                witnesses[live[pos]] = ys[win_rows[pos]]
        survivors |= new_winners
    return survivors, vals, witness_hits


def walk_by_bound(
    bs: np.ndarray,
    cs: np.ndarray,
    live: np.ndarray,
    t: np.ndarray,
    quad_coeff: float,
    witnesses: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray | None, int]:
    """The lazy pass's walk down the ``live`` rows in descending ``t``:
    passes 0 and 1 of :func:`_witness_prepass` for one row at a time
    (its cached witness, then its own unconstrained optimum, stored as
    its witness when it certifies the row), stopping at the first
    certified row.

    Returns the positions in ``live`` of the walked rows whose ``t``
    exceeds the certified row's (all walked rows when none certifies):
    the pending LPs; their probe-value rows at their own optima (``None``
    when the pre-pass is disabled); and the witness hits (0 or 1).
    """
    b_live, c_live = bs[live], cs[live]
    walked: list[int] = []
    probe_rows: list[np.ndarray] = []
    t_live = t[live]
    for pos in (-t_live).argsort(kind="stable"):
        row = live[pos]
        cached = witnesses is not None and not np.isnan(witnesses[row, 0])
        probes = [witnesses[row]] if cached else []
        if quad_coeff > 0.0:
            probes.append(-bs[row] / quad_coeff)
        for k, y in enumerate(probes):
            vals = 2.0 * y @ b_live.T + c_live
            if vals[pos] <= np.minimum.reduce(vals) + _WITNESS_TOL:
                hit = cached and k == 0
                if not hit and witnesses is not None:
                    witnesses[row] = y
                above = t_live[walked] > t_live[pos]
                pend = np.array(walked, dtype=np.int64)[above]
                rows = np.array(probe_rows)[above] if probe_rows else None
                return pend, rows, int(hit)
        walked.append(pos)
        if quad_coeff > 0.0:
            probe_rows.append(vals)
    rows = np.array(probe_rows) if probe_rows else None
    return np.array(walked, dtype=np.int64), rows, 0


def _empty_i64(shape: tuple[int, ...]) -> np.ndarray:
    return np.empty(shape, dtype=np.int64)


@dataclass
class DominancePrep:
    """One subset's prepared dominance pass: screen and pre-pass verdicts
    plus the *identity* of every pending feasibility LP, assembly
    deferred.

    ``alpha[k]`` is the global candidate index of pending problem ``k``
    and ``comp[k]`` its ordered capped competitor row — together the
    full identity of the LP given the subset's ``b``/``c`` rows.
    :meth:`assemble` materialises the block on demand and :meth:`solve`
    solves every pending LP.
    """

    #: The dominated mask :meth:`solve` flags into: a copy with the
    #: screen's flags added from :func:`prepare_dominance_pass`, the
    #: bound store's own column in the engine's pass.
    out: np.ndarray
    #: Global candidate index per pending LP, shape ``(P,)``.
    alpha: np.ndarray = field(default_factory=lambda: _empty_i64((0,)))
    #: ``(P, width)`` ordered capped competitor rows (global indices).
    comp: np.ndarray = field(default_factory=lambda: _empty_i64((0, 0)))
    #: Rows the equal-slope screen flagged.
    screened: int = 0
    #: Candidates certified by a cached cross-pass witness (pass 0).
    witness_hits: int = 0
    _bs: np.ndarray | None = None
    _cs: np.ndarray | None = None

    def assemble(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The ``(G, h)`` half-space block of pending problem ``k``."""
        a = self.alpha[k]
        competitors = self.comp[k]
        g = 2.0 * (self._bs[a] - self._bs[competitors])
        h = self._cs[competitors] - self._cs[a]
        return g, h

    def solve(self, witnesses: np.ndarray | None = None) -> np.ndarray:
        """Pass 2: one dense feasibility LP per pending candidate, against
        its strongest competitors.  An empty region flags the candidate
        in :attr:`out`; a non-empty one stores its Chebyshev centre in
        ``witnesses`` (when given).  Returns :attr:`out`."""
        for k, alpha in enumerate(self.alpha.tolist()):
            point = polyhedron_feasible_point(*self.assemble(k))
            if point is None:
                self.out[alpha] = True
            elif witnesses is not None:
                witnesses[alpha] = point
        return self.out


def pending_lps(
    bs: np.ndarray,
    cs: np.ndarray,
    out: np.ndarray,
    live: np.ndarray,
    pend: np.ndarray,
    at_opt: np.ndarray | None,
    max_lp_constraints: int = _MAX_LP_CONSTRAINTS,
) -> DominancePrep:
    """The feasibility LPs of candidates ``live[pend]`` as a
    :class:`DominancePrep` whose :meth:`~DominancePrep.solve` flags into
    ``out``.

    Each candidate's competitors are the other ``live`` rows in strength
    order (its probe row ``at_opt`` at its own optimum; the ``c``
    fallback when that is ``None``), capped: one stable row-wise argsort
    over all pending candidates.
    """
    prep = DominancePrep(out=out, _bs=bs, _cs=cs)
    if pend.size == 0:
        return prep
    num_live = len(live)
    if at_opt is None:
        at_opt = np.broadcast_to(cs[live], (pend.size, num_live))
    order = np.argsort(at_opt, axis=1, kind="stable")
    cand = live[order]  # (P, num_live) global indices, strength order
    alpha = live[pend]
    self_col = (cand == alpha[:, None]).argmax(axis=1)
    width = min(num_live - 1, max_lp_constraints)
    cols = np.arange(width)
    take = cols[None, :] + (cols[None, :] >= self_col[:, None])
    prep.alpha = alpha
    prep.comp = np.take_along_axis(cand, take, axis=1)
    return prep


def prepare_dominance_pass(
    bs: np.ndarray,
    cs: np.ndarray,
    already_dominated: np.ndarray,
    *,
    quad_coeff: float,
    max_lp_constraints: int = _MAX_LP_CONSTRAINTS,
    witnesses: np.ndarray | None = None,
    t: np.ndarray | None = None,
) -> DominancePrep:
    """Run the equal-slope screen and the witness tests, and identify —
    without assembling — the pending feasibility LPs of one subset (see
    :class:`DominancePrep`).

    The screen's flags join a copy of the dominated mask before the
    pre-pass, which, like the competitor extraction (:func:`pending_lps`),
    then runs on the unflagged rows only (``witnesses`` updated in place
    as in :func:`dominated_mask`).

    ``t``, the subset's completion bounds, makes the pass lazy (see the
    module docstring): :func:`walk_by_bound` — the walk the engine's pass
    runs on every subset — replaces the pre-pass and leaves pending only
    the uncertified rows above the first certified one in descending
    ``t``.  Without ``t`` every candidate the pre-pass leaves uncertified
    is pending (the eager pass).
    """
    bs = np.atleast_2d(np.asarray(bs, dtype=float))
    cs = np.asarray(cs, dtype=float)
    out = np.asarray(already_dominated, dtype=bool).copy()
    screened = equal_slope_screen(bs, cs, np.flatnonzero(~out), out)
    live = np.flatnonzero(~out)
    if len(live) < 2:
        return DominancePrep(out=out, screened=screened, _bs=bs, _cs=cs)
    if t is None:
        survivors, vals, hits = _witness_prepass(
            bs, cs, live, quad_coeff, witnesses
        )
        pend = np.flatnonzero(~survivors)
        at_opt = None if vals is None else vals[pend]
    else:
        pend, at_opt, hits = walk_by_bound(
            bs, cs, live, t, quad_coeff, witnesses
        )
    prep = pending_lps(bs, cs, out, live, pend, at_opt, max_lp_constraints)
    prep.screened = screened
    prep.witness_hits = hits
    return prep


def dominated_mask(
    bs: np.ndarray,
    cs: np.ndarray,
    already_dominated: np.ndarray,
    *,
    quad_coeff: float,
    max_lp_constraints: int = _MAX_LP_CONSTRAINTS,
    witnesses: np.ndarray | None = None,
) -> tuple[np.ndarray, int]:
    """Flag newly dominated partial combinations within one subset ``M``.

    Parameters
    ----------
    bs:
        Array of shape ``(u, d)`` with the ``b`` coefficient of every
        partial combination of ``M``.
    cs:
        Array of shape ``(u,)`` with the ``c`` coefficients.
    already_dominated:
        Boolean array; those entries are excluded both as candidates and
        as competitors (the paper's constraint-discarding speed-up —
        removing constraints can only enlarge regions, so it never flags
        a live combination spuriously).
    quad_coeff:
        The shared quadratic coefficient ``a`` of eq. (24); needed to
        locate each candidate's unconstrained optimum for the witness
        pre-pass.  Non-positive values disable the pre-pass (flat
        objective: every point is an optimum).
    max_lp_constraints:
        Cap on competitors included in each feasibility LP.
    witnesses:
        Optional ``(u, d)`` array of cached non-emptiness witnesses (NaN
        rows = unknown), **updated in place**: a stored point at which a
        candidate beat every competitor on a previous pass is re-checked
        against the *current* competitor field first — an exact test that
        spares the candidate its LP while the witness stays valid.  LPs
        that prove non-emptiness store their Chebyshev centre here.

    Returns
    -------
    tuple[numpy.ndarray, int]
        Boolean array marking combinations whose dominance region is
        certainly empty (*including* those already flagged on input), and
        the number of feasibility LPs actually solved.
    """
    prep = prepare_dominance_pass(
        bs,
        cs,
        already_dominated,
        quad_coeff=quad_coeff,
        max_lp_constraints=max_lp_constraints,
        witnesses=witnesses,
    )
    return prep.solve(witnesses), prep.alpha.size

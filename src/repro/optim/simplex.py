"""Dense linear programming: the dominance feasibility test.

The dominance test of Section 3.2.2 asks whether the polyhedron

    { y in R^d :  G y <= h }            (paper eq. 35)

is empty.  We answer it with a Chebyshev-centre LP:

    maximize   r
    subject to g_i' y + ||g_i|| r <= h_i      for all i
               r <= R_CAP

whose optimum ``r*`` is the radius of the largest ball inscribed in the
polyhedron (capped so unbounded regions stay bounded).  ``r* < 0`` iff the
polyhedron is empty — exactly the signal dominance needs, and a strictly
negative optimum also certifies emptiness robustly under floating point.

The LP is solved by a primal simplex with Bland-style anti-cycling on a
dense numpy tableau, each pivot one rank-1 update.  Problem sizes here
are tiny (d <= 16 variables, at most 64 constraints per dominance
candidate) and an engine run solves a few dozen of them at most, one
call per candidate, so the solver needs nothing beyond numpy.  Zero- and
single-constraint problems are answered analytically, without a
tableau.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

__all__ = [
    "LPStatus",
    "chebyshev_center",
    "polyhedron_feasible_point",
    "polyhedron_is_empty",
]

_TOL = 1e-9
_R_CAP = 1e3
_HUGE_BASIS = np.iinfo(np.int64).max


class LPStatus(Enum):
    """Termination status of an LP solve."""

    OPTIMAL = "optimal"
    UNBOUNDED = "unbounded"


def _pivot(tableau: np.ndarray, basis: list[int], row: int, col: int) -> None:
    """In-place Gauss-Jordan pivot of ``tableau`` on (row, col), as one
    rank-1 update: every row ``r`` becomes ``t_r - t_{r,col} p``, where
    ``p`` is the pivot row scaled to a unit pivot, and row ``row``
    becomes ``p``."""
    pivrow = tableau[row] / tableau[row, col]
    tableau -= tableau[:, col, None] * pivrow
    tableau[row] = pivrow
    basis[row] = col


def _run_simplex(
    tableau: np.ndarray, basis: list[int], num_vars: int, max_iter: int
) -> LPStatus:
    """Primal simplex iterations on a tableau whose last row is the
    (negated-cost) objective and last column the RHS.

    Entering: first improving column (Bland).  Leaving: smallest basis
    variable among the rows within ``_TOL`` of the minimum ratio —
    Bland-style anti-cycling with a tolerance band.
    """
    for _ in range(max_iter):
        cost = tableau[-1, :num_vars]
        neg = cost < -_TOL
        if not neg.any():
            return LPStatus.OPTIMAL
        entering = int(neg.argmax())
        col = tableau[:-1, entering]
        rhs = tableau[:-1, -1]
        pos = col > _TOL
        if not pos.any():
            return LPStatus.UNBOUNDED
        ratios = np.where(pos, rhs / np.where(pos, col, 1.0), np.inf)
        best = float(ratios.min())
        eligible = ratios <= best + _TOL
        cand = np.where(eligible, np.asarray(basis, dtype=np.int64), _HUGE_BASIS)
        leaving = int(cand.argmin())
        _pivot(tableau, basis, leaving, entering)
    raise RuntimeError(f"simplex failed to converge in {max_iter} iterations")


def chebyshev_center(
    g: np.ndarray, h: np.ndarray, *, r_cap: float = _R_CAP
) -> tuple[np.ndarray | None, float]:
    """Largest inscribed-ball centre and radius of ``{y : G y <= h}``.

    Returns ``(center, radius)``.  ``radius < 0`` certifies the polyhedron
    is empty; ``radius`` is capped at ``r_cap`` for unbounded regions.
    To make emptiness detection work, the ball constraint is *relaxed*:
    we solve ``max r  s.t.  g_i' y + ||g_i|| r <= h_i`` with ``r`` free,
    so an infeasible system yields the (negative) least-violation radius.

    The LP is solved by a *warm-started* simplex specialised to this
    family: every ``r`` coefficient is positive, so pivoting ``r`` into
    the row with the minimum ``h_i / ||g_i||`` ratio yields a basic
    feasible solution directly — no phase-1 artificial variables and no
    pivots spent proving feasibility.
    """
    g = np.atleast_2d(np.asarray(g, dtype=float))
    h = np.asarray(h, dtype=float)
    m, d = g.shape
    norms = np.linalg.norm(g, axis=1)
    # Degenerate all-zero rows encode "0 <= h_i": infeasible iff h_i < 0.
    zero_rows = norms <= _TOL
    if zero_rows.any():
        if (h[zero_rows] < -_TOL).any():
            return None, -np.inf
        g = g[~zero_rows]
        h = h[~zero_rows]
        norms = norms[~zero_rows]
        m = len(h)
        if m == 0:
            return np.zeros(d), r_cap
    if m == 1:
        # A single half-space admits the capped ball: the centre backs
        # off along g until the constraint is tight.
        center = g[0] * ((h[0] - norms[0] * r_cap) / (norms[0] * norms[0]))
        return center, float(r_cap)
    # Row equilibration (does not move the ratios h_i / ||g_i||).
    scale = np.abs(np.hstack([g, norms[:, None]])).max(axis=1)
    g = g / scale[:, None]
    n_r = norms / scale
    h = h / scale

    # Columns: y+ (d) | y- (d) | r+ | r- | slacks (m + 1) | rhs.
    rows = m + 1
    r_col = 2 * d
    num_vars = r_col + 2 + rows
    tab = np.zeros((rows + 1, num_vars + 1))
    tab[:m, :d] = g
    tab[:m, d:r_col] = -g
    tab[:m, r_col] = n_r
    tab[:m, r_col + 1] = -n_r
    tab[m, r_col] = 1.0
    tab[m, r_col + 1] = -1.0
    tab[:rows, r_col + 2 : r_col + 2 + rows] = np.eye(rows)
    tab[:m, -1] = h
    tab[m, -1] = r_cap
    # Objective: minimise -(r+ - r-).
    tab[-1, r_col] = -1.0
    tab[-1, r_col + 1] = 1.0
    basis = list(range(r_col + 2, r_col + 2 + rows))
    # Warm start: drive r into the tightest row (min ratio keeps every
    # slack non-negative); a negative ratio enters through r- instead.
    ratios = tab[:rows, -1] / np.concatenate([n_r, [1.0]])
    i_star = int(np.argmin(ratios))
    _pivot(tab, basis, i_star, r_col if ratios[i_star] >= 0.0 else r_col + 1)
    status = _run_simplex(tab, basis, num_vars, 10_000)
    if status is not LPStatus.OPTIMAL:
        # The objective is bounded by the cap row, so only numerical
        # trouble lands here.
        return None, -np.inf
    x = np.zeros(num_vars)
    for r_i, j in enumerate(basis):
        x[j] = tab[r_i, -1]
    return x[:d] - x[d:r_col], float(x[r_col] - x[r_col + 1])


def polyhedron_feasible_point(
    g: np.ndarray, h: np.ndarray, *, tol: float = 1e-7
) -> np.ndarray | None:
    """A point of ``{y : G y <= h}``, or ``None`` if (robustly) empty.

    Returns the Chebyshev centre: strictly negative inscribed-ball radius
    means even the relaxed system admits no ball, i.e. the polyhedron has
    no interior point and misses closure only by ``tol``.  Dominance
    pruning errs on the safe side: near-degenerate regions are reported
    non-empty (the partial combination is kept), and the returned centre
    doubles as a cacheable *witness* of non-emptiness.
    """
    center, radius = chebyshev_center(g, h)
    if center is None or radius < -tol:
        return None
    return center


def polyhedron_is_empty(g: np.ndarray, h: np.ndarray, *, tol: float = 1e-7) -> bool:
    """True iff ``{y : G y <= h}`` is (robustly) empty.

    See :func:`polyhedron_feasible_point` for the semantics.
    """
    return polyhedron_feasible_point(g, h, tol=tol) is None

"""Dense linear programming: two-phase simplex and feasibility testing.

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

The general solver is a textbook two-phase primal simplex on the standard
form ``min c' x  s.t.  A x = b, x >= 0`` with Bland-style anti-cycling.
Problem sizes here are tiny (d <= 16 variables, a few hundred
constraints), so dense numpy tableaus are the right tool.

Batched kernels (the bound-kernel refactor): a dominance pass produces
*many* of these tiny LPs at once — one feasibility test per candidate
that failed the witness pre-pass.  :func:`chebyshev_center_batch`,
:func:`polyhedron_feasible_point_batch` and
:func:`polyhedron_is_empty_batch` stack ``B`` problems into one 3-D
tableau and pivot them in lockstep (per-problem entering/leaving
selection and termination masks, shared elementwise pivot arithmetic), so
the per-problem Python overhead of the scalar loop is paid once per
*pivot wave* instead of once per problem.  Because every tableau update
is elementwise across the batch axis, each problem's pivot sequence — and
hence its centre and radius — is bit-identical to a scalar
:func:`chebyshev_center` call on the same data.

Two refinements serve the engine's dominance passes:

* Zero- and single-constraint problems are answered analytically — a
  single half-space always admits the capped ball — without building a
  tableau, in the scalar and batched paths alike.
* ``workspace=`` routes the per-group stacking and the 3-D tableau
  through :class:`ChebyGatherPlan` slabs (grow-only, owned by the
  caller's :class:`~repro.core.bounds.workspace.BoundWorkspace`), so
  steady-state dominance passes allocate no fresh gather buffers.

Every batched problem starts from the family's feasible vertex (the
construction :func:`chebyshev_center` uses); no basis is carried from one
call to the next.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "LPStatus",
    "LPResult",
    "ChebyGatherPlan",
    "simplex_standard_form",
    "solve_lp",
    "chebyshev_center",
    "chebyshev_center_batch",
    "polyhedron_feasible_point",
    "polyhedron_feasible_point_batch",
    "polyhedron_is_empty",
    "polyhedron_is_empty_batch",
]

_TOL = 1e-9
_R_CAP = 1e3
_HUGE_BASIS = np.iinfo(np.int64).max


class LPStatus(Enum):
    """Termination status of an LP solve."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LPResult:
    """Outcome of an LP: status, optimal point and objective value."""

    status: LPStatus
    x: np.ndarray | None
    value: float | None


def _pivot(tableau: np.ndarray, basis: list[int], row: int, col: int) -> None:
    """In-place Gauss-Jordan pivot of ``tableau`` on (row, col)."""
    tableau[row] /= tableau[row, col]
    for r in range(len(tableau)):
        if r != row and abs(tableau[r, col]) > 0.0:
            tableau[r] -= tableau[r, col] * tableau[row]
    basis[row] = col


def _run_simplex(
    tableau: np.ndarray, basis: list[int], num_vars: int, max_iter: int
) -> LPStatus:
    """Primal simplex iterations on a tableau whose last row is the
    (negated-cost) objective and last column the RHS.

    Entering: first improving column (Bland).  Leaving: smallest basis
    variable among the rows within ``_TOL`` of the minimum ratio —
    Bland-style anti-cycling with a tolerance band, stated as a pure
    reduction so the lockstep batch kernel replays the exact same
    selection per problem.
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


def simplex_standard_form(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    *,
    max_iter: int = 10_000,
) -> LPResult:
    """Solve ``min c' x  s.t.  A x = b, x >= 0`` by two-phase simplex."""
    a = np.atleast_2d(np.asarray(a, dtype=float)).copy()
    b = np.asarray(b, dtype=float).copy()
    c = np.asarray(c, dtype=float)
    m, n = a.shape
    if b.shape != (m,) or c.shape != (n,):
        raise ValueError("inconsistent LP dimensions")

    # Row equilibration: scaling an equality row does not change the
    # feasible set, but it keeps badly mixed magnitudes (tiny geometry
    # coefficients next to large bound caps) within the pivot tolerances.
    row_scale = np.abs(a).max(axis=1)
    row_scale = np.where(row_scale > 0.0, row_scale, 1.0)
    a /= row_scale[:, None]
    b /= row_scale

    # Normalise to b >= 0 so the artificial basis is feasible.
    neg = b < 0
    a[neg] *= -1.0
    b[neg] *= -1.0

    # Phase 1: minimise the sum of artificial variables.
    tableau = np.zeros((m + 1, n + m + 1))
    tableau[:m, :n] = a
    tableau[:m, n : n + m] = np.eye(m)
    tableau[:m, -1] = b
    tableau[-1, n : n + m] = 1.0
    basis = list(range(n, n + m))
    # Price out the artificial basis.
    for r in range(m):
        tableau[-1] -= tableau[r]
    status = _run_simplex(tableau, basis, n + m, max_iter)
    # Phase 1 minimises the artificial sum, which is bounded below by 0,
    # so a textbook "unbounded" here can only be a numerical artifact of
    # the ratio test (entering column shrunk below tolerance after many
    # pivots).  The artificial-sum test below still decides feasibility
    # correctly in that case, so fall through rather than fail.
    if tableau[-1, -1] < -1e-7:
        return LPResult(status=LPStatus.INFEASIBLE, x=None, value=None)

    # Drive any artificial variables out of the basis.
    for r in range(m):
        if basis[r] >= n:
            pivot_col = -1
            for j in range(n):
                if abs(tableau[r, j]) > _TOL:
                    pivot_col = j
                    break
            if pivot_col >= 0:
                _pivot(tableau, basis, r, pivot_col)
        # Rows still basic in an artificial variable are redundant
        # (all-zero in the original columns); they stay harmless.

    # Phase 2: swap in the real objective.
    tableau2 = np.zeros((m + 1, n + 1))
    tableau2[:m, :n] = tableau[:m, :n]
    tableau2[:m, -1] = tableau[:m, -1]
    tableau2[-1, :n] = c
    for r in range(m):
        if basis[r] < n:
            tableau2[-1] -= tableau2[-1, basis[r]] * tableau2[r]
    status = _run_simplex(tableau2, basis, n, max_iter)
    if status is LPStatus.UNBOUNDED:
        return LPResult(status=LPStatus.UNBOUNDED, x=None, value=None)
    x = np.zeros(n)
    for r, j in enumerate(basis):
        if j < n:
            x[j] = tableau2[r, -1]
    return LPResult(status=LPStatus.OPTIMAL, x=x, value=float(c @ x))


def solve_lp(
    c: np.ndarray,
    a_ub: np.ndarray,
    b_ub: np.ndarray,
    *,
    max_iter: int = 10_000,
) -> LPResult:
    """Solve ``min c' x  s.t.  A_ub x <= b_ub`` with *free* variables.

    Free variables are split as ``x = x+ - x-`` and slacks are added to
    reach standard form.
    """
    a_ub = np.atleast_2d(np.asarray(a_ub, dtype=float))
    b_ub = np.asarray(b_ub, dtype=float)
    c = np.asarray(c, dtype=float)
    m, n = a_ub.shape
    big_a = np.hstack([a_ub, -a_ub, np.eye(m)])
    big_c = np.concatenate([c, -c, np.zeros(m)])
    res = simplex_standard_form(big_a, b_ub, big_c, max_iter=max_iter)
    if res.status is not LPStatus.OPTIMAL:
        return LPResult(status=res.status, x=None, value=None)
    assert res.x is not None
    x = res.x[:n] - res.x[n : 2 * n]
    return LPResult(status=LPStatus.OPTIMAL, x=x, value=float(c @ x))


def _cheby_tableau_meta(m: int, d: int) -> tuple[int, int, int]:
    """Column layout of the specialised Chebyshev tableau:
    ``y+ (d) | y- (d) | r+ | r- | slacks (m+1) | rhs``.
    Returns ``(rows, num_vars, r_plus_col)``."""
    rows = m + 1
    return rows, 2 * d + 2 + rows, 2 * d


def _single_row_center(
    g: np.ndarray, h: np.ndarray, norms: np.ndarray, r_cap: float
) -> np.ndarray:
    """Analytic Chebyshev centre of a single half-space (post zero-row
    strip, so ``norms[0] > 0``): the cap binds (``r* = r_cap``) and the
    centre backs off along ``g`` until the constraint is tight.  Shared
    by the scalar and batched paths so both produce the same bits."""
    return g[0] * ((h[0] - norms[0] * r_cap) / (norms[0] * norms[0]))


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
    feasible solution directly — no phase-1 artificial variables, which
    halves the tableau and skips the ``~m`` pivots the generic two-phase
    path spends proving feasibility.  The batched kernel
    (:func:`chebyshev_center_batch`) replays the identical construction
    in lockstep.
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
        return _single_row_center(g, h, norms, r_cap), float(r_cap)
    # Row equilibration (does not move the ratios h_i / ||g_i||).
    scale = np.abs(np.hstack([g, norms[:, None]])).max(axis=1)
    g = g / scale[:, None]
    n_r = norms / scale
    h = h / scale

    rows, num_vars, r_col = _cheby_tableau_meta(m, d)
    tab = np.zeros((rows + 1, num_vars + 1))
    tab[:m, :d] = g
    tab[:m, d : 2 * d] = -g
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
    return x[:d] - x[d : 2 * d], float(x[r_col] - x[r_col + 1])


# -- lockstep batch kernel --------------------------------------------------
#
# ``B`` stacked tableaus pivoted together: selection (entering column,
# ratio test, leaving row) is evaluated per problem, the Gauss-Jordan
# update runs as one elementwise array operation over the stack, and a
# per-problem status vector retires finished problems from the wave.
# Every arithmetic step per problem mirrors the scalar path above exactly.

_RUNNING, _OPT, _UNB = 0, 1, 2


def _pivot_batch(
    tab: np.ndarray, basis: np.ndarray, idx: np.ndarray,
    rows: np.ndarray, cols: np.ndarray,
) -> None:
    """Lockstep Gauss-Jordan pivot of problems ``idx`` on per-problem
    ``(rows, cols)``."""
    k = np.arange(len(idx))
    sub = tab[idx]
    piv = sub[k, rows, cols]
    pivrow = sub[k, rows, :] / piv[:, None]
    colv = sub[k, :, cols]
    sub = sub - colv[:, :, None] * pivrow[:, None, :]
    sub[k, rows, :] = pivrow
    tab[idx] = sub
    basis[idx, rows] = cols


def _run_simplex_batch(
    tab: np.ndarray, basis: np.ndarray, num_vars: int, max_iter: int
) -> np.ndarray:
    """Lockstep :func:`_run_simplex` over stacked tableaus; returns the
    per-problem status vector (``_OPT`` / ``_UNB``)."""
    num_problems = tab.shape[0]
    status = np.full(num_problems, _RUNNING, dtype=np.int8)
    for _ in range(max_iter):
        run = np.flatnonzero(status == _RUNNING)
        if run.size == 0:
            return status
        cost = tab[run, -1, :num_vars]
        neg = cost < -_TOL
        improving = neg.any(axis=1)
        status[run[~improving]] = _OPT
        run = run[improving]
        if run.size == 0:
            continue
        entering = neg[improving].argmax(axis=1)
        body = tab[run, :-1, :]
        col = np.take_along_axis(body, entering[:, None, None], axis=2)[:, :, 0]
        rhs = body[:, :, -1]
        pos = col > _TOL
        bounded = pos.any(axis=1)
        status[run[~bounded]] = _UNB
        run = run[bounded]
        if run.size == 0:
            continue
        col = col[bounded]
        rhs = rhs[bounded]
        pos = pos[bounded]
        entering = entering[bounded]
        ratios = np.where(pos, rhs / np.where(pos, col, 1.0), np.inf)
        best = ratios.min(axis=1)
        eligible = ratios <= best[:, None] + _TOL
        cand = np.where(eligible, basis[run], _HUGE_BASIS)
        leaving = cand.argmin(axis=1)
        _pivot_batch(tab, basis, run, leaving, entering)
    if (status == _RUNNING).any():
        raise RuntimeError(f"simplex failed to converge in {max_iter} iterations")
    return status


class ChebyGatherPlan:
    """Precomputed stacking plan for one ``(m, d)`` constraint-count
    group of a batched Chebyshev wave.

    Owns no memory itself: the stacking buffers and the 3-D tableau are
    named slabs of the *arena* (any object with a
    ``array(name, shape, dtype, zero=)`` method — in the engine, the
    run's :class:`~repro.core.bounds.workspace.BoundWorkspace`), so a
    steady-state dominance pass re-fills grow-only memory instead of
    allocating.  The tableau metadata and the identity block are
    computed once per shape and reused every pass (plan-cache keying:
    one plan per ``(m, d)``, cached by the workspace).
    """

    __slots__ = ("m", "d", "rows", "num_vars", "r_col", "eye", "_arena", "_tag")

    def __init__(self, arena, m: int, d: int) -> None:
        self.m = m
        self.d = d
        self.rows, self.num_vars, self.r_col = _cheby_tableau_meta(m, d)
        self.eye = np.eye(self.rows)
        self._arena = arena
        self._tag = f"lp[{m}x{d}]"

    def stacks(
        self, count: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Slab-backed ``(g, h, norms)`` gather buffers for ``count``
        problems of this shape."""
        return (
            self._arena.array(self._tag + ".g", (count, self.m, self.d)),
            self._arena.array(self._tag + ".h", (count, self.m)),
            self._arena.array(self._tag + ".norms", (count, self.m)),
        )

    def tableau(self, count: int) -> np.ndarray:
        """A zeroed slab-backed lockstep tableau for ``count`` problems."""
        return self._arena.array(
            self._tag + ".tab",
            (count, self.rows + 1, self.num_vars + 1),
            zero=True,
        )


def _cheby_solve_batch(
    g: np.ndarray,
    h: np.ndarray,
    norms: np.ndarray,
    r_cap: float,
    max_iter: int = 10_000,
    *,
    plan: ChebyGatherPlan | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Lockstep warm-started Chebyshev simplex on ``B`` stacked problems
    of a common constraint count.  ``g`` is ``(B, m, d)``, ``h`` and
    ``norms`` are ``(B, m)`` with every norm positive (zero rows removed
    by the caller).  Returns ``(centers, radii)`` with NaN / ``-inf``
    centre/radius for problems the scalar path would answer
    ``(None, -inf)``.

    Construction, warm-start pivot and simplex iterations mirror
    :func:`chebyshev_center` operation for operation across the batch
    axis (elementwise pivots, per-problem selection), so every problem is
    bit-identical to its scalar solve.
    """
    num_problems, m, d = g.shape
    scale = np.abs(np.concatenate([g, norms[:, :, None]], axis=2)).max(axis=2)
    g = g / scale[:, :, None]
    n_r = norms / scale
    h = h / scale

    rows, num_vars, r_col = _cheby_tableau_meta(m, d)
    if plan is not None:
        tab = plan.tableau(num_problems)
        eye = plan.eye
    else:
        tab = np.zeros((num_problems, rows + 1, num_vars + 1))
        eye = np.eye(rows)
    tab[:, :m, :d] = g
    tab[:, :m, d : 2 * d] = -g
    tab[:, :m, r_col] = n_r
    tab[:, :m, r_col + 1] = -n_r
    tab[:, m, r_col] = 1.0
    tab[:, m, r_col + 1] = -1.0
    tab[:, :rows, r_col + 2 : r_col + 2 + rows] = eye
    tab[:, :m, -1] = h
    tab[:, m, -1] = r_cap
    tab[:, -1, r_col] = -1.0
    tab[:, -1, r_col + 1] = 1.0
    basis = np.tile(
        np.arange(r_col + 2, r_col + 2 + rows, dtype=np.int64),
        (num_problems, 1),
    )
    denom = np.concatenate([n_r, np.ones((num_problems, 1))], axis=1)
    ratios = tab[:, :rows, -1] / denom
    i_star = ratios.argmin(axis=1)
    start_col = np.where(
        np.take_along_axis(ratios, i_star[:, None], axis=1)[:, 0] >= 0.0,
        r_col,
        r_col + 1,
    )
    _pivot_batch(
        tab, basis, np.arange(num_problems), i_star, start_col.astype(np.int64)
    )
    statuses = _run_simplex_batch(tab, basis, num_vars, max_iter)

    x = np.zeros((num_problems, num_vars))
    rows_all = np.arange(num_problems)
    for r_i in range(rows):
        x[rows_all, basis[:, r_i]] = tab[:, r_i, -1]
    centers = x[:, :d] - x[:, d : 2 * d]
    radii = x[:, r_col] - x[:, r_col + 1]
    failed = statuses != _OPT
    centers[failed] = np.nan
    radii[failed] = -np.inf
    return centers, radii


def chebyshev_center_batch(gs, hs, *, r_cap: float = _R_CAP, workspace=None):
    """Lockstep :func:`chebyshev_center` over ``B`` polyhedra.

    Parameters
    ----------
    gs / hs:
        Either stacked arrays (``(B, m, d)`` and ``(B, m)``) or ragged
        sequences of per-problem ``(m_i, d)`` / ``(m_i,)`` arrays (the
        shape a dominance pass produces: constraint counts differ across
        subsets).  Problems are grouped by effective constraint count and
        each group is pivoted in lockstep.
    workspace:
        Optional arena owning :class:`ChebyGatherPlan` slabs (duck-typed:
        needs ``lp_plan(m, d)``; the engine passes its
        :class:`~repro.core.bounds.workspace.BoundWorkspace`).  With a
        workspace, steady-state calls fill grow-only slabs instead of
        allocating stack and tableau buffers per group.

    Returns
    -------
    (centers, radii):
        ``(B, d)`` and ``(B,)``.  A problem the scalar path would answer
        with ``(None, -inf)`` (zero-row infeasibility or numerical
        failure) gets a NaN centre row and ``-inf`` radius.

    Every problem's answer is bit-identical to a scalar
    :func:`chebyshev_center` call on the same ``(g, h)`` — the batch is
    purely an execution strategy (see the module docstring).
    """
    problems = [
        (np.atleast_2d(np.asarray(g, dtype=float)), np.asarray(h, dtype=float))
        for g, h in zip(gs, hs)
    ]
    num_problems = len(problems)
    if num_problems == 0:
        return np.zeros((0, 0)), np.zeros(0)
    d = problems[0][0].shape[1]
    centers = np.full((num_problems, d), np.nan)
    radii = np.full(num_problems, -np.inf)

    groups: dict[int, list[tuple[int, np.ndarray, np.ndarray, np.ndarray]]] = {}
    for i, (g, h) in enumerate(problems):
        if g.shape[1] != d:
            raise ValueError("all problems must share the dimensionality d")
        norms = np.linalg.norm(g, axis=1)
        zero_rows = norms <= _TOL
        if zero_rows.any():
            if (h[zero_rows] < -_TOL).any():
                continue  # (None, -inf): certainly empty
            g, h, norms = g[~zero_rows], h[~zero_rows], norms[~zero_rows]
        if len(h) == 0:
            centers[i] = 0.0
            radii[i] = r_cap
            continue
        if len(h) == 1:
            # Trivially feasible: answered analytically, no tableau.
            centers[i] = _single_row_center(g, h, norms, r_cap)
            radii[i] = r_cap
            continue
        groups.setdefault(len(h), []).append((i, g, h, norms))

    for m, items in groups.items():
        count = len(items)
        idx = np.array([i for i, _, _, _ in items])
        plan = workspace.lp_plan(m, d) if workspace is not None else None
        if plan is not None:
            g_stack, h_stack, n_stack = plan.stacks(count)
        else:
            g_stack = np.empty((count, m, d))
            h_stack = np.empty((count, m))
            n_stack = np.empty((count, m))
        for k, (_, g, h, norms) in enumerate(items):
            g_stack[k] = g
            h_stack[k] = h
            n_stack[k] = norms
        centers[idx], radii[idx] = _cheby_solve_batch(
            g_stack, h_stack, n_stack, r_cap, plan=plan
        )
    return centers, radii


def _scipy_linprog():
    """Return scipy's linprog if importable, else None (cached)."""
    global _SCIPY_LINPROG
    if _SCIPY_LINPROG is _UNRESOLVED:
        try:
            from scipy.optimize import linprog  # type: ignore

            _SCIPY_LINPROG = linprog
        except ImportError:  # pragma: no cover - scipy present in CI
            _SCIPY_LINPROG = None
    return _SCIPY_LINPROG


_UNRESOLVED = object()
_SCIPY_LINPROG = _UNRESOLVED


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

    When scipy is importable its HiGHS solver answers the Chebyshev LP
    (roughly 20x faster than the didactic dense simplex here, which
    remains the dependency-free fallback and the cross-check in tests).
    """
    g = np.atleast_2d(np.asarray(g, dtype=float))
    h = np.asarray(h, dtype=float)
    norms = np.linalg.norm(g, axis=1)
    zero_rows = norms <= _TOL
    if zero_rows.any():
        if (h[zero_rows] < -_TOL).any():
            return None
        g, h, norms = g[~zero_rows], h[~zero_rows], norms[~zero_rows]
        if len(h) == 0:
            return np.zeros(g.shape[1])
    if len(h) == 1:
        # A single half-space is always non-empty: analytic centre, no LP.
        return _single_row_center(g, h, norms, _R_CAP)
    linprog = _scipy_linprog()
    if linprog is not None:
        d = g.shape[1]
        a_ub = np.hstack([g, norms[:, None]])
        c = np.zeros(d + 1)
        c[-1] = -1.0
        bounds = [(None, None)] * d + [(None, _R_CAP)]
        res = linprog(c, A_ub=a_ub, b_ub=h, bounds=bounds, method="highs")
        if res.status == 0:
            if float(res.x[-1]) < -tol:
                return None
            return np.asarray(res.x[:d], dtype=float)
        # HiGHS trouble (numerical): fall through to the dense simplex.
    center, radius = chebyshev_center(g, h)
    if radius < -tol or center is None:
        return None
    return center


def polyhedron_feasible_point_batch(gs, hs, *, tol: float = 1e-7, workspace=None):
    """Batched :func:`polyhedron_feasible_point` over ``B`` polyhedra.

    Accepts stacked ``(B, m, d)`` / ``(B, m)`` arrays or ragged
    per-problem sequences, plus the ``workspace`` plan arena of
    :func:`chebyshev_center_batch`, which is passed straight through.

    Returns
    -------
    (points, empty):
        ``points`` is ``(B, d)`` — the Chebyshev-centre witness per
        non-empty polyhedron, NaN rows where empty; ``empty`` is the
        ``(B,)`` boolean emptiness verdict.

    Always the dense lockstep kernel: per problem, the point and verdict
    are bit-identical to the scalar dense path (:func:`chebyshev_center`
    + the radius test).  The scalar :func:`polyhedron_feasible_point` may
    route through scipy's HiGHS instead, which returns a different (but
    equally valid) witness; the emptiness *verdicts* agree — both are
    robust sign tests on the same LP optimum — which is the invariant the
    dominance pass relies on.
    """
    centers, radii = chebyshev_center_batch(gs, hs, workspace=workspace)
    empty = (radii < -tol) | np.isnan(centers).any(axis=1)
    points = centers.copy()
    points[empty] = np.nan
    return points, empty


def polyhedron_is_empty(g: np.ndarray, h: np.ndarray, *, tol: float = 1e-7) -> bool:
    """True iff ``{y : G y <= h}`` is (robustly) empty.

    See :func:`polyhedron_feasible_point` for the semantics and the
    solver-selection logic.
    """
    return polyhedron_feasible_point(g, h, tol=tol) is None


def polyhedron_is_empty_batch(gs, hs, *, tol: float = 1e-7) -> np.ndarray:
    """Batched :func:`polyhedron_is_empty`: the ``(B,)`` boolean verdicts
    of :func:`polyhedron_feasible_point_batch`."""
    return polyhedron_feasible_point_batch(gs, hs, tol=tol)[1]

"""Convex quadratic programming for the tight-bound inner problem.

The paper reduces the tight-bound computation (problem 12) to the convex
QP (14)/(30):

    minimize    theta' H theta
    subject to  theta_i  =  e_i   for i in a fixed set E (seen tuples)
                theta_i  >= l_i   for i in a set L (unseen tuples)

with ``H = w_q I + w_mu (I - 11'/n)' (I - 11'/n)`` positive semidefinite
(positive definite whenever ``w_q > 0``).  The dimension equals the number
of joined relations (tiny), so enumerating the active sets is exact and
dependency-free.

Entry points:

* :func:`solve_bound_qp_masked` — the bound-QP solver: entries of
  *arbitrary mixed* fixed/lower patterns (every subset ``M`` of a bound
  refresh) stacked into one call.  For the spread Hessian of eq. (31)
  each row is solved in closed form — one water level for the inactive
  coordinates — all patterns in one pass; rows near a degenerate active
  set, and every row of any other Hessian, go through the vectorised
  per-pattern active-set enumeration.
* :func:`solve_bound_qp_batch` — that enumeration over many entries of
  *one* fixed/lower pattern (one subset ``M``): the reference every
  differential suite checks the solver against.
* :func:`solve_qp` — a generic small convex QP with linear inequality
  constraints ``A theta <= b``, an independent oracle for the tests.

Bit-identity contract: every row of :func:`solve_bound_qp_masked` is
bit-identical to :func:`solve_bound_qp_batch` on the same row, whatever
the batch around it.  BLAS-backed primitives (``np.linalg.solve``,
``@``, ``einsum``) do **not** satisfy this — their reassociation depends
on how many rows/right-hand sides share the call — so both paths route
their linear algebra through the same *row-stable* helpers
(:func:`_gauss_solve`, :func:`_accum_cols`, :func:`_quad_values`): only
elementwise numpy operations touch the batch axes, making each entry's
arithmetic independent of its batch-mates.  The closed-form rows use the
same helpers on the same operands as the enumeration, and a row whose
active set is ambiguous (a lower bound within the KKT tolerance of the
water level) goes to the enumeration.  The one exception is a singular
free block (``w_q = 0``), where the enumeration falls back to least
squares on the whole pattern group and only the optimal *value* is pinned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "QPResult",
    "solve_bound_qp_batch",
    "solve_bound_qp_masked",
    "solve_qp",
    "spread_matrix",
]

_TOL = 1e-9
_PIVOT_TOL = 1e-12
_EPS_MACH = float(np.finfo(float).eps)


@dataclass(frozen=True)
class QPResult:
    """Solution of a :func:`solve_qp` problem.

    Attributes
    ----------
    x:
        Optimal point.
    value:
        Objective value at ``x``.
    active:
        Indices of inequality constraints active at the optimum.
    iterations:
        Number of active-set iterations performed.
    """

    x: np.ndarray
    value: float
    active: tuple[int, ...]
    iterations: int


def spread_matrix(n: int, w_q: float, w_mu: float) -> np.ndarray:
    """The Hessian ``H`` of paper eq. (31) for ``n`` relations.

    ``I - 11'/n`` is symmetric idempotent, so
    ``H = w_q I + w_mu (I - 11'/n) = (w_q + w_mu) I - (w_mu / n) 11'``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if w_q < 0 or w_mu < 0:
        raise ValueError("weights must be non-negative")
    return (w_q + w_mu) * np.eye(n) - (w_mu / n) * np.ones((n, n))


def _solve_psd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a x = b`` for symmetric PSD ``a``, tolerating singularity."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(a, b, rcond=None)[0]


# -- row-stable linear algebra ---------------------------------------------
#
# Shared by the closed form and the enumeration; ``rhs``/``vals`` may
# carry leading batch dimensions, and only elementwise operations touch
# them, so per-entry results are independent of the batch size.


def _gauss_solve(a: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    """Solve ``a x = rhs`` by Gaussian elimination with partial pivoting.

    ``a`` is a tiny shared ``(k, k)`` system; ``rhs`` is ``(..., k)``.
    Returns ``None`` when a pivot collapses (singular system); callers
    fall back to least squares.
    """
    k = a.shape[0]
    x = np.array(rhs, dtype=float, copy=True)
    if k == 0:
        return x
    a = np.array(a, dtype=float, copy=True)
    for i in range(k):
        p = i + int(np.argmax(np.abs(a[i:, i])))
        if abs(float(a[p, i])) <= _PIVOT_TOL:
            return None
        if p != i:
            a[[i, p]] = a[[p, i]]
            tmp = x[..., i].copy()
            x[..., i] = x[..., p]
            x[..., p] = tmp
        for j in range(i + 1, k):
            f = float(a[j, i] / a[i, i])
            if f != 0.0:
                a[j, i:] -= f * a[i, i:]
                x[..., j] = x[..., j] - f * x[..., i]
    for i in range(k - 1, -1, -1):
        acc = x[..., i]
        for j in range(i + 1, k):
            acc = acc - float(a[i, j]) * x[..., j]
        x[..., i] = acc / float(a[i, i])
    return x


def _accum_cols(mat: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """``sum_k mat[:, k] * vals[..., k]`` accumulated strictly in ``k``
    order (the row-stable replacement for ``vals @ mat.T``; with a
    symmetric ``mat``, the matvec ``mat @ vals``)."""
    out = np.zeros(vals.shape[:-1] + (mat.shape[0],))
    for k in range(mat.shape[1]):
        out = out + vals[..., k, None] * mat[:, k]
    return out


def _quad_values(h: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """``theta' H theta`` per entry, accumulated in fixed index order."""
    ht = _accum_cols(h, thetas)
    out = np.zeros(thetas.shape[:-1])
    for j in range(h.shape[0]):
        out = out + thetas[..., j] * ht[..., j]
    return out


def _solve_pattern(
    h: np.ndarray,
    fixed_idx: list[int],
    fixed_vals: np.ndarray,
    lower_idx: list[int],
    lower_vals: np.ndarray,
    uncon_idx: list[int],
) -> tuple[np.ndarray, np.ndarray]:
    """Solve every entry of one fixed/lower *pattern* group.

    All entries pin the coordinates ``fixed_idx`` (values per entry, rows
    of ``fixed_vals``), lower-bound the coordinates ``lower_idx`` (bounds
    per entry, rows of ``lower_vals``) and leave ``uncon_idx`` free.

    Strategy: with ``f = len(lower_idx)`` bounded coordinates there are
    only ``2^f`` candidate active sets.  For each candidate, the
    stationarity system is solved for *all* unresolved entries at once;
    the unique optimum of each convex QP is the candidate that is both
    primal and dual feasible (KKT), tracked by a per-entry resolution
    mask.  ``f`` equals the number of unseen relations, so ``2^f <= 16``
    for any join this library targets.  All arithmetic is row-stable
    (module docstring), so an entry's result does not depend on the
    other entries of the group.  When several active sets pass the KKT
    test (a bound within the tolerance of the optimum), the first in
    mask order wins.

    Returns ``(values, thetas)``.
    """
    n = h.shape[0]
    fixed_idx = sorted(fixed_idx)
    lower_idx = sorted(lower_idx)
    num_entries = fixed_vals.shape[0]
    f = len(lower_idx)
    free = sorted(set(lower_idx) | set(uncon_idx))

    thetas = np.zeros((num_entries, n))
    if fixed_idx:
        thetas[:, fixed_idx] = fixed_vals
    if not free:
        return _quad_values(h, thetas), thetas

    q = h[np.ix_(free, free)]
    if fixed_idx:
        r = _accum_cols(h[np.ix_(free, fixed_idx)], fixed_vals)  # (E, F)
    else:
        r = np.zeros((num_entries, len(free)))
    pos_of = {g: k for k, g in enumerate(free)}
    bounded = [pos_of[g] for g in lower_idx]

    # Safe feasible default: the fully clamped point.
    best_z = np.zeros((num_entries, len(free)))
    if bounded:
        best_z[:, bounded] = lower_vals
    resolved = np.zeros(num_entries, dtype=bool)
    for mask in range(1 << f):
        act_cols = [k for k in range(f) if mask >> k & 1]
        active = [bounded[k] for k in act_cols]
        solve_pos = [p for p in range(len(free)) if p not in set(active)]
        act_vals = lower_vals[:, act_cols]
        z = np.zeros((num_entries, len(free)))
        if active:
            z[:, active] = act_vals
        if solve_pos:
            qi = q[np.ix_(solve_pos, solve_pos)]
            rhs = -r[:, solve_pos]
            if active:
                rhs = rhs - _accum_cols(q[np.ix_(solve_pos, active)], act_vals)
            sol = _gauss_solve(qi, rhs)
            if sol is None:
                sol = np.linalg.lstsq(qi, rhs.T, rcond=None)[0].T
            z[:, solve_pos] = sol
        # Primal feasibility on inactive bounds; dual feasibility on
        # active ones (KKT).
        ok = ~resolved
        inact_cols = [k for k in range(f) if not mask >> k & 1]
        if inact_cols:
            inact = [bounded[k] for k in inact_cols]
            ok &= (z[:, inact] >= lower_vals[:, inact_cols] - _TOL).all(axis=1)
        if active:
            grad = 2.0 * (_accum_cols(q, z) + r)
            ok &= (grad[:, active] >= -_TOL).all(axis=1)
        if ok.any():
            best_z[ok] = z[ok]
            resolved |= ok
        if resolved.all():
            break
    thetas[:, free] = best_z
    return _quad_values(h, thetas), thetas


def solve_bound_qp_batch(
    h: np.ndarray,
    fixed_idx: list[int],
    fixed_vals: np.ndarray,
    lower_idx: list[int],
    lower_vals: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The bound QP of many entries of one pattern, by active-set
    enumeration: the reference :func:`solve_bound_qp_masked` is checked
    against.

    All entries share the Hessian ``h``, the equality-pinned coordinate
    *positions* ``fixed_idx`` and the lower-bounded coordinates
    ``lower_idx``, which together partition ``range(n)``; the pinned
    *values* differ per entry (rows of ``fixed_vals``, shape
    ``(E, len(fixed_idx))``), and the bounds ``lower_vals`` are shared
    (shape ``(len(lower_idx),)``) or per entry (``(E, len(lower_idx))``).
    This is exactly the structure of the tight bound within one subset
    ``M``: the spread matrix, the member relations and the distance
    constraints are per-subset, the seen-tuple projections are
    per-partial-combination.  For mixed patterns (entries of *different*
    subsets) see :func:`solve_bound_qp_masked`.

    Returns
    -------
    (values, thetas):
        ``values[e]`` is the optimal objective ``theta' H theta``;
        ``thetas[e]`` the optimal point (shape ``(E, n)``).
    """
    h = np.asarray(h, dtype=float)
    n = h.shape[0]
    fixed_vals = np.atleast_2d(np.asarray(fixed_vals, dtype=float))
    num_entries = fixed_vals.shape[0]
    lower_vals = np.asarray(lower_vals, dtype=float)
    f = len(lower_idx)
    if sorted(set(fixed_idx) | set(lower_idx)) != list(range(n)) or set(
        fixed_idx
    ) & set(lower_idx):
        raise ValueError("fixed_idx and lower_idx must partition range(n)")
    if fixed_vals.shape[1] != len(fixed_idx):
        raise ValueError("fixed_vals width must match fixed_idx")
    return _solve_pattern(
        h,
        list(fixed_idx),
        fixed_vals,
        list(lower_idx),
        np.broadcast_to(lower_vals, (num_entries, f)),
        [],
    )


def _spread_form(h: np.ndarray) -> tuple[float, float] | None:
    """``(lambda_max, lambda_min)`` when ``h`` has the spread form of
    eq. (31) — one diagonal value ``d``, one off-diagonal value ``o <= 0``
    (bitwise), ``n >= 2`` — and is positive definite beyond the rounding
    of ``lambda_min``; else ``None``.

    ``h = (d - o) I + o 11'`` has eigenvalues ``d - o`` on the vectors
    orthogonal to ``1`` and ``d + (n - 1) o`` on ``1``; with ``o <= 0``
    the first is the largest.  For :func:`spread_matrix` they are
    ``w_q + w_mu`` and ``w_q`` (so ``w_q = 0`` has no closed form).
    """
    n = h.shape[0]
    if n < 2:
        return None
    d, o = float(h[0, 0]), float(h[0, 1])
    spread = np.full((n, n), o)
    spread.flat[:: n + 1] = d
    if spread.tobytes() != np.ascontiguousarray(h).tobytes():
        return None
    lam_max, lam_min = d - o, d + (n - 1) * o
    if not (o <= 0.0 and lam_min > 64.0 * n * _EPS_MACH * lam_max):
        return None
    return lam_max, lam_min


def _solve_water_level(
    h: np.ndarray,
    lam_max: float,
    lam_min: float,
    fixed_mask: np.ndarray,
    fixed_vals: np.ndarray,
    lower_mask: np.ndarray,
    lower_vals: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form rows of :func:`solve_bound_qp_masked` for a spread ``h``.

    With ``h = a I - b 11'`` (``a = lambda_max``, ``b = -h[0, 1] >= 0``)
    the gradient of ``theta' h theta`` at coordinate ``j`` is
    ``2 (a theta_j - b S)``, ``S = sum(theta)``.  So at the optimum every
    inactive free coordinate sits at one water level ``c = b S / a``,
    every active one at its own bound ``l_j > c``, and

        c = b (sum(e) + sum_A l) / (a - b k),   A = {j : l_j > c},

    ``k`` the number of inactive free coordinates.  The fixed point over
    ``A`` starts from every bound active, whose level is at most the
    optimal one (``max(l_j, c) >= l_j``); each round sets ``A`` to the
    bounds above the last level, which never lowers the level, so ``A``
    only shrinks and settles within ``n + 1`` rounds (one, when every
    bound stays active, as it mostly does in the tight bound).  All rows
    of every pattern go through the same vectorised rounds.

    ``theta`` and the value are then computed with the enumeration's own
    row-stable helpers on exactly the operands :func:`_solve_pattern`
    builds for that active set (the ``k x k`` block of a spread ``h``
    depends only on ``k``), so an accepted row is bit-identical to the
    enumeration whenever ``A`` is the only active set passing the KKT
    test.

    A row is accepted (``ok``) only if it passes :func:`_solve_pattern`'s
    KKT test and no lower bound lies within ``guard`` of ``c``:

        guard = (lambda_max / lambda_min)
                * (2 _TOL max(1, 1 / (2 lambda_max)) + 64 n eps scale).

    Why that suffices: another active set ``A'`` passes the KKT test only
    if its own level ``c'`` has every ``l_j`` (``j in A'``) above
    ``c' - _TOL / (2a)`` and every other bound below ``c' + _TOL``.  Such
    a ``c'`` is a root of the optimality equation up to
    ``b n max(_TOL, _TOL / (2a))``, whose slope is at least
    ``lambda_min``, so ``c'`` is that close to ``c`` divided by
    ``lambda_min``, and ``A' != A`` needs a bound within
    ``(lambda_max / lambda_min) max(_TOL, _TOL / (2a))`` of ``c``.  The
    factor 2 and the ``64 n eps scale`` term (``scale`` the row's largest
    magnitude) absorb rounding.  Rows that fail go to the enumeration.

    Returns ``(values, thetas, ok)``; rows with ``ok`` false are
    undefined.
    """
    num_entries, n = fixed_mask.shape
    off = float(h[0, 1])
    a, b = lam_max, -off
    fv = np.where(fixed_mask, fixed_vals, 0.0)
    lo = np.where(lower_mask, lower_vals, 0.0)
    free = ~fixed_mask
    n_free = free.sum(axis=1)
    fixed_sum = fv.sum(axis=1)

    act = lower_mask
    for _ in range(n + 1):
        k = n_free - act.sum(axis=1)
        level = b * (fixed_sum + np.where(act, lo, 0.0).sum(axis=1)) / (a - b * k)
        nxt = lower_mask & (lo > level[:, None])
        moved = (nxt != act).any(axis=1)
        act = nxt
        if not moved.any():
            break
    scale = np.maximum(np.abs(fv).max(axis=1), np.abs(lo).max(axis=1))
    scale = np.maximum(scale, np.abs(level))
    guard = (lam_max / lam_min) * (
        2.0 * _TOL * max(1.0, 0.5 / lam_max) + 64.0 * n * _EPS_MACH * scale
    )
    clear = (np.abs(lo - level[:, None]) > guard[:, None]) | ~lower_mask
    ok = ~moved & np.isfinite(level) & clear.all(axis=1)

    # The enumeration's right-hand side for this active set: every
    # coupling entry of a spread ``h`` is ``off``, so each inactive
    # coordinate sees ``-r - acc`` with both sums accumulated in
    # coordinate order exactly as ``_accum_cols`` does (the ``0 * off``
    # terms of other coordinates add a signed zero, which is exact).
    r = np.zeros(num_entries)
    acc = np.zeros(num_entries)
    for j in range(n):
        r = r + fv[:, j] * off
        acc = acc + np.where(act[:, j], lo[:, j], 0.0) * off
    rhs = -r - acc

    inact = free & ~act
    n_inact = inact.sum(axis=1)
    z = np.where(act, lo, 0.0)
    groups = np.bincount(n_inact[ok], minlength=n + 1)
    for k in range(1, n + 1):
        if not groups[k]:
            continue
        rows = np.flatnonzero(ok & (n_inact == k))
        sol = _gauss_solve(h[:k, :k], np.repeat(rhs[rows, None], k, axis=1))
        if sol is None:
            ok[rows] = False
            continue
        block = z[rows]
        block[inact[rows]] = sol.ravel()
        z[rows] = block
    thetas = np.where(fixed_mask, fv, z)

    # _solve_pattern's KKT test, on the same floats.
    grad = 2.0 * (_accum_cols(h, np.where(free, thetas, 0.0)) + r[:, None])
    primal = ~(lower_mask & ~act) | (thetas >= lo - _TOL)
    dual = ~act | (grad >= -_TOL)
    ok &= primal.all(axis=1) & dual.all(axis=1)
    return _quad_values(h, thetas), thetas, ok


def solve_bound_qp_masked(
    h: np.ndarray,
    fixed_mask: np.ndarray,
    fixed_vals: np.ndarray,
    lower_mask: np.ndarray,
    lower_vals: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The bound-QP solver: stacked bound QPs of *mixed* patterns.

    One call solves ``B`` instances of the bound QP (module docstring),
    each with its own equality/lower-bound pattern — the shape of a whole
    tight-bound refresh, where every subset ``M`` contributes its stale
    partial combinations with ``M``'s fixed pattern and the unseen
    relations' distance bounds, and of a single completion (``B = 1``).

    Parameters
    ----------
    h:
        Shared Hessian ``(n, n)`` (the spread matrix depends only on the
        number of relations, never on ``M``).
    fixed_mask / fixed_vals:
        ``(B, n)`` boolean pattern and values; ``fixed_vals`` is read
        only where ``fixed_mask`` is set.
    lower_mask / lower_vals:
        ``(B, n)`` boolean pattern and per-entry lower bounds, read only
        where ``lower_mask`` is set.  Coordinates in neither mask are
        unconstrained.

    Returns
    -------
    (values, thetas, enumerated):
        ``values[b] = theta_b' H theta_b``, the optima ``(B, n)``, and a
        ``(B,)`` boolean mask of the rows solved by the active-set
        enumeration instead of the closed form.

    Notes
    -----
    When ``h`` has the spread form (:func:`spread_matrix` always does)
    and is positive definite, every row is first solved in closed form by
    :func:`_solve_water_level`, all patterns in one pass.  Rows it does
    not accept — a lower bound within its degeneracy guard of the water
    level, a failed KKT test — and every row of any other ``h`` (``n =
    1``, singular ``w_q = 0``, non-spread) are grouped by their
    ``(fixed, lower)`` bit pattern and run the vectorised active-set
    enumeration of :func:`_solve_pattern`.  Both paths use the row-stable
    helpers (module docstring), so every entry is bit-identical to the
    enumeration regardless of how entries are grouped or ordered.
    """
    h = np.asarray(h, dtype=float)
    n = h.shape[0]
    fixed_mask = np.atleast_2d(np.asarray(fixed_mask, dtype=bool))
    lower_mask = np.atleast_2d(np.asarray(lower_mask, dtype=bool))
    fixed_vals = np.atleast_2d(np.asarray(fixed_vals, dtype=float))
    lower_vals = np.atleast_2d(np.asarray(lower_vals, dtype=float))
    num_entries = fixed_mask.shape[0]
    for name, arr in (
        ("fixed_mask", fixed_mask),
        ("fixed_vals", fixed_vals),
        ("lower_mask", lower_mask),
        ("lower_vals", lower_vals),
    ):
        if arr.shape != (num_entries, n):
            raise ValueError(f"{name} must have shape (B, n)={num_entries, n}")
    if (fixed_mask & lower_mask).any():
        raise ValueError("fixed and lower masks must be disjoint")

    spread = _spread_form(h) if num_entries else None
    if spread is not None:
        values, thetas, ok = _solve_water_level(
            h, *spread, fixed_mask, fixed_vals, lower_mask, lower_vals
        )
        enumerated = ~ok
    else:
        values = np.empty(num_entries)
        thetas = np.empty((num_entries, n))
        enumerated = np.ones(num_entries, dtype=bool)
    rest = np.flatnonzero(enumerated)
    if rest.size:
        weights = 1 << np.arange(n, dtype=np.int64)
        keys = (fixed_mask[rest] @ weights) << n | (lower_mask[rest] @ weights)
        for key in np.unique(keys):
            rows = rest[keys == key]
            fidx = np.flatnonzero(fixed_mask[rows[0]])
            lidx = np.flatnonzero(lower_mask[rows[0]])
            uidx = np.flatnonzero(~fixed_mask[rows[0]] & ~lower_mask[rows[0]])
            values[rows], thetas[rows] = _solve_pattern(
                h,
                [int(i) for i in fidx],
                fixed_vals[np.ix_(rows, fidx)],
                [int(i) for i in lidx],
                lower_vals[np.ix_(rows, lidx)],
                [int(i) for i in uidx],
            )
    return values, thetas, enumerated


def solve_qp(
    q: np.ndarray,
    c: np.ndarray,
    a: np.ndarray | None = None,
    b: np.ndarray | None = None,
    *,
    x0: np.ndarray | None = None,
    max_iter: int = 200,
) -> QPResult:
    """Minimise ``1/2 x' Q x + c' x`` subject to ``A x <= b``.

    A generic dense primal active-set method for small convex QPs.  Used
    by the tests as an oracle independent of the bound-QP solvers.
    ``x0`` must be feasible; if omitted, an unconstrained minimiser is
    tried and, failing feasibility, a simple phase-1 push is applied.
    """
    q = np.asarray(q, dtype=float)
    c = np.asarray(c, dtype=float)
    n = len(c)
    if a is None or len(a) == 0:
        x = _solve_psd(q, -c)
        return QPResult(x=x, value=float(0.5 * x @ q @ x + c @ x), active=(), iterations=0)
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.asarray(b, dtype=float)
    m = len(b)

    if x0 is None:
        x = _solve_psd(q, -c)
        if (a @ x > b + _TOL).any():
            # Phase 1: move towards feasibility by solving a least-squares
            # projection onto the violated constraints, iterating a few
            # times.  Adequate for the well-conditioned systems in this
            # library; callers with tricky geometry should pass x0.
            for _ in range(50):
                viol = a @ x - b
                bad = viol > _TOL
                if not bad.any():
                    break
                corr = np.linalg.lstsq(a[bad], viol[bad], rcond=None)[0]
                x = x - corr
            if (a @ x > b + 1e-6).any():
                raise ValueError("could not find a feasible starting point; pass x0")
    else:
        x = np.asarray(x0, dtype=float).copy()
        if (a @ x > b + 1e-7).any():
            raise ValueError("x0 is infeasible")

    active: set[int] = set(i for i in range(m) if abs(a[i] @ x - b[i]) <= _TOL)
    iterations = 0
    for iterations in range(1, max_iter + 1):
        act = sorted(active)
        # Solve the equality-constrained subproblem via KKT system.
        if act:
            aa = a[act]
            kkt = np.block(
                [[q, aa.T], [aa, np.zeros((len(act), len(act)))]]
            )
            rhs = np.concatenate([-c, b[act]])
            sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
            x_eq = sol[:n]
            lam = sol[n:]
        else:
            x_eq = _solve_psd(q, -c)
            lam = np.zeros(0)

        direction = x_eq - x
        if np.linalg.norm(direction) <= _TOL * (1.0 + np.linalg.norm(x)):
            # At the working-set minimiser; check multipliers.
            if len(lam) == 0 or lam.min() >= -_TOL:
                break
            active.remove(act[int(np.argmin(lam))])
            continue

        # Line search to the nearest violated inactive constraint.
        step = 1.0
        blocker = -1
        for i in range(m):
            if i in active:
                continue
            ad = a[i] @ direction
            if ad > _TOL:
                alpha = (b[i] - a[i] @ x) / ad
                if alpha < step - _TOL:
                    step = max(alpha, 0.0)
                    blocker = i
        x = x + step * direction
        if blocker >= 0:
            active.add(blocker)
    return QPResult(
        x=x,
        value=float(0.5 * x @ q @ x + c @ x),
        active=tuple(sorted(active)),
        iterations=iterations,
    )

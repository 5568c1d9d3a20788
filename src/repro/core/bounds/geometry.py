"""Geometry of the tight bound for quadratic-form scorings (Sec. 3.2.1).

Everything here is for aggregation functions of the paper's shape (2):

    S(tau) = sum_i w_s u(sigma_i) - w_q ||x_i - q||^2 - w_mu ||x_i - mu||^2

For a partial combination ``tau`` over a subset ``M`` (|M| = m) with
partial centroid ``nu``, completing it optimally with unseen tuples
constrained to ``||y_i - q|| >= delta_i`` reduces — by the collinearity
Theorem 3.4 — to the 1-D convex QP (14): unseen positions live on the ray
from ``q`` through ``nu``, seen tuples are represented by their projection
``theta_i = P(x_i)`` (eq. 13) onto that ray, and the objective becomes

    sum w_s u(...)  -  theta' H theta  -  (w_q + w_mu) * sum_i r_i^2

where ``H`` is the spread matrix of eq. (31) and ``r_i`` are the seen
tuples' orthogonal residuals w.r.t. the ray.  The paper folds the residual
term into the constant of (14); it must be restored when reporting
``t(tau)`` (it is what makes the paper's Table 3 value -16.0 rather than
-15.2 for ``tau_1^1 x tau_3^1``).

The module exposes:

* :func:`solve_completion` — distance-based bound ``t(tau)`` + optimum.
* :func:`score_access_completion` — score-based bound (Appendix C.2,
  closed form 41, no constraints).
* :func:`unconstrained_optimum` — closed form (11)/(29).
* :func:`dominance_coefficients` — the ``(b, c)`` of Section 3.2.2 whose
  half-spaces define dominance regions.
* :func:`completion_terms` — the batched per-entry geometry, score term
  and ``(b, c)`` the tight bound caches for every partial combination.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.scoring import QuadraticFormScoring
from repro.optim.qp import solve_bound_qp_masked, spread_matrix

__all__ = [
    "PartialGeometry",
    "CompletionResult",
    "partial_geometry",
    "unconstrained_optimum",
    "completion_terms",
    "solve_completion",
    "solve_completion_batch",
    "score_access_completion",
    "score_access_completion_batch",
    "dominance_coefficients",
]

_EPS = 1e-12


@dataclass(frozen=True)
class PartialGeometry:
    """Query-centred geometry of a partial combination.

    Attributes
    ----------
    nu:
        Partial centroid ``nu - q`` (query-centred); zero vector if m = 0.
    direction:
        Unit vector of the ray from ``q`` through ``nu``.  When
        ``nu == q`` every direction yields the same bound (the seen
        projections sum to zero, cancelling all cross terms), so an
        arbitrary axis is used.
    projections:
        ``theta_i = P(x_i)`` of eq. (13) for the seen tuples, in the order
        they were supplied.
    residual_sq:
        ``sum_i ||x_i - q - theta_i * direction||^2`` — the orthogonal
        residual the QP constant must carry.
    """

    nu: np.ndarray
    direction: np.ndarray
    projections: tuple[float, ...]
    residual_sq: float


def partial_geometry(vectors: np.ndarray, query: np.ndarray) -> PartialGeometry:
    """Compute ray direction, projections and residuals for seen tuples."""
    query = np.asarray(query, dtype=float)
    pts = np.atleast_2d(np.asarray(vectors, dtype=float)) - query
    if pts.shape[0] == 0:
        d = len(query)
        direction = np.zeros(d)
        direction[0] = 1.0
        return PartialGeometry(
            nu=np.zeros(d), direction=direction, projections=(), residual_sq=0.0
        )
    nu = pts.mean(axis=0)
    norm = float(np.linalg.norm(nu))
    if norm > _EPS:
        direction = nu / norm
    else:
        # nu == q: the objective is rotation-invariant around q (the seen
        # projections sum to 0), so any axis gives the same optimum value.
        direction = np.zeros(len(query))
        direction[0] = 1.0
    theta = pts @ direction
    residual = pts - np.outer(theta, direction)
    residual_sq = float(np.einsum("ij,ij->", residual, residual))
    return PartialGeometry(
        nu=nu,
        direction=direction,
        projections=tuple(float(t) for t in theta),
        residual_sq=residual_sq,
    )


@dataclass(frozen=True)
class CompletionResult:
    """Outcome of completing a partial combination optimally.

    Attributes
    ----------
    value:
        The upper bound ``t(tau)``.
    theta:
        Optimal signed distances from ``q`` along the ray, one per
        relation (seen tuples hold their projections).
    positions:
        Optimal unseen locations ``y_i^*`` (eq. 15), keyed by relation
        index.
    """

    value: float
    theta: np.ndarray
    positions: dict[int, np.ndarray]


def unconstrained_optimum(
    scoring: QuadraticFormScoring, n: int, m: int, nu_centred: np.ndarray
) -> np.ndarray:
    """Closed form (11)/(29)/(41): the unconstrained completion optimum.

    Returns the query-centred ``y* = (nu - q) * m w_mu / (m w_mu + n w_q)``
    shared by all unseen tuples.  For ``m = 0`` (or ``w_mu = 0``) this is
    the query itself.  If both weights are zero the position is
    irrelevant; the query is returned.
    """
    denom = m * scoring.w_mu + n * scoring.w_q
    if m == 0 or denom <= _EPS:
        return np.zeros_like(np.asarray(nu_centred, dtype=float))
    return np.asarray(nu_centred, dtype=float) * (m * scoring.w_mu / denom)


def solve_completion(
    scoring: QuadraticFormScoring,
    n: int,
    query: np.ndarray,
    seen: dict[int, tuple[float, np.ndarray]],
    unseen_delta: dict[int, float],
    unseen_sigma: dict[int, float],
) -> CompletionResult:
    """Distance-based tight bound ``t(tau)`` for one partial combination.

    Parameters
    ----------
    scoring:
        A quadratic-form scoring (paper eq. 2 family).
    n:
        Number of relations in the join.
    query:
        Query vector ``q``.
    seen:
        ``{relation_index: (score, vector)}`` for the members of the
        partial combination (the set ``M``).
    unseen_delta:
        ``{relation_index: delta_i}`` lower bounds on the distance of
        unseen tuples (the last-access distances; 0 when ``p_i = 0``).
    unseen_sigma:
        ``{relation_index: sigma}`` score upper bound used for each unseen
        tuple (``sigma_i^max`` for distance access).

    Returns
    -------
    CompletionResult
        ``value`` is ``t(tau)``; ``theta`` and ``positions`` describe the
        maximiser (useful for the cache-revalidation fast path and for
        visualisation, cf. Figure 1(b)).
    """
    if set(seen) & set(unseen_delta):
        raise ValueError("a relation cannot be both seen and unseen")
    if len(seen) + len(unseen_delta) != n:
        raise ValueError("seen and unseen must partition the n relations")
    if set(unseen_delta) != set(unseen_sigma):
        raise ValueError("unseen_delta and unseen_sigma must share keys")

    m = len(seen)
    geo = partial_geometry(
        np.array([seen[i][1] for i in sorted(seen)], dtype=float).reshape(m, -1)
        if m
        else np.zeros((0, len(query))),
        query,
    )
    # One row for the QP solver: the members pinned at their projections,
    # every other relation bounded below by its delta (each mask reads
    # ``vals`` only where it is set).
    fixed = np.zeros((1, n), dtype=bool)
    fixed[0, sorted(seen)] = True
    vals = np.zeros((1, n))
    vals[0, sorted(seen)] = geo.projections
    for j, delta in unseen_delta.items():
        vals[0, j] = delta
    h = spread_matrix(n, scoring.w_q, scoring.w_mu)
    qp_vals, thetas, _ = solve_bound_qp_masked(h, fixed, vals, ~fixed, vals)
    qp_value, theta = float(qp_vals[0]), thetas[0]

    score_term = scoring.w_s * (
        sum(scoring.score_utility(seen[i][0]) for i in seen)
        + sum(scoring.score_utility(unseen_sigma[j]) for j in unseen_sigma)
    )
    value = score_term - qp_value - (scoring.w_q + scoring.w_mu) * geo.residual_sq

    query = np.asarray(query, dtype=float)
    positions = {
        j: query + theta[j] * geo.direction for j in unseen_delta
    }
    return CompletionResult(value=value, theta=theta, positions=positions)


def completion_terms(
    scoring: QuadraticFormScoring,
    n: int,
    query: np.ndarray,
    scores: np.ndarray,
    vectors: np.ndarray,
    unseen_utility: float | np.ndarray,
    *,
    dominance: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None, np.ndarray | None]:
    """Per-entry completion terms of partial combinations with ``m``
    members each: the pre-QP half of :func:`solve_completion_batch` and,
    with ``dominance``, the batched :func:`dominance_coefficients`.

    ``scores`` has shape ``(E, m)`` and ``vectors`` ``(E, m, d)``, columns
    in member order; rows may belong to different subsets of the same
    size.  ``unseen_utility`` is the summed score utility
    ``sum_j u(sigma_j)`` of the unseen relations, shared or per entry.

    Returns ``(proj, residual_sq, score_term, b, c)``: the seen
    projections ``(E, m)`` (the QP's equality values), the orthogonal
    residuals ``(E,)``, the summed score-utility term ``(E,)``, and the
    dominance coefficients ``b (E, d)`` and ``c (E,)`` (``None`` without
    ``dominance``).  Every entry's terms depend only on its own row (for
    a fixed ``(m, d)``), so the tight bound computes them once per subset
    size and refresh, and gathers them for every later solve.
    """
    scores = np.asarray(scores, dtype=float)
    xs = np.asarray(vectors, dtype=float) - query  # (E, m, d)
    num_entries, m = scores.shape
    w_s, w_q, w_mu = scoring.w_s, scoring.w_q, scoring.w_mu

    if m > 0:
        # The reductions are spelled out as the ufunc calls that
        # ``mean`` and ``np.linalg.norm`` make (same floats, fewer calls).
        utility = np.add.reduce(scoring.score_utility_array(scores), axis=1)
        nu = np.add.reduce(xs, axis=1) / m  # (E, d)
        norms = np.sqrt(np.add.reduce(nu * nu, axis=1))
        good = norms > _EPS
        direction = nu / np.where(good, norms, 1.0)[:, None]
        if not good.all():
            # nu == q: the bound is rotation-invariant, so any axis.
            direction[~good] = 0.0
            direction[~good, 0] = 1.0
        proj = np.einsum("emd,ed->em", xs, direction)  # (E, m)
        norm_sq = np.einsum("emd,emd->e", xs, xs)
        residual_sq = norm_sq - np.einsum("em,em->e", proj, proj)
    else:
        utility = np.zeros(num_entries)
        proj = np.zeros((num_entries, 0))
        residual_sq = np.zeros(num_entries)
    score_term = w_s * (utility + unseen_utility)
    if not dominance:
        return proj, residual_sq, score_term, None, None

    if m == 0:
        # Single empty partial combination per M = {}: nothing to compare.
        b = np.zeros((num_entries, xs.shape[2]))
        c = -w_s * (utility + unseen_utility)
        return proj, residual_sq, score_term, b, c
    b = -w_mu * (n - m) * (m / n) * nu
    shifted = xs - (m / n) * nu[:, None, :]
    c = (
        w_mu * (n - m) * (m * m) / (n * n) * np.einsum("ed,ed->e", nu, nu)
        + w_mu * np.einsum("emd,emd->e", shifted, shifted)
        + w_q * norm_sq
        - w_s * utility
        - w_s * unseen_utility
    )
    return proj, residual_sq, score_term, b, c


def solve_completion_batch(
    scoring: QuadraticFormScoring,
    n: int,
    query: np.ndarray,
    member_idx: list[int],
    scores: np.ndarray,
    vectors: np.ndarray,
    unseen_delta: dict[int, float],
    unseen_sigma: dict[int, float],
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised :func:`solve_completion` for many partial combinations
    of the *same* subset ``M`` (the tight bound's hot loop).

    Parameters
    ----------
    member_idx:
        The relation indices of ``M`` (sorted).
    scores / vectors:
        Per-entry member scores ``(E, m)`` and positions ``(E, m, d)``,
        columns aligned with ``member_idx``.
    unseen_delta / unseen_sigma:
        As in :func:`solve_completion` — shared by all entries.

    Returns
    -------
    (values, thetas):
        ``t(tau)`` per entry and the optimal theta vectors ``(E, n)``.
    """
    unseen_utility = sum(
        scoring.score_utility(unseen_sigma[j]) for j in sorted(unseen_sigma)
    )
    if sorted([*member_idx, *unseen_delta]) != list(range(n)):
        raise ValueError(
            "member_idx and unseen_delta must partition the n relations"
        )
    proj, residual_sq, score_term, _, _ = completion_terms(
        scoring, n, query, scores, vectors, unseen_utility, dominance=False
    )
    num_entries = len(proj)
    fixed = np.zeros((num_entries, n), dtype=bool)
    fixed[:, member_idx] = True
    fixed_vals = np.zeros((num_entries, n))
    fixed_vals[:, member_idx] = proj
    lower_vals = np.zeros(n)
    for j, delta in unseen_delta.items():
        lower_vals[j] = delta
    h = spread_matrix(n, scoring.w_q, scoring.w_mu)
    qp_vals, thetas, _ = solve_bound_qp_masked(
        h, fixed, fixed_vals, ~fixed, np.broadcast_to(lower_vals, (num_entries, n))
    )
    values = score_term - qp_vals - (scoring.w_q + scoring.w_mu) * residual_sq
    return values, thetas


def score_access_completion(
    scoring: QuadraticFormScoring,
    n: int,
    query: np.ndarray,
    seen: dict[int, tuple[float, np.ndarray]],
    unseen_sigma: dict[int, float],
) -> CompletionResult:
    """Score-based tight bound ``t^s(tau)`` (Appendix C.2).

    Unseen tuples carry the last-seen score of their relation and are
    *unconstrained* in space, so the optimum is the closed form (41): all
    unseen tuples collapse onto ``y* = q + (nu - q) m w_mu / (m w_mu + n w_q)``.
    """
    if len(seen) + len(unseen_sigma) != n:
        raise ValueError("seen and unseen must partition the n relations")
    query = np.asarray(query, dtype=float)
    m = len(seen)
    seen_vecs = (
        np.array([seen[i][1] for i in sorted(seen)], dtype=float).reshape(m, -1)
        if m
        else np.zeros((0, len(query)))
    )
    nu_centred = seen_vecs.mean(axis=0) - query if m else np.zeros(len(query))
    y_star = unconstrained_optimum(scoring, n, m, nu_centred) + query

    # Full-combination centroid with all unseen at y*.
    mu = (m * (nu_centred + query) + (n - m) * y_star) / n if n else query
    weighted: list[float] = []
    for k, i in enumerate(sorted(seen)):
        score, vec = seen[i]
        weighted.append(
            scoring.weighted_score(
                i,
                score,
                float(np.linalg.norm(np.asarray(vec, dtype=float) - query)),
                float(np.linalg.norm(np.asarray(vec, dtype=float) - mu)),
            )
        )
    dq = float(np.linalg.norm(y_star - query))
    dmu = float(np.linalg.norm(y_star - mu))
    for j in sorted(unseen_sigma):
        weighted.append(scoring.weighted_score(j, unseen_sigma[j], dq, dmu))
    theta = np.zeros(n)
    geo = partial_geometry(seen_vecs, query)
    for k, i in enumerate(sorted(seen)):
        theta[i] = geo.projections[k]
    for j in unseen_sigma:
        theta[j] = float(np.linalg.norm(y_star - query))
    return CompletionResult(
        value=scoring.aggregate(weighted),
        theta=theta,
        positions={j: y_star.copy() for j in unseen_sigma},
    )


def score_access_completion_batch(
    scoring: QuadraticFormScoring,
    n: int,
    query: np.ndarray,
    scores: np.ndarray,
    vectors: np.ndarray,
    unseen_sigma: dict[int, float],
) -> np.ndarray:
    """Vectorised :func:`score_access_completion` values for many partial
    combinations of the *same* subset ``M`` (the score-access hot loop).

    ``scores`` has shape ``(E, m)`` and ``vectors`` ``(E, m, d)``, columns
    in member order; ``unseen_sigma`` is shared by all entries.  Returns
    the ``(E,)`` bound values ``t^s(tau)``.  Only the values are needed in
    bulk (Algorithm 3 keeps a single incumbent per subset), so the
    maximiser geometry of :class:`CompletionResult` is not materialised.

    Arithmetic mirrors the scalar path operation for operation — centroid
    mean before query-centring, norms taken then squared, weighted terms
    accumulated in relation order — so values match the per-entry
    evaluation to float-associativity noise.
    """
    if vectors.ndim != 3:
        raise ValueError(f"vectors must be (E, m, d), got shape {vectors.shape}")
    query = np.asarray(query, dtype=float)
    scores = np.atleast_2d(np.asarray(scores, dtype=float))
    vectors = np.asarray(vectors, dtype=float)
    num_entries, m = scores.shape
    if m + len(unseen_sigma) != n:
        raise ValueError("seen and unseen must partition the n relations")
    w_s, w_q, w_mu = scoring.w_s, scoring.w_q, scoring.w_mu

    if m:
        nu_centred = vectors.mean(axis=1) - query  # (E, d)
    else:
        nu_centred = np.zeros((num_entries, len(query)))
    denom = m * w_mu + n * w_q
    factor = (m * w_mu / denom) if (m and denom > _EPS) else 0.0
    y_star = nu_centred * factor + query  # closed form (41), query frame
    mu = (m * (nu_centred + query) + (n - m) * y_star) / n if n else query

    values = np.zeros(num_entries)
    if m:
        u_seen = scoring.score_utility_array(scores)  # (E, m)
        for r in range(m):
            dq = np.linalg.norm(vectors[:, r] - query, axis=1)
            dmu = np.linalg.norm(vectors[:, r] - mu, axis=1)
            values = values + (
                w_s * u_seen[:, r] - w_q * dq * dq - w_mu * dmu * dmu
            )
    dq_u = np.linalg.norm(y_star - query, axis=1)
    dmu_u = np.linalg.norm(y_star - mu, axis=1)
    for j in sorted(unseen_sigma):
        u_j = scoring.score_utility(unseen_sigma[j])
        values = values + (w_s * u_j - w_q * dq_u * dq_u - w_mu * dmu_u * dmu_u)
    return values


def dominance_coefficients(
    scoring: QuadraticFormScoring,
    n: int,
    query: np.ndarray,
    seen: dict[int, tuple[float, np.ndarray]],
    unseen_sigma: dict[int, float],
) -> tuple[np.ndarray, float]:
    """Coefficients ``(b, c)`` of Section 3.2.2 for a partial combination.

    With all unseen tuples at the common (query-centred) location ``y``,
    the completion objective is ``f(y) = -(a y'y + 2 b'y + c)``; the
    quadratic coefficient ``a`` (eq. 24) is shared by every partial
    combination of the same subset ``M``, so the dominance region
    ``{y : f_alpha(y) >= f_beta(y)}`` is the half-space
    ``2 (b_alpha - b_beta)' y <= c_beta - c_alpha`` (eq. 16).

    Derivation of ``c`` (eq. 26 with the score constants restored):

        c = w_mu (n-m) m^2/n^2 * nu'nu
          + w_mu sum_{i in M} ||x_i - (m/n) nu||^2
          + w_q  sum_{i in M} ||x_i||^2
          - w_s  sum_{i in M} u(sigma_i)
          - w_s  sum_{j not in M} u(sigma_j^max)

    (all vectors query-centred).
    """
    query = np.asarray(query, dtype=float)
    m = len(seen)
    if m == 0:
        # Single empty partial combination per M = {} — nothing to compare.
        c0 = -scoring.w_s * sum(
            scoring.score_utility(unseen_sigma[j]) for j in unseen_sigma
        )
        return np.zeros(len(query)), float(c0)
    xs = np.array([seen[i][1] for i in sorted(seen)], dtype=float) - query
    nu = xs.mean(axis=0)
    w_s, w_q, w_mu = scoring.w_s, scoring.w_q, scoring.w_mu
    b = -w_mu * (n - m) * (m / n) * nu
    shifted = xs - (m / n) * nu
    c = (
        w_mu * (n - m) * (m * m) / (n * n) * float(nu @ nu)
        + w_mu * float(np.einsum("ij,ij->", shifted, shifted))
        + w_q * float(np.einsum("ij,ij->", xs, xs))
        - w_s * sum(scoring.score_utility(seen[i][0]) for i in seen)
        - w_s * sum(scoring.score_utility(unseen_sigma[j]) for j in unseen_sigma)
    )
    return b, float(c)

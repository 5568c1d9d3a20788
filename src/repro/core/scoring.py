"""Aggregation functions ``S(tau) = f(g_1(...), ..., g_n(...))``.

The paper's Section 2 defines the aggregate score of a combination via an
outer function ``f`` (monotone non-decreasing in every argument) and
per-relation proximity weighting functions ``g_i(score, dist_q, dist_mu)``
(non-decreasing in the score, non-increasing in both distances).  The
centroid ``mu(tau)`` minimises the summed distance to the members.

:class:`EuclideanLogScoring` is the concrete function of paper eq. (2),

    S(tau) = sum_i  w_s ln(sigma_i) - w_q ||x_i - q||^2 - w_mu ||x_i - mu||^2,

for which the tight bound has the closed-form/QP structure of Sec. 3.2.1.
:class:`LinearScoring` replaces ``ln`` with identity (used in Appendix C.2
and convenient when scores may be 0).

Every combination of the quadratic family is scored by one kernel,
:meth:`QuadraticFormScoring.score_rows`: the engine's batch scorer calls it
on its admitted cohort and :meth:`~Scoring.make_combination` (and hence the
brute-force oracle) on a batch of one.  Its arithmetic is *row-stable*
(see the method), so a row's float is the same alone or in any batch, and
engine and oracle agree with ``==``.  :class:`CosineProximityScoring`
implements the cosine-similarity variant the paper lists as future work;
it is supported by the numeric fallback bound.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from repro.core.relation import Combination, RankTuple
from repro.spatial.metrics import cosine_distance, euclidean, geometric_median, mean_centroid

__all__ = [
    "Scoring",
    "QuadraticFormScoring",
    "EuclideanLogScoring",
    "LinearScoring",
    "CosineProximityScoring",
]


class Scoring(ABC):
    """Interface every aggregation function implements.

    Concrete scorings define ``f`` via :meth:`aggregate`, the ``g_i`` via
    :meth:`weighted_score`, the distance ``delta`` via :meth:`distance`
    and the centroid ``mu`` via :meth:`centroid`.
    """

    @abstractmethod
    def aggregate(self, weighted_scores: Sequence[float]) -> float:
        """The outer function ``f`` (monotone non-decreasing)."""

    @abstractmethod
    def weighted_score(self, i: int, score: float, dist_q: float, dist_mu: float) -> float:
        """The proximity weighting function ``g_i``."""

    @abstractmethod
    def distance(self, x: np.ndarray, y: np.ndarray) -> float:
        """The metric ``delta`` used for query and centroid distances."""

    @abstractmethod
    def centroid(self, points: np.ndarray) -> np.ndarray:
        """``mu = arg min_w sum_i delta-cost(x_i, w)`` for this scoring."""

    def score_combination(self, tuples: Sequence[RankTuple], query: np.ndarray) -> float:
        """Aggregate score ``S(tau)`` of a full combination."""
        pts = np.array([t.vector for t in tuples], dtype=float)
        mu = self.centroid(pts)
        weighted = [
            self.weighted_score(
                i,
                t.score,
                self.distance(t.vector, query),
                self.distance(t.vector, mu),
            )
            for i, t in enumerate(tuples)
        ]
        return self.aggregate(weighted)

    def make_combination(
        self, tuples: Sequence[RankTuple], query: np.ndarray
    ) -> Combination:
        """Build a scored :class:`Combination`."""
        return Combination(tuple(tuples), self.score_combination(tuples, query))


class QuadraticFormScoring(Scoring):
    """Base for scorings of the shape

        S(tau) = sum_i  w_s * u(sigma_i) - w_q d(x_i,q)^2 - w_mu d(x_i,mu)^2

    with Euclidean ``d`` and a monotone score transform ``u``.  This is the
    family for which the paper's Section 3.2.1 closed forms apply: the
    tight bound reduces to the 1-D convex QP (14), the unconstrained
    completion has the closed form (11)/(41), and dominance regions are
    half-spaces.

    Subclasses fix ``u`` via :meth:`score_utility`; every combination
    is scored by :meth:`score_rows`.
    """

    #: Flag the tight-bound machinery keys on to use the QP fast path.
    supports_quadratic_bound = True

    def __init__(self, w_s: float = 1.0, w_q: float = 1.0, w_mu: float = 1.0) -> None:
        if min(w_s, w_q, w_mu) < 0:
            raise ValueError("weights must be non-negative")
        self.w_s = float(w_s)
        self.w_q = float(w_q)
        self.w_mu = float(w_mu)

    @abstractmethod
    def score_utility(self, scores: float | np.ndarray) -> np.ndarray:
        """The transform ``u`` applied to raw scores (monotone).

        Elementwise over a scalar or an array of any shape; one numpy
        ufunc, so an element's value does not depend on its neighbours.
        """

    def score_rows(self, scores: np.ndarray, centred: np.ndarray) -> np.ndarray:
        """Eq. (2) for ``B`` combinations: ``scores (B, n)`` holds the
        members' raw scores and ``centred (B, n, d)`` their query-centred
        vectors ``c_i = x_i - q``, both in relation order.

        The score is evaluated directly, not in the batch scorer's
        separated form (which cancels ``-w_mu sum ||c_i||^2`` against
        ``(w_mu/n) ||sum c_i||^2``):

        * ``cbar = (sum_i c_i) / n``, summed in relation order;
        * ``||c_i||^2`` and ``||c_i - cbar||^2``, each summed over the
          coordinates in index order (no square root taken and squared
          again);
        * ``w_s u(sigma_i) - w_q ||c_i||^2 - w_mu ||c_i - cbar||^2``
          per member, summed in relation order.

        Only elementwise numpy operations run, each correctly rounded
        per element, and every sum is an explicit loop over one axis:
        no BLAS, ``einsum`` or norm reduction whose association could
        depend on the batch's shape.  So a row's float is the same alone,
        in any batch and at any position in it.  Returns ``(B,)``.
        """
        n, d = centred.shape[1], centred.shape[2]
        cbar = centred[:, 0]
        for i in range(1, n):
            cbar = cbar + centred[:, i]
        cbar = cbar / n
        sq = centred * centred
        dev = centred - cbar[:, None, :]
        dev = dev * dev
        near = sq[..., 0]
        spread = dev[..., 0]
        for k in range(1, d):
            near = near + sq[..., k]
            spread = spread + dev[..., k]
        terms = (
            self.w_s * self.score_utility(scores)
            - self.w_q * near
            - self.w_mu * spread
        )
        total = terms[:, 0]
        for i in range(1, n):
            total = total + terms[:, i]
        return total

    def score_combination(self, tuples: Sequence[RankTuple], query: np.ndarray) -> float:
        """``S(tau)``: :meth:`score_rows` on a batch of one."""
        scores = np.array([[t.score for t in tuples]], dtype=float)
        vectors = np.array([[t.vector for t in tuples]], dtype=float)
        return float(self.score_rows(scores, vectors - query)[0])

    def aggregate(self, weighted_scores: Sequence[float]) -> float:
        return float(sum(weighted_scores))

    def weighted_score(self, i: int, score: float, dist_q: float, dist_mu: float) -> float:
        return (
            self.w_s * self.score_utility(score)
            - self.w_q * dist_q * dist_q
            - self.w_mu * dist_mu * dist_mu
        )

    def distance(self, x: np.ndarray, y: np.ndarray) -> float:
        return euclidean(x, y)

    def centroid(self, points: np.ndarray) -> np.ndarray:
        # Minimiser of the summed *squared* Euclidean distances, which is
        # the cost the quadratic form charges (Appendix B.3 expands mu as
        # the arithmetic mean).
        return mean_centroid(points)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(w_s={self.w_s}, w_q={self.w_q}, w_mu={self.w_mu})"
        )


class EuclideanLogScoring(QuadraticFormScoring):
    """Paper eq. (2): ``u(sigma) = ln(sigma)`` — requires positive scores."""

    def score_utility(self, scores: float | np.ndarray) -> np.ndarray:
        scores = np.asarray(scores, dtype=float)
        if scores.size and float(scores.min()) <= 0.0:
            raise ValueError(
                "EuclideanLogScoring needs strictly positive scores, got "
                f"{float(scores.min())}"
            )
        return np.log(scores)


class LinearScoring(QuadraticFormScoring):
    """``u(sigma) = sigma`` — the variant used in Appendix C.2."""

    def score_utility(self, scores: float | np.ndarray) -> np.ndarray:
        return np.asarray(scores, dtype=float)


class CosineProximityScoring(Scoring):
    """Cosine-similarity proximity (the paper's future-work extension).

        g_i(sigma, dq, dm) = w_s * sigma - w_q * dq - w_mu * dm

    with ``delta`` the cosine distance and the centroid the geometric
    median under that geometry (approximated by the normalised mean, the
    standard spherical centroid).  No closed-form tight bound exists; the
    numeric bounding fallback handles it.
    """

    supports_quadratic_bound = False

    def __init__(self, w_s: float = 1.0, w_q: float = 1.0, w_mu: float = 1.0) -> None:
        if min(w_s, w_q, w_mu) < 0:
            raise ValueError("weights must be non-negative")
        self.w_s = float(w_s)
        self.w_q = float(w_q)
        self.w_mu = float(w_mu)

    def aggregate(self, weighted_scores: Sequence[float]) -> float:
        return float(sum(weighted_scores))

    def weighted_score(self, i: int, score: float, dist_q: float, dist_mu: float) -> float:
        return self.w_s * score - self.w_q * dist_q - self.w_mu * dist_mu

    def distance(self, x: np.ndarray, y: np.ndarray) -> float:
        return cosine_distance(x, y)

    def centroid(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        norms = np.linalg.norm(pts, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        mean_dir = (pts / norms).mean(axis=0)
        n = np.linalg.norm(mean_dir)
        if n == 0.0:
            # Antipodal degenerate case: fall back to the Euclidean median.
            return geometric_median(pts)
        return mean_dir / n

    def __repr__(self) -> str:
        return (
            f"CosineProximityScoring(w_s={self.w_s}, w_q={self.w_q}, w_mu={self.w_mu})"
        )

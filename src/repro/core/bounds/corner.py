"""The corner bound (HRJN's bounding scheme), Section 3.1 / Appendix C.

Distance-based access (eq. 3):

    t_c = max_i t_i,   t_i = f(S-bar_1, ..., S_i, ..., S-bar_n)

where ``S-bar_j = g_j(sigma_j^max, delta(x(R_j[1]), q), 0)`` bounds any
tuple of ``R_j`` and ``S_i = g_i(sigma_i^max, delta(x(R_i[p_i]), q), 0)``
bounds an *unseen* tuple of ``R_i``.  Distances default to 0 while
``p_i = 0``.  The centroid distance is always taken as 0 — the corner
bound is oblivious to the mutual-proximity geometry, which is exactly why
it is not tight (Theorem 3.1) and why HRJN-style algorithms over-read.

Score-based access (eq. 36) replaces distances by first/last scores with
all distances at 0.
"""

from __future__ import annotations

import time

from repro.core.access import AccessKind
from repro.core.bounds.base import NEG_INFINITY, BoundingScheme, EngineState
from repro.core.relation import RankTuple

__all__ = ["CornerBound"]


class CornerBound(BoundingScheme):
    """HRJN's corner bound for both access kinds."""

    def __init__(self) -> None:
        super().__init__()
        self._pots: list[float] = []

    def update(self, state: EngineState, i: int, tau: RankTuple) -> float:
        start = time.perf_counter()
        self.counters.updates += 1
        self._pots = [self._t_i(state, j) for j in range(state.n)]
        self.counters.bound_seconds += time.perf_counter() - start
        return max(self._pots, default=NEG_INFINITY)

    def potentials(self, state: EngineState) -> list[float]:
        if len(self._pots) != state.n:
            self._pots = [self._t_i(state, j) for j in range(state.n)]
        return list(self._pots)

    def _t_i(self, state: EngineState, i: int) -> float:
        """The term ``t_i``: bound over combinations completed with an
        unseen tuple of ``R_i`` (other slots bounded by their best seen
        or best possible tuple)."""
        stream_i = state.streams[i]
        if stream_i.exhausted:
            return NEG_INFINITY
        scoring = state.scoring
        weighted = []
        # Streams are duck-typed (local sorted access, merged shards or
        # the service simulator); only the paper-visible statistics are
        # used.
        for j, stream in enumerate(state.streams):
            if state.kind is AccessKind.DISTANCE:
                dist = stream.last_distance if j == i else stream.first_distance
                weighted.append(
                    scoring.weighted_score(j, stream.sigma_max, dist, 0.0)
                )
            else:
                score = stream.last_score if j == i else stream.first_score
                weighted.append(scoring.weighted_score(j, score, 0.0, 0.0))
        return scoring.aggregate(weighted)

"""Bounding-scheme interface (the ``BS`` of the ProxRJ template).

A bounding scheme observes the engine state after every pull and returns
an upper bound on the aggregate score of every *unseen* combination (one
using at least one unread tuple).  It additionally exposes per-relation
potentials ``pot_i`` — the upper bound restricted to combinations that
would use an unseen tuple of ``R_i`` — which drive the potential-adaptive
pulling strategy of Section 3.3.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.access import AccessKind
from repro.core.buffers import TopKBuffer
from repro.core.bounds.workspace import BoundWorkspace
from repro.core.relation import RankTuple
from repro.core.scoring import Scoring

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.access import AccessStream

__all__ = ["EngineState", "BoundingScheme", "BoundCounters"]

INFINITY = float("inf")
NEG_INFINITY = float("-inf")


@dataclass
class EngineState:
    """Everything a bounding scheme / pulling strategy may observe.

    This mirrors the information the paper grants the algorithm: the
    extracted prefixes (through the streams), the query, the scoring
    function, the result-size target and the output buffer.
    """

    scoring: Scoring
    kind: AccessKind
    query: np.ndarray
    streams: list["AccessStream"]
    k: int
    output: TopKBuffer
    #: Per-run scratch arena + memoisation shared by the bound stack
    #: (see :mod:`repro.core.bounds.workspace`).  The engine creates one
    #: per run; schemes driven without an engine fall back to a private
    #: instance.
    workspace: BoundWorkspace | None = None

    @property
    def n(self) -> int:
        """Number of joined relations."""
        return len(self.streams)

    def prefix_arrays(
        self, i: int, lo: int = 0, hi: int | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Columnar ``(vectors, scores, tids)`` of stream ``i``'s seen
        prefix rows ``[lo, hi)``, in access order: zero-copy slices of
        the stream's :class:`~repro.core.columnar.ColumnarPrefix`.
        Bounding schemes build their partial-combination batches from
        these instead of walking ``RankTuple`` objects.
        """
        return self.streams[i].prefix.arrays(lo, hi)

    def depths(self) -> list[int]:
        """Current depth ``p_i`` per relation."""
        return [s.depth for s in self.streams]

    def sum_depths(self) -> int:
        """The paper's sumDepths cost metric."""
        return sum(s.depth for s in self.streams)


@dataclass
class BoundCounters:
    """Work counters a bounding scheme accumulates (CPU-cost breakdown)."""

    updates: int = 0
    qp_solves: int = 0
    closed_form_evals: int = 0
    lp_solves: int = 0
    entries_created: int = 0
    entries_revalidated: int = 0
    entries_dominated: int = 0
    #: Strategy consultations of ``potentials`` vs. actual sweeps — the
    #: gap is the work the per-version memo saves (PA re-consults the
    #: bound once per block, the bound only changes once per refresh).
    potential_consults: int = 0
    potential_evals: int = 0
    #: Dominance candidates answered without an LP: rows the equal-slope
    #: screen flagged (a byte-identical ``b`` row with a smaller ``c``),
    #: and candidates certified by a cached witness still satisfying
    #: every constraint.
    dominance_screened: int = 0
    dominance_witness_hits: int = 0
    #: Bound-QP rows the masked kernel handed to its active-set
    #: enumeration instead of the closed form (degenerate rows, or a
    #: Hessian without the closed form, e.g. ``w_q = 0``).
    qp_enumerated: int = 0
    bound_seconds: float = 0.0
    dominance_seconds: float = 0.0
    #: Wall-clock inside the LP/QP solver kernels proper — the share of
    #: ``bound_seconds`` a faster solver could still win back.
    solver_seconds: float = 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "updates": self.updates,
            "qp_solves": self.qp_solves,
            "closed_form_evals": self.closed_form_evals,
            "lp_solves": self.lp_solves,
            "entries_created": self.entries_created,
            "entries_revalidated": self.entries_revalidated,
            "entries_dominated": self.entries_dominated,
            "potential_consults": self.potential_consults,
            "potential_evals": self.potential_evals,
            "dominance_screened": self.dominance_screened,
            "dominance_witness_hits": self.dominance_witness_hits,
            "qp_enumerated": self.qp_enumerated,
            "bound_seconds": self.bound_seconds,
            "dominance_seconds": self.dominance_seconds,
            "solver_seconds": self.solver_seconds,
        }


class BoundingScheme(ABC):
    """The ``BS`` interface of Algorithm 1."""

    def __init__(self) -> None:
        self.counters = BoundCounters()

    @abstractmethod
    def update(self, state: EngineState, i: int, tau: RankTuple) -> float:
        """Recompute the bound after ``tau`` was pulled from relation ``i``.

        Must return a correct upper bound on the aggregate score of every
        combination that uses at least one unseen tuple (``-inf`` when no
        such combination can exist).

        Engines may batch pulls (``bound_period`` > 1 or block-pull mode)
        and invoke this once per batch, with ``tau`` the *last* tuple
        pulled; schemes must therefore synchronise against the streams'
        seen prefixes rather than assume exactly one new tuple per call.
        """

    @abstractmethod
    def potentials(self, state: EngineState) -> list[float]:
        """``pot_i`` per relation: bound over combinations that would use
        an unseen tuple of ``R_i``.  Used by the PA pulling strategy."""

    @property
    def is_tight(self) -> bool:
        """Whether the scheme satisfies Definition 2.2 (documentation aid)."""
        return False

"""The four evaluated algorithm variants (Section 4.1, "Methods").

Bounding scheme x pulling strategy:

* ``CBRR`` — corner bound + round-robin  (= HRJN  of Ilyas et al.)
* ``CBPA`` — corner bound + potential-adaptive  (= HRJN*)
* ``TBRR`` — tight bound + round-robin (instance-optimal, Thm. 3.3)
* ``TBPA`` — tight bound + potential-adaptive (instance-optimal and
  never deeper than TBRR on any relation, Thm. 3.5 / Cor. 3.6)

Each helper builds a ready-to-run :class:`~repro.core.template.ProxRJ`;
the tight-bound helpers also take ``dominance_period``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.access import AccessKind
from repro.core.bounds.corner import CornerBound
from repro.core.bounds.tight import TightBound
from repro.core.pulling import PotentialAdaptive, RoundRobin
from repro.core.relation import Relation
from repro.core.scoring import Scoring
from repro.core.template import ProxRJ

__all__ = ["cbrr", "cbpa", "tbrr", "tbpa", "ALGORITHMS", "make_algorithm"]


def _build(
    relations: list[Relation],
    scoring: Scoring,
    query: np.ndarray,
    k: int,
    *,
    kind: AccessKind,
    tight: bool,
    adaptive: bool,
    dominance_period: int | None,
    bound_period: int,
    pull_block: int,
    vectorise: bool,
    stream_factory,
    max_pulls: int | None,
    should_stop,
) -> ProxRJ:
    bound = TightBound(dominance_period) if tight else CornerBound()
    pull = PotentialAdaptive() if adaptive else RoundRobin()
    return ProxRJ(
        relations,
        scoring,
        kind=kind,
        query=query,
        bound=bound,
        pull=pull,
        k=k,
        bound_period=bound_period,
        pull_block=pull_block,
        vectorise=vectorise,
        stream_factory=stream_factory,
        max_pulls=max_pulls,
        should_stop=should_stop,
    )


def cbrr(
    relations: list[Relation],
    scoring: Scoring,
    query: np.ndarray,
    k: int,
    *,
    kind: AccessKind = AccessKind.DISTANCE,
    bound_period: int = 1,
    pull_block: int = 1,
    vectorise: bool = True,
    stream_factory=None,
    max_pulls: int | None = None,
    should_stop=None,
) -> ProxRJ:
    """Corner bound + round-robin: the HRJN baseline."""
    return _build(
        relations, scoring, query, k,
        kind=kind, tight=False, adaptive=False,
        dominance_period=None,
        bound_period=bound_period, pull_block=pull_block, vectorise=vectorise,
        stream_factory=stream_factory, max_pulls=max_pulls,
        should_stop=should_stop,
    )


def cbpa(
    relations: list[Relation],
    scoring: Scoring,
    query: np.ndarray,
    k: int,
    *,
    kind: AccessKind = AccessKind.DISTANCE,
    bound_period: int = 1,
    pull_block: int = 1,
    vectorise: bool = True,
    stream_factory=None,
    max_pulls: int | None = None,
    should_stop=None,
) -> ProxRJ:
    """Corner bound + potential-adaptive: the HRJN* baseline."""
    return _build(
        relations, scoring, query, k,
        kind=kind, tight=False, adaptive=True,
        dominance_period=None,
        bound_period=bound_period, pull_block=pull_block, vectorise=vectorise,
        stream_factory=stream_factory, max_pulls=max_pulls,
        should_stop=should_stop,
    )


def tbrr(
    relations: list[Relation],
    scoring: Scoring,
    query: np.ndarray,
    k: int,
    *,
    kind: AccessKind = AccessKind.DISTANCE,
    dominance_period: int | None = None,
    bound_period: int = 1,
    pull_block: int = 1,
    vectorise: bool = True,
    stream_factory=None,
    max_pulls: int | None = None,
    should_stop=None,
) -> ProxRJ:
    """Tight bound + round-robin (instance-optimal)."""
    return _build(
        relations, scoring, query, k,
        kind=kind, tight=True, adaptive=False,
        dominance_period=dominance_period,
        bound_period=bound_period, pull_block=pull_block, vectorise=vectorise,
        stream_factory=stream_factory, max_pulls=max_pulls,
        should_stop=should_stop,
    )


def tbpa(
    relations: list[Relation],
    scoring: Scoring,
    query: np.ndarray,
    k: int,
    *,
    kind: AccessKind = AccessKind.DISTANCE,
    dominance_period: int | None = None,
    bound_period: int = 1,
    pull_block: int = 1,
    vectorise: bool = True,
    stream_factory=None,
    max_pulls: int | None = None,
    should_stop=None,
) -> ProxRJ:
    """Tight bound + potential-adaptive (the paper's best algorithm)."""
    return _build(
        relations, scoring, query, k,
        kind=kind, tight=True, adaptive=True,
        dominance_period=dominance_period,
        bound_period=bound_period, pull_block=pull_block, vectorise=vectorise,
        stream_factory=stream_factory, max_pulls=max_pulls,
        should_stop=should_stop,
    )


ALGORITHMS: dict[str, Callable[..., ProxRJ]] = {
    "CBRR": cbrr,
    "CBPA": cbpa,
    "TBRR": tbrr,
    "TBPA": tbpa,
}


def make_algorithm(name: str, *args, **kwargs) -> ProxRJ:
    """Build an algorithm by its paper name (CBRR/CBPA/TBRR/TBPA)."""
    try:
        factory = ALGORITHMS[name.upper()]
    except KeyError:
        raise KeyError(
            f"unknown algorithm {name!r}; choose from {sorted(ALGORITHMS)}"
        ) from None
    return factory(*args, **kwargs)

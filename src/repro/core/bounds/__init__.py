"""Bounding schemes: corner (HRJN's) and tight (the paper's contribution),
plus the geometry, dominance and numeric-fallback machinery behind them."""

from repro.core.bounds.approximate import ApproxTightBound
from repro.core.bounds.base import BoundCounters, BoundingScheme, EngineState
from repro.core.bounds.corner import CornerBound
from repro.core.bounds.dominance import dominated_mask
from repro.core.bounds.geometry import (
    CompletionResult,
    PartialGeometry,
    completion_terms,
    dominance_coefficients,
    partial_geometry,
    score_access_completion,
    score_access_completion_batch,
    solve_completion,
    unconstrained_optimum,
)
from repro.core.bounds.tight import TightBound

__all__ = [
    "ApproxTightBound",
    "BoundCounters",
    "BoundingScheme",
    "EngineState",
    "CornerBound",
    "TightBound",
    "CompletionResult",
    "PartialGeometry",
    "completion_terms",
    "dominance_coefficients",
    "dominated_mask",
    "partial_geometry",
    "score_access_completion",
    "score_access_completion_batch",
    "solve_completion",
    "unconstrained_optimum",
]

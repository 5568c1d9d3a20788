"""repro — Proximity Rank Join.

A from-scratch reproduction of Martinenghi & Tagliasacchi, "Proximity
Rank Join", PVLDB 3(1), 2010: top-K combinations of scored, vector-valued
tuples from multiple ranked relations, close to a query point and to each
other.  ``examples/quickstart.py`` is a quickstart, and ROADMAP.md's
"Architecture" sections map the system.
"""

from repro.core import (
    AccessKind,
    Combination,
    CornerBound,
    CosineProximityScoring,
    EuclideanLogScoring,
    LinearScoring,
    PotentialAdaptive,
    ProbeRankJoin,
    ProxRJ,
    QuadraticFormScoring,
    RankTuple,
    Relation,
    RoundRobin,
    RunResult,
    Scoring,
    ShardedRelation,
    TightBound,
    TopKBuffer,
    brute_force_topk,
    cbpa,
    cbrr,
    make_algorithm,
    tbpa,
    tbrr,
)

__version__ = "1.0.0"

__all__ = [
    "AccessKind",
    "Combination",
    "CornerBound",
    "CosineProximityScoring",
    "EuclideanLogScoring",
    "LinearScoring",
    "PotentialAdaptive",
    "ProbeRankJoin",
    "ProxRJ",
    "QuadraticFormScoring",
    "RankTuple",
    "Relation",
    "RoundRobin",
    "RunResult",
    "Scoring",
    "ShardedRelation",
    "TightBound",
    "TopKBuffer",
    "brute_force_topk",
    "cbpa",
    "cbrr",
    "make_algorithm",
    "tbpa",
    "tbrr",
    "__version__",
]

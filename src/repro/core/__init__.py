"""Core library: the proximity rank join problem, the ProxRJ template and
the four evaluated algorithms (CBRR/CBPA/TBRR/TBPA)."""

from repro.core.access import (
    AccessKind,
    DistanceAccess,
    MergeStream,
    ScoreAccess,
    ShardCursor,
    StreamInterrupted,
    open_streams,
)
from repro.core.algorithms import ALGORITHMS, cbpa, cbrr, make_algorithm, tbpa, tbrr
from repro.core.batchscore import CandidatePruner, QuadraticBatchScorer
from repro.core.bounds import ApproxTightBound, CornerBound, TightBound
from repro.core.buffers import TopKBuffer
from repro.core.columnar import ColumnarPrefix
from repro.core.durable import (
    DurableRelation,
    DurableShardBackend,
    ShardCatalog,
    ShardFile,
    open_relation,
    persist_relation,
)
from repro.core.naive import brute_force_topk
from repro.core.probing import ProbeRankJoin, ProbeRunResult
from repro.core.pulling import PotentialAdaptive, PullingStrategy, RoundRobin
from repro.core.relation import Combination, RankTuple, Relation
from repro.core.storage import (
    ShardedBackend,
    ShardedRelation,
    SingleShardBackend,
    StorageBackend,
    partition_indices,
)
from repro.core.scoring import (
    CosineProximityScoring,
    EuclideanLogScoring,
    LinearScoring,
    QuadraticFormScoring,
    Scoring,
)
from repro.core.template import ProxRJ, RunResult
from repro.core.tracing import PullEvent, RunTrace, TraceBound

__all__ = [
    "AccessKind",
    "DistanceAccess",
    "MergeStream",
    "ScoreAccess",
    "ShardCursor",
    "StreamInterrupted",
    "ShardedBackend",
    "ShardedRelation",
    "SingleShardBackend",
    "StorageBackend",
    "open_streams",
    "partition_indices",
    "ALGORITHMS",
    "cbpa",
    "cbrr",
    "make_algorithm",
    "tbpa",
    "tbrr",
    "ApproxTightBound",
    "CandidatePruner",
    "QuadraticBatchScorer",
    "CornerBound",
    "TightBound",
    "TopKBuffer",
    "ColumnarPrefix",
    "DurableRelation",
    "DurableShardBackend",
    "ShardCatalog",
    "ShardFile",
    "open_relation",
    "persist_relation",
    "brute_force_topk",
    "ProbeRankJoin",
    "ProbeRunResult",
    "PotentialAdaptive",
    "PullingStrategy",
    "RoundRobin",
    "Combination",
    "RankTuple",
    "Relation",
    "CosineProximityScoring",
    "EuclideanLogScoring",
    "LinearScoring",
    "QuadraticFormScoring",
    "Scoring",
    "ProxRJ",
    "RunResult",
    "PullEvent",
    "RunTrace",
    "TraceBound",
]

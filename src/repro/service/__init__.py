"""Service layer: the deployment models (search computing) the paper
motivates.

* :mod:`repro.service.simulation` — paged *remote* endpoints with
  latency meters (the relations live behind a simulated network),
  including the per-shard :class:`RemoteShardEndpoint` window API.
* :mod:`repro.service.rankjoin` — a *local* multi-query
  :class:`RankJoinService` that runs many queries against shared
  relations with LRU-cached access orders and the block-pull engine.
* :mod:`repro.service.procpool` — the multi-process serving tier:
  :class:`ProcPoolRankJoinService` fans queries out to worker processes
  that each map the durable store read-only (shared page cache, no GIL
  sharing), with bucket-affinity dispatch, crash recovery and worker
  recycling in the parent.
* :mod:`repro.service.async_service` — the async serving subsystem:
  :class:`AsyncRankJoinService` with awaitable ``submit``, bounded
  admission (backpressure), per-query deadlines/cancellation, and
  pipelined-prefetch remote shard streams that overlap simulated
  network latency across shards and against engine compute.
"""

from repro.service.async_service import (
    AsyncRankJoinService,
    AsyncServiceStats,
    QueryRejected,
    RemoteShardStream,
)
from repro.service.procpool import (
    ProcPoolRankJoinService,
    ProcPoolServiceStats,
)
from repro.service.rankjoin import (
    CachedOrder,
    CachedOrderStream,
    RankJoinService,
    ServiceStats,
)
from repro.service.simulation import (
    LatencyModel,
    RemoteShardEndpoint,
    make_service_streams,
)

__all__ = [
    "AsyncRankJoinService",
    "AsyncServiceStats",
    "QueryRejected",
    "RemoteShardStream",
    "ProcPoolRankJoinService",
    "ProcPoolServiceStats",
    "CachedOrder",
    "CachedOrderStream",
    "RankJoinService",
    "ServiceStats",
    "LatencyModel",
    "RemoteShardEndpoint",
    "make_service_streams",
]

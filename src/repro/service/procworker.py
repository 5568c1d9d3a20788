"""Worker-process side of the process-pool serving tier.

Each worker is a real OS process that opens the durable store
**read-only** — the shard memmaps are shared with every sibling through
the OS page cache (one physical copy of the data no matter how many
workers map it) and the WAL catalog is read without ever taking the
writer lock — and then runs queries *end-to-end in-process*: its own
:class:`~repro.service.rankjoin.RankJoinService` (order LRU of sorted
heads, engine) with no threads, no shared Python state and therefore no
GIL contention with its siblings.

The loop is a plain request/response pump over one pipe: the parent
sends :data:`~repro.service.wire.OP_QUERY` payloads, the worker answers
with the compact :data:`~repro.service.wire.OP_RESULT` wire format plus
the *delta* of its ``ServiceStats`` counters since the previous reply
(the parent folds those into the pool-wide stats through the ordinary
atomic ``record()`` path).  Workers hold no durable write access and no
queue state, so a SIGKILL at any instant loses at most the single
in-flight query — which the parent re-dispatches, and which re-executes
bit-identically because every input is immutable.
"""

from __future__ import annotations

import os
import signal
from dataclasses import dataclass, field

from repro.core.access import AccessKind
from repro.core.scoring import Scoring
from repro.service import wire
from repro.service.rankjoin import RankJoinService

__all__ = ["WorkerSpec", "worker_main"]


@dataclass
class WorkerSpec:
    """Everything a worker needs to build its serving stack.

    Crosses the process boundary exactly once (at spawn); deliberately
    holds only paths, names and scalar knobs — never relations, arrays
    or open handles.
    """

    store_path: str
    relation_names: list[str]
    scoring: Scoring
    kind_value: str
    algorithm: str
    k: int
    pull_block: int
    bound_period: int
    cache_size: int
    bucket_decimals: int
    max_pulls: int | None
    #: Test failpoint: SIGKILL self while handling the Nth query (1-based,
    #: before replying) — how the crash-recovery suite murders a worker
    #: mid-batch deterministically.
    crash_at_task: int | None = None
    #: Engine keyword overrides forwarded verbatim to the in-worker
    #: service (must stay picklable scalars).
    extra: dict = field(default_factory=dict)


def _build_service(spec: WorkerSpec) -> RankJoinService:
    from repro.core.durable import open_relation

    relations = [
        open_relation(spec.store_path, name, read_only=True)
        for name in spec.relation_names
    ]
    return RankJoinService(
        relations,
        spec.scoring,
        kind=AccessKind(spec.kind_value),
        algorithm=spec.algorithm,
        k=spec.k,
        pull_block=spec.pull_block,
        bound_period=spec.bound_period,
        cache_size=spec.cache_size,
        # The parent owns the shared result cache; worker-side result
        # caching would only mask the affinity accounting.
        result_cache_size=0,
        bucket_decimals=spec.bucket_decimals,
        max_workers=1,
        max_pulls=spec.max_pulls,
        # One process per core is the parallelism model — nested
        # shard-pull threads inside a worker would just re-introduce
        # GIL slicing.
        shard_workers=0,
        **spec.extra,
    )


def _stats_delta(snapshot: dict, previous: dict) -> dict:
    return {
        name: value - previous.get(name, 0)
        for name, value in snapshot.items()
        if value != previous.get(name, 0)
    }


def worker_main(conn, parent_conn, spec: WorkerSpec) -> None:
    """Run the worker pump until ``OP_SHUTDOWN`` or pipe EOF.

    ``parent_conn`` is the parent's end of the pipe when it leaked into
    this process (fork start method); closing it here is what lets the
    parent observe EOF — rather than a hang — if this process dies.
    """
    if parent_conn is not None:
        parent_conn.close()
    service = _build_service(spec)
    previous: dict = {}
    handled = 0
    try:
        while True:
            try:
                payload = conn.recv_bytes()
            except (EOFError, OSError):
                break  # parent went away; die quietly
            op = payload[:1]
            if op == wire.OP_SHUTDOWN:
                break
            if op == wire.OP_PING:
                conn.send_bytes(wire.OP_PONG + payload[1:])
                continue
            seq, k, query = wire.decode_query(payload)
            handled += 1
            if spec.crash_at_task is not None and handled >= spec.crash_at_task:
                os.kill(os.getpid(), signal.SIGKILL)
            try:
                result = service.submit(query, k)
                snapshot = service.stats.snapshot()
                deltas = _stats_delta(snapshot, previous)
                previous = snapshot
                conn.send_bytes(wire.encode_result(seq, result, deltas))
            except Exception as exc:  # noqa: BLE001 - forwarded to parent
                conn.send_bytes(wire.encode_error(seq, exc))
    finally:
        for rel in service.relations:
            close = getattr(rel, "close", None)
            if close is not None:
                close()
        service.close()
        conn.close()

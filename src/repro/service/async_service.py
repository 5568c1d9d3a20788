"""Async serving subsystem: awaitable rank join over remote shard endpoints.

The sync :class:`~repro.service.rankjoin.RankJoinService` multiplexes
queries with a thread pool over *in-memory* streams; this module is the
serving front-end for the deployment the paper actually describes —
relations living behind remote, paged, latency-bearing services — where
the dominant cost is I/O round-trips, not compute.  Three layers:

* :class:`~repro.service.simulation.RemoteShardEndpoint` (one per
  relation shard per query bucket) wraps a shard's LRU-cached access
  order in an offset-addressed, paginated window API with a per-shard
  latency model.
* :class:`RemoteShardStream` is the event-loop prefetch adaptor: the
  one :class:`~repro.core.access.ShardCursor` subclass, filled from an
  endpoint through **pipelined prefetch** — a per-shard feeder task on
  the event loop fetches one page at a time, one page ahead of what the
  merge asked for, so while the engine scores block ``B``, the pages
  for block ``B+1`` are already sleeping out their simulated latency.
  Each query merges its cursors in a
  :class:`~repro.core.access.MergeStream` built directly, as
  :class:`~repro.service.rankjoin.RankJoinService` does; the merge asks
  every live shard for its share of a refill before blocking on any of
  them, so one refill overlaps its fetches *across* shards too, and it
  stages only the rows the shards' local pages prove final, so a shard
  is fetched about as deep as the engine reads it.
* :class:`AsyncRankJoinService` is the front-end: an awaitable
  ``submit(query, k, deadline=...)``, a **bounded admission queue** with
  a reject-or-wait backpressure policy, per-query deadlines and
  cancellation that return *certified partial* top-K results (current
  buffer plus the bound in force — never a corrupt answer), and one
  asyncio event loop multiplexing every in-flight query's remote I/O
  over the LRU-shared cached orders of the sync service.

Engines themselves run unchanged (and synchronously) on a small thread
pool; what the event loop owns is admission and the remote windows.
Completed async runs are bit-identical to the in-memory sharded path —
same ranked top-K, depths and bounds — because the endpoints serve the
very same per-shard ``(rank, tid)``-sorted orders the local
:class:`~repro.core.storage.ShardedBackend` merges.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import threading
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.access import AccessKind, MergeStream, ShardCursor, StreamInterrupted
from repro.core.algorithms import make_algorithm
from repro.core.relation import Relation
from repro.core.scoring import Scoring
from repro.core.template import RunResult
from repro.service.rankjoin import RankJoinService, ServiceStats, _LRU
from repro.service.simulation import LatencyModel, RemoteShardEndpoint

__all__ = [
    "AsyncRankJoinService",
    "AsyncServiceStats",
    "QueryRejected",
    "RemoteShardStream",
]


class QueryRejected(RuntimeError):
    """Raised by :meth:`AsyncRankJoinService.submit` under the
    ``"reject"`` admission policy when the bounded queue is full."""


@dataclass
class AsyncServiceStats(ServiceStats):
    """Sync-service counters plus the async front-end's outcomes.

    Same single atomic :meth:`~ServiceStats.record` update path; the
    extra fields count admission rejections and how queries ended.
    """

    rejected: int = 0
    expired: int = 0
    cancelled: int = 0


class _RemoteMeter:
    """Service-wide remote-traffic totals, robust to endpoint eviction
    (every endpoint reports into this sink as it serves windows)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.endpoints = 0
        self.windows = 0
        self.pages = 0
        self.tuples = 0
        self.seconds = 0.0

    def add(
        self,
        *,
        endpoints: int = 0,
        windows: int = 0,
        pages: int = 0,
        tuples: int = 0,
        seconds: float = 0.0,
    ) -> None:
        with self._lock:
            self.endpoints += endpoints
            self.windows += windows
            self.pages += pages
            self.tuples += tuples
            self.seconds += seconds


class _QueryContext:
    """Per-query deadline/cancellation state shared between the event
    loop (which owns time) and the engine thread (which polls it)."""

    def __init__(self, loop: asyncio.AbstractEventLoop, deadline: float | None) -> None:
        self.loop = loop
        self.deadline_ts = (
            None if deadline is None else time.monotonic() + float(deadline)
        )
        self.cancel = threading.Event()
        self.expired = False
        self.cancelled = False
        self.closed = False
        self.cursors: list[RemoteShardStream] = []

    def should_stop(self) -> bool:
        """Engine/stream hook: True once the query is out of budget."""
        if self.cancel.is_set():
            self.cancelled = True
            return True
        if self.deadline_ts is not None and time.monotonic() >= self.deadline_ts:
            self.expired = True
            return True
        return False

    def add_cursor(self, cursor: "RemoteShardStream") -> None:
        """Track a cursor for cleanup.  A cursor registered after
        :meth:`close` (the engine thread racing a cancellation through
        stream setup) is closed on the spot, so its feeder can never
        outlive the query."""
        self.cursors.append(cursor)
        if self.closed:
            cursor.close()

    def close(self) -> None:
        """Stop every feeder still in flight (idempotent)."""
        self.closed = True
        for cursor in list(self.cursors):
            cursor.close()


class RemoteShardStream(ShardCursor):
    """The event-loop prefetch adaptor over a remote shard endpoint.

    A :class:`~repro.core.access.ShardCursor` whose source is a
    :class:`~repro.service.simulation.RemoteShardEndpoint`: it inherits
    the column allocation and fill, ``window()`` and ``pos``, and moves
    the fetches onto the service's event loop through the two calls
    :class:`~repro.core.access.MergeStream` makes on every live cursor
    of a refill:

    ``request(n)``
        Non-blocking: raise the fetch target to cover the next ``n``
        rows *plus one page of read-ahead*, and wake the feeder task.
        The feeder (a coroutine on the service's event loop) fetches one
        page per ``afetch_window`` call until the target is reached, so
        each page is local the moment it lands and the next one is
        already in flight while the engine scores the rows ``ensure``
        handed over.  The service's stream factory calls ``request(0)``
        on every shard as the query's streams open, so every shard's
        first page is in flight before the engine's first pull.
    ``ensure(n)``
        Blocking: return once the next ``min(n, remaining)`` rows are
        locally available.  Raises
        :class:`~repro.core.access.StreamInterrupted` if the query's
        deadline expires or it is cancelled while waiting — the engine
        converts that into a certified partial result.

    ``pipelined=False`` is the serial comparator: no feeder, and
    ``request(n)`` itself awaits the whole pages the next ``n`` rows
    need, as one window, blocking the engine for its full latency with
    no overlap across shards or with compute — the baseline the
    pipelined-speedup benchmark measures against.
    """

    __slots__ = (
        "_target",
        "_cond",
        "_wake",
        "_loop",
        "_expired",
        "_error",
        "_pipelined",
        "_feeder",
        "_closed",
    )

    def __init__(
        self,
        endpoint: RemoteShardEndpoint,
        *,
        loop: asyncio.AbstractEventLoop,
        expired=None,
        pipelined: bool = True,
    ) -> None:
        super().__init__(endpoint)
        self._target = 0
        self._cond = threading.Condition()
        self._wake = asyncio.Event()
        self._loop = loop
        self._expired = expired
        self._error: BaseException | None = None
        self._pipelined = pipelined
        self._feeder: concurrent.futures.Future | None = None
        self._closed = False

    def _interrupted(self) -> bool:
        return self._closed or (self._expired is not None and self._expired())

    # -- read-ahead hook (called from the engine thread) --------------------

    def request(self, n: int) -> None:
        """Raise the fetch target to ``pos + n`` rows plus one page and
        wake the feeder; returns immediately.  Serial mode fetches the
        rows here instead, one blocking window."""
        if not self._pipelined:
            self._ensure_serial(min(self.pos + n, self.total))
            return
        if self._closed:
            return
        target = min(self.pos + n + self.source.page_size, self.total)
        with self._cond:
            if target <= self._target:
                return
            self._target = target
        if self._feeder is None:
            self._feeder = asyncio.run_coroutine_threadsafe(
                self._feed(), self._loop
            )
        else:
            self._loop.call_soon_threadsafe(self._wake.set)

    def ensure(self, n: int) -> None:
        """Block until the next ``min(n, remaining)`` rows are local."""
        need = min(self.pos + n, self.total)
        if self.filled >= need:
            return
        if not self._pipelined:
            self._ensure_serial(need)
            return
        self.request(n)
        with self._cond:
            while self.filled < need:
                if self._error is not None:
                    # A genuine remote failure is an error, not a clean
                    # early stop: let it propagate out of the engine.
                    raise self._error
                if self._interrupted():
                    raise StreamInterrupted(
                        f"deadline expired waiting on {self.source!r}"
                    )
                self._cond.wait(timeout=0.02)

    def _ensure_serial(self, need: int) -> None:
        """Non-overlapped comparator: fetch the whole pages covering what
        is needed, one blocking window at a time."""
        page = self.source.page_size
        while self.filled < need:
            if self._interrupted():
                raise StreamInterrupted(
                    f"deadline expired waiting on {self.source!r}"
                )
            rows = -(-(need - self.filled) // page) * page
            future = asyncio.run_coroutine_threadsafe(
                self.source.afetch_window(self.filled, rows), self._loop
            )
            while True:
                try:
                    window = future.result(timeout=0.05)
                    break
                except concurrent.futures.TimeoutError:
                    if self._interrupted():
                        future.cancel()
                        raise StreamInterrupted(
                            f"deadline expired waiting on {self.source!r}"
                        ) from None
            self._ingest(window)

    # -- feeder (runs on the event loop) ------------------------------------

    async def _feed(self) -> None:
        page = self.source.page_size
        try:
            while True:
                with self._cond:
                    target = min(self._target, self.total)
                    filled = self.filled
                if filled >= target:
                    if filled >= self.total:
                        return
                    await self._wake.wait()
                    self._wake.clear()
                    continue
                window = await self.source.afetch_window(filled, page)
                self._ingest(window)
        except asyncio.CancelledError:
            raise
        except BaseException as exc:  # surface remote failures to ensure()
            with self._cond:
                self._error = exc
                self._cond.notify_all()

    def _ingest(self, window) -> None:
        with self._cond:
            self._fill(window)
            self._cond.notify_all()

    def close(self) -> None:
        """Cancel the feeder and unblock any waiting ``ensure``."""
        self._closed = True
        if self._feeder is not None:
            self._feeder.cancel()
            self._feeder = None
        with self._cond:
            self._cond.notify_all()


class AsyncRankJoinService(RankJoinService):
    """Awaitable rank-join serving over simulated remote shard endpoints.

    Inherits the sync service's canonicalisation, per-shard access-order
    LRU and result cache; replaces its execution path with remote,
    latency-bearing endpoint fetches multiplexed on one asyncio event
    loop.  Use from a running loop::

        service = AsyncRankJoinService(relations, scoring, k=5)
        result = await service.submit(query, deadline=0.05)

    or synchronously via :meth:`serve` (which runs its own loop).

    Parameters beyond :class:`~repro.service.rankjoin.RankJoinService`'s
    (``shard_workers`` is forced to 0 — the event loop, not a thread
    pool, owns shard parallelism here):

    page_size / latency / seed:
        Shape of the simulated remote API: rows per page, the per-shard
        latency model (a single model, or one per shard index — cycled —
        for heterogeneous shards) and the seed every endpoint's
        deterministic latency generator derives from.
    max_inflight:
        Queries running concurrently (engine threads + live remote
        windows).
    queue_limit:
        Admitted-but-waiting queries beyond ``max_inflight`` the bounded
        admission queue holds.
    admission:
        ``"wait"`` (default): a submit past the queue bound suspends
        until space frees — backpressure propagates to the caller.
        ``"reject"``: it raises :class:`QueryRejected` immediately.
    pipelined:
        ``False`` disables prefetch and fetch overlap (the serial
        comparator used by benchmarks); answers are identical either
        way.  Pipelined cursors fetch one page per round-trip, read one
        page beyond what the merge asked for, and request every shard's
        first page as the query's streams open.
    engine_workers:
        Threads running engine loops; defaults to ``max_inflight``.
    executor:
        ``"thread"`` (default) runs engines on the thread pool over the
        simulated remote endpoints.  ``"process"`` offloads each
        admitted query to a :class:`~repro.service.procpool.
        ProcPoolRankJoinService` — real cores instead of GIL-sharing
        threads; the event-loop thread pool then only *waits* on worker
        pipes (GIL released).  Process mode serves the relations
        directly (no simulated network latency), and a dispatched query
        runs to completion in its worker: deadlines are still enforced
        while queued and at dispatch time, but cannot interrupt a run
        mid-flight across the process boundary.
    proc_workers:
        Worker-process count for ``executor="process"`` (default 4).
    proc_options:
        Extra :class:`ProcPoolRankJoinService` keyword arguments
        (``max_tasks_per_worker``, ``mp_context``, ``store_path``, ...).
    """

    #: The base constructor instantiates this, so warm-start counters
    #: recorded during ``super().__init__`` land on the async stats
    #: object instead of being discarded by a post-hoc replacement.
    _stats_cls = AsyncServiceStats

    def __init__(
        self,
        relations: list[Relation],
        scoring: Scoring,
        *,
        page_size: int = 25,
        latency: LatencyModel | Sequence[LatencyModel] | None = None,
        seed: int = 0,
        max_inflight: int = 8,
        queue_limit: int = 32,
        admission: str = "wait",
        pipelined: bool = True,
        engine_workers: int | None = None,
        executor: str = "thread",
        proc_workers: int | None = None,
        proc_options: dict | None = None,
        **kwargs,
    ) -> None:
        if executor not in ("thread", "process"):
            raise ValueError("executor must be 'thread' or 'process'")
        if page_size < 1:
            raise ValueError("page_size must be >= 1")
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if queue_limit < 0:
            raise ValueError("queue_limit must be >= 0")
        if admission not in ("wait", "reject"):
            raise ValueError("admission must be 'wait' or 'reject'")
        if engine_workers is not None and engine_workers < 1:
            raise ValueError("engine_workers must be >= 1 (or None for auto)")
        kwargs.setdefault("cache_size", 64)
        kwargs.pop("shard_workers", None)  # the event loop owns shard fan-out
        super().__init__(relations, scoring, shard_workers=0, **kwargs)
        self.page_size = page_size
        if latency is None:
            latency = LatencyModel(base=0.002, jitter=0.0005)
        self._latencies = (
            tuple(latency) if isinstance(latency, (list, tuple)) else (latency,)
        )
        self.seed = seed
        self.max_inflight = max_inflight
        self.queue_limit = queue_limit
        self.admission = admission
        self.pipelined = pipelined
        self._engine_pool = ThreadPoolExecutor(
            max_workers=engine_workers or max_inflight,
            thread_name_prefix="async-rankjoin",
        )
        self.executor = executor
        self._procpool = None
        if executor == "process":
            from repro.service.procpool import ProcPoolRankJoinService

            options = dict(proc_options or {})
            options.setdefault("workers", proc_workers or 4)
            # The async front-end owns the shared result cache; caching
            # again inside the child pool would just shadow it.
            options.setdefault("result_cache_size", 0)
            self._procpool = ProcPoolRankJoinService(
                relations,
                scoring,
                kind=self.kind,
                algorithm=self.algorithm,
                k=self.k,
                pull_block=self.pull_block,
                bound_period=self.bound_period,
                bucket_decimals=self.bucket_decimals,
                max_pulls=self.max_pulls,
                **options,
            )
        self._endpoints = _LRU(kwargs["cache_size"])
        self._remote_meter = _RemoteMeter()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._run_sem: asyncio.Semaphore | None = None
        self._space: asyncio.Condition | None = None
        self._pending = 0
        self._active: set[_QueryContext] = set()

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Shut down the engine pool (idempotent).

        Queries still in flight are cancelled first — their contexts are
        flagged and their cursors closed, so blocked engine threads
        unwind with a certified partial instead of waiting on an event
        loop that :meth:`close` may itself be blocking.
        """
        with self._lock:
            active = list(self._active)
        for ctx in active:
            ctx.cancel.set()
            ctx.close()
        self._engine_pool.shutdown(wait=True)
        if self._procpool is not None:
            self._procpool.close()
        super().close()

    async def __aenter__(self) -> "AsyncRankJoinService":
        return self

    async def __aexit__(self, *exc) -> None:
        self.close()

    def _bind_loop(self, loop: asyncio.AbstractEventLoop) -> None:
        """Attach the admission primitives to the caller's running loop
        (rebinding is allowed once the previous loop has drained)."""
        if self._loop is loop:
            return
        if self._loop is not None and self._pending > 0:
            raise RuntimeError(
                "AsyncRankJoinService is already serving on another event loop"
            )
        self._loop = loop
        self._run_sem = asyncio.Semaphore(self.max_inflight)
        self._space = asyncio.Condition()
        self._pending = 0

    # -- remote endpoints over the shared cached orders ---------------------

    def _latency_for(self, shard_index: int) -> LatencyModel:
        return self._latencies[shard_index % len(self._latencies)]

    def _endpoint_for(
        self,
        rel_index: int,
        relation: Relation,
        shard_index: int,
        shard: Relation,
        bucket: bytes,
        canonical: np.ndarray,
    ) -> RemoteShardEndpoint:
        """One shard's remote endpoint for one query bucket (cached).

        Wraps the LRU-shared cached order — concurrent queries
        on the same bucket hit the same endpoint, whose meters then
        aggregate the bucket's remote traffic.  An endpoint hit is a
        shard-order cache hit (``stream_cache_hits``); a miss is counted
        by the order lookup behind it.
        """
        order_bucket = bucket if self.kind is AccessKind.DISTANCE else b""
        key = (relation.name, shard_index, order_bucket)
        with self._lock:
            endpoint = self._endpoints.get(key)
        if endpoint is not None:
            self.stats.record(stream_cache_hits=1)
            return endpoint
        endpoint = RemoteShardEndpoint(
            relation.name,
            shard_index,
            self._order_for(shard, shard_index, bucket, canonical),
            page_size=self.page_size,
            latency=self._latency_for(shard_index),
            # One deterministic generator per endpoint, derived from the
            # service seed and the endpoint's identity (the same bucket
            # normalisation as the cache key, so score-kind endpoints get
            # one well-defined sequence regardless of which query created
            # them) — reproducible latencies without any module-level RNG.
            rng=np.random.default_rng(
                [self.seed, rel_index, shard_index, zlib.crc32(order_bucket)]
            ),
            sink=self._remote_meter,
        )
        with self._lock:
            existing = self._endpoints.get(key)
            if existing is not None:
                return existing
            self._endpoints.put(key, endpoint)
        self._remote_meter.add(endpoints=1)
        return endpoint

    def remote_meters(self) -> dict[str, float]:
        """Service-lifetime remote traffic totals: endpoints created,
        windows, pages (= simulated round-trips) and total simulated
        latency — the *serial* remote wall-clock an unoverlapped
        execution pays.  Survives endpoint cache eviction."""
        m = self._remote_meter
        with m._lock:
            return {
                "endpoints": m.endpoints,
                "windows": m.windows,
                "pages": m.pages,
                "tuples": m.tuples,
                "simulated_seconds": float(m.seconds),
            }

    def _remote_factory(self, bucket: bytes, canonical: np.ndarray, ctx: _QueryContext):
        """Stream factory: per relation, a merge over one remote cursor
        per shard, prefetching through the query's context.  Every
        cursor requests its first page as it opens, so no relation's
        first pull waits out a round-trip the open could have started
        (a no-op in serial mode, which fetches on demand)."""

        def factory() -> list:
            streams = []
            for rel_index, relation in enumerate(self.relations):
                shards = relation.storage.shards
                cursors = []
                for shard_index, shard in enumerate(shards):
                    cursor = RemoteShardStream(
                        self._endpoint_for(
                            rel_index, relation, shard_index, shard, bucket, canonical
                        ),
                        loop=ctx.loop,
                        expired=ctx.should_stop,
                        pipelined=self.pipelined,
                    )
                    ctx.add_cursor(cursor)
                    cursor.request(0)
                    cursors.append(cursor)
                streams.append(
                    MergeStream(
                        relation,
                        self.kind,
                        cursors,
                        sigma_max=max(s.sigma_max for s in shards),
                    )
                )
            return streams

        return factory

    def _run(
        self, canonical: np.ndarray, bucket: bytes, k: int, ctx: _QueryContext
    ) -> RunResult:
        """Engine-thread body: one query end to end — over remote
        streams, or handed to the process pool under
        ``executor="process"`` (blocking, GIL released in the pipe read,
        until its worker answers)."""
        if ctx.should_stop():
            # Expired (or cancelled) while queued: don't pay for stream
            # setup or a process round-trip — an empty certified partial
            # is the honest answer.
            from repro.core.bounds.base import INFINITY

            return RunResult(
                combinations=[],
                depths=[0] * len(self.relations),
                bound=INFINITY,
                total_seconds=0.0,
                bound_seconds=0.0,
                dominance_seconds=0.0,
                combinations_formed=0,
                completed=False,
            )
        if self._procpool is not None:
            return self._procpool.submit(canonical, k)
        engine = make_algorithm(
            self.algorithm,
            self.relations,
            self.scoring,
            canonical,
            k,
            kind=self.kind,
            pull_block=self.pull_block,
            bound_period=self.bound_period,
            stream_factory=self._remote_factory(bucket, canonical, ctx),
            max_pulls=self.max_pulls,
            should_stop=ctx.should_stop,
        )
        return engine.run()

    @property
    def proc_stats(self):
        """The process pool's own stats (None under thread executor)."""
        return None if self._procpool is None else self._procpool.stats

    # -- submission ---------------------------------------------------------

    async def submit(
        self,
        query: np.ndarray,
        k: int | None = None,
        *,
        deadline: float | None = None,
    ) -> RunResult:
        """Run one query over the remote shards and await its result.

        ``deadline`` (seconds, from now) bounds the query's wall-clock:
        past it, the run stops at the next pull — or mid-wait on a
        remote window — and returns a *certified partial* result
        (``completed=False``; ``certified_count`` leading combinations
        provably final, ``bound`` capping everything unseen).
        Cancelling the awaiting task stops the engine the same way and
        re-raises ``CancelledError``.

        Backpressure: past ``max_inflight`` running plus ``queue_limit``
        waiting queries, ``"wait"`` admission suspends the caller,
        ``"reject"`` raises :class:`QueryRejected`.  Result-cache hits
        bypass admission (completed runs only are ever cached).
        """
        if deadline is not None and deadline <= 0:
            raise ValueError("deadline must be positive (seconds from now)")
        loop = asyncio.get_running_loop()
        self._bind_loop(loop)
        k = self.k if k is None else k
        canonical = self.canonical_query(query)
        bucket = self._bucket_key(canonical)
        self.stats.record(queries=1)
        result_key = (bucket, k)
        hit = self._lookup_result(result_key)
        if hit is not None:
            return hit
        # The deadline clock starts at submission: time spent waiting in
        # the admission queue counts against the query's budget, so an
        # overloaded service expires queued queries instead of running
        # them pointlessly late.
        ctx = _QueryContext(loop, deadline)
        # -- bounded admission ---------------------------------------------
        capacity = self.max_inflight + self.queue_limit
        if self._pending >= capacity:
            if self.admission == "reject":
                self.stats.record(rejected=1)
                raise QueryRejected(
                    f"admission queue full ({self._pending} pending, "
                    f"capacity {capacity})"
                )
            async with self._space:
                await self._space.wait_for(lambda: self._pending < capacity)
        self._pending += 1
        try:
            async with self._run_sem:
                with self._lock:
                    self._active.add(ctx)
                future = loop.run_in_executor(
                    self._engine_pool, self._run, canonical, bucket, k, ctx
                )
                try:
                    result = await future
                except asyncio.CancelledError:
                    # The engine thread keeps running briefly; the cancel
                    # flag (and the cursor close below) stops it at its
                    # next pull or window wait.
                    ctx.cancel.set()
                    self.stats.record(cancelled=1)
                    raise
                finally:
                    ctx.close()
                    with self._lock:
                        self._active.discard(ctx)
                if ctx.expired:
                    self.stats.record(expired=1)
                if result.completed and self._results is not None:
                    with self._lock:
                        self._results.put(result_key, result)
                return result
        finally:
            self._pending -= 1
            async with self._space:
                self._space.notify(1)

    def serve(
        self,
        queries: Sequence[np.ndarray],
        k: int | None = None,
        *,
        deadline: float | None = None,
    ) -> list:
        """Synchronous convenience: submit every query concurrently on a
        fresh event loop and return results in order (rejections appear
        as the :class:`QueryRejected` instance in their slot)."""

        async def _main():
            return await asyncio.gather(
                *(self.submit(q, k, deadline=deadline) for q in queries),
                return_exceptions=True,
            )

        outcomes = asyncio.run(_main())
        for outcome in outcomes:
            if isinstance(outcome, BaseException) and not isinstance(
                outcome, QueryRejected
            ):
                raise outcome
        return outcomes

    def submit_many(self, queries, k=None):  # pragma: no cover - guidance only
        raise NotImplementedError(
            "AsyncRankJoinService.submit is awaitable; gather submit() "
            "coroutines (or use serve()) instead of submit_many"
        )

"""Shared-stream multi-query rank-join service.

The paper's deployment model is "search computing": many users issue
proximity rank-join queries against the *same* backing relations.  The
dominant per-query setup cost is producing each relation's sorted access
order (distance access re-sorts every relation for every query).  This
module amortises that cost across queries:

* Queries are **canonicalised** to a bucket grid (coordinates rounded to
  ``bucket_decimals``); queries identical after rounding share one
  executed query, one set of cached access orders and — optionally — one
  cached result.  The engine runs against the canonicalised query, so
  every answer is exact *for the query it executed*.
* A thread-safe **LRU cache** maps ``(relation, query-bucket)`` to the
  relation's full sorted access order (the limit of the "sorted
  prefixes" a stream reveals), stored **columnar**: the order's
  permutation and stacked vector/score/tid/rank arrays, with its rows a
  view that looks up the relation's own row objects only for pulled
  positions (:class:`~repro.core.access.AccessOrder`).  A cache hit
  turns stream opening into O(1) bookkeeping; :class:`CachedOrderStream`
  replays the shared order as a frozen
  :class:`~repro.core.columnar.ColumnarPrefix` cursor, so the engine's
  columnar scorer runs over the cached arrays without re-materialising
  or copying anything.
* :meth:`RankJoinService.submit` runs one query to completion and
  returns its :class:`~repro.core.template.RunResult`;
  :meth:`RankJoinService.submit_many` drives a batch through a thread
  pool (engine runs are independent; only the caches are shared, under a
  lock).
* **Sharded relations** (:class:`~repro.core.storage.ShardedRelation`)
  are served through the same caches, keyed *per shard*: the LRU maps
  ``(relation, shard, query-bucket)`` to that shard's sorted order, so a
  shard's order is computed once per bucket, evicted independently, and
  shared by every merge stream replaying it.  Queries over sharded
  relations run against a :class:`~repro.core.access.MergeStream` whose
  per-shard block pulls are fanned out to a dedicated shard pool (one
  task per shard per pull, merged before scoring) — the shard-parallel
  execution path that a distributed deployment would put network fetches
  behind.

The service defaults to the engine's block-pull mode (``pull_block=8``),
which is where the throughput benchmark shows the vectorised engine
beating per-tuple pulling; see ``benchmarks/test_bench_service_
throughput.py``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.core.access import (
    AccessKind,
    AccessOrder,
    MergeStream,
    OrderStream,
    ShardCursor,
    sorted_stream,
)
from repro.core.algorithms import make_algorithm
from repro.core.relation import Relation
from repro.core.scoring import Scoring
from repro.core.template import RunResult

__all__ = ["CachedOrder", "CachedOrderStream", "RankJoinService", "ServiceStats"]


#: One relation shard's full access order for one query bucket: the
#: service caches :class:`~repro.core.access.AccessOrder` values as they
#: come out of a sort or the durable catalog.  ``tuples`` is always a
#: view resolving rows on pull — a fresh sort views the shard relation's
#: rows, a catalog replay the durable shard's lazily built rows — so
#: neither materialises a row object the engine does not pull.
CachedOrder = AccessOrder

#: Replays a :class:`CachedOrder` through the engine's stream API: each
#: run gets its own stream (streams are stateful cursors) over the
#: shared order, whose columnar prefix is a frozen cursor over the
#: cached arrays.
CachedOrderStream = OrderStream


@dataclass
class ServiceStats:
    """Meters the service accumulates across submissions.

    Independently thread-safe: every mutation goes through the single
    :meth:`record` path, which applies all of a call's deltas atomically
    under the stats object's own lock — concurrent ``submit`` calls can
    never interleave half of one update with half of another, and
    services never need to widen their own critical sections just to
    count.  Subclasses may add counter fields; :meth:`record` accepts
    any of them by name.
    """

    queries: int = 0
    stream_cache_hits: int = 0
    stream_cache_misses: int = 0
    result_cache_hits: int = 0
    #: Orders actually sorted by this process (LRU miss + catalog miss).
    order_sorts: int = 0
    #: Orders served from the durable catalog instead of a re-sort.
    catalog_order_hits: int = 0
    #: Computed orders written back to the durable catalog.
    catalog_order_writes: int = 0
    #: Orders preloaded into the LRU at construction (warm start).
    orders_warm_loaded: int = 0

    def __post_init__(self) -> None:
        self._lock = threading.Lock()

    def record(self, **deltas: int) -> None:
        """Atomically add ``deltas`` to the named counters."""
        with self._lock:
            for name, delta in deltas.items():
                setattr(self, name, getattr(self, name) + delta)

    def snapshot(self) -> dict[str, int]:
        """A consistent point-in-time copy of every counter."""
        with self._lock:
            return {
                name: value
                for name, value in vars(self).items()
                if not name.startswith("_")
            }

    def as_dict(self) -> dict[str, int]:
        return self.snapshot()


class _LRU:
    """Minimal bounded LRU mapping (caller holds the lock)."""

    def __init__(self, maxsize: int) -> None:
        self.maxsize = maxsize
        self._data: OrderedDict = OrderedDict()

    def get(self, key):
        value = self._data.get(key)
        if value is not None:
            self._data.move_to_end(key)
        return value

    def put(self, key, value) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)

    def __len__(self) -> int:
        return len(self._data)


class RankJoinService:
    """Serve many proximity rank-join queries over shared relations.

    Parameters
    ----------
    relations, scoring:
        The shared backing relations and the aggregation function.
    kind:
        Access kind served to every query.
    algorithm:
        Paper algorithm name (CBRR/CBPA/TBRR/TBPA) each query runs.
    k:
        Default result size (overridable per :meth:`submit`).
    pull_block / bound_period:
        Engine execution knobs, shared by all queries.  The default
        ``pull_block=8`` runs the block-pull vectorised engine.
    cache_size:
        Entries in the ``(relation, query-bucket)`` access-order LRU.
    result_cache_size:
        Entries in the ``(query-bucket, k)`` result LRU; 0 disables
        result caching (stream orders are still shared).
    bucket_decimals:
        Queries are rounded to this many decimals before execution;
        queries identical after rounding share cache entries *and*
        results.  The default (6) collapses only floating-point noise.
    max_workers:
        Thread-pool width for :meth:`submit_many`.
    max_pulls:
        Optional per-query pull budget (admission control for hostile
        queries); cut-off runs report ``completed=False``.
    shard_workers:
        Width of the dedicated pool that fans out per-shard block pulls
        when any relation is sharded.  ``None`` (default) sizes it to the
        widest relation (capped at 8); ``0`` disables the pool and merges
        serially.  This pool is separate from the :meth:`submit_many`
        pool on purpose — shard pulls are leaf tasks, so sharing a pool
        with the query runners could deadlock under full load.
    warm_start:
        When any relation is durable
        (:class:`~repro.core.durable.DurableRelation`), preload the
        most-recently-used persisted access orders from its catalog into
        the order LRU at construction (up to ``cache_size`` per
        relation) and write every freshly computed order back.  A
        restarted service then answers its first hot-bucket query with
        **zero re-sorts** — ``stats.order_sorts`` stays 0 and the
        catalog's hit counters record the replay.  On by default; orders
        are still written back when disabled.
    """

    #: Stats class instantiated by ``__init__``; subclasses override to
    #: extend the counter set without replacing the live object (warm
    #: start records counters *during* construction).
    _stats_cls = ServiceStats

    def __init__(
        self,
        relations: list[Relation],
        scoring: Scoring,
        *,
        kind: AccessKind = AccessKind.DISTANCE,
        algorithm: str = "TBPA",
        k: int = 10,
        pull_block: int = 8,
        bound_period: int = 1,
        cache_size: int = 64,
        result_cache_size: int = 256,
        bucket_decimals: int = 6,
        max_workers: int = 4,
        max_pulls: int | None = None,
        shard_workers: int | None = None,
        warm_start: bool = True,
    ) -> None:
        if not relations:
            raise ValueError("need at least one relation")
        if cache_size < 1:
            raise ValueError("cache_size must be >= 1")
        if result_cache_size < 0:
            raise ValueError("result_cache_size must be >= 0")
        if bucket_decimals < 0:
            raise ValueError("bucket_decimals must be >= 0")
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if shard_workers is not None and shard_workers < 0:
            raise ValueError("shard_workers must be >= 0 (or None for auto)")
        self.relations = relations
        self.scoring = scoring
        self.kind = kind
        self.algorithm = algorithm
        self.k = k
        self.pull_block = pull_block
        self.bound_period = bound_period
        self.bucket_decimals = bucket_decimals
        self.max_workers = max_workers
        self.max_pulls = max_pulls
        self.stats = self._stats_cls()
        self._lock = threading.Lock()
        self._orders = _LRU(cache_size)
        self._results = _LRU(result_cache_size) if result_cache_size else None
        # Durable relations expose a stable tier-managing backend; plain
        # relations build a fresh single-shard backend per access, so
        # only durable backends are pinned here.
        self._durable = {}
        backends = [r.storage for r in relations]
        for backend in backends:
            if getattr(backend, "is_durable", False):
                self._durable[backend.relation.name] = backend
        max_shards = max(b.shard_count for b in backends)
        if shard_workers is None:
            shard_workers = min(8, max_shards) if max_shards > 1 else 0
        self._shard_pool = (
            ThreadPoolExecutor(
                max_workers=shard_workers, thread_name_prefix="shard-pull"
            )
            if shard_workers
            else None
        )
        # Persistent submit_many pool, created lazily on the first batch
        # (single-query services never pay for it) and reused across
        # batches — spinning a fresh pool per call costs thread start-up
        # and tears down warm stacks between batches.
        self._query_pool: ThreadPoolExecutor | None = None

        if warm_start and self._durable:
            self._warm_start(cache_size)

    def _ensure_query_pool(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._query_pool is None:
                self._query_pool = ThreadPoolExecutor(
                    max_workers=self.max_workers,
                    thread_name_prefix="query-runner",
                )
            return self._query_pool

    def close(self) -> None:
        """Shut down the shard-pull and batch pools (idempotent).  The
        service stays usable afterwards; sharded pulls merge serially and
        the next :meth:`submit_many` lazily rebuilds its pool."""
        if self._shard_pool is not None:
            self._shard_pool.shutdown(wait=True)
            self._shard_pool = None
        with self._lock:
            pool, self._query_pool = self._query_pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "RankJoinService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- query canonicalisation -------------------------------------------

    def canonical_query(self, query: np.ndarray) -> np.ndarray:
        """The query the engine actually executes (bucket representative)."""
        q = np.round(np.asarray(query, dtype=float), self.bucket_decimals)
        q = q + 0.0  # collapse -0.0 so buckets straddling zero coincide
        q.setflags(write=False)
        return q

    def _bucket_key(self, canonical: np.ndarray) -> bytes:
        return canonical.tobytes()

    # -- shared access orders ---------------------------------------------

    def _warm_start(self, cache_size: int) -> None:
        """Preload the order LRU from every durable relation's catalog.

        Loads the most recently used persisted orders of this service's
        access kind — up to ``cache_size`` per relation, newest last so
        LRU recency mirrors catalog recency.  Nothing is sorted: the
        permutation and rank column come back as the exact bytes a
        previous process computed, and the columnar arrays are one
        fancy-index gather from the shard memmaps.
        """
        loaded = 0
        for backend in self._durable.values():
            entries = list(
                backend.load_recent_orders(self.kind, limit=cache_size)
            )
            for shard_index, bucket, order in reversed(entries):
                key = (
                    backend.relation.name,
                    shard_index,
                    bucket if self.kind is AccessKind.DISTANCE else b"",
                )
                with self._lock:
                    self._orders.put(key, order)
                loaded += 1
        if loaded:
            self.stats.record(orders_warm_loaded=loaded)

    def _order_for(
        self,
        shard: Relation,
        shard_idx: int,
        bucket: bytes,
        canonical: np.ndarray,
    ) -> CachedOrder:
        """One shard's full sorted order for one query bucket (cached).

        The LRU key is ``(relation, shard, bucket)``: sharded relations
        get one independently evictable entry per shard, unsharded
        relations use shard index 0.  Score access is query-independent:
        one cache entry per (relation, shard).
        """
        key_bucket = bucket if self.kind is AccessKind.DISTANCE else b""
        key = (shard.name, shard_idx, key_bucket)
        with self._lock:
            cached = self._orders.get(key)
        if cached is not None:
            self.stats.record(stream_cache_hits=1)
            return cached
        self.stats.record(stream_cache_misses=1)
        backend = self._durable.get(shard.name)
        if backend is not None:
            # Durable relation: probe the catalog before sorting — a hit
            # replays the exact persisted permutation (zero re-sorts).
            order = backend.load_order(shard_idx, self.kind, key_bucket)
            if order is not None:
                self.stats.record(catalog_order_hits=1)
                with self._lock:
                    self._orders.put(key, order)
                return order
        # Sort outside the lock: concurrent misses may duplicate work but
        # never block each other; last writer wins with an equal order.
        # The sorted stream's order is shared as-is: its columns are
        # gathered once, its rows resolve only when pulled.  Sorting via
        # the stream rather than AccessOrder.sort keeps the sort inside
        # the DistanceAccess/ScoreAccess constructor span that tracers
        # (perfbench's ``access.sort``) attribute sort time to.
        self.stats.record(order_sorts=1)
        order = sorted_stream(shard, self.kind, canonical).order
        with self._lock:
            self._orders.put(key, order)
        if backend is not None:
            # Write the computed order back so the next process warm
            # starts from it (no-op on read-only stores: pool workers
            # keep their sorts local rather than fight for the WAL
            # writer lock).
            if backend.store_order(
                shard_idx, self.kind, key_bucket, order.positions, order.ranks
            ):
                self.stats.record(catalog_order_writes=1)
        return order

    def _open_cached_stream(
        self, relation: Relation, bucket: bytes, canonical: np.ndarray
    ):
        """One engine-facing stream for ``relation``, replaying cached
        per-shard orders: a :class:`CachedOrderStream` for a single hot
        shard, a shard-parallel :class:`~repro.core.access.MergeStream`
        of one :class:`~repro.core.access.ShardCursor` per shard
        otherwise.  A durable relation's evicted shards stay on disk:
        their cursors page the persisted order back window by window,
        in the same merge as the hot shards' cached orders."""
        backend = self._durable.get(relation.name)
        if backend is None:
            shards = relation.storage.shards
            count = len(shards)
        else:
            # Shard by shard, so evicted shards are never made hot here.
            count = backend.shard_count
        cursors = []
        for si in range(count):
            if backend is not None and backend.handles[si].evicted:
                key_bucket = bucket if self.kind is AccessKind.DISTANCE else b""
                cursors.append(
                    backend.paged_cursor(si, self.kind, key_bucket, canonical)
                )
                continue
            shard = shards[si] if backend is None else backend.shard_relation(si)
            order = self._order_for(shard, si, bucket, canonical)
            if count == 1:
                return CachedOrderStream(order, relation)
            cursors.append(ShardCursor(order))
        return MergeStream(relation, self.kind, cursors, executor=self._shard_pool)

    def _stream_factory(self, bucket: bytes, canonical: np.ndarray):
        def factory() -> list:
            return [
                self._open_cached_stream(r, bucket, canonical)
                for r in self.relations
            ]

        return factory

    # -- submission --------------------------------------------------------

    def _lookup_result(self, result_key) -> RunResult | None:
        """Result-cache probe (and hit accounting) shared by the sync
        and async front-ends; None on miss or with caching disabled."""
        if self._results is None:
            return None
        with self._lock:
            hit = self._results.get(result_key)
        if hit is not None:
            self.stats.record(result_cache_hits=1)
        return hit

    def submit(self, query: np.ndarray, k: int | None = None) -> RunResult:
        """Run one query to completion and return its result.

        Results for the same ``(query-bucket, k)`` may be served from the
        result cache; :class:`RunResult` is treated as immutable.
        """
        k = self.k if k is None else k
        canonical = self.canonical_query(query)
        bucket = self._bucket_key(canonical)
        result_key = (bucket, k)
        self.stats.record(queries=1)
        hit = self._lookup_result(result_key)
        if hit is not None:
            return hit
        engine = make_algorithm(
            self.algorithm,
            self.relations,
            self.scoring,
            canonical,
            k,
            kind=self.kind,
            pull_block=self.pull_block,
            bound_period=self.bound_period,
            stream_factory=self._stream_factory(bucket, canonical),
            max_pulls=self.max_pulls,
        )
        result = engine.run()
        if self._results is not None:
            with self._lock:
                self._results.put(result_key, result)
        return result

    def submit_many(
        self, queries: list[np.ndarray], k: int | None = None
    ) -> list[RunResult]:
        """Run a batch of queries through a thread pool.

        One persistent pool of ``max_workers`` threads serves every
        batch (created lazily on the first call, shut down in
        :meth:`close`); what is shared across workers are the service's
        caches and meters.  Results align with ``queries``.
        """
        if not queries:
            return []
        pool = self._ensure_query_pool()
        return list(pool.map(lambda q: self.submit(q, k), queries))

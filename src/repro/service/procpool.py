"""Multi-process rank-join serving over shared memmap shards.

The thread-pool service (:class:`~repro.service.rankjoin.
RankJoinService`) shares caches beautifully but shares the GIL too: the
engine's bound solvers are pure-Python/numpy CPU work, so on multi-core
hardware a thread pool serialises exactly what needs parallelising.
This module is the process-level counterpart:

* **N worker processes**, each opening the durable store *read-only*
  (:mod:`repro.service.procworker`).  The shard files are ``np.memmap``
  views — every worker maps the same bytes, the OS page cache keeps ONE
  physical copy — and the WAL catalog is opened without write access,
  so worker readers never take (or queue on) the writer lock.
* The **parent owns admission and the shared result cache** (the LRU it
  inherits from :class:`RankJoinService`), plus **bucket-affinity
  dispatch**: a query's canonical bucket hashes (crc32, stable across
  processes and runs) to a preferred worker, so repeats of a bucket
  land where the order LRU is already hot.  When the preferred worker's
  backlog is ``steal_threshold`` deeper than the emptiest worker's, the
  task is stolen by the least-loaded worker instead — affinity is a
  preference, not a queueing discipline.
* Results cross the pipe in the compact :mod:`~repro.service.wire`
  format — top-K tid/score/depth arrays and counter deltas, no pickled
  object graphs — and the parent folds every worker's ``ServiceStats``
  deltas into one pool-wide stats object through the ordinary atomic
  ``record()`` path.
* **Lifecycle**: workers are recycled after ``max_tasks_per_worker``
  replies (bounding any slow leak in a long-lived serving process) and
  respawned on crash, with the in-flight query re-dispatched.  Each
  query is sent to at most one *live* worker at a time, and a retry is
  bit-identical to the lost attempt because every input — shard files,
  catalog generation, canonical query — is immutable.

In-memory relations are served by **spooling**: the parent persists
them into a private durable store directory once at construction
(removed again at :meth:`close`), which is exactly the write-once
read-many shape the durable tier was built for.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import queue
import shutil
import tempfile
import threading
import warnings
import zlib
from concurrent.futures import Future
from dataclasses import dataclass, replace

import numpy as np

from repro.core.access import AccessKind
from repro.core.relation import Relation
from repro.core.scoring import Scoring
from repro.core.template import RunResult
from repro.service import wire
from repro.service.procworker import WorkerSpec, worker_main
from repro.service.rankjoin import RankJoinService, ServiceStats

__all__ = ["ProcPoolRankJoinService", "ProcPoolServiceStats"]

_SHUTDOWN_JOIN_SECONDS = 5.0


@dataclass
class ProcPoolServiceStats(ServiceStats):
    """Pool-wide meters: the base counters are *aggregated worker
    deltas* (folded in reply by reply), except ``queries`` and
    ``result_cache_hits`` which the parent records at admission.
    ``worker_queries`` is the workers' own executed-query count — it
    trails ``queries`` by exactly the result-cache hits."""

    worker_queries: int = 0
    #: Crash-driven worker respawns (SIGKILL, OOM, pipe loss).
    worker_restarts: int = 0
    #: Planned retirements after ``max_tasks_per_worker`` replies.
    worker_recycles: int = 0
    #: Queries dispatched to their bucket's preferred worker.
    affinity_hits: int = 0
    #: Queries diverted to the least-loaded worker (work stealing).
    affinity_steals: int = 0
    #: Queries re-dispatched after a worker died holding them.
    retried_queries: int = 0


class _Task:
    __slots__ = ("seq", "payload", "future", "retries", "is_ping")

    def __init__(self, seq: int, payload: bytes, *, is_ping: bool = False) -> None:
        self.seq = seq
        self.payload = payload
        self.future: Future = Future()
        self.retries = 0
        self.is_ping = is_ping


class _WorkerSlot:
    """Parent-side state of one worker: its queue, pipe, process and
    accumulated stats snapshot.  Exactly one runner thread drains the
    queue, so at most one task is in flight per worker."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.queue: "queue.Queue[_Task | None]" = queue.Queue()
        self.process = None
        self.conn = None
        self.busy = False
        self.tasks_done = 0
        self.stats_totals: dict[str, int] = {}
        self.thread: threading.Thread | None = None

    @property
    def backlog(self) -> int:
        return self.queue.qsize() + (1 if self.busy else 0)


class ProcPoolRankJoinService(RankJoinService):
    """Serve rank-join queries from a pool of worker *processes*.

    Accepts the same construction surface as
    :class:`~repro.service.rankjoin.RankJoinService` (the engine knobs
    travel to the workers in the spawn spec) plus:

    Parameters
    ----------
    workers:
        Worker process count.
    max_tasks_per_worker:
        Recycle a worker after this many query replies (``None``
        disables recycling).
    steal_threshold:
        How much deeper than the emptiest worker the preferred worker's
        backlog may be before a query is stolen.
    mp_context:
        Multiprocessing start method (``"fork"``/``"spawn"``/
        ``"forkserver"`` or a context object).  Defaults to ``fork``
        where available — workers re-open the store from scratch, so
        they depend on nothing forked except the pipe.
    store_path:
        Serve from this existing durable store instead of spooling.
        The given relations are still used for result rehydration and
        must match the store's contents.
    """

    _stats_cls = ProcPoolServiceStats
    stats: ProcPoolServiceStats

    #: Crash-driven retry budget per query before its future errors.
    max_retries = 3

    def __init__(
        self,
        relations: list[Relation],
        scoring: Scoring,
        *,
        workers: int = 4,
        max_tasks_per_worker: int | None = None,
        steal_threshold: int = 2,
        mp_context=None,
        store_path=None,
        kind: AccessKind = AccessKind.DISTANCE,
        algorithm: str = "TBPA",
        k: int = 10,
        pull_block: int = 8,
        bound_period: int = 1,
        cache_size: int = 64,
        result_cache_size: int = 256,
        bucket_decimals: int = 6,
        max_pulls: int | None = None,
        _failpoints: dict[int, int] | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        super().__init__(
            relations,
            scoring,
            kind=kind,
            algorithm=algorithm,
            k=k,
            pull_block=pull_block,
            bound_period=bound_period,
            cache_size=cache_size,
            result_cache_size=result_cache_size,
            bucket_decimals=bucket_decimals,
            max_workers=workers,
            max_pulls=max_pulls,
            # The parent never runs engines: no shard pulls — those live
            # in the workers.
            shard_workers=0,
        )
        self.workers = workers
        self.max_tasks_per_worker = max_tasks_per_worker
        self.steal_threshold = steal_threshold
        if mp_context is None or isinstance(mp_context, str):
            methods = multiprocessing.get_all_start_methods()
            name = mp_context or ("fork" if "fork" in methods else "spawn")
            mp_context = multiprocessing.get_context(name)
        self._ctx = mp_context
        self._failpoints = dict(_failpoints or {})
        self._spool_dir, resolved_store = self._resolve_store(store_path)
        self._spec = WorkerSpec(
            store_path=str(resolved_store),
            relation_names=[r.name for r in relations],
            scoring=scoring,
            kind_value=kind.value,
            algorithm=algorithm,
            k=k,
            pull_block=pull_block,
            bound_period=bound_period,
            cache_size=cache_size,
            bucket_decimals=bucket_decimals,
            max_pulls=max_pulls,
        )
        self._seq = 0
        self._tid_indexes: dict = {}
        self._closed = False
        # Serialises worker spawns: see _spawn_worker.
        self._spawn_lock = threading.Lock()
        self._slots = [_WorkerSlot(i) for i in range(workers)]
        for slot in self._slots:
            slot.thread = threading.Thread(
                target=self._slot_loop,
                args=(slot,),
                name=f"procpool-runner-{slot.index}",
                daemon=True,
            )
            slot.thread.start()

    # -- store resolution ---------------------------------------------------

    def _resolve_store(self, store_path):
        """``(owned_spool_dir_or_None, store_path)`` for the workers.

        A store path is used as-is; relations already served from one
        common durable store reuse it read-only; anything else is
        spooled into a private store directory (one write, N mapped
        readers)."""
        if store_path is not None:
            return None, store_path
        paths = {getattr(r, "path", None) for r in self.relations}
        if len(paths) == 1 and None not in paths and self._durable:
            return None, paths.pop()
        from repro.core.durable import persist_relation

        spool = tempfile.mkdtemp(prefix="proxrj-procpool-")
        for rel in self.relations:
            persist_relation(rel, spool)
        return spool, spool

    # -- worker lifecycle ---------------------------------------------------

    def _spawn_worker(self, slot: _WorkerSlot) -> None:
        spec = self._spec
        crash_at = self._failpoints.pop(slot.index, None)
        if crash_at is not None:
            spec = replace(spec, crash_at_task=crash_at)
        # One spawn at a time, from Pipe() until the parent has closed
        # the child end: a sibling forked in between would inherit that
        # end, and this worker's death would then read as a silent hang
        # instead of pipe EOF (the slot runners respawn concurrently).
        with self._spawn_lock:
            parent_conn, child_conn = self._ctx.Pipe()
            process = self._ctx.Process(
                target=worker_main,
                args=(child_conn, parent_conn, spec),
                name=f"procpool-worker-{slot.index}",
                daemon=True,
            )
            with warnings.catch_warnings():
                # Python >= 3.12 warns on fork() from a multi-threaded
                # parent; the workers rebuild all state from the store and
                # touch nothing forked but their pipe end.
                warnings.simplefilter("ignore", DeprecationWarning)
                process.start()
            # Parent must not hold the child end open, or a dead worker
            # would read as a silent hang instead of pipe EOF.
            child_conn.close()
        slot.process = process
        slot.conn = parent_conn
        slot.tasks_done = 0

    def _ensure_worker(self, slot: _WorkerSlot):
        if slot.process is not None and not slot.process.is_alive():
            # Died idle (between tasks) — same accounting as an
            # in-flight crash.
            self._reap_worker(slot)
            self.stats.record(worker_restarts=1)
        if slot.process is None:
            self._spawn_worker(slot)
        return slot.conn

    def _reap_worker(self, slot: _WorkerSlot) -> None:
        if slot.conn is not None:
            with contextlib.suppress(OSError):
                slot.conn.close()
        if slot.process is not None:
            slot.process.join(timeout=_SHUTDOWN_JOIN_SECONDS)
            if slot.process.is_alive():
                slot.process.kill()
                slot.process.join(timeout=_SHUTDOWN_JOIN_SECONDS)
        slot.process = None
        slot.conn = None

    def _retire_worker(self, slot: _WorkerSlot) -> None:
        """Planned, clean worker shutdown (recycling / close)."""
        if slot.conn is not None:
            with contextlib.suppress(OSError, BrokenPipeError):
                slot.conn.send_bytes(wire.OP_SHUTDOWN)
        self._reap_worker(slot)

    # -- dispatch -----------------------------------------------------------

    def _preferred_slot(self, bucket: bytes) -> int:
        return zlib.crc32(bucket) % len(self._slots)

    def _pick_slot(self, bucket: bytes) -> _WorkerSlot:
        preferred = self._slots[self._preferred_slot(bucket)]
        lightest = min(self._slots, key=lambda s: s.backlog)
        if preferred.backlog - lightest.backlog > self.steal_threshold:
            self.stats.record(affinity_steals=1)
            return lightest
        self.stats.record(affinity_hits=1)
        return preferred

    def _dispatch(self, canonical: np.ndarray, bucket: bytes, k: int) -> _Task:
        if self._closed:
            raise RuntimeError("service is closed")
        with self._lock:
            self._seq += 1
            seq = self._seq
        task = _Task(seq, wire.encode_query(seq, canonical, k))
        self._pick_slot(bucket).queue.put(task)
        return task

    # -- per-slot runner ----------------------------------------------------

    def _slot_loop(self, slot: _WorkerSlot) -> None:
        while True:
            task = slot.queue.get()
            if task is None:
                return
            slot.busy = True
            try:
                self._run_task(slot, task)
            except BaseException as exc:  # pragma: no cover - defensive
                if not task.future.done():
                    task.future.set_exception(exc)
            finally:
                slot.busy = False

    def _run_task(self, slot: _WorkerSlot, task: _Task) -> None:
        while True:
            try:
                conn = self._ensure_worker(slot)
                conn.send_bytes(task.payload)
                reply = conn.recv_bytes()
                break
            except (EOFError, OSError):
                # The worker died holding this task: at-most-once per
                # worker, so re-dispatching to the respawned worker
                # cannot double-execute anywhere — and the retry is
                # bit-identical because every input is immutable.
                self._reap_worker(slot)
                if self._closed:
                    task.future.set_exception(
                        RuntimeError("service closed while query was in flight")
                    )
                    return
                task.retries += 1
                self.stats.record(worker_restarts=1, retried_queries=1)
                if task.retries > self.max_retries:
                    task.future.set_exception(
                        RuntimeError(
                            f"query seq={task.seq} lost {task.retries} workers; "
                            "giving up"
                        )
                    )
                    return
        op = reply[:1]
        if op == wire.OP_PONG:
            task.future.set_result(None)
            return
        failure: RuntimeError | None = None
        fields: dict | None = None
        if op == wire.OP_ERROR:
            seq, message = wire.decode_error(reply)
            failure = RuntimeError(message)
        else:
            seq, fields = wire.decode_result(reply)
            if seq != task.seq:
                failure = RuntimeError(
                    f"wire desync: sent seq={task.seq}, got {seq}"
                )
            else:
                deltas = fields.get("stats", {})
                for name, value in deltas.items():
                    slot.stats_totals[name] = (
                        slot.stats_totals.get(name, 0) + value
                    )
                mapped = {
                    ("worker_queries" if name == "queries" else name): value
                    for name, value in deltas.items()
                    if name != "result_cache_hits"
                }
                if mapped:
                    self.stats.record(**mapped)
        # All bookkeeping — including a due recycle — lands before the
        # future resolves, so a caller that just got its result observes
        # consistent pool counters.
        slot.tasks_done += 1
        if (
            self.max_tasks_per_worker is not None
            and slot.tasks_done >= self.max_tasks_per_worker
        ):
            self._retire_worker(slot)
            self.stats.record(worker_recycles=1)
        if failure is not None:
            task.future.set_exception(failure)
        else:
            task.future.set_result(fields)

    # -- submission ---------------------------------------------------------

    def submit(self, query: np.ndarray, k: int | None = None) -> RunResult:
        """Run one query on the pool and return its result.

        Admission, canonicalisation and the result cache live here in
        the parent; execution happens in whichever worker the bucket's
        affinity (or stealing) picked."""
        k = self.k if k is None else k
        canonical = self.canonical_query(query)
        bucket = self._bucket_key(canonical)
        result_key = (bucket, k)
        self.stats.record(queries=1)
        hit = self._lookup_result(result_key)
        if hit is not None:
            return hit
        task = self._dispatch(canonical, bucket, k)
        return self._finish(task, result_key)

    def _finish(self, task: _Task, result_key) -> RunResult:
        fields = task.future.result()
        result = wire.rehydrate_result(fields, self.relations, self._tid_indexes)
        if self._results is not None:
            with self._lock:
                self._results.put(result_key, result)
        return result

    def submit_many(
        self, queries: list[np.ndarray], k: int | None = None
    ) -> list[RunResult]:
        """Run a batch across the pool; results align with ``queries``.

        All queries are dispatched up front (each to its affine worker's
        queue), then collected in order — the pool overlaps execution
        across processes, not threads, so the engines run GIL-free."""
        if not queries:
            return []
        kk = self.k if k is None else k
        pending: list[tuple[_Task | None, RunResult | None, tuple]] = []
        for query in queries:
            canonical = self.canonical_query(query)
            bucket = self._bucket_key(canonical)
            result_key = (bucket, kk)
            self.stats.record(queries=1)
            hit = self._lookup_result(result_key)
            if hit is not None:
                pending.append((None, hit, result_key))
            else:
                pending.append((self._dispatch(canonical, bucket, kk), None, result_key))
        return [
            hit if task is None else self._finish(task, result_key)
            for task, hit, result_key in pending
        ]

    # -- introspection ------------------------------------------------------

    def per_worker_stats(self) -> list[dict[str, int]]:
        """Each worker slot's accumulated ``ServiceStats`` deltas (the
        evidence trail for affinity: a hot slot shows the hits)."""
        return [dict(slot.stats_totals) for slot in self._slots]

    def warm_up(self) -> None:
        """Block until every worker process has built its serving stack
        (one ping per slot) — useful before timing anything."""
        tasks = []
        for slot in self._slots:
            with self._lock:
                self._seq += 1
                seq = self._seq
            task = _Task(seq, wire.OP_PING + seq.to_bytes(8, "little"), is_ping=True)
            slot.queue.put(task)
            tasks.append(task)
        for task in tasks:
            task.future.result()

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Drain queues, retire every worker, remove the spool (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for slot in self._slots:
            slot.queue.put(None)
        for slot in self._slots:
            if slot.thread is not None:
                slot.thread.join(timeout=_SHUTDOWN_JOIN_SECONDS * 2)
        for slot in self._slots:
            self._retire_worker(slot)
        super().close()
        if self._spool_dir is not None:
            shutil.rmtree(self._spool_dir, ignore_errors=True)
            self._spool_dir = None

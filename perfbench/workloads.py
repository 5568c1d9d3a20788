"""The three benchmark workloads: how each sets up, drives load and is checked.

``engine_tie_n3``
    Closed loop, one caller, no service: ``make_algorithm("TBPA", ...,
    pull_block=8, dominance_period=8).run()`` per query over tie-heavy
    n=3 relations.  The bound (QP) and dominance (LP) layers do most of
    the work.
``pool_zipf``
    Closed loop, one caller (one query in flight, so the parent and its
    workers never contend for the CPUs) calling
    ``ProcPoolRankJoinService.submit`` with one worker per usable
    CPU, over a durable store spooled at set-up.  Zipf queries over 4,096
    bucket points overflow the workers' 64-entry order LRUs, so the order,
    durable, pool and wire layers do the work.
``async_remote``
    Open loop: Poisson sends at a fixed rate into
    ``AsyncRankJoinService.submit`` over simulated remote shards, timed
    from the scheduled send, with a 250 ms deadline and reject admission.
    The hot set fits the caches, so the remote-window, prefetch, merge and
    admission layers do the work.

Each workload has a fixed, seed-determined list of queries.  A run
replays that list in rounds, each on a freshly set-up stack (see
``perfbench/run.py``), so every round does the same work and the host's
speed changes between rounds show as differences between repeats of the
same query.  Every answer is checked after the timed region against a
reference computed by a different path (see :func:`check_engine` and
:func:`check_service`).
"""

from __future__ import annotations

import asyncio
import ctypes
import gc
import multiprocessing
import os
import shutil
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

import inputs
from tracer import ContextExecutor

from repro import AccessKind, EuclideanLogScoring, Relation, make_algorithm
from repro.core import ShardedRelation
from repro.core.durable import persist_relation
from repro.service import (
    AsyncRankJoinService,
    LatencyModel,
    ProcPoolRankJoinService,
    QueryRejected,
    RankJoinService,
)

SCORING = EuclideanLogScoring(1.0, 1.0, 1.0)
PULL_BLOCK = 8


@dataclass
class Outcome:
    """One attempted query: list position, times and what came back."""

    pos: int  # index in the workload's query list
    start: float  # call time (closed loop) or scheduled send (open loop)
    latency: float
    result: object = None
    error: str | None = None
    rejected: bool = False
    lag: float = 0.0  # open loop: actual send minus scheduled send


@dataclass
class Phase:
    outcomes: list
    wall: float
    stats: dict
    extra: dict


def unique_executed(outcomes):
    """Results of queries the engine actually ran: result-cache hits hand
    back the cached object again, and queries that expired in the
    admission queue return a result with no engine counters."""
    seen, out = set(), []
    for o in outcomes:
        r = o.result
        if r is not None and r.counters and id(r) not in seen:
            seen.add(id(r))
            out.append(r)
    return out


def signature(result):
    """What an answer is compared on: ranked ``(key, score)`` pairs,
    depths and whether the run completed."""
    return (
        [(c.key, c.score) for c in result.combinations],
        list(result.depths),
        result.completed,
    )


def check_service(result, ref) -> str:
    """Pool / async answers against the in-process in-memory service.

    Completed answers must equal the reference :func:`signature` bit for
    bit (keys, float scores, depths).  A deadline-cut answer must agree on
    its certified prefix, the combinations it proves final."""
    if not ref[2]:
        return "wrong"
    got = signature(result)
    if result.completed:
        return "ok" if got == ref else "wrong"
    n = result.certified_count
    return "partial" if got[0][:n] == ref[0][:n] else "wrong"


def check_engine(result, corner_ranked, plain_depths, query) -> str:
    """TBPA answers against two other engines run outside the timed region.

    The corner-bound engine (CBPA) gives the top-K keys and scores; TBPA
    with dominance off gives the depths, because the dominance pass only
    removes entries that cannot set the tight bound, so it must not change
    where the run stops.  On tie-heavy data the combinations tied at the
    K-th score may differ from CBPA's tie-break; such an answer is
    accepted (and counted as ``"tie"``) when every combination above the
    K-th score matches and each tied one really scores exactly the K-th
    score."""
    got, depths, completed = signature(result)
    if not completed or depths != plain_depths:
        return "wrong"
    want = corner_ranked
    if got == want:
        return "ok"
    if [s for _, s in got] != [s for _, s in want]:
        return "wrong"
    kth = want[-1][1]
    if [g for g in got if g[1] != kth] != [w for w in want if w[1] != kth]:
        return "wrong"
    tied = [c for c in result.combinations if c.score == kth]
    if len({c.key for c in tied}) != len(tied):
        return "wrong"
    for c in tied:
        if SCORING.make_combination(c.tuples, query).score != kth:
            return "wrong"
    return "tie"


# Set only inside the forked reference processes (see compute_references).
_REFERENCE_FN = None


def _init_reference(fn) -> None:
    global _REFERENCE_FN
    _REFERENCE_FN = fn


def _reference_chunk(keys):
    return [_REFERENCE_FN(key) for key in keys]


def compute_references(fn, keys, cpus: int) -> dict:
    """``{key: fn(key)}`` over ``cpus`` forked processes, each taking one
    contiguous slice of ``keys`` (callers sort keys so that a slice shares
    caches).  ``fn`` is inherited through fork, never pickled; its
    results must pickle."""
    keys = list(keys)
    if cpus < 2 or len(keys) < 2:
        return {key: fn(key) for key in keys}
    step = -(-len(keys) // cpus)
    chunks = [keys[i : i + step] for i in range(0, len(keys), step)]
    with ProcessPoolExecutor(
        max_workers=len(chunks),
        mp_context=multiprocessing.get_context("fork"),
        initializer=_init_reference,
        initargs=(fn,),
    ) as pool:
        results = [r for chunk in pool.map(_reference_chunk, chunks) for r in chunk]
    return dict(zip(keys, results))


class Workload:
    """Shared shape: ``setup`` builds a ready serving stack from the
    generated arrays, ``replay`` runs the query list once on it,
    ``close`` releases the stack, ``check`` compares every answer."""

    name = ""
    has_service = True
    #: Set-ups per run at least; ``setup_s`` is their median.
    SETUPS = 5
    #: Rounds of an end-to-end run at least: each query's best of three.
    ROUNDS = 3
    #: Closed-loop callers; ``None`` for an open loop.
    clients: int | None = 1

    def __init__(self, seed: int, workdir, cpus: int) -> None:
        self.seed = seed
        self.workdir = workdir
        self.cpus = cpus

    def host_shape(self) -> dict:
        return {"load_threads": 1, "pool_workers": 0}

    def relations_of(self, handle):
        return handle[0]

    def warm(self, handle) -> None:
        """Untimed work before a replay; services warm up in set-up."""

    def prepare_traced(self, handle) -> None:
        """Adjust a freshly set-up stack for a traced replay."""


class EngineTie(Workload):
    name = "engine_tie_n3"
    has_service = False
    # Many small independent instances per seed, so one seed's data does
    # not decide the run's cost; queries rotate over them.
    INSTANCES = 96
    QUERIES_PER_INSTANCE = 2
    # Query cost is heavy-tailed, so a seed's mean cost needs a long list;
    # two rounds of it fit the run where three would not.
    ROUNDS = 2
    QUERIES = INSTANCES * QUERIES_PER_INSTANCE
    DOMINANCE_PERIOD = 8

    def __init__(self, seed, workdir, cpus):
        super().__init__(seed, workdir, cpus)
        rng = np.random.default_rng([seed, 1])
        self.arrays = []
        sides = []
        for _ in range(self.INSTANCES):
            arrays, side = inputs.tie_heavy_arrays(rng)
            self.arrays.append(arrays)
            sides.append(side)
        total = self.QUERIES
        ks = inputs.balanced_ks(rng, total)
        # Interleave instances so consecutive queries use different data.
        self.queries = [
            (
                j % self.INSTANCES,
                inputs.query_points(rng, 1, sides[j % self.INSTANCES])[0],
                int(ks[j]),
            )
            for j in range(total)
        ]

    def setup(self):
        return [
            [Relation(f"R{i + 1}", s, v, sigma_max=1.0) for i, (s, v) in enumerate(arrays)]
            for arrays in self.arrays
        ]

    def relations_of(self, handle):
        return handle

    def close(self, handle) -> None:
        pass

    def warm(self, relations) -> None:
        for inst, q, k in self.queries[:2]:
            self._run(relations, inst, q, k)

    def _run(self, relations, inst, q, k):
        return make_algorithm(
            "TBPA",
            relations[inst],
            SCORING,
            q,
            k,
            kind=AccessKind.DISTANCE,
            pull_block=PULL_BLOCK,
            dominance_period=self.DOMINANCE_PERIOD,
        ).run()

    def replay(self, relations, tracer=None) -> Phase:
        outcomes = []
        start = time.perf_counter()
        for pos, (inst, q, k) in enumerate(self.queries):
            t0 = time.perf_counter()
            handle = tracer.open("bench.query", pos, t0) if tracer else None
            result = error = None
            try:
                result = self._run(relations, inst, q, k)
            except Exception:  # counted as a failed query
                error = traceback.format_exc()
            finally:
                if handle:
                    tracer.close(handle)
            outcomes.append(
                Outcome(pos, t0, time.perf_counter() - t0, result, error)
            )
        return Phase(outcomes, time.perf_counter() - start, {}, {})

    def check(self, relations, phases) -> dict:
        """Status per answer, keyed ``(round, index)``: one reference per
        distinct query, though every answer to it is compared."""

        def reference(pos):
            inst, q, k = self.queries[pos]
            corner, plain = (
                make_algorithm(
                    algo, relations[inst], SCORING, q, k,
                    kind=AccessKind.DISTANCE, pull_block=PULL_BLOCK,
                ).run()
                for algo in ("CBPA", "TBPA")
            )
            return signature(corner)[0], signature(plain)[1]

        positions = sorted(
            {o.pos for phase in phases for o in phase.outcomes if o.result is not None}
        )
        refs = compute_references(reference, positions, self.cpus)
        return {
            (p, i): check_engine(o.result, *refs[o.pos], self.queries[o.pos][1])
            for p, phase in enumerate(phases)
            for i, o in enumerate(phase.outcomes)
            if o.result is not None
        }


class _ServiceWorkload(Workload):
    """Shared reference check for the two service workloads."""

    SHARDS = 4

    def _relations(self):
        return [
            ShardedRelation(
                f"R{i + 1}", s, v, sigma_max=1.0, shards=self.SHARDS
            )
            for i, (s, v) in enumerate(self.arrays)
        ]

    def query_for(self, pos):
        """Query point and ``k`` at position ``pos`` of the query list."""
        return self.points[self.stream[pos]], int(self.ks[pos])

    def check(self, relations, phases) -> dict:
        """Compare every answer with an in-process in-memory
        ``RankJoinService`` (same engine knobs), one reference per
        ``(bucket, k)``; references are computed grouped by bucket so each
        process sorts a bucket's shard orders once."""
        reference = RankJoinService(
            relations,
            SCORING,
            algorithm="TBPA",
            pull_block=PULL_BLOCK,
            cache_size=2 * self.SHARDS,
            result_cache_size=0,
            shard_workers=0,
        )
        try:
            keys, points = {}, {}
            for p, phase in enumerate(phases):
                for i, o in enumerate(phase.outcomes):
                    if o.result is not None:
                        point, k = self.query_for(o.pos)
                        key = (reference.canonical_query(point).tobytes(), k)
                        keys[(p, i)] = key
                        points[key] = point
            refs = compute_references(
                lambda key: signature(reference.submit(points[key], key[1])),
                sorted(points),
                self.cpus,
            )
        finally:
            reference.close()
        return {
            at: check_service(phases[at[0]].outcomes[at[1]].result, refs[key])
            for at, key in keys.items()
        }


class PoolZipf(_ServiceWorkload):
    name = "pool_zipf"
    N_TUPLES = 20_000
    BUCKETS = 4096
    ZIPF_S = 0.8
    # Seeds differ little in cost (quartile spread 0.03-0.06 for lists of
    # 48-192 queries), while the host's speed drifts within a run; a short
    # list gives more rounds, so each query's best round is more likely
    # to be a fast one.
    QUERIES = 96
    ROUNDS = 4
    # Set-up (spool, fork, ping) is short and noisy; a median of nine.
    SETUPS = 9
    CACHE_SIZE = 64
    RESULT_CACHE_SIZE = 256

    def __init__(self, seed, workdir, cpus):
        super().__init__(seed, workdir, cpus)
        rng = np.random.default_rng([seed, 2])
        self.arrays, side = inputs.uniform_arrays(rng, n_tuples=self.N_TUPLES)
        self.points = inputs.query_points(rng, self.BUCKETS, side)
        self.stream = inputs.zipf_indices(rng, self.BUCKETS, self.QUERIES, self.ZIPF_S)
        self.ks = inputs.balanced_ks(rng, self.QUERIES)
        self.workers = cpus
        self.persist_seconds = 0.0
        self.store_bytes = 0
        self._setups = 0

    def host_shape(self):
        return {"load_threads": 1, "pool_workers": self.workers}

    def setup(self):
        relations = self._relations()
        store = self.workdir / f"store-{self._setups}"
        self._setups += 1
        t0 = time.perf_counter()
        for rel in relations:
            persist_relation(rel, store)
        self.persist_seconds = time.perf_counter() - t0
        self.store_bytes = sum(
            f.stat().st_size for f in store.rglob("*") if f.is_file()
        )
        service = ProcPoolRankJoinService(
            relations,
            SCORING,
            workers=self.workers,
            store_path=store,
            algorithm="TBPA",
            pull_block=PULL_BLOCK,
            cache_size=self.CACHE_SIZE,
            result_cache_size=self.RESULT_CACHE_SIZE,
        )
        try:
            service.warm_up()
        except BaseException:
            service.close()
            raise
        return relations, service, store

    def user_bytes(self) -> int:
        return sum(s.nbytes + v.nbytes + 8 * len(s) for s, v in self.arrays)

    def close(self, handle) -> None:
        _, service, store = handle
        service.close()
        shutil.rmtree(store, ignore_errors=True)

    def replay(self, handle, tracer=None) -> Phase:
        _, service, _ = handle
        outcomes = []
        before = service.stats.snapshot()
        start = time.perf_counter()
        for pos in range(self.QUERIES):
            point, k = self.query_for(pos)
            t0 = time.perf_counter()
            handle_ = tracer.open("bench.query", pos, t0) if tracer else None
            result = error = None
            try:
                result = service.submit(point, k)
            except Exception:  # counted as a failed query
                error = traceback.format_exc()
            finally:
                if handle_:
                    tracer.close(handle_)
            outcomes.append(Outcome(pos, t0, time.perf_counter() - t0, result, error))
        wall = time.perf_counter() - start
        after = service.stats.snapshot()
        stats = {k: after[k] - before.get(k, 0) for k in after}
        return Phase(outcomes, wall, stats, {})


class AsyncRemote(_ServiceWorkload):
    name = "async_remote"
    N_TUPLES = 4000
    HOT = 32
    # Flatter than pool_zipf's 0.8: at 0.8 the hottest point's k=20
    # queries alone are ~4% of sends, so p95 flipped between seeds with
    # that one point's cost.
    ZIPF_S = 0.5
    # Sends/s: about 30% of the 33 queries/s four closed-loop clients
    # reach.
    RATE = 10.0
    DEADLINE = 0.25
    QUERIES = 64
    clients = None
    #: A run is invalid when the generator sends this late at p95.
    MAX_LAG_P95 = 0.05

    def __init__(self, seed, workdir, cpus):
        super().__init__(seed, workdir, cpus)
        rng = np.random.default_rng([seed, 3])
        self.arrays, side = inputs.uniform_arrays(rng, n_tuples=self.N_TUPLES)
        self.points = inputs.query_points(rng, self.HOT, side)
        self.stream = inputs.zipf_indices(rng, self.HOT, self.QUERIES, self.ZIPF_S)
        self.ks = inputs.balanced_ks(rng, self.QUERIES)

    def setup(self):
        relations = self._relations()
        service = AsyncRankJoinService(
            relations,
            SCORING,
            page_size=25,
            latency=LatencyModel(base=0.001, jitter=0.0005),
            seed=self.seed,
            max_inflight=4,
            queue_limit=16,
            admission="reject",
            # Orders and endpoints of the hot set: 32 buckets x 2
            # relations x 4 shards.
            cache_size=self.HOT * 2 * self.SHARDS,
            result_cache_size=0,
            algorithm="TBPA",
            pull_block=PULL_BLOCK,
        )

        async def warm_hot_set():
            for lo in range(0, self.HOT, service.max_inflight):
                batch = self.points[lo : lo + service.max_inflight]
                await asyncio.gather(*(service.submit(p, 5) for p in batch))

        try:
            asyncio.run(warm_hot_set())
        except BaseException:
            service.close()
            raise
        return relations, service

    def close(self, handle) -> None:
        handle[1].close()

    def prepare_traced(self, handle) -> None:
        """Run engine threads in the submitting task's context so their
        spans nest under the query (replaces a private attribute, in the
        traced round only)."""
        service = handle[1]
        old = service._engine_pool
        service._engine_pool = ContextExecutor(
            max_workers=old._max_workers, thread_name_prefix="async-rankjoin"
        )
        old.shutdown(wait=True)

    def replay(self, handle, tracer=None) -> Phase:
        service = handle[1]
        # The same seed gives the same send times in every round.
        offsets = inputs.poisson_schedule(
            np.random.default_rng([self.seed, 4]), self.RATE, self.QUERIES
        )
        outcomes = [None] * len(offsets)
        before = service.stats.snapshot()
        meters_before = service.remote_meters()

        async def one(i, due):
            send = time.perf_counter()
            point, k = self.query_for(i)
            handle_ = tracer.open("bench.query", i, due) if tracer else None
            result = error = None
            rejected = False
            try:
                remaining = self.DEADLINE - (send - due)
                if remaining > 0:
                    result = await service.submit(point, k, deadline=remaining)
            except QueryRejected:
                rejected = True
            except Exception:  # counted as a failed query
                error = traceback.format_exc()
            finally:
                if handle_:
                    tracer.close(handle_)
            outcomes[i] = Outcome(
                i, due, time.perf_counter() - due, result, error, rejected, send - due
            )

        async def generate():
            loop = asyncio.get_running_loop()
            start = time.perf_counter()
            tasks = []
            for i, offset in enumerate(offsets):
                due = start + offset
                delay = due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                tasks.append(loop.create_task(one(i, due)))
            await asyncio.gather(*tasks)
            return start

        start = asyncio.run(generate())
        wall = time.perf_counter() - start
        after = service.stats.snapshot()
        meters_after = service.remote_meters()
        stats = {k: after[k] - before.get(k, 0) for k in after}
        meters = {k: meters_after[k] - meters_before[k] for k in meters_after}
        return Phase(outcomes, wall, stats, {"meters": meters})


WORKLOADS = {w.name: w for w in (EngineTie, PoolZipf, AsyncRemote)}


def release_free_heap() -> None:
    """Collect garbage and hand freed heap pages back to the OS (glibc's
    ``malloc_trim``) in this process; pool workers are not trimmed."""
    gc.collect()
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return
    libc.malloc_trim.argtypes = [ctypes.c_size_t]
    libc.malloc_trim.restype = ctypes.c_int
    libc.malloc_trim(0)


def serving_memory_mb(field: str) -> float:
    """``field`` of ``/proc/<pid>/status`` (``VmRSS`` now, ``VmHWM`` peak)
    summed over this process and its live children, the pool workers."""
    total_kb = 0
    for pid in [os.getpid()] + [c.pid for c in multiprocessing.active_children()]:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith(field + ":"):
                        total_kb += int(line.split()[1])
        except OSError:
            pass
    return total_kb / 1024.0

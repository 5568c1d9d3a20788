"""Process-pool serving tier tests.

The tentpole bars:

* **Bit-identity** — every answer a worker process ships over the wire
  (top-K combination keys *and* scores, per-relation depths, final
  bound) equals the single-process service's answer under ``==``, for
  S in {1, 2, 4} shards and both access kinds.
* **Crash recovery** — a worker SIGKILLed mid-batch (deterministic
  failpoint) is respawned, its in-flight query re-dispatched, and the
  batch completes bit-identically with ``worker_restarts`` counting the
  respawn.
* **Stats plumbing** — the parent-aggregated ``ServiceStats`` equals
  the sum of the per-worker snapshots for every worker-side counter
  (the deltas ride each reply and fold in via the atomic ``record()``
  path).
* **Read-only store contract** — workers never take the catalog writer
  lock: a read-only catalog refuses writes and skips hit bumps.

Plus the submit_many satellite: the batch thread pool is created once,
reused across batches and torn down by ``close()``.
"""

import threading

import numpy as np
import pytest

from repro.core import (
    AccessKind,
    EuclideanLogScoring,
    ShardedRelation,
)
from repro.core.durable import ShardCatalog, persist_relation
from repro.data import SyntheticConfig, generate_problem
from repro.service import ProcPoolRankJoinService, RankJoinService

SCORING = EuclideanLogScoring(1.0, 1.0, 1.0)

# Worker-side counters the parent must aggregate exactly (queries is
# remapped to worker_queries; result_cache_hits stays parent-owned).
WORKER_COUNTERS = (
    "stream_cache_hits",
    "stream_cache_misses",
    "order_sorts",
)


def make_problem(n=2, size=40, seed=0, d=2):
    return generate_problem(
        SyntheticConfig(
            n_relations=n, dims=d, density=50.0, skew=1.0,
            n_tuples=size, seed=seed,
        )
    )


def query_batch(dim, count, seed=7):
    rng = np.random.default_rng(seed)
    return [rng.uniform(-3.0, 3.0, size=dim) for _ in range(count)]


def result_sig(res):
    return (
        [(c.key, c.score) for c in res.combinations],
        tuple(res.depths),
        res.bound,
        res.completed,
    )


@pytest.mark.parametrize("shards", [1, 2, 4])
@pytest.mark.parametrize("kind", [AccessKind.DISTANCE, AccessKind.SCORE])
def test_bit_identical_to_single_process(shards, kind):
    relations, _ = make_problem()
    if shards > 1:
        relations = [
            ShardedRelation.from_relation(r, shards=shards) for r in relations
        ]
    queries = query_batch(2, 6)
    with RankJoinService(relations, SCORING, kind=kind, k=5) as ref:
        want = [result_sig(ref.submit(q)) for q in queries]
    with ProcPoolRankJoinService(
        relations, SCORING, kind=kind, k=5, workers=2
    ) as pool:
        got = [result_sig(r) for r in pool.submit_many(queries)]
    assert got == want


#: Wall-clock bound on the crash-recovery batch (it takes well under a
#: second when recovery works; a lost pipe EOF would hang it forever).
CRASH_BATCH_SECONDS = 60.0


def within(seconds, fn, *args):
    """``fn(*args)``, failing the test instead of hanging when it does not
    return within ``seconds`` (the call runs on a daemon thread, so a
    wedged call cannot block interpreter exit either)."""
    box = {}

    def run():
        try:
            box["value"] = fn(*args)
        except BaseException as exc:  # re-raised in the test thread
            box["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(seconds)
    if thread.is_alive():
        pytest.fail(f"{fn.__name__} did not return within {seconds:.0f}s")
    if "error" in box:
        raise box["error"]
    return box["value"]


def test_worker_crash_mid_batch_recovers_bit_identically():
    relations, _ = make_problem()
    queries = query_batch(2, 8)
    with RankJoinService(relations, SCORING, k=5) as ref:
        want = [result_sig(ref.submit(q)) for q in queries]
    # Worker 0 SIGKILLs itself while handling its 2nd task — before
    # replying, so the parent sees pipe EOF with the query in flight.
    with ProcPoolRankJoinService(
        relations, SCORING, k=5, workers=2, _failpoints={0: 2}
    ) as pool:
        results = within(CRASH_BATCH_SECONDS, pool.submit_many, queries)
        got = [result_sig(r) for r in results]
        stats = pool.stats.snapshot()
    assert got == want
    assert stats["worker_restarts"] >= 1
    assert stats["retried_queries"] >= 1
    assert stats["worker_queries"] == len(queries)


def test_parent_aggregate_equals_sum_of_worker_snapshots():
    relations, _ = make_problem()
    queries = query_batch(2, 10)
    with ProcPoolRankJoinService(
        relations, SCORING, k=5, workers=3, result_cache_size=0
    ) as pool:
        pool.submit_many(queries)
        aggregate = pool.stats.snapshot()
        per_worker = pool.per_worker_stats()
    for counter in WORKER_COUNTERS:
        total = sum(s.get(counter, 0) for s in per_worker)
        assert aggregate[counter] == total, counter
    assert aggregate["worker_queries"] == sum(
        s.get("queries", 0) for s in per_worker
    )
    assert aggregate["worker_queries"] == len(queries)


def test_parent_owns_result_cache():
    relations, _ = make_problem()
    query = np.array([0.25, -0.75])
    with ProcPoolRankJoinService(relations, SCORING, k=5, workers=2) as pool:
        first = pool.submit(query)
        second = pool.submit(query)
        stats = pool.stats.snapshot()
    assert second is first  # served from the parent LRU, no dispatch
    assert stats["result_cache_hits"] == 1
    assert stats["worker_queries"] == 1


def test_bucket_affinity_dispatch_is_sticky():
    relations, _ = make_problem()
    queries = query_batch(2, 4)
    with ProcPoolRankJoinService(
        relations, SCORING, k=5, workers=2, result_cache_size=0
    ) as pool:
        preferred = {pool._preferred_slot(pool._bucket_key(
            pool.canonical_query(q))) for q in queries}
        for _ in range(3):  # repeats of each bucket land on the same worker
            for q in queries:
                pool.submit(q)
        stats = pool.stats.snapshot()
        per_worker = pool.per_worker_stats()
    assert stats["affinity_hits"] == 12
    assert stats["affinity_steals"] == 0
    # Serial submission keeps backlogs empty, so every repeat re-hit its
    # preferred worker's order LRU: sorts happen only on first sight.
    busy = [s for s in per_worker if s.get("queries", 0)]
    assert len(busy) == len(preferred)
    for snap in busy:
        assert snap["order_sorts"] == snap["stream_cache_misses"]
        assert snap["stream_cache_hits"] > 0


def test_worker_recycling_after_max_tasks():
    relations, _ = make_problem()
    queries = query_batch(2, 6)
    with ProcPoolRankJoinService(
        relations, SCORING, k=5, workers=1, max_tasks_per_worker=2,
        result_cache_size=0,
    ) as pool:
        with RankJoinService(relations, SCORING, k=5) as ref:
            want = [result_sig(ref.submit(q)) for q in queries]
        got = [result_sig(r) for r in pool.submit_many(queries)]
        stats = pool.stats.snapshot()
    assert got == want
    assert stats["worker_recycles"] == 3
    assert stats["worker_restarts"] == 0  # planned retirement, not crashes


def test_serves_existing_durable_store_read_only(tmp_path):
    relations, _ = make_problem()
    store = tmp_path / "store"
    sharded = [ShardedRelation.from_relation(r, shards=2) for r in relations]
    for r in sharded:
        persist_relation(r, store)
    queries = query_batch(2, 4)
    with RankJoinService(sharded, SCORING, k=5) as ref:
        want = [result_sig(ref.submit(q)) for q in queries]
    with ProcPoolRankJoinService(
        sharded, SCORING, k=5, workers=2, store_path=store
    ) as pool:
        got = [result_sig(r) for r in pool.submit_many(queries)]
        assert pool._spool_dir is None  # no spooling: served in place
    assert got == want
    # Workers opened the catalog read-only: no order rows were written.
    with ShardCatalog(store / "catalog.sqlite", read_only=True) as catalog:
        assert catalog.order_count(sharded[0].name, 1) == 0


def test_read_only_catalog_refuses_writes(tmp_path):
    relations, _ = make_problem(n=1)
    store = tmp_path / "store"
    persist_relation(relations[0], store)
    catalog = ShardCatalog(store / "catalog.sqlite", read_only=True)
    try:
        assert catalog.read_only
        assert not catalog.put_order(
            relation=relations[0].name, generation=1, shard_index=0,
            kind="distance", bucket=b"x",
            perm=np.arange(3), ranks=np.zeros(3),
        )
        with pytest.raises(RuntimeError):
            catalog.commit_generation(
                name="nope", generation=1, n=0, dim=0, sigma_max=0.0,
                partition=None, shard_rows=[],
            )
        with pytest.raises(RuntimeError):
            catalog.prune_generations(relations[0].name, 2)
    finally:
        catalog.close()


def test_spool_dir_removed_on_close():
    relations, _ = make_problem()
    pool = ProcPoolRankJoinService(relations, SCORING, k=5, workers=1)
    spool = pool._spool_dir
    assert spool is not None
    pool.submit(np.array([0.0, 0.0]))
    pool.close()
    import os

    assert not os.path.exists(spool)
    pool.close()  # idempotent


def test_submit_many_pool_is_persistent():
    relations, _ = make_problem()
    queries = query_batch(2, 4)
    svc = RankJoinService(relations, SCORING, k=5)
    try:
        assert svc._query_pool is None  # lazy: not built until first batch
        svc.submit_many(queries[:2])
        pool = svc._query_pool
        assert pool is not None
        svc.submit_many(queries[2:])
        assert svc._query_pool is pool  # reused, not rebuilt per batch
    finally:
        svc.close()
    assert svc._query_pool is None  # close() tore it down
    # The service stays usable: the next batch lazily rebuilds the pool.
    assert len(svc.submit_many(queries[:1])) == 1
    svc.close()

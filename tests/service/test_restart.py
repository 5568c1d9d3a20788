"""Restart tests: a service restarted over a durable store answers
exactly as the process that served it first.

Access orders are not persisted: every process sorts the heads of the
orders its queries read from the shard files.  So a restarted service —
the sync service, the process pool or the async service — must
reproduce the first process's answers bit for bit from the store alone,
for S in {1, 2, 4} and both access kinds, including tie-heavy orders,
whose ``(rank, tid)`` tie-breaks straddle the first head's cut.  The
order LRU keeps its bucket keying: queries that round to one bucket
share its orders, distinct buckets sort their own.
"""

import numpy as np
import pytest

from repro.core import (
    AccessKind,
    EuclideanLogScoring,
    ShardedRelation,
)
from repro.core.access import HEAD_ROWS
from repro.core.durable import open_relation, persist_relation
from repro.data import SyntheticConfig, generate_problem
from repro.service import (
    AsyncRankJoinService,
    LatencyModel,
    ProcPoolRankJoinService,
    RankJoinService,
)

SCORING = EuclideanLogScoring(1.0, 1.0, 1.0)
KINDS = [AccessKind.DISTANCE, AccessKind.SCORE]
SERVICES = ["sync", "procpool", "async"]


def make_problem(n=2, size=48, seed=0, d=2):
    return generate_problem(
        SyntheticConfig(
            n_relations=n, dims=d, density=50.0, skew=1.0,
            n_tuples=size, seed=seed,
        )
    )


def persist_all(relations, store, shards=2):
    for r in relations:
        persist_relation(
            ShardedRelation.from_relation(r, shards=shards) if shards > 1 else r,
            store,
        )


def open_all(relations, store):
    return [open_relation(store, r.name) for r in relations]


def close_all(relations):
    for r in relations:
        r.close()


def result_sig(res):
    return (
        [(c.key, c.score) for c in res.combinations],
        tuple(res.depths),
        res.bound,
    )


def first_process(relations, store, kind, k, queries):
    """Answers of the first service over the store, and its sort count."""
    durable = open_all(relations, store)
    try:
        with RankJoinService(
            durable, SCORING, kind=kind, k=k, result_cache_size=0
        ) as svc:
            answers = [result_sig(svc.submit(q)) for q in queries]
            return answers, svc.stats.order_sorts
    finally:
        close_all(durable)


def restarted(service, relations, store, kind, k, queries):
    """Answers of a ``service`` built over freshly opened relations."""
    durable = open_all(relations, store)
    try:
        if service == "sync":
            with RankJoinService(
                durable, SCORING, kind=kind, k=k, result_cache_size=0
            ) as svc:
                return [result_sig(svc.submit(q)) for q in queries]
        if service == "procpool":
            with ProcPoolRankJoinService(
                durable, SCORING, kind=kind, k=k, workers=2,
                store_path=store, result_cache_size=0,
            ) as svc:
                return [result_sig(r) for r in svc.submit_many(queries)]
        svc = AsyncRankJoinService(
            durable, SCORING, kind=kind, k=k, seed=3, result_cache_size=0,
            latency=LatencyModel(base=0.0, jitter=0.0),
        )
        try:
            return [result_sig(r) for r in svc.serve(queries)]
        finally:
            svc.close()
    finally:
        close_all(durable)


@pytest.mark.parametrize("service", SERVICES)
@pytest.mark.parametrize("shards", [1, 2, 4])
@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
def test_restarted_service_answers_like_the_first(tmp_path, kind, shards, service):
    relations, query = make_problem(n=2, size=48)
    persist_all(relations, tmp_path, shards=shards)
    rng = np.random.default_rng(shards)
    queries = [query] + [query + rng.uniform(-0.3, 0.3, 2) for _ in range(2)]
    want, sorts = first_process(relations, tmp_path, kind, 5, queries)
    assert sorts >= 2 * shards
    assert restarted(service, relations, tmp_path, kind, 5, queries) == want


@pytest.mark.parametrize("service", SERVICES)
@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
def test_tie_heavy_restart(tmp_path, kind, service):
    """Two-valued scores on a 3x3 grid, 300 rows per shard: the first
    head's cut falls inside a run of tied ranks, and every position is
    a tid tie-break."""
    rng = np.random.default_rng(1)
    size = 600
    rel = ShardedRelation(
        "T",
        rng.choice([0.5, 1.0], size),
        rng.choice([-1.0, 0.0, 1.0], (size, 2)),
        shards=2,
        sigma_max=1.0,
    )
    assert min(len(s) for s in rel.storage.shards) > HEAD_ROWS
    persist_relation(rel, tmp_path)
    queries = [np.zeros(2), np.array([0.5, -0.5])]
    want, _ = first_process([rel], tmp_path, kind, 4, queries)
    assert restarted(service, [rel], tmp_path, kind, 4, queries) == want


@pytest.mark.parametrize("durable", [True, False], ids=["durable", "memory"])
def test_bucket_collisions_share_orders(tmp_path, durable):
    """Queries that round to one bucket share its orders; a query in a
    different bucket sorts its own."""
    relations, query = make_problem(n=2, size=40)
    if durable:
        persist_all(relations, tmp_path, shards=1)
        relations = open_all(relations, tmp_path)
    svc = RankJoinService(
        relations, SCORING, k=5, bucket_decimals=2, result_cache_size=0,
    )
    q1 = np.asarray(query, dtype=float)
    q1_twin = q1 + 1e-6   # collides with q1 at 2 decimals
    q2 = q1 + 0.25        # distinct bucket
    sorts, answers = [], []
    for q in (q1, q1_twin, q2):
        answers.append(result_sig(svc.submit(q)))
        sorts.append(svc.stats.order_sorts)
    assert sorts == [2, 2, 4]
    assert svc.stats.stream_cache_hits == 2
    assert answers[1] == answers[0]
    buckets = {bucket for _, _, bucket in svc._orders._data}
    assert len(buckets) == 2 and len(svc._orders) == 4
    svc.close()
    if durable:
        close_all(relations)


def test_evicted_lru_entry_is_resorted(tmp_path):
    """A 1-entry order LRU drops orders between queries; the re-query
    sorts them again and answers the same."""
    relations, query = make_problem(n=2, size=40)
    persist_all(relations, tmp_path, shards=1)
    durable = open_all(relations, tmp_path)
    svc = RankJoinService(
        durable, SCORING, k=5, cache_size=1, result_cache_size=0,
    )
    ref = result_sig(svc.submit(query))
    assert svc.stats.order_sorts == 2
    assert result_sig(svc.submit(query)) == ref
    assert svc.stats.order_sorts > 2
    svc.close()
    close_all(durable)

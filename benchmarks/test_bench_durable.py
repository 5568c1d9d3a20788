"""Durable-tier benchmark: cold vs warm first-query latency.

The claims asserted: a service restarted over a durable store answers
its first query faster than a cold service over a fresh store, with
every access order already in its LRU — preloaded from the catalog at
construction, so the query itself sorts nothing and probes nothing —
and with the cold service's exact answer.

A cold first query sorts each order (one lexsort and one columnar
gather per shard) and writes it back; the warm one replays the
persisted permutation instead.  Neither builds ``RankTuple`` rows
beyond those the engine pulls, so the gap between them is the sorts
and write-backs alone, a small part of a first query whose cost is the
engine's bound work: about 1.2x at n=8000 and 1.35x at n=30000.  A
single pair of first queries is too noisy to order reliably at that
gap, so the cold/warm cycle runs ``REPEATS`` times, each over its own
fresh store, and the bar compares the fastest cold and warm first
queries.

Records a ``durable_warmstart[...]`` entry in ``BENCH_core.json`` with
both latencies, the speedup, and the setup (construction) times of both
services for honesty — the warm service's construction includes the
catalog preload.

Set ``PROXRJ_BENCH_QUICK=1`` (CI smoke mode) to shrink the workload.
"""

import os
import time

import numpy as np
import pytest

from conftest import record_bench, synthetic_problem
from repro.core import EuclideanLogScoring, Relation
from repro.service import RankJoinService

QUICK = bool(os.environ.get("PROXRJ_BENCH_QUICK"))
N_TUPLES = 8_000 if QUICK else 30_000
N_RELATIONS = 3
K = 5
REPEATS = 7

SCORING = EuclideanLogScoring(1.0, 1.0, 1.0)


def ranked(res):
    return [(c.key, c.score) for c in res.combinations]


@pytest.mark.parametrize("label", [f"n{N_TUPLES}xr{N_RELATIONS}"])
def test_durable_warmstart(tmp_path, label):
    relations, query = synthetic_problem(
        n_relations=N_RELATIONS, n_tuples=N_TUPLES
    )
    cold_first, warm_first, cold_setup, warm_setup = [], [], [], []
    for rep in range(REPEATS):
        store = tmp_path / f"store{rep}"
        for rel in relations:
            rel.persist(store)

        # -- cold: fresh store, nothing persisted beyond the columns ----
        cold_rels = [Relation.open(store, r.name) for r in relations]
        t0 = time.perf_counter()
        cold = RankJoinService(cold_rels, SCORING, k=K, result_cache_size=0)
        cold_setup.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        cold_result = cold.submit(query)
        cold_first.append(time.perf_counter() - t0)
        assert cold.stats.order_sorts == N_RELATIONS
        cold.close()
        for r in cold_rels:
            r.close()

        # -- warm: restarted process over the same store ----------------
        warm_rels = [Relation.open(store, r.name) for r in relations]
        t0 = time.perf_counter()
        warm = RankJoinService(warm_rels, SCORING, k=K, result_cache_size=0)
        warm_setup.append(time.perf_counter() - t0)
        hits_before = sum(
            r.storage.counters["catalog_order_hits"] for r in warm_rels
        )
        t0 = time.perf_counter()
        warm_result = warm.submit(query)
        warm_first.append(time.perf_counter() - t0)
        assert warm.stats.order_sorts == 0, "warm first query must not re-sort"
        assert warm.stats.orders_warm_loaded == N_RELATIONS
        # Every order came from the preloaded LRU: no miss, no catalog probe.
        assert warm.stats.stream_cache_hits == N_RELATIONS
        assert warm.stats.stream_cache_misses == 0
        hits_after = sum(
            r.storage.counters["catalog_order_hits"] for r in warm_rels
        )
        assert hits_after == hits_before
        assert ranked(warm_result) == ranked(cold_result)
        warm.close()
        for r in warm_rels:
            r.close()

    cold_first_s, warm_first_s = min(cold_first), min(warm_first)
    speedup = cold_first_s / max(warm_first_s, 1e-9)
    record_bench(
        f"durable_warmstart[{label}]",
        warm_first_s,
        cold_first_seconds=round(cold_first_s, 6),
        warm_first_seconds=round(warm_first_s, 6),
        cold_setup_seconds=round(min(cold_setup), 6),
        warm_setup_seconds=round(min(warm_setup), 6),
        speedup=round(speedup, 2),
        n_tuples=N_TUPLES,
        n_relations=N_RELATIONS,
        repeats=REPEATS,
    )
    # The latency bar: replaying persisted orders beats sorting them.
    assert warm_first_s < cold_first_s, (
        f"warm first query ({warm_first_s * 1e3:.1f} ms) not faster than "
        f"cold ({cold_first_s * 1e3:.1f} ms), best of {REPEATS} each"
    )

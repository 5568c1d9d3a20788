"""Durable-tier benchmark: first-query latency of a fresh and of a
restarted service.

Access orders are not persisted: a service over a freshly persisted
store and a service restarted over the same store (brand-new relation
objects, as a new process opens them) both sort the heads of the orders
their first query reads — one rank pass and one head sort per order.
The claim asserted is that the restarted service answers exactly as the
fresh one, with the same number of sorts; there is no latency bar, the
two do the same work.

Each fresh/restarted cycle runs ``REPEATS`` times over its own fresh
store; the ``durable_restart[...]`` record in ``BENCH_core.json`` keeps
both first-query latencies (best of the repeats) and both services'
construction times.

Set ``PROXRJ_BENCH_QUICK=1`` (CI smoke mode) to shrink the workload.
"""

import os
import time

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


def first_query(store, relations, query):
    """Open the store, build a service, answer one query: returns
    ``(setup seconds, first-query seconds, ranked answer)``."""
    opened = [Relation.open(store, r.name) for r in relations]
    try:
        t0 = time.perf_counter()
        service = RankJoinService(opened, SCORING, k=K, result_cache_size=0)
        setup = time.perf_counter() - t0
        with service:
            t0 = time.perf_counter()
            result = service.submit(query)
            first = time.perf_counter() - t0
            assert service.stats.order_sorts == N_RELATIONS
        return setup, first, ranked(result)
    finally:
        for r in opened:
            r.close()


@pytest.mark.parametrize("label", [f"n{N_TUPLES}xr{N_RELATIONS}"])
def test_durable_restart(tmp_path, label):
    relations, query = synthetic_problem(
        n_relations=N_RELATIONS, n_tuples=N_TUPLES
    )
    fresh_first, again_first, fresh_setup, again_setup = [], [], [], []
    for rep in range(REPEATS):
        store = tmp_path / f"store{rep}"
        for rel in relations:
            rel.persist(store)
        setup, first, fresh_answer = first_query(store, relations, query)
        fresh_setup.append(setup)
        fresh_first.append(first)
        # "Restart": brand-new relation objects over the same store.
        setup, first, again_answer = first_query(store, relations, query)
        again_setup.append(setup)
        again_first.append(first)
        assert again_answer == fresh_answer

    record_bench(
        f"durable_restart[{label}]",
        min(again_first),
        fresh_first_seconds=round(min(fresh_first), 6),
        restarted_first_seconds=round(min(again_first), 6),
        fresh_setup_seconds=round(min(fresh_setup), 6),
        restarted_setup_seconds=round(min(again_setup), 6),
        n_tuples=N_TUPLES,
        n_relations=N_RELATIONS,
        repeats=REPEATS,
    )

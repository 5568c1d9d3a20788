"""Durable tiered storage: persist -> serve -> restart -> evict.

A production rank-join deployment doesn't rebuild its relations from
Python lists on every boot.  This demo walks the durable tier end to
end:

1. **Persist** two sharded relations into one store directory — an
   immutable columnar file per shard (memory-mapped on read) behind a
   WAL-mode SQLite catalog.
2. **Serve**: a service over the freshly opened store answers a batch
   of hot-bucket queries; each access order sorts only its head (the
   rows a query reads), once per bucket, and the order LRU shares it.
3. **"Restart"**: close everything, re-open the store as a brand-new
   process would, and build a new service over it — it sorts the heads
   its queries read from the shard files, and its results are
   bit-identical to the first process and to the in-memory reference.
4. **Evict**: drop a shard from RAM and stream it back page by page
   from the memmap through the same window API remote shards use —
   results still bit-identical.

Run:  python examples/durable_service.py
"""

import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core import EuclideanLogScoring, Relation, ShardedRelation
from repro.data import SyntheticConfig, generate_problem
from repro.service import RankJoinService

K = 5
SHARDS = 2
relations, base_query = generate_problem(
    SyntheticConfig(
        n_relations=2, dims=2, density=50.0, skew=1.0, n_tuples=400, seed=11
    )
)
scoring = EuclideanLogScoring(1.0, 1.0, 1.0)
sharded = [ShardedRelation.from_relation(r, shards=SHARDS) for r in relations]

rng = np.random.default_rng(0)
hot_buckets = [base_query + rng.uniform(-0.2, 0.2, 2) for _ in range(4)]
queries = [hot_buckets[i % len(hot_buckets)] for i in range(12)]


def ranked(res):
    return [(c.key, round(c.score, 10)) for c in res.combinations]


with tempfile.TemporaryDirectory() as tmp:
    store = Path(tmp) / "store"

    # -- 1. persist ---------------------------------------------------------
    for rel in sharded:
        rel.persist(store)
    n_files = len(list((store / "shards").glob("*.shard")))
    print(f"persisted {len(sharded)} relations as {n_files} shard files + catalog")

    # -- 2. first service ---------------------------------------------------
    durable = [Relation.open(store, r.name) for r in sharded]
    t0 = time.perf_counter()
    # result_cache_size=0 keeps every submit on the stream path, so the
    # demo's meters show order/stream traffic rather than result-cache hits.
    first = RankJoinService(durable, scoring, k=K, result_cache_size=0)
    first_results = [first.submit(q) for q in queries]
    first_s = time.perf_counter() - t0
    snap = first.stats.snapshot()
    print(
        f"first service: {len(queries)} queries in {first_s * 1e3:.1f} ms, "
        f"{snap['order_sorts']} order heads sorted, "
        f"{snap['stream_cache_hits']} LRU hits"
    )
    first.close()
    for r in durable:
        r.close()

    # In-memory reference for the bit-identity claims below.
    reference = RankJoinService(sharded, scoring, k=K, result_cache_size=0)
    ref_results = [reference.submit(q) for q in queries]
    reference.close()

    # -- 3. restart ---------------------------------------------------------
    durable = [Relation.open(store, r.name) for r in sharded]
    t0 = time.perf_counter()
    again = RankJoinService(durable, scoring, k=K, result_cache_size=0)
    again_results = [again.submit(q) for q in queries]
    again_s = time.perf_counter() - t0
    assert again.stats.order_sorts == snap["order_sorts"]
    for a, f, ref in zip(again_results, first_results, ref_results):
        assert ranked(a) == ranked(f) == ranked(ref)
    print(
        f"restarted service: {len(queries)} queries in {again_s * 1e3:.1f} ms, "
        f"{again.stats.order_sorts} order heads sorted from the shard files"
    )
    print("restarted results bit-identical to the first process and in-memory runs")

    # -- 4. evict + page back -----------------------------------------------
    for r in durable:
        r.storage.evict_all()
    paged = [again.submit(q) for q in queries]
    for p, ref in zip(paged, ref_results):
        assert ranked(p) == ranked(ref)
    counters = durable[0].storage.counters
    print(
        f"evicted shards paged back from disk: {counters['paged_windows']} "
        f"windows, {counters['paged_rows']} rows served via the memmap — "
        "results still bit-identical"
    )
    again.close()
    for r in durable:
        r.close()

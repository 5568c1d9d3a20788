"""Sharded storage benchmarks: the shard-count sweep.

Two claims, measured and asserted:

* **Parity** — shard-parallel block pulls at n=3, S=4 are no slower than
  the single-shard block pull on the same workload (the lazy window
  merge plus read-ahead staging must stay within measurement noise of
  the frozen-order slicing fast path).  Regression fails the suite; the
  guard allows 25% + 1 ms of scheduler/allocator noise because the floor
  workloads complete in single-digit milliseconds.
* **Bit-identity under load** — every swept configuration returns the
  single-shard ranked top-K exactly (asserted on keys *and* float
  scores, every run).

The sweep's ``(S, engine-seconds)`` trajectory lands in
``BENCH_core.json`` (records ``shard_sweep[...]``) so later PRs diff the
storage layer's overhead instead of re-measuring by hand.

Set ``PROXRJ_BENCH_QUICK=1`` (CI smoke mode) to shrink the workloads.
"""

import os

import numpy as np
import pytest

from conftest import record_bench, synthetic_problem
from repro.core import AccessKind, EuclideanLogScoring, ShardedRelation, make_algorithm
from repro.service import RankJoinService

QUICK = bool(os.environ.get("PROXRJ_BENCH_QUICK"))
N_TUPLES = 120 if QUICK else 400
BLOCK = 16
SWEEP = (1, 2, 4, 8)
#: Best-of rounds per configuration.  Each round runs every shard count
#: once, so host drift lands on every side of the parity assert alike.
ROUNDS = 7

#: Parity guard for the S=4 assert: relative factor + absolute epsilon
#: (floor workloads finish in a few ms, where allocator noise dominates).
PARITY_FACTOR = 1.25
PARITY_EPS_S = 1e-3


@pytest.mark.parametrize("algo", ["CBPA", "TBPA"])
def test_shard_sweep(benchmark, algo):
    """Engine-loop seconds vs shard count at n=3, identical ranked top-K."""
    relations, query = synthetic_problem(n_relations=3, n_tuples=N_TUPLES)
    scoring = EuclideanLogScoring(1.0, 1.0, 1.0)
    configs = {
        shards: (
            relations
            if shards == 1
            else [ShardedRelation.from_relation(r, shards=shards) for r in relations]
        )
        for shards in SWEEP
    }
    points = {}

    def sweep():
        points.clear()
        for _ in range(ROUNDS):
            for shards, rels in configs.items():
                result = make_algorithm(
                    algo, rels, scoring, query, 10,
                    kind=AccessKind.DISTANCE, pull_block=BLOCK,
                ).run()
                best = points.get(shards)
                if best is None or result.total_seconds < best.total_seconds:
                    points[shards] = result
        return points

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    reference = [(c.key, c.score) for c in points[1].combinations]
    for shards, result in points.items():
        assert result.completed
        assert [(c.key, c.score) for c in result.combinations] == reference, (
            f"S={shards} top-K diverged from single-shard"
        )
        record_bench(
            f"shard_sweep[{algo}-S{shards}]",
            result.total_seconds,
            shards=shards,
            sum_depths=result.sum_depths,
            combinations_formed=result.combinations_formed,
        )
    benchmark.extra_info["seconds_by_shards"] = {
        s: round(r.total_seconds, 6) for s, r in points.items()
    }
    # The acceptance claim: shard-parallel block pulls at S=4 hold parity
    # with the single-shard fast path on the same workload.
    single, sharded = points[1].total_seconds, points[4].total_seconds
    assert sharded <= single * PARITY_FACTOR + PARITY_EPS_S, (
        f"S=4 block pull ({sharded:.4f}s) regressed past single-shard "
        f"({single:.4f}s) on n=3 {algo}"
    )


def test_sharded_service_throughput(benchmark):
    """The shared service over S=4 relations: per-shard order caching and
    pool fan-out sustain a repeated-bucket query mix at single-shard
    result parity."""
    relations, base_query = synthetic_problem(
        n_relations=3, n_tuples=N_TUPLES // 2
    )
    sharded = [ShardedRelation.from_relation(r, shards=4) for r in relations]
    scoring = EuclideanLogScoring(1.0, 1.0, 1.0)
    rng = np.random.default_rng(42)
    distinct = [
        base_query + rng.uniform(-0.05, 0.05, base_query.shape)
        for _ in range(4 if QUICK else 8)
    ]
    queries = [distinct[i % len(distinct)] for i in range(12 if QUICK else 32)]

    reference = RankJoinService(
        relations, scoring, k=5, pull_block=BLOCK, max_workers=4
    ).submit_many(queries)

    def serve():
        service = RankJoinService(
            sharded, scoring, k=5, pull_block=BLOCK, max_workers=4
        )
        results = service.submit_many(queries)
        return service, results

    service, results = benchmark.pedantic(serve, rounds=1, iterations=1)
    service.close()
    assert all(r.completed for r in results)
    for ref, got in zip(reference, results):
        assert [(c.key, c.score) for c in got.combinations] == [
            (c.key, c.score) for c in ref.combinations
        ]
    stats = service.stats.as_dict()
    assert stats["stream_cache_hits"] > 0  # repeated buckets reuse shard orders
    benchmark.extra_info.update(stats)
    record_bench(
        "sharded_service_throughput[S4-n3]",
        sum(r.total_seconds for r in results),
        sum_depths=sum(r.sum_depths for r in results),
        combinations_formed=sum(r.combinations_formed for r in results),
        **stats,
    )

"""Tests for the shared-stream multi-query RankJoinService."""

import numpy as np
import pytest

from repro.core import (
    AccessKind,
    EuclideanLogScoring,
    ShardedRelation,
    brute_force_topk,
)
from repro.core.access import DistanceAccess, MergeStream
from repro.data import SyntheticConfig, generate_problem
from repro.service import CachedOrderStream, RankJoinService
from repro.service.rankjoin import _LRU


def make_problem(n=2, size=60, seed=0, d=2):
    return generate_problem(
        SyntheticConfig(
            n_relations=n, dims=d, density=50.0, skew=1.0,
            n_tuples=size, seed=seed,
        )
    )


def scoring():
    return EuclideanLogScoring(1.0, 1.0, 1.0)


class TestCachedOrderStream:
    def test_replays_identically_to_distance_access(self):
        relations, query = make_problem()
        svc = RankJoinService(relations, scoring(), k=3)
        canonical = svc.canonical_query(query)
        order = svc._order_for(
            relations[0], 0, svc._bucket_key(canonical), canonical
        )
        cached = CachedOrderStream(order, relations[0])
        direct = DistanceAccess(relations[0], canonical)
        while True:
            a, b = cached.next(), direct.next()
            assert a == b
            if a is None:
                break
            assert cached.last_distance == pytest.approx(direct.last_distance)
        assert cached.exhausted and direct.exhausted

    def test_next_block_advances_seen(self):
        relations, _ = make_problem()
        svc = RankJoinService(relations, scoring())
        q = svc.canonical_query(np.zeros(2))
        order = svc._order_for(relations[0], 0, svc._bucket_key(q), q)
        stream = CachedOrderStream(order, relations[0])
        block = stream.next_block(7)
        assert len(block) == 7
        assert stream.seen == block
        assert stream.depth == 7


class TestRankJoinService:
    def test_matches_oracle(self):
        relations, query = make_problem()
        svc = RankJoinService(relations, scoring(), k=5)
        result = svc.submit(query)
        assert result.completed
        oracle = brute_force_topk(relations, scoring(), svc.canonical_query(query), 5)
        assert [c.key for c in result.combinations] == [c.key for c in oracle]

    def test_matches_per_tuple_engine(self):
        """Block-pull service output is bit-identical to a cold per-tuple
        run of the same algorithm on the canonicalised query."""
        from repro.core import make_algorithm

        relations, query = make_problem(n=3, size=25, seed=4)
        svc = RankJoinService(relations, scoring(), k=4, pull_block=8)
        got = svc.submit(query)
        ref = make_algorithm(
            "TBPA", relations, scoring(), svc.canonical_query(query), 4,
            kind=AccessKind.DISTANCE,
        ).run()
        assert [(c.key, c.score) for c in got.combinations] == [
            (c.key, c.score) for c in ref.combinations
        ]

    def test_stream_cache_shared_across_queries(self):
        relations, query = make_problem()
        svc = RankJoinService(relations, scoring(), k=3, result_cache_size=0)
        svc.submit(query)
        misses_after_first = svc.stats.stream_cache_misses
        svc.submit(query)  # same bucket: orders come from the LRU
        assert svc.stats.stream_cache_misses == misses_after_first
        assert svc.stats.stream_cache_hits >= len(relations)

    def test_result_cache_hit(self):
        relations, query = make_problem()
        svc = RankJoinService(relations, scoring(), k=3)
        first = svc.submit(query)
        second = svc.submit(query)
        assert second is first  # served from the result cache
        assert svc.stats.result_cache_hits == 1

    def test_distinct_k_not_conflated(self):
        relations, query = make_problem()
        svc = RankJoinService(relations, scoring(), k=3)
        assert len(svc.submit(query, k=3).combinations) == 3
        assert len(svc.submit(query, k=7).combinations) == 7

    def test_query_bucketing_collapses_noise(self):
        relations, query = make_problem()
        svc = RankJoinService(relations, scoring(), k=3, bucket_decimals=4)
        a = svc.submit(query)
        b = svc.submit(query + 1e-9)  # rounds into the same bucket
        assert b is a

    def test_lru_evicts_old_buckets(self):
        relations, _ = make_problem()
        svc = RankJoinService(
            relations, scoring(), k=2, cache_size=2, result_cache_size=0
        )
        rng = np.random.default_rng(0)
        for _ in range(4):
            svc.submit(rng.uniform(-1, 1, 2))
        assert len(svc._orders) <= 2

    def test_submit_many_matches_sequential(self):
        relations, _ = make_problem()
        svc = RankJoinService(relations, scoring(), k=3, max_workers=4)
        rng = np.random.default_rng(1)
        queries = [rng.uniform(-1, 1, 2) for _ in range(12)]
        batch = svc.submit_many(queries)
        assert len(batch) == 12
        for q, got in zip(queries, batch):
            oracle = brute_force_topk(
                relations, scoring(), svc.canonical_query(q), 3
            )
            assert [c.key for c in got.combinations] == [c.key for c in oracle]

    def test_score_access_kind(self):
        relations, query = make_problem()
        svc = RankJoinService(
            relations, scoring(), kind=AccessKind.SCORE, k=4, algorithm="TBRR"
        )
        result = svc.submit(query)
        oracle = brute_force_topk(relations, scoring(), svc.canonical_query(query), 4)
        assert [c.key for c in result.combinations] == [c.key for c in oracle]

    def test_max_pulls_admission_control(self):
        relations, query = make_problem(size=80)
        svc = RankJoinService(relations, scoring(), k=40, max_pulls=10)
        result = svc.submit(query)
        assert not result.completed
        assert result.sum_depths <= 10

    def test_validation(self):
        relations, _ = make_problem()
        with pytest.raises(ValueError, match="at least one"):
            RankJoinService([], scoring())
        with pytest.raises(ValueError, match="cache_size"):
            RankJoinService(relations, scoring(), cache_size=0)
        with pytest.raises(ValueError, match="max_workers"):
            RankJoinService(relations, scoring(), max_workers=0)
        with pytest.raises(ValueError, match="shard_workers"):
            RankJoinService(relations, scoring(), shard_workers=-1)


class TestLRU:
    """Unit pins for the service's bounded LRU (previously only covered
    indirectly through cache-hit meters)."""

    def test_evicts_in_insertion_order_without_reads(self):
        lru = _LRU(2)
        lru.put("a", 1)
        lru.put("b", 2)
        lru.put("c", 3)  # capacity 2: "a" is the LRU victim
        assert lru.get("a") is None
        assert lru.get("b") == 2
        assert lru.get("c") == 3
        assert len(lru) == 2

    def test_get_refreshes_recency(self):
        lru = _LRU(2)
        lru.put("a", 1)
        lru.put("b", 2)
        assert lru.get("a") == 1  # "b" becomes least recent
        lru.put("c", 3)
        assert lru.get("b") is None
        assert lru.get("a") == 1
        assert lru.get("c") == 3

    def test_put_refreshes_recency_and_overwrites(self):
        lru = _LRU(2)
        lru.put("a", 1)
        lru.put("b", 2)
        lru.put("a", 10)  # overwrite moves "a" to most recent
        lru.put("c", 3)
        assert lru.get("b") is None
        assert lru.get("a") == 10

    def test_capacity_one(self):
        lru = _LRU(1)
        for key in ("a", "b", "c"):
            lru.put(key, key)
        assert len(lru) == 1
        assert lru.get("c") == "c"


class TestReplayAfterEvict:
    """An evicted access order is recomputed on the next submission and
    the replayed stream is indistinguishable from the first run."""

    def test_resubmit_after_eviction_matches_first_result(self):
        relations, query = make_problem(size=40)
        svc = RankJoinService(
            relations, scoring(), k=3, cache_size=2, result_cache_size=0
        )
        first = svc.submit(query)
        misses_first = svc.stats.stream_cache_misses
        # Flood the 2-entry order cache with other buckets.
        rng = np.random.default_rng(3)
        for _ in range(4):
            svc.submit(rng.uniform(-1, 1, 2))
        again = svc.submit(query)  # bucket was evicted: full re-sort
        assert svc.stats.stream_cache_misses > misses_first
        assert [(c.key, c.score) for c in again.combinations] == [
            (c.key, c.score) for c in first.combinations
        ]
        assert again.depths == first.depths

    def test_cached_order_stream_replays_after_evict(self):
        """A live CachedOrderStream keeps its arrays across eviction (the
        LRU drops its reference, not the data), and a rebuilt order
        replays the same sequence."""
        relations, query = make_problem()
        svc = RankJoinService(relations, scoring(), cache_size=1)
        canonical = svc.canonical_query(query)
        bucket = svc._bucket_key(canonical)
        order = svc._order_for(relations[0], 0, bucket, canonical)
        live = CachedOrderStream(order, relations[0])
        head = live.next_block(5)
        # Evict by inserting a different bucket for the other relation.
        other = svc.canonical_query(query + 1.0)
        svc._order_for(relations[1], 0, svc._bucket_key(other), other)
        assert len(svc._orders) == 1  # original entry is gone
        tail = live.next_block(len(relations[0]) - 5)  # replay continues
        rebuilt = svc._order_for(relations[0], 0, bucket, canonical)
        assert [t.tid for t in rebuilt.tuples] == [t.tid for t in head + tail]
        assert np.array_equal(rebuilt.ranks, order.ranks)


class TestShardedService:
    def _sharded(self, relations, shards, **kwargs):
        return RankJoinService(
            [ShardedRelation.from_relation(r, shards=shards) for r in relations],
            scoring(),
            **kwargs,
        )

    @pytest.mark.parametrize("shards", [2, 4, 7])
    def test_matches_unsharded_service(self, shards):
        relations, query = make_problem(n=3, size=30, seed=4)
        ref = RankJoinService(relations, scoring(), k=4).submit(query)
        with self._sharded(relations, shards, k=4) as svc:
            got = svc.submit(query)
        assert [(c.key, c.score) for c in got.combinations] == [
            (c.key, c.score) for c in ref.combinations
        ]
        assert got.depths == ref.depths

    def test_order_cache_is_keyed_per_shard(self):
        relations, query = make_problem(size=40)
        with self._sharded(relations, 4, k=3, result_cache_size=0) as svc:
            svc.submit(query)
            shard_counts = [r.storage.shard_count for r in svc.relations]
            assert svc.stats.stream_cache_misses == sum(shard_counts)
            assert {key[1] for key in svc._orders._data} == set(
                range(max(shard_counts))
            )
            svc.submit(query)  # warm: every shard order is an LRU hit
            assert svc.stats.stream_cache_misses == sum(shard_counts)
            assert svc.stats.stream_cache_hits >= sum(shard_counts)

    def test_streams_are_shard_parallel_merges(self):
        relations, query = make_problem(size=30)
        with self._sharded(relations, 3, k=3) as svc:
            canonical = svc.canonical_query(query)
            streams = svc._stream_factory(svc._bucket_key(canonical), canonical)()
            assert all(isinstance(s, MergeStream) for s in streams)
            assert all(s.shard_count == 3 for s in streams)
            assert svc._shard_pool is not None
            assert streams[0]._executor is svc._shard_pool

    def test_serial_merge_when_pool_disabled(self):
        relations, query = make_problem(size=30)
        with self._sharded(relations, 3, k=3, shard_workers=0) as svc:
            assert svc._shard_pool is None
            result = svc.submit(query)
        oracle = brute_force_topk(
            relations, scoring(), svc.canonical_query(query), 3
        )
        assert [c.key for c in result.combinations] == [c.key for c in oracle]

    def test_sharded_score_access(self):
        relations, query = make_problem(size=30)
        with self._sharded(
            relations, 4, k=4, kind=AccessKind.SCORE, algorithm="TBRR"
        ) as svc:
            result = svc.submit(query)
        oracle = brute_force_topk(
            relations, scoring(), svc.canonical_query(query), 4
        )
        assert [c.key for c in result.combinations] == [c.key for c in oracle]

    def test_submit_many_sharded_matches_oracle(self):
        relations, _ = make_problem(size=30)
        rng = np.random.default_rng(2)
        queries = [rng.uniform(-1, 1, 2) for _ in range(8)]
        with self._sharded(relations, 4, k=3, max_workers=4) as svc:
            batch = svc.submit_many(queries)
            for q, got in zip(queries, batch):
                oracle = brute_force_topk(
                    relations, scoring(), svc.canonical_query(q), 3
                )
                assert [c.key for c in got.combinations] == [
                    c.key for c in oracle
                ]

    def test_close_is_idempotent_and_service_survives(self):
        relations, query = make_problem(size=20)
        svc = self._sharded(relations, 2, k=2)
        svc.close()
        svc.close()
        result = svc.submit(query)  # serial merge after close
        assert result.completed


class TestServiceStatsAtomicity:
    def test_record_is_the_single_atomic_update_path(self):
        import threading

        from repro.service import ServiceStats

        stats = ServiceStats()

        def bump():
            for _ in range(1000):
                stats.record(
                    queries=1, stream_cache_hits=1, stream_cache_misses=1
                )

        threads = [threading.Thread(target=bump) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = stats.snapshot()
        assert snap["queries"] == 8000
        assert snap["stream_cache_hits"] == 8000
        assert snap["stream_cache_misses"] == 8000

    def test_snapshot_hides_internals(self):
        from repro.service import ServiceStats

        stats = ServiceStats()
        stats.record(queries=2, result_cache_hits=1)
        assert stats.as_dict() == {
            "queries": 2,
            "stream_cache_hits": 0,
            "stream_cache_misses": 0,
            "result_cache_hits": 1,
            "order_sorts": 0,
        }

    def test_concurrent_submits_count_exactly(self):
        relations, query = generate_problem(
            SyntheticConfig(n_relations=2, dims=2, n_tuples=80, seed=5)
        )
        service = RankJoinService(
            relations, EuclideanLogScoring(1.0, 1.0, 1.0), k=3, max_workers=8
        )
        rng = np.random.default_rng(0)
        queries = [query + rng.uniform(-0.2, 0.2, 2) for _ in range(40)]
        service.submit_many(queries)
        snap = service.stats.as_dict()
        assert snap["queries"] == 40
        hits_and_misses = snap["stream_cache_hits"] + snap["stream_cache_misses"]
        # Every submit resolves each relation's order exactly once.
        assert hits_and_misses == 80

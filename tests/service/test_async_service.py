"""Async serving subsystem tests.

Covers the acceptance bar of the async subsystem end to end:

* remote endpoint edge cases (empty shard, final short page, window
  clamping, metered exhaustion probes);
* per-run latency determinism (one generator threaded through
  ``LatencyModel.sample``, pinned sample values);
* bit-identity of the remote pipelined path against the in-memory
  sharded path for S in {1, 2, 4}, both access kinds and both fetch
  modes;
* deadlines and cancellation returning *certified partial* results;
* bounded-admission backpressure (reject and wait policies);
* the fetch schedule: every page charged once in both fetch modes, one
  page per pipelined round-trip, and every shard's first page requested
  as the query's streams open;
* the pipelined-prefetch speedup: a fixed workload over S=4 shards at
  2 ms simulated shard latency must finish in <= 60% of the serial
  (non-overlapped) remote wall-clock.
"""

import asyncio
import threading
import time

import numpy as np
import pytest

from repro.core import (
    AccessKind,
    EuclideanLogScoring,
    MergeStream,
    Relation,
    ShardedRelation,
    StreamInterrupted,
)
from repro.core.access import AccessOrder
from repro.service import (
    AsyncRankJoinService,
    LatencyModel,
    QueryRejected,
    RankJoinService,
    RemoteShardEndpoint,
    RemoteShardStream,
)

SCORING = EuclideanLogScoring(1.0, 1.0, 1.0)


def make_relation(size=60, seed=0, name="R"):
    rng = np.random.default_rng(seed)
    return Relation(
        name,
        rng.uniform(0.05, 1, size),
        rng.uniform(-2, 2, (size, 2)),
        sigma_max=1.0,
    )


def make_problem(n_relations=2, size=150, seed=3, shards=1):
    rng = np.random.default_rng(seed)
    relations = []
    for i in range(n_relations):
        rel = Relation(
            f"R{i}",
            rng.uniform(0.05, 1, size),
            rng.uniform(-2, 2, (size, 2)),
            sigma_max=1.0,
        )
        if shards > 1:
            rel = ShardedRelation.from_relation(rel, shards=shards)
        relations.append(rel)
    return relations, np.zeros(2)


def empty_endpoint(page_size=4):
    empty = np.empty(0, dtype=np.int64)
    order = AccessOrder.gather(
        AccessKind.SCORE, [], np.empty((0, 2)), np.empty(0), empty, 1.0,
        empty, np.empty(0),
    )
    return RemoteShardEndpoint(
        "E",
        0,
        order,
        page_size=page_size,
        latency=LatencyModel(base=0.001, jitter=0.0),
    )


class TestRemoteShardEndpoint:
    def test_window_matches_sorted_order(self):
        rel = make_relation(size=30, seed=1)
        q = np.zeros(2)
        ep = RemoteShardEndpoint.from_relation(
            rel, kind=AccessKind.DISTANCE, query=q, page_size=7
        )
        ranks, tids, vectors, scores = ep.fetch_window(0, 30)
        assert list(ranks) == sorted(ranks)
        d = np.linalg.norm(vectors - q, axis=1)
        assert np.allclose(d, ranks)
        assert [t.tid for t in ep.tuples[0:30]] == list(tids)
        assert ep.total == 30

    def test_pages_charged_per_window(self):
        rel = make_relation(size=30, seed=1)
        ep = RemoteShardEndpoint.from_relation(
            rel, kind=AccessKind.SCORE, page_size=7
        )
        ep.fetch_window(0, 14)  # exactly 2 pages
        assert (ep.windows, ep.pages) == (1, 2)
        ep.fetch_window(14, 15)  # 15 rows -> 3 pages
        assert (ep.windows, ep.pages) == (2, 5)
        assert ep.tuples_served == 29
        assert ep.simulated_seconds > 0

    def test_final_short_page_clamps(self):
        rel = make_relation(size=10, seed=2)
        ep = RemoteShardEndpoint.from_relation(
            rel, kind=AccessKind.SCORE, page_size=4
        )
        ranks, tids, vectors, scores = ep.fetch_window(8, 100)
        assert len(ranks) == len(tids) == len(vectors) == 2  # clamped to the end
        assert ep.pages == 1  # 2 rows -> one (short) page
        scores_all = ep.fetch_window(0, 10)[3]
        assert list(scores_all) == sorted(scores_all, reverse=True)

    def test_empty_shard_probe_still_pays_latency(self):
        ep = empty_endpoint()
        ranks, tids, vectors, scores = ep.fetch_window(0, 10)
        assert len(ranks) == 0 and len(ep.tuples) == 0
        assert vectors.shape == (0, 2)
        # The exhaustion-discovering call is a real round-trip.
        assert ep.pages == 1
        assert ep.simulated_seconds == pytest.approx(0.001)

    def test_awaitable_fetch_matches_blocking(self):
        rel = make_relation(size=20, seed=5)
        blocking = RemoteShardEndpoint.from_relation(
            rel, kind=AccessKind.SCORE, page_size=5, rng=0
        )
        awaited = RemoteShardEndpoint.from_relation(
            rel, kind=AccessKind.SCORE, page_size=5, rng=0
        )
        sync_window = blocking.fetch_window(0, 12)
        async_window = asyncio.run(awaited.afetch_window(0, 12))
        assert list(sync_window[1]) == list(async_window[1])
        assert awaited.simulated_seconds == blocking.simulated_seconds

    def test_invalid_arguments(self):
        rel = make_relation(size=5)
        with pytest.raises(ValueError):
            RemoteShardEndpoint.from_relation(
                rel, kind=AccessKind.SCORE, page_size=0
            )
        with pytest.raises(ValueError):
            RemoteShardEndpoint.from_relation(rel, kind=AccessKind.DISTANCE)
        ep = RemoteShardEndpoint.from_relation(rel, kind=AccessKind.SCORE)
        with pytest.raises(ValueError):
            ep.fetch_window(-1, 3)


class TestLatencyDeterminism:
    def test_sample_sequence_pinned(self):
        """Same seed => bit-identical latency sequence (regression pin)."""
        model = LatencyModel(base=0.01, jitter=0.004)
        rng = np.random.default_rng(12345)
        got = [model.sample(rng) for _ in range(4)]
        assert got == pytest.approx(
            [0.01090934409, 0.011267033359, 0.013189461829, 0.012705018683],
            abs=1e-12,
        )

    def test_endpoint_generators_are_independent_and_reproducible(self):
        rel = make_relation(size=40, seed=7)
        ep1 = RemoteShardEndpoint.from_relation(
            rel, kind=AccessKind.SCORE, page_size=5,
            latency=LatencyModel(0.01, 0.004), rng=np.random.default_rng(9),
        )
        ep2 = RemoteShardEndpoint.from_relation(
            rel, kind=AccessKind.SCORE, page_size=5,
            latency=LatencyModel(0.01, 0.004), rng=np.random.default_rng(9),
        )
        for start in (0, 10, 25):
            ep1.fetch_window(start, 10)
            ep2.fetch_window(start, 10)
        assert ep1.simulated_seconds == ep2.simulated_seconds

    def test_score_kind_latencies_independent_of_query_order(self):
        """SCORE-kind endpoints are shared across query buckets; their
        latency generator must not depend on which query created them."""
        relations, base = make_problem(shards=2)
        totals = []
        for order in ([0.0, 0.3], [0.3, 0.0]):
            svc = AsyncRankJoinService(
                relations, SCORING, k=4, seed=11, kind=AccessKind.SCORE,
                pipelined=False, result_cache_size=0,
                latency=LatencyModel(base=0.001, jitter=0.0005), page_size=16,
            )
            for offset in order:
                svc.serve([base + offset])
            totals.append(svc.remote_meters()["simulated_seconds"])
            svc.close()
        assert totals[0] == totals[1] > 0

    def test_serial_service_runs_are_reproducible(self):
        """Two serial-mode services with one seed pay bit-identical
        simulated latency for the same sequential workload."""
        relations, q = make_problem(shards=2)
        totals = []
        for _ in range(2):
            svc = AsyncRankJoinService(
                relations, SCORING, k=5, seed=42, pipelined=False,
                latency=LatencyModel(base=0.001, jitter=0.0005),
                page_size=16, result_cache_size=0,
            )
            svc.serve([q])
            totals.append(svc.remote_meters()["simulated_seconds"])
            svc.close()
        assert totals[0] == totals[1] > 0


class TestRemoteShardStream:
    def _endpoint(self, size=40, seed=11, page_size=8):
        rel = make_relation(size=size, seed=seed)
        return RemoteShardEndpoint.from_relation(
            rel, kind=AccessKind.SCORE, page_size=page_size,
            latency=LatencyModel(base=0.0, jitter=0.0),
        )

    def test_ensure_then_window(self):
        ep = self._endpoint()

        async def main():
            loop = asyncio.get_running_loop()
            cursor = RemoteShardStream(ep, loop=loop)
            ref = ep.order.fetch_window(0, 40)

            def engine_side():
                cursor.request(10)
                cursor.ensure(10)
                ranks, tids, vectors, scores = cursor.window(10)
                assert list(tids) == list(ref[1][:10])
                assert cursor.filled >= 10
                cursor.close()

            await loop.run_in_executor(None, engine_side)

        asyncio.run(main())

    def test_prefetch_runs_ahead(self):
        """The feeder reads one page beyond the request, in whole pages:
        10 rows asked of 8-row pages land 3 pages without another
        request."""
        ep = self._endpoint(size=40, page_size=8)

        async def main():
            loop = asyncio.get_running_loop()
            cursor = RemoteShardStream(ep, loop=loop)

            def engine_side():
                cursor.request(10)
                cursor.ensure(10)
                deadline = time.monotonic() + 2.0
                while cursor.filled < 24 and time.monotonic() < deadline:
                    time.sleep(0.002)
                assert cursor.filled >= 24  # 10 asked + one 8-row page
                cursor.close()

            await loop.run_in_executor(None, engine_side)

        asyncio.run(main())

    def test_expired_wait_raises_stream_interrupted(self):
        rel = make_relation(size=40, seed=11)
        ep = RemoteShardEndpoint.from_relation(
            rel, kind=AccessKind.SCORE, page_size=8,
            latency=LatencyModel(base=5.0, jitter=0.0),  # never arrives
        )

        async def main():
            loop = asyncio.get_running_loop()
            expire_at = time.monotonic() + 0.05
            cursor = RemoteShardStream(
                ep, loop=loop, expired=lambda: time.monotonic() >= expire_at
            )

            def engine_side():
                with pytest.raises(StreamInterrupted):
                    cursor.ensure(5)
                cursor.close()

            await loop.run_in_executor(None, engine_side)

        asyncio.run(main())

    def test_merge_stream_merges_remote_cursors(self):
        """A MergeStream over RemoteShardStreams reproduces the single
        sorted access bit for bit, including with an empty shard."""
        rel = make_relation(size=30, seed=13)
        sharded = ShardedRelation.from_relation(rel, shards=3)

        async def main():
            loop = asyncio.get_running_loop()
            endpoints = [
                RemoteShardEndpoint.from_relation(
                    shard, kind=AccessKind.SCORE, shard_index=i, page_size=4,
                    latency=LatencyModel(0.0, 0.0),
                )
                for i, shard in enumerate(sharded.storage.shards)
            ]
            cursors = [RemoteShardStream(ep, loop=loop) for ep in endpoints]
            # An empty remote shard participates harmlessly.
            cursors.append(RemoteShardStream(empty_endpoint(), loop=loop))

            def engine_side():
                stream = MergeStream(sharded, AccessKind.SCORE, cursors)
                merged = []
                while True:
                    block = stream.next_block(7)
                    if not block:
                        break
                    merged.append(block)
                out = [t.tid for blk in merged for t in blk]
                for cur in cursors:
                    cur.close()
                return out, stream.exhausted

            tids, exhausted = await loop.run_in_executor(None, engine_side)
            from repro.core import ScoreAccess

            oracle = ScoreAccess(rel)
            expected = [t.tid for t in oracle.next_block(len(rel))]
            assert tids == expected
            assert exhausted

        asyncio.run(main())


class TestAsyncBitIdentity:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    @pytest.mark.parametrize("kind", [AccessKind.DISTANCE, AccessKind.SCORE])
    def test_matches_in_memory_sharded_path(self, shards, kind):
        relations, q = make_problem(n_relations=2, size=150, seed=3, shards=shards)
        reference = RankJoinService(
            relations, SCORING, k=5, kind=kind, result_cache_size=0
        ).submit(q)
        svc = AsyncRankJoinService(
            relations, SCORING, k=5, kind=kind, result_cache_size=0,
            latency=LatencyModel(base=0.0005, jitter=0.0002), page_size=16,
        )
        try:
            result = svc.serve([q])[0]
        finally:
            svc.close()
        assert result.completed
        assert [(c.key, c.score) for c in result.combinations] == [
            (c.key, c.score) for c in reference.combinations
        ]
        assert result.depths == reference.depths
        assert result.bound == reference.bound

    def test_serial_mode_identical_to_pipelined(self):
        relations, q = make_problem(shards=4)
        outcomes = {}
        for pipelined in (True, False):
            svc = AsyncRankJoinService(
                relations, SCORING, k=5, pipelined=pipelined,
                latency=LatencyModel(base=0.0005, jitter=0.0), page_size=8,
                result_cache_size=0,
            )
            try:
                outcomes[pipelined] = svc.serve([q])[0]
            finally:
                svc.close()
        a, b = outcomes[True], outcomes[False]
        assert [(c.key, c.score) for c in a.combinations] == [
            (c.key, c.score) for c in b.combinations
        ]
        assert a.depths == b.depths and a.bound == b.bound

    def test_concurrent_queries_share_cached_orders(self):
        relations, base = make_problem(shards=2)
        rng = np.random.default_rng(0)
        hot = [base + rng.uniform(-0.1, 0.1, 2) for _ in range(3)]
        queries = [hot[i % 3] for i in range(12)]
        reference = RankJoinService(relations, SCORING, k=4)
        expected = [reference.submit(qq) for qq in queries]
        svc = AsyncRankJoinService(
            relations, SCORING, k=4,
            latency=LatencyModel(base=0.0005, jitter=0.0002), page_size=16,
        )
        try:
            results = svc.serve(queries)
        finally:
            svc.close()
        for got, ref in zip(results, expected):
            assert [(c.key, c.score) for c in got.combinations] == [
                (c.key, c.score) for c in ref.combinations
            ]
        stats = svc.stats.as_dict()
        # 3 hot buckets x 2 relations x 2 shards = 12 distinct orders;
        # concurrent first-touch misses may duplicate a sort (by design:
        # misses never block each other) but sharing must kick in — far
        # fewer sorts than the 48 a cache-less service would do.
        assert 12 <= stats["stream_cache_misses"] <= 24
        assert stats["queries"] == 12

    def test_endpoint_cache_hits_are_counted(self):
        """A repeated bucket is served by the cached endpoints: one
        shard-order hit per (relation, shard), no new miss."""
        relations, q = make_problem(n_relations=2, shards=2)
        svc = AsyncRankJoinService(
            relations, SCORING, k=4, result_cache_size=0,
            latency=LatencyModel(base=0.0005, jitter=0.0), page_size=16,
        )
        try:
            svc.serve([q])
            first = svc.stats.snapshot()
            svc.serve([q])
            second = svc.stats.snapshot()
        finally:
            svc.close()
        endpoints = 2 * 2  # relations x shards
        assert first["stream_cache_misses"] == endpoints
        assert first["stream_cache_hits"] == 0
        assert second["stream_cache_misses"] == endpoints
        assert second["stream_cache_hits"] == endpoints


class TestDeadlinesAndCancellation:
    def test_expired_query_returns_certified_partial(self):
        relations, q = make_problem(n_relations=2, size=300, seed=9, shards=4)
        full = RankJoinService(
            relations, SCORING, k=5, result_cache_size=0
        ).submit(q)
        # No page can land before the deadline, so the query must expire.
        svc = AsyncRankJoinService(
            relations, SCORING, k=5, result_cache_size=0,
            latency=LatencyModel(base=0.05, jitter=0.0), page_size=4,
        )
        try:
            partial = svc.serve([q], deadline=0.02)[0]
        finally:
            svc.close()
        assert not partial.completed
        assert svc.stats.as_dict()["expired"] == 1
        # Certified prefix is exactly the head of the true top-K.
        c = partial.certified_count
        assert c <= len(partial.combinations)
        assert [x.key for x in partial.combinations[:c]] == [
            x.key for x in full.combinations[:c]
        ]
        for combo in partial.combinations[:c]:
            assert combo.score > partial.bound

    def test_exhaustion_after_deadline_is_clean(self):
        """A deadline expiring around stream exhaustion yields either a
        completed run or a certified partial — never a corrupt result."""
        relations, q = make_problem(n_relations=2, size=30, seed=4, shards=2)
        full = RankJoinService(
            relations, SCORING, k=3, result_cache_size=0
        ).submit(q)
        for deadline in (1e-6, 0.001, 5.0):
            svc = AsyncRankJoinService(
                relations, SCORING, k=3, result_cache_size=0,
                latency=LatencyModel(base=0.0002, jitter=0.0), page_size=8,
            )
            try:
                result = svc.serve([q], deadline=deadline)[0]
            finally:
                svc.close()
            if result.completed:
                assert [c.key for c in result.combinations] == [
                    c.key for c in full.combinations
                ]
            else:
                c = result.certified_count
                assert [x.key for x in result.combinations[:c]] == [
                    x.key for x in full.combinations[:c]
                ]

    def test_partial_results_never_cached(self):
        relations, q = make_problem(shards=2, size=300)
        svc = AsyncRankJoinService(
            relations, SCORING, k=5, result_cache_size=8,
            latency=LatencyModel(base=0.004, jitter=0.0), page_size=4,
        )
        try:
            partial = svc.serve([q], deadline=0.02)[0]
            assert not partial.completed
            follow_up = svc.serve([q])[0]
        finally:
            svc.close()
        assert follow_up.completed
        assert svc.stats.as_dict()["result_cache_hits"] == 0

    def test_cancellation_stops_engine(self):
        relations, q = make_problem(shards=2, size=300)

        async def main():
            svc = AsyncRankJoinService(
                relations, SCORING, k=5, result_cache_size=0,
                latency=LatencyModel(base=0.01, jitter=0.0), page_size=2,
            )
            task = asyncio.ensure_future(svc.submit(q))
            await asyncio.sleep(0.03)
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            assert svc.stats.as_dict()["cancelled"] == 1
            svc.close()

        asyncio.run(main())

    def test_close_with_query_in_flight_does_not_deadlock(self):
        """close() from the loop while a submit is still running must
        cancel the in-flight query instead of deadlocking on it."""
        relations, q = make_problem(shards=2, size=300)

        async def main():
            svc = AsyncRankJoinService(
                relations, SCORING, k=5, result_cache_size=0,
                latency=LatencyModel(base=0.05, jitter=0.0), page_size=2,
            )
            task = asyncio.ensure_future(svc.submit(q))
            await asyncio.sleep(0.02)
            svc.close()  # blocks the loop; the engine must unwind anyway
            result = await task
            assert not result.completed

        asyncio.run(asyncio.wait_for(main(), timeout=30))

    def test_invalid_deadline_rejected(self):
        relations, q = make_problem()
        svc = AsyncRankJoinService(relations, SCORING, k=3)

        async def main():
            with pytest.raises(ValueError):
                await svc.submit(q, deadline=0.0)

        try:
            asyncio.run(main())
        finally:
            svc.close()


class TestBackpressure:
    def test_reject_policy_bounds_admissions(self):
        relations, base = make_problem(shards=2)
        rng = np.random.default_rng(1)
        queries = [base + rng.uniform(-0.3, 0.3, 2) for _ in range(8)]

        async def main():
            svc = AsyncRankJoinService(
                relations, SCORING, k=4, result_cache_size=0,
                latency=LatencyModel(base=0.002, jitter=0.0), page_size=8,
                max_inflight=1, queue_limit=1, admission="reject",
            )
            outcomes = await asyncio.gather(
                *(svc.submit(qq) for qq in queries), return_exceptions=True
            )
            svc.close()
            return outcomes, svc.stats.as_dict()

        outcomes, stats = asyncio.run(main())
        rejected = [o for o in outcomes if isinstance(o, QueryRejected)]
        served = [o for o in outcomes if not isinstance(o, BaseException)]
        assert rejected and served  # bounded: some in, some turned away
        assert len(rejected) == stats["rejected"]
        assert all(r.completed for r in served)

    def test_wait_policy_serves_everyone(self):
        relations, base = make_problem(shards=2)
        rng = np.random.default_rng(2)
        queries = [base + rng.uniform(-0.3, 0.3, 2) for _ in range(8)]
        svc = AsyncRankJoinService(
            relations, SCORING, k=4, result_cache_size=0,
            latency=LatencyModel(base=0.001, jitter=0.0), page_size=8,
            max_inflight=2, queue_limit=1, admission="wait",
        )
        try:
            outcomes = svc.serve(queries)
        finally:
            svc.close()
        assert all(not isinstance(o, BaseException) for o in outcomes)
        assert all(o.completed for o in outcomes)
        assert svc.stats.as_dict()["rejected"] == 0


def endpoints_of(svc):
    return list(svc._endpoints._data.values())


class TestFetchSchedule:
    """Whole pages, one page per pipelined round-trip, and every shard's
    first page requested as the query's streams open."""

    @pytest.mark.parametrize("pipelined", [True, False])
    def test_every_page_is_charged_once(self, pipelined):
        relations, q = make_problem(n_relations=2, size=2000, seed=5, shards=2)
        svc = AsyncRankJoinService(
            relations, SCORING, k=300, result_cache_size=0, pipelined=pipelined,
            latency=LatencyModel(base=0.0002, jitter=0.0), page_size=25,
        )
        try:
            assert svc.serve([q])[0].completed
        finally:
            svc.close()
        endpoints = endpoints_of(svc)
        assert len(endpoints) == 4
        for ep in endpoints:
            assert ep.tuples_served > 0
            assert ep.pages == -(-ep.tuples_served // ep.page_size)

    def test_pipelined_fetches_are_single_pages(self):
        relations, base = make_problem(n_relations=2, size=300, seed=3, shards=4)
        rng = np.random.default_rng(1)
        queries = [base + rng.uniform(-0.3, 0.3, 2) for _ in range(4)]
        svc = AsyncRankJoinService(
            relations, SCORING, k=5, result_cache_size=0,
            latency=LatencyModel(base=0.0005, jitter=0.0), page_size=8,
        )
        try:
            assert all(r.completed for r in svc.serve(queries))
        finally:
            svc.close()
        meters = svc.remote_meters()
        assert meters["windows"] == meters["pages"] > 0
        assert all(ep.windows == ep.pages for ep in endpoints_of(svc))

    def test_first_pages_requested_at_open(self, monkeypatch):
        """By the time the engine first pulls a second relation, each of
        its shards has already asked for its first page."""
        relations, q = make_problem(n_relations=2, size=150, seed=3, shards=4)
        first_pull = []
        next_block = MergeStream.next_block

        def spy(stream, limit):
            if not any(s is stream for s, _ in first_pull):
                first_pull.append(
                    (stream, [c.source.windows for c in stream.cursors])
                )
            return next_block(stream, limit)

        monkeypatch.setattr(MergeStream, "next_block", spy)
        svc = AsyncRankJoinService(
            relations, SCORING, k=5, result_cache_size=0,
            latency=LatencyModel(base=0.005, jitter=0.0), page_size=8,
        )
        try:
            assert svc.serve([q])[0].completed
        finally:
            svc.close()
        assert len(first_pull) == 2
        _, windows = first_pull[1]
        assert len(windows) == 4 and min(windows) >= 1


class TestPipelinedSpeedup:
    def test_overlap_beats_serial_wallclock(self):
        """Acceptance bar: S=4 shards at 2 ms simulated latency, fixed
        workload; pipelined prefetch <= 60% of the serial remote
        wall-clock with bit-identical answers."""
        relations, base = make_problem(n_relations=2, size=400, seed=3, shards=4)
        rng = np.random.default_rng(0)
        queries = [base + rng.uniform(-0.2, 0.2, 2) for _ in range(5)]
        reference = RankJoinService(relations, SCORING, k=5, result_cache_size=0)
        expected = [reference.submit(qq) for qq in queries]
        walls = {}
        for pipelined in (True, False):
            svc = AsyncRankJoinService(
                relations, SCORING, k=5, result_cache_size=0,
                latency=LatencyModel(base=0.002, jitter=0.0), page_size=8,
                pipelined=pipelined, max_inflight=1,
            )
            try:
                start = time.perf_counter()
                outcomes = svc.serve(queries)
                walls[pipelined] = time.perf_counter() - start
            finally:
                svc.close()
            for got, ref in zip(outcomes, expected):
                assert got.completed
                assert [(c.key, c.score) for c in got.combinations] == [
                    (c.key, c.score) for c in ref.combinations
                ]
                assert got.depths == ref.depths and got.bound == ref.bound
        assert walls[True] <= 0.6 * walls[False], (
            f"pipelined {walls[True]*1e3:.1f}ms vs serial "
            f"{walls[False]*1e3:.1f}ms"
        )


class TestAdmissionValidation:
    def test_constructor_validation(self):
        relations, _ = make_problem()
        with pytest.raises(ValueError):
            AsyncRankJoinService(relations, SCORING, max_inflight=0)
        with pytest.raises(ValueError):
            AsyncRankJoinService(relations, SCORING, queue_limit=-1)
        with pytest.raises(ValueError):
            AsyncRankJoinService(relations, SCORING, admission="drop")
        with pytest.raises(ValueError):
            AsyncRankJoinService(relations, SCORING, page_size=0)

    def test_submit_many_is_redirected(self):
        relations, q = make_problem()
        svc = AsyncRankJoinService(relations, SCORING)
        try:
            with pytest.raises(NotImplementedError):
                svc.submit_many([q])
        finally:
            svc.close()

    def test_stats_record_is_atomic_across_threads(self):
        from repro.service import AsyncServiceStats

        stats = AsyncServiceStats()

        def bump():
            for _ in range(500):
                stats.record(queries=1, rejected=1, expired=1)

        threads = [threading.Thread(target=bump) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = stats.snapshot()
        assert snap["queries"] == snap["rejected"] == snap["expired"] == 4000

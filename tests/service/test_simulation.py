"""Tests for the simulated remote services."""

import numpy as np
import pytest

from repro.core import AccessKind, EuclideanLogScoring, Relation, tbpa
from repro.service import LatencyModel, make_service_streams


def make_relation(size=25, seed=0):
    rng = np.random.default_rng(seed)
    return Relation(
        "svc", rng.uniform(0.05, 1, size), rng.uniform(-2, 2, (size, 2)),
        sigma_max=1.0,
    )


class TestLatencyModel:
    def test_deterministic_base(self):
        rng = np.random.default_rng(0)
        m = LatencyModel(base=0.1, jitter=0.0)
        assert m.sample(rng) == 0.1

    def test_jitter_range(self):
        rng = np.random.default_rng(0)
        m = LatencyModel(base=0.1, jitter=0.05)
        for _ in range(50):
            s = m.sample(rng)
            assert 0.1 <= s <= 0.15

    def test_negative_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            LatencyModel(base=-0.1).sample(rng)


def service_stream(rel, kind, query=None, page_size=10):
    """One make_service_streams stream and the endpoint it reads."""
    (stream,) = make_service_streams(
        [rel], kind=kind, query=query, page_size=page_size
    )
    return stream, stream.cursors[0].source


class TestServiceEndpoint:
    def test_pages_are_ordered_and_counted(self):
        rel = make_relation()
        stream, ep = service_stream(
            rel, AccessKind.DISTANCE, np.zeros(2), page_size=10
        )
        page1 = stream.next_block(10)
        page2 = stream.next_block(10)
        assert len(page1) == len(page2) == 10
        d = [np.linalg.norm(t.vector) for t in page1 + page2]
        assert d == sorted(d)
        assert ep.pages == 2
        assert ep.tuples_served == 20
        assert ep.simulated_seconds > 0

    def test_short_page_signals_exhaustion(self):
        rel = make_relation(size=5)
        stream, ep = service_stream(
            rel, AccessKind.DISTANCE, np.zeros(2), page_size=10
        )
        assert len(stream.next_block(10)) == 5
        assert stream.exhausted
        assert stream.next() is None
        # The stream knows the row count: no page is paid to find the end.
        assert ep.pages == 1

    def test_score_kind(self):
        rel = make_relation()
        stream, _ = service_stream(rel, AccessKind.SCORE, page_size=5)
        scores = [t.score for t in stream.next_block(5)]
        assert scores == sorted(scores, reverse=True)

    def test_distance_requires_query(self):
        with pytest.raises(ValueError, match="query"):
            service_stream(make_relation(), AccessKind.DISTANCE)

    def test_invalid_page_size(self):
        with pytest.raises(ValueError):
            service_stream(make_relation(), AccessKind.SCORE, page_size=0)


class TestFetchWindow:
    def test_bulk_window_spans_pages(self):
        rel = make_relation()
        stream, ep = service_stream(
            rel, AccessKind.DISTANCE, np.zeros(2), page_size=10
        )
        window = stream.next_block(25)
        assert len(window) == 25  # whole 25-tuple relation in 3 pages
        assert (ep.windows, ep.pages) == (1, 3)
        d = [np.linalg.norm(t.vector) for t in window]
        assert d == sorted(d)

    def test_bulk_window_stops_at_exhaustion(self):
        rel = make_relation(size=7)
        stream, ep = service_stream(
            rel, AccessKind.DISTANCE, np.zeros(2), page_size=5
        )
        window = stream.next_block(50)
        assert len(window) == 7
        assert ep.pages == 2  # full page + short page, not ceil(50/5)

    def test_invalid_limit(self):
        _, ep = service_stream(make_relation(), AccessKind.SCORE)
        with pytest.raises(ValueError):
            ep.fetch_window(0, -1)


class TestServiceStream:
    def test_stream_interface_matches_local_access(self):
        from repro.core.access import DistanceAccess

        rel = make_relation(seed=3)
        q = np.zeros(2)
        local = DistanceAccess(rel, q)
        remote, _ = service_stream(rel, AccessKind.DISTANCE, q, page_size=7)
        for _ in range(len(rel)):
            a, b = local.next(), remote.next()
            assert a.tid == b.tid
            assert local.last_distance == remote.last_distance
        assert remote.next() is None
        assert remote.exhausted

    def test_depth_counts_tuples_not_pages(self):
        rel = make_relation()
        stream, ep = service_stream(
            rel, AccessKind.DISTANCE, np.zeros(2), page_size=10
        )
        stream.next()
        assert stream.depth == 1  # one tuple consumed, though a page of 10 fetched
        assert ep.tuples_served == 10

    def test_per_tuple_pulls_fetch_one_page_when_dry(self):
        rel = make_relation()
        stream, ep = service_stream(
            rel, AccessKind.DISTANCE, np.zeros(2), page_size=4
        )
        for _ in range(9):
            stream.next()
        assert (ep.windows, ep.pages, ep.tuples_served) == (3, 3, 12)

    def test_next_block_bulk_fetches_deficit_in_one_window(self):
        rel = make_relation()
        stream, ep = service_stream(
            rel, AccessKind.DISTANCE, np.zeros(2), page_size=5
        )
        block = stream.next_block(17)
        assert len(block) == 17
        # One bulk window of ceil(17/5)=4 pages, not an interleaved
        # page-at-a-time refill loop.
        assert (ep.windows, ep.pages) == (1, 4)
        assert stream.depth == 17
        # Overfetched tuples stay buffered for the next pull.
        assert stream.next_block(3) and ep.pages == 4

    def test_next_block_depletion(self):
        rel = make_relation(size=12)
        stream, ep = service_stream(
            rel, AccessKind.DISTANCE, np.zeros(2), page_size=5
        )
        assert len(stream.next_block(100)) == 12
        assert stream.exhausted
        assert stream.next_block(4) == []
        assert stream.next() is None
        assert ep.pages == 3

    def test_score_statistics(self):
        rel = make_relation(seed=4)
        stream, _ = service_stream(rel, AccessKind.SCORE, page_size=3)
        assert stream.first_score == rel.sigma_max
        stream.next()
        stream.next()
        assert stream.first_score >= stream.last_score


class TestEndToEndThroughEngine:
    def test_engine_result_identical_to_local(self):
        rng = np.random.default_rng(9)
        relations = [
            Relation(
                f"R{i}", rng.uniform(0.05, 1, 30), rng.uniform(-2, 2, (30, 2)),
                sigma_max=1.0,
            )
            for i in range(2)
        ]
        q = np.zeros(2)
        scoring = EuclideanLogScoring()

        local = tbpa(relations, scoring, q, 5).run()

        engine = tbpa(relations, scoring, q, 5)
        engine.stream_factory = lambda: make_service_streams(
            relations, kind=AccessKind.DISTANCE, query=q, page_size=4
        )
        remote = engine.run()
        assert [(c.key, c.score) for c in remote.combinations] == [
            (c.key, c.score) for c in local.combinations
        ]
        assert remote.depths == local.depths
        assert remote.bound == local.bound

    def test_bound_identical_to_local(self):
        """Remote streams report the sort's exact distances, so the
        bound matches the local run bit for bit (a recomputed norm once
        differed from the sort's rank in the last place here)."""
        rng = np.random.default_rng(7)
        relations = [
            Relation(
                f"R{i}", rng.uniform(0.05, 1, 40), rng.uniform(-2, 2, (40, 3)),
                sigma_max=1.0,
            )
            for i in range(3)
        ]
        q = rng.uniform(-1, 1, 3)
        scoring = EuclideanLogScoring()
        local = tbpa(relations, scoring, q, 5).run()
        engine = tbpa(relations, scoring, q, 5)
        engine.stream_factory = lambda: make_service_streams(
            relations, kind=AccessKind.DISTANCE, query=q, page_size=4
        )
        remote = engine.run()
        assert [(c.key, c.score) for c in remote.combinations] == [
            (c.key, c.score) for c in local.combinations
        ]
        assert remote.depths == local.depths
        assert remote.bound == local.bound

    def test_page_size_does_not_change_answers(self):
        rng = np.random.default_rng(10)
        relations = [
            Relation(
                f"R{i}", rng.uniform(0.05, 1, 25), rng.uniform(-2, 2, (25, 2)),
                sigma_max=1.0,
            )
            for i in range(2)
        ]
        q = np.zeros(2)
        scoring = EuclideanLogScoring()
        keys = []
        for page_size in (1, 3, 50):
            engine = tbpa(relations, scoring, q, 4)
            engine.stream_factory = lambda ps=page_size: make_service_streams(
                relations, kind=AccessKind.DISTANCE, query=q, page_size=ps
            )
            keys.append([c.key for c in engine.run().combinations])
        assert keys[0] == keys[1] == keys[2]

"""Tests for the sequential access streams (Definition 2.1)."""

import numpy as np
import pytest

from repro.core import AccessKind, Relation, ShardedRelation
from repro.core.access import (
    HEAD_ROWS,
    AccessOrder,
    DistanceAccess,
    ScoreAccess,
    open_streams,
    sort_order,
)
from repro.core.durable import open_relation, persist_relation
from repro.service import make_service_streams


def drain(stream):
    out = []
    while True:
        t = stream.next()
        if t is None:
            return out
        out.append(t)


def random_relation(seed, size=20, d=2):
    rng = np.random.default_rng(seed)
    return Relation(
        "R", rng.uniform(0.05, 1.0, size), rng.uniform(-3, 3, (size, d)),
        sigma_max=1.0,
    )


class TestDistanceAccess:
    def test_order_is_nondecreasing_distance(self):
        rel = random_relation(0)
        q = np.zeros(2)
        stream = DistanceAccess(rel, q)
        dists = [np.linalg.norm(t.vector - q) for t in drain(stream)]
        assert dists == sorted(dists)

    def test_depth_counts_pulls(self):
        rel = random_relation(1)
        stream = DistanceAccess(rel, np.zeros(2))
        assert stream.depth == 0
        stream.next()
        stream.next()
        assert stream.depth == 2
        assert len(stream.seen) == 2

    def test_distance_conventions_before_access(self):
        rel = random_relation(2)
        stream = DistanceAccess(rel, np.zeros(2))
        # Paper: both distances conventionally 0 while p_i = 0.
        assert stream.first_distance == 0.0
        assert stream.last_distance == 0.0

    def test_first_last_distance_track_prefix(self):
        rel = Relation("R", [1.0, 1.0, 1.0], [[1.0], [3.0], [2.0]])
        stream = DistanceAccess(rel, np.zeros(1))
        stream.next()
        assert stream.first_distance == pytest.approx(1.0)
        assert stream.last_distance == pytest.approx(1.0)
        stream.next()
        assert stream.first_distance == pytest.approx(1.0)
        assert stream.last_distance == pytest.approx(2.0)

    def test_exhaustion(self):
        rel = Relation("R", [1.0], [[0.0]])
        stream = DistanceAccess(rel, np.zeros(1))
        assert not stream.exhausted
        stream.next()
        assert stream.exhausted
        assert stream.next() is None

    def test_query_dimension_mismatch(self):
        rel = random_relation(3)
        with pytest.raises(ValueError, match="dimension"):
            DistanceAccess(rel, np.zeros(3))

    def test_tie_break_by_tid(self):
        rel = Relation("R", [1.0, 1.0], [[1.0, 0.0], [-1.0, 0.0]])
        stream = DistanceAccess(rel, np.zeros(2))
        assert [t.tid for t in drain(stream)] == [0, 1]

    def test_custom_metric(self):
        rel = Relation("R", [1.0, 1.0], [[0.0, 3.0], [2.0, 2.0]])
        manhattan = lambda x, y: float(np.abs(x - y).sum())
        stream = DistanceAccess(rel, np.zeros(2), metric=manhattan)
        # Manhattan: |0|+|3| = 3 vs 4 -> tid 0 first (Euclidean agrees here);
        # use a point where they disagree: (0,3): L2=3, L1=3; (2,2): L2~2.83, L1=4.
        assert [t.tid for t in drain(stream)] == [0, 1]


class TestScoreAccess:
    def test_order_is_nonincreasing_score(self):
        rel = random_relation(4)
        scores = [t.score for t in drain(ScoreAccess(rel))]
        assert scores == sorted(scores, reverse=True)

    def test_score_conventions_before_access(self):
        rel = random_relation(5)
        stream = ScoreAccess(rel)
        assert stream.first_score == rel.sigma_max
        assert stream.last_score == rel.sigma_max

    def test_first_last_track_prefix(self):
        rel = Relation("R", [0.2, 0.9, 0.5], [[0.0], [1.0], [2.0]])
        stream = ScoreAccess(rel)
        stream.next()
        stream.next()
        assert stream.first_score == pytest.approx(0.9)
        assert stream.last_score == pytest.approx(0.5)

    def test_tie_break_by_tid(self):
        rel = Relation("R", [0.5, 0.5], [[0.0], [1.0]])
        assert [t.tid for t in drain(ScoreAccess(rel))] == [0, 1]

    def test_exhaustion(self):
        rel = Relation("R", [0.5], [[0.0]])
        stream = ScoreAccess(rel)
        stream.next()
        assert stream.exhausted
        assert stream.next() is None


class TestNextBlockDepletion:
    """Regression pins for block pulls at the end of the order: a limit
    past the remaining order must never raise, and ``exhausted`` flips
    exactly at depletion (not before, not after)."""

    def _streams(self, seed=0, size=9):
        rel = random_relation(seed, size=size)
        sharded = ShardedRelation(
            "R", rel.scores, rel.vectors, sigma_max=1.0, shards=3
        )
        q = np.zeros(2)
        return [
            DistanceAccess(rel, q),
            ScoreAccess(rel),
            open_streams([sharded], AccessKind.DISTANCE, q)[0],
            open_streams([sharded], AccessKind.SCORE)[0],
        ]

    def test_limit_past_remaining_never_raises(self):
        for stream in self._streams():
            total = 9
            stream.next_block(4)
            assert not stream.exhausted
            tail = stream.next_block(total * 10)  # far past the remaining 5
            assert len(tail) == total - 4
            assert stream.exhausted
            assert stream.depth == total

    def test_exhausted_flips_exactly_at_depletion(self):
        for stream in self._streams():
            block = stream.next_block(8)
            assert len(block) == 8
            assert not stream.exhausted  # one tuple left
            assert len(stream.next_block(1)) == 1
            assert stream.exhausted

    def test_depleted_stream_keeps_returning_empty(self):
        for stream in self._streams():
            stream.next_block(100)
            assert stream.exhausted
            for limit in (1, 7, 100):
                assert stream.next_block(limit) == []
            assert stream.next() is None
            assert stream.depth == 9

    def test_zero_and_negative_limits_are_noops(self):
        for stream in self._streams():
            assert stream.next_block(0) == []
            assert stream.next_block(-3) == []
            assert stream.depth == 0
            assert not stream.exhausted

    def test_block_prefix_stays_aligned(self):
        """The columnar prefix cursor advances by exactly the block size,
        including on the final short block."""
        for stream in self._streams():
            stream.next_block(7)
            assert len(stream.prefix) == 7
            stream.next_block(7)
            assert len(stream.prefix) == 9
            assert stream.prefix.arrays()[2].tolist() == [
                t.tid for t in stream.seen
            ]


class TestOpenStreams:
    def test_distance_kind(self):
        rels = [random_relation(6), random_relation(7)]
        streams = open_streams(rels, AccessKind.DISTANCE, np.zeros(2))
        assert all(isinstance(s, DistanceAccess) for s in streams)

    def test_score_kind(self):
        rels = [random_relation(8)]
        streams = open_streams(rels, AccessKind.SCORE)
        assert all(isinstance(s, ScoreAccess) for s in streams)

    def test_distance_requires_query(self):
        with pytest.raises(ValueError, match="query"):
            open_streams([random_relation(9)], AccessKind.DISTANCE)


# -- head orders --------------------------------------------------------------

HEAD_SIZES = (1, 255, 256, 257, 2000)
KINDS = (AccessKind.DISTANCE, AccessKind.SCORE)


def head_relation(n, ties, seed=0):
    """Uniform data, or tie-heavy data (a 5x5 grid of vectors and a
    four-rung score ladder, so long runs share one rank)."""
    rng = np.random.default_rng(seed)
    if ties:
        scores = rng.choice([0.25, 0.5, 0.75, 1.0], n)
        vectors = rng.integers(-2, 3, (n, 2)).astype(float)
    else:
        scores = rng.uniform(0.05, 1.0, n)
        vectors = rng.uniform(-3, 3, (n, 2))
    return Relation("R", scores, vectors, sigma_max=1.0)


def full_lexsort(rel, kind, query):
    """The full ``(rank, tid)`` order, sorted whole: ``(perm, ranks)``."""
    if kind is AccessKind.DISTANCE:
        diff = rel.vectors - query
        ranks = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        perm = np.lexsort((rel.tids, ranks))
    else:
        ranks = np.asarray(rel.scores, dtype=float)
        perm = np.lexsort((rel.tids, -ranks))
    return perm, ranks[perm]


def assert_head_exact(order, rel, perm, ranks):
    """The order's current head is the full order's leading rows, byte
    for byte, in every column."""
    head = order.head
    m = len(head)
    assert head.perm.tobytes() == perm[:m].astype(np.int64).tobytes()
    assert head.ranks.tobytes() == ranks[:m].tobytes()
    assert head.tids.tobytes() == rel.tids[perm[:m]].astype(np.int64).tobytes()
    assert head.vectors.tobytes() == rel.vectors[perm[:m]].tobytes()
    assert head.scores.tobytes() == rel.scores[perm[:m]].tobytes()
    return m


class TestHeadOrders:
    @pytest.mark.parametrize("n", HEAD_SIZES)
    @pytest.mark.parametrize("ties", [False, True], ids=["uniform", "ties"])
    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
    def test_every_head_is_the_full_orders_head(self, kind, ties, n):
        rel = head_relation(n, ties, seed=n)
        query = np.array([0.25, -0.5])
        perm, ranks = full_lexsort(rel, kind, query)
        order = AccessOrder.sort(rel, kind, query)
        assert order.total == n
        sizes = [assert_head_exact(order, rel, perm, ranks)]
        assert sizes[0] >= min(n, HEAD_ROWS)
        while sizes[-1] < n:
            order.extend(sizes[-1] + 1)
            sizes.append(assert_head_exact(order, rel, perm, ranks))
            # Each extension at least doubles the head (or ends it).
            assert sizes[-1] >= min(n, 2 * sizes[-2])
        if not ties:
            # Distinct ranks: no ties at any cut, so the heads double.
            want = [min(n, HEAD_ROWS)]
            while want[-1] < n:
                want.append(min(n, 2 * want[-1]))
            assert sizes == want

    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
    def test_tie_straddling_the_first_cut(self, kind):
        """Rows 250..269 of the full order share one rank: the first
        head keeps all twenty, and so ends at row 270."""
        n = 600
        rng = np.random.default_rng(4)
        levels = np.concatenate(
            [np.arange(250), np.full(20, 250.0), 251 + np.arange(n - 270)]
        )
        shuffle = rng.permutation(n)
        if kind is AccessKind.DISTANCE:
            vectors = np.stack([levels[shuffle], np.zeros(n)], axis=1)
            scores = np.full(n, 0.5)
        else:
            vectors = rng.uniform(-1, 1, (n, 2))
            scores = (1.0 - levels / n)[shuffle]
        rel = Relation("R", scores, vectors, sigma_max=1.0)
        query = np.zeros(2)
        perm, ranks = full_lexsort(rel, kind, query)
        order = AccessOrder.sort(rel, kind, query)
        assert assert_head_exact(order, rel, perm, ranks) == 270
        tied = order.tids[250:270]
        assert tied.tolist() == sorted(tied.tolist())

    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
    def test_fetch_window_jumps_several_doublings(self, kind):
        rel = head_relation(2000, ties=False, seed=9)
        query = np.array([1.0, 1.0])
        perm, ranks = full_lexsort(rel, kind, query)
        order = AccessOrder.sort(rel, kind, query)
        assert len(order.head) == HEAD_ROWS
        w_ranks, w_tids, w_vecs, w_scores = order.fetch_window(1500, 100)
        # One extension straight to the rows the read needs.
        assert len(order.head) == 1600
        assert assert_head_exact(order, rel, perm, ranks) == 1600
        assert w_ranks.tobytes() == ranks[1500:1600].tobytes()
        assert w_tids.tolist() == rel.tids[perm[1500:1600]].tolist()
        assert w_vecs.tobytes() == rel.vectors[perm[1500:1600]].tobytes()
        assert w_scores.tobytes() == rel.scores[perm[1500:1600]].tobytes()
        # Past the end: clamped, and the head becomes the full order.
        assert len(order.fetch_window(1990, 50)[0]) == 10
        assert len(order.head) == 2000

    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
    def test_rows_resolve_through_the_current_head(self, kind):
        rel = head_relation(2000, ties=True, seed=2)
        query = np.zeros(2)
        perm, _ = full_lexsort(rel, kind, query)
        order = AccessOrder.sort(rel, kind, query)
        first = len(order.head)
        # A position past the head extends it.
        assert order.tuples[first + 5] is rel[perm[first + 5]]
        assert len(order.head) > first
        assert order.tuples[-1] is rel[perm[-1]]
        assert len(order.head) == 2000
        for i, p in enumerate(perm.tolist()):
            assert order.tuples[i] is rel[p]
        assert [t.tid for t in order.tuples[10:20]] == rel.tids[perm[10:20]].tolist()
        with pytest.raises(IndexError):
            order.tuples[2000]

    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
    def test_full_extension_equals_sort_order(self, kind):
        rel = head_relation(1500, ties=True, seed=3)
        query = np.array([0.5, 0.5])
        perm, ranks = sort_order(kind, rel.vectors, rel.scores, rel.tids, query)
        order = AccessOrder.sort(rel, kind, query)
        order.extend(order.total)
        assert order.head.perm.tobytes() == perm.tobytes()
        assert order.ranks.tobytes() == ranks.tobytes()
        ref_perm, ref_ranks = full_lexsort(rel, kind, query)
        assert perm.tolist() == ref_perm.tolist()
        assert ranks.tobytes() == ref_ranks.tobytes()

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_chained_near_ties_keep_exact_order(self, shards):
        """Distances 1.0, 1.0 + 6e-13, 1.0 + 1.2e-12 (each within 1e-12
        of the previous) with descending tids: the stream emits them in
        exact ``(distance, tid)`` order, not regrouped as one tie run,
        and ``last_distance`` — the bounds' lower bound on every unseen
        row — never decreases."""
        x = np.array([1.0, 1.0 + 6e-13, 1.0 + 1.2e-12, 5.0])
        tids = [30, 20, 10, 40]
        scores = np.full(4, 0.5)
        vectors = x[:, None]
        query = np.zeros(1)
        if shards == 1:
            stream = DistanceAccess(
                Relation("R", scores, vectors, sigma_max=1.0, tids=tids), query
            )
        else:
            sharded = ShardedRelation(
                "R", scores, vectors, sigma_max=1.0, tids=tids, shards=shards
            )
            assert sharded.shard_count == shards
            (stream,) = open_streams([sharded], AccessKind.DISTANCE, query)
        dists = np.sqrt(x * x)
        assert len(set(dists.tolist())) == 4  # distinct, so no tie at all
        want = sorted(zip(dists.tolist(), tids))
        got = []
        last = stream.last_distance
        while (tup := stream.next()) is not None:
            assert stream.last_distance >= last
            last = stream.last_distance
            got.append((last, tup.tid))
        assert got == want
        assert [tid for _, tid in got] == [30, 20, 10, 40]

    def test_custom_metric_called_once_per_row(self):
        n = 1200
        rel = head_relation(n, ties=True, seed=5)
        calls = []

        def manhattan(x, y):
            calls.append(1)
            return float(np.abs(x - y).sum())

        stream = DistanceAccess(rel, np.zeros(2), metric=manhattan)
        assert len(calls) == n
        pulled = drain(stream)
        assert len(pulled) == n
        assert len(stream.order.head) == n  # the head was extended
        assert len(calls) == n
        dists = [float(np.abs(t.vector).sum()) for t in pulled]
        assert dists == sorted(dists)


# -- every stream source ------------------------------------------------------

SOURCES = ("memory", "sharded", "durable_hot", "durable_evicted", "remote")

#: One drain's block sizes: single pulls, short and long blocks, a read
#: past the first head (``HEAD_ROWS``) and a final short block.
DRAIN = (1, 5, 1, 64, 250, 3, 400)


def near_tie_relation(n=400, seed=13):
    """Uniform rows with ties planted: rows 0..7 are a chain of near
    ties — x = 1 + (7 - j) * 6e-13 and score 0.75 + (7 - j) * 6e-13,
    each within 1e-12 of the next, so the exact order runs against the
    tids — and rows 8..67 are fifteen groups of four exact copies."""
    rel = head_relation(n, ties=False, seed=seed)
    scores, vectors = rel.scores.copy(), rel.vectors.copy()
    offsets = (7 - np.arange(8)) * 6e-13
    vectors[:8] = np.stack([1.0 + offsets, np.zeros(8)], axis=1)
    scores[:8] = 0.75 + offsets
    copies = 8 + 4 * (np.arange(60) // 4)
    vectors[8:68] = vectors[copies]
    scores[8:68] = scores[copies]
    return Relation("R", scores, vectors, sigma_max=1.0)


@pytest.fixture
def open_source(tmp_path):
    """``open_source(source, relation, kind, query)``: one stream over
    ``relation`` as ``source`` serves it — in memory, as three in-memory
    shards, as those shards persisted (memmap-hot, or evicted and paged
    back in 4-row windows), or behind a remote endpoint in 3-row pages."""
    stored = []

    def open_(source, rel, kind, query):
        if source == "memory":
            return open_streams([rel], kind, query)[0]
        if source == "remote":
            return make_service_streams([rel], kind=kind, query=query, page_size=3)[0]
        sharded = ShardedRelation.from_relation(rel, shards=3)
        if source == "sharded":
            return open_streams([sharded], kind, query)[0]
        persist_relation(sharded, tmp_path)
        durable = open_relation(tmp_path, rel.name, page_rows=4)
        stored.append(durable)
        if source == "durable_evicted":
            durable.storage.evict_all()
        return open_streams([durable], kind, query)[0]

    yield open_
    for durable in stored:
        durable.close()


def rank_of_rows(rel, kind, query):
    """Each row's rank (its distance, or its score), in relation order."""
    if kind is AccessKind.DISTANCE:
        diff = rel.vectors - query
        return np.sqrt(np.einsum("ij,ij->i", diff, diff))
    return np.asarray(rel.scores, dtype=float)


class TestEveryStreamSource:
    """What the engine and the bounds take on trust from every stream
    the repo opens: the columnar prefix is the pulled rows in exact
    ``(rank, tid)`` order, and the rank statistics bound every unseen
    row.  Each stream is drained in mixed blocks, past the first head,
    over tie-heavy rows with a chain of near ties."""

    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
    @pytest.mark.parametrize("source", SOURCES)
    def test_prefix_columns_are_the_pulled_rows(self, open_source, source, kind):
        """``prefix`` — all that the batch scorer, the candidate pruner
        and the tight bound read — holds exactly the rows of ``seen``,
        which are the full order's leading rows, after every pull."""
        rel = near_tie_relation()
        query = np.zeros(2)
        perm, _ = full_lexsort(rel, kind, query)
        stream = open_source(source, rel, kind, query)
        pulled = 0
        for limit in DRAIN:
            block = stream.next() if limit == 1 else stream.next_block(limit)
            pulled = min(pulled + limit, len(rel))
            assert block is not None and len(stream.seen) == pulled
            rows = perm[:pulled]
            vecs, scores, tids = stream.prefix.arrays()
            assert len(stream.prefix) == stream.depth == pulled
            assert tids.tolist() == rel.tids[rows].tolist()
            assert [t.tid for t in stream.seen] == tids.tolist()
            assert scores.tobytes() == rel.scores[rows].tobytes()
            assert [t.score for t in stream.seen] == scores.tolist()
            assert vecs.tobytes() == rel.vectors[rows].tobytes()
            assert np.array_equal(np.stack([t.vector for t in stream.seen]), vecs)
        assert stream.exhausted
        assert stream.next_block(8) == []

    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
    @pytest.mark.parametrize("source", SOURCES)
    def test_rank_statistics_bound_the_unseen_rows(self, open_source, source, kind):
        """Before any access the first/last statistics follow Definition
        2.1's conventions (distance 0, score ``sigma_max``); after a pull
        they are the first and the latest pulled row's rank, and the
        last one never moves back and bounds every unseen row — from
        below for distance, from above for score."""
        rel = near_tie_relation()
        query = np.zeros(2)
        rank = rank_of_rows(rel, kind, query)
        row_of = {tid: row for row, tid in enumerate(rel.tids.tolist())}
        stream = open_source(source, rel, kind, query)
        if kind is AccessKind.DISTANCE:
            stats = lambda: (stream.first_distance, stream.last_distance)
            before, sign = 0.0, 1.0
        else:
            stats = lambda: (stream.first_score, stream.last_score)
            before, sign = rel.sigma_max, -1.0
        assert stream.sigma_max == rel.sigma_max
        assert stats() == (before, before)
        previous = None
        for limit in DRAIN:
            stream.next_block(limit)
            seen = np.array([row_of[t.tid] for t in stream.seen])
            first, last = stats()
            assert first == rank[seen[0]]
            assert last == rank[seen[-1]]
            if previous is not None:
                assert sign * last >= sign * previous
            previous = last
            unseen = np.setdiff1d(np.arange(len(rel)), seen)
            if len(unseen):
                assert sign * last <= (sign * rank[unseen]).min()
        assert stream.exhausted

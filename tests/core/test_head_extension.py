"""Head orders extend through every reader.

An access order sorts only its first ``HEAD_ROWS`` rows (plus the rows
tied at the cut) and extends the head when a reader runs past it.  The
drains below read a tie-heavy 4,800-row relation to exhaustion through
every reader of an order: a single-shard stream, the k-way merge over
in-memory, durable hot and durable evicted shards (S in {2, 4, 7}), the
simulated remote streams, and a merge over the async service's
prefetching cursors, pipelined and serial.  Every shard's head extends
at least twice on the way; each drain must return the full sorted
order's tids, and ``exhausted`` must flip exactly at depletion.

The concurrency tests drain one shared order from eight threads under a
one-microsecond switch interval, and run deep score-access queries —
each reads past the first head of the one hot bucket's shared orders —
from four ``submit_many`` threads and as four concurrent async queries;
every reader must see the serial rows and answers.
"""

import asyncio
import sys
import threading

import numpy as np
import pytest

from repro.core import AccessKind, EuclideanLogScoring, Relation, ShardedRelation
from repro.core.access import (
    HEAD_ROWS,
    AccessOrder,
    MergeStream,
    OrderStream,
    sorted_stream,
)
from repro.core.durable import open_relation, persist_relation
from repro.service import (
    AsyncRankJoinService,
    LatencyModel,
    RankJoinService,
    make_service_streams,
)
from repro.service.async_service import RemoteShardStream
from repro.service.simulation import RemoteShardEndpoint

SCORING = EuclideanLogScoring(1.0, 1.0, 1.0)
KINDS = (AccessKind.DISTANCE, AccessKind.SCORE)
BLOCKS = (1, 8, 3, 64)
N = 4_800
QUERY = np.zeros(2)
NO_LATENCY = LatencyModel(base=0.0, jitter=0.0)


def kind_id(kind):
    return kind.value


@pytest.fixture(scope="module")
def relation():
    """Tie-heavy: vectors on a 13x13 integer grid (a few dozen distinct
    distances from the origin) and a 40-rung score ladder."""
    rng = np.random.default_rng(11)
    return Relation(
        "T",
        rng.choice(np.linspace(0.1, 1.0, 40), N),
        rng.integers(-6, 7, (N, 2)).astype(float),
        sigma_max=1.0,
    )


def full_order_tids(rel, kind):
    if kind is AccessKind.DISTANCE:
        keys = np.sqrt(np.einsum("ij,ij->i", rel.vectors, rel.vectors))
    else:
        keys = -np.asarray(rel.scores, dtype=float)
    return rel.tids[np.lexsort((rel.tids, keys))].tolist()


@pytest.fixture
def head_sorts(monkeypatch):
    """Head sorts per order built while the test runs (the first head
    counts one; each extension one more)."""
    orders, counts = [], {}
    original = AccessOrder._sort_head

    def counting(self, rows):
        if id(self) not in counts:
            orders.append(self)
            counts[id(self)] = 0
        counts[id(self)] += 1
        return original(self, rows)

    monkeypatch.setattr(AccessOrder, "_sort_head", counting)
    return lambda: [counts[id(o)] for o in orders]


def drain(stream, block, total):
    """Pull ``stream`` dry in ``block``-sized pulls, checking depth and
    exhaustion after every pull; returns the pulled tids."""
    tids = []
    while True:
        got = stream.next_block(block)
        tids.extend(t.tid for t in got)
        assert stream.depth == len(tids)
        assert stream.exhausted == (len(tids) == total)
        if not got:
            break
    assert stream.next_block(block) == []
    assert stream.exhausted
    assert stream.prefix.arrays()[2].tolist() == tids
    return tids


def assert_extended_twice(head_sorts, orders):
    counts = head_sorts()
    assert len(counts) == orders
    assert min(counts) >= 3, counts


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("kind", KINDS, ids=kind_id)
def test_single_shard_stream(relation, head_sorts, kind, block):
    stream = sorted_stream(relation, kind, QUERY)
    assert drain(stream, block, N) == full_order_tids(relation, kind)
    assert_extended_twice(head_sorts, 1)


@pytest.fixture(scope="module")
def stores(tmp_path_factory, relation):
    """One durable store per shard count."""
    paths = {}
    for shards in (2, 4, 7):
        path = tmp_path_factory.mktemp(f"store{shards}")
        persist_relation(ShardedRelation.from_relation(relation, shards=shards), path)
        paths[shards] = path
    return paths


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("kind", KINDS, ids=kind_id)
@pytest.mark.parametrize("shards", [2, 4, 7])
@pytest.mark.parametrize("tier", ["memory", "durable_hot", "durable_evicted"])
def test_merge_stream(relation, stores, head_sorts, tier, shards, kind, block):
    if tier == "memory":
        stream = ShardedRelation.from_relation(relation, shards=shards).storage.open_stream(
            kind, QUERY
        )
        durable = None
    else:
        durable = open_relation(stores[shards], page_rows=100)
        if tier == "durable_evicted":
            durable.storage.evict_all()
        stream = durable.storage.open_stream(kind, QUERY)
    try:
        assert isinstance(stream, MergeStream)
        assert stream.shard_count == shards
        assert drain(stream, block, N) == full_order_tids(relation, kind)
        assert_extended_twice(head_sorts, shards)
        if tier == "durable_evicted":
            assert durable.storage.counters["paged_rows"] == N
    finally:
        if durable is not None:
            durable.close()


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("kind", KINDS, ids=kind_id)
def test_service_streams(relation, head_sorts, kind, block):
    [stream] = make_service_streams(
        [relation], kind=kind, query=QUERY, page_size=25, latency=NO_LATENCY
    )
    assert drain(stream, block, N) == full_order_tids(relation, kind)
    assert_extended_twice(head_sorts, 1)
    assert stream.cursors[0].source.tuples_served == N


@pytest.mark.parametrize("pipelined", [True, False], ids=["pipelined", "serial"])
@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("kind", KINDS, ids=kind_id)
def test_async_remote_cursors(relation, head_sorts, kind, block, pipelined):
    sharded = ShardedRelation.from_relation(relation, shards=4)

    async def main():
        loop = asyncio.get_running_loop()
        cursors = [
            RemoteShardStream(
                RemoteShardEndpoint.from_relation(
                    shard, kind=kind, query=QUERY, shard_index=i,
                    page_size=25, latency=NO_LATENCY,
                ),
                loop=loop,
                pipelined=pipelined,
            )
            for i, shard in enumerate(sharded.storage.shards)
        ]
        for cursor in cursors:
            cursor.request(0)
        stream = MergeStream(sharded, kind, cursors)
        try:
            return await loop.run_in_executor(None, drain, stream, block, N)
        finally:
            for cursor in cursors:
                cursor.close()

    assert asyncio.run(main()) == full_order_tids(relation, kind)
    assert_extended_twice(head_sorts, 4)


# -- concurrent readers of one hot order ----------------------------------------


@pytest.mark.parametrize("kind", KINDS, ids=kind_id)
def test_threads_extending_one_order(relation, kind):
    """Eight threads drain streams over one shared order, each with its
    own block size, while the interpreter switches threads every
    microsecond: every drain is the full order, and the order ends with
    one full head.  A torn or lost head would show as a wrong row."""
    want = full_order_tids(relation, kind)
    order = AccessOrder.sort(relation, kind, QUERY)
    results, errors = {}, []

    def reader(i):
        try:
            results[i] = drain(OrderStream(order, relation), 1 + 7 * i, N)
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    threads = [threading.Thread(target=reader, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    assert all(results[i] == want for i in range(8))
    assert order.head.perm.tolist() == order.extend(N).perm.tolist()
    assert len(order.head) == N

DEEP_K = 10


def deep_problem(shards):
    """Scores packed into [0.9, 1]: under score access the bound falls
    slowly, so every query reads well past the first head."""
    rng = np.random.default_rng(21)
    relations = []
    for i in range(2):
        rel = Relation(
            f"D{i}",
            rng.uniform(0.9, 1.0, 1200),
            rng.uniform(-2, 2, (1200, 2)),
            sigma_max=1.0,
        )
        if shards > 1:
            rel = ShardedRelation.from_relation(rel, shards=shards)
        relations.append(rel)
    queries = [rng.uniform(-1, 1, 2) for _ in range(8)]
    return relations, queries


def result_sig(res):
    return [(c.key, c.score) for c in res.combinations], tuple(res.depths), res.bound


def serial_answers(relations, queries, shards):
    with RankJoinService(
        relations, SCORING, kind=AccessKind.SCORE, k=DEEP_K, result_cache_size=0
    ) as svc:
        results = [svc.submit(q) for q in queries]
    # Deep: every query reads past the first head of some shard order.
    assert all(max(r.depths) > HEAD_ROWS * shards for r in results)
    return [result_sig(r) for r in results]


@pytest.mark.parametrize("shards", [1, 2])
def test_submit_many_threads_extend_shared_orders(head_sorts, shards):
    relations, queries = deep_problem(shards)
    want = serial_answers(relations, queries, shards)
    with RankJoinService(
        relations, SCORING, kind=AccessKind.SCORE, k=DEEP_K,
        result_cache_size=0, max_workers=4,
    ) as svc:
        got = [result_sig(r) for r in svc.submit_many(queries)]
        # One hot bucket: score orders are shared by every query.
        assert svc.stats.stream_cache_misses <= 4 * len(relations) * shards
    assert got == want
    assert max(head_sorts()) >= 2


def test_async_queries_extend_shared_orders(head_sorts):
    relations, queries = deep_problem(2)
    want = serial_answers(relations, queries[:4], 2)
    service = AsyncRankJoinService(
        relations, SCORING, kind=AccessKind.SCORE, k=DEEP_K,
        result_cache_size=0, max_inflight=4, page_size=25, latency=NO_LATENCY,
    )
    try:
        got = [result_sig(r) for r in service.serve(queries[:4])]
    finally:
        service.close()
    assert got == want
    assert max(head_sorts()) >= 2

"""Access orders are columnar; rows are built on pull.

An order's row sequence is a permuted view over the relation's own rows:
``order.tuples[i] is relation[perm[i]]``, looked up only when a stream
pulls (or a merge stages) position ``i``.  On durable hot shards, whose
rows are ``LazyTuples``, a query must therefore materialise no row
beyond those it pulled or staged — in the first process over a store
and in a restarted one alike.
"""

import numpy as np
import pytest

from repro.core import AccessKind, EuclideanLogScoring, MergeStream, ShardedRelation
from repro.core.access import AccessOrder, OrderRows, sort_order
from repro.core.durable import open_relation, persist_relation
from repro.data import SyntheticConfig, generate_problem
from repro.service import RankJoinService

SCORING = EuclideanLogScoring(1.0, 1.0, 1.0)
KINDS = [AccessKind.DISTANCE, AccessKind.SCORE]


def make_problem(n=2, size=600, seed=5):
    return generate_problem(
        SyntheticConfig(
            n_relations=n, dims=2, density=50.0, skew=1.0,
            n_tuples=size, seed=seed,
        )
    )


def durable_problem(tmp_path, shards):
    relations, query = make_problem()
    for r in relations:
        stored = ShardedRelation.from_relation(r, shards=shards) if shards > 1 else r
        persist_relation(stored, tmp_path)
    return relations, [open_relation(tmp_path, r.name) for r in relations], query


def materialised(durable):
    """Row objects built so far per shard of a durable relation (only
    shards whose row sequence exists)."""
    return [
        sum(t is not None for t in h._rows._cache)
        for h in durable.storage.handles
        if h._rows is not None
    ]


def result_sig(res):
    return [(c.key, c.score) for c in res.combinations], tuple(res.depths), res.bound


def assert_rows_are_relation_rows(order, shard):
    for i, p in enumerate(order.extend(order.total).perm.tolist()):
        assert order.tuples[i] is shard[p]


class TestOrderRows:
    def test_view_resolves_relation_rows(self):
        relations, query = make_problem(n=1, size=50)
        rel = relations[0]
        for kind in KINDS:
            order = AccessOrder.sort(rel, kind, query)
            assert isinstance(order.tuples, OrderRows)
            assert len(order.tuples) == len(rel)
            assert_rows_are_relation_rows(order, rel)
            block = order.tuples[3:9]
            assert [t.tid for t in block] == order.tids[3:9].tolist()
            tids = order.fetch_window(0, order.total)[1]
            assert [t.tid for t in order.tuples] == tids.tolist()

    def test_sort_order_is_the_rank_tid_order(self):
        relations, query = make_problem(n=1, size=300)
        rel = relations[0]
        dists = np.linalg.norm(rel.vectors - query, axis=1)
        for kind, keys in [
            (AccessKind.DISTANCE, lambda ranks: ranks),
            (AccessKind.SCORE, lambda ranks: -ranks),
        ]:
            perm, ranks = sort_order(kind, rel.vectors, rel.scores, rel.tids, query)
            assert perm.dtype == np.int64
            assert sorted(perm.tolist()) == list(range(len(rel)))
            pairs = list(zip(keys(ranks).tolist(), rel.tids[perm].tolist()))
            assert pairs == sorted(pairs)
            want = dists if kind is AccessKind.DISTANCE else rel.scores
            assert np.allclose(ranks, want[perm])

    @pytest.mark.parametrize("kind", KINDS)
    def test_service_order_views_in_memory_rows(self, kind):
        relations, query = make_problem(n=2, size=80)
        with RankJoinService(relations, SCORING, kind=kind, k=5) as svc:
            canonical = svc.canonical_query(query)
            order = svc._order_for(
                relations[0], 0, svc._bucket_key(canonical), canonical
            )
        assert_rows_are_relation_rows(order, relations[0])


class TestDurableRowsBuiltOnPull:
    @pytest.mark.parametrize("kind", KINDS)
    def test_single_hot_shard_materialises_only_pulled_rows(self, tmp_path, kind):
        relations, durable, query = durable_problem(tmp_path, shards=1)
        with RankJoinService(relations, SCORING, kind=kind, k=5) as ref:
            want = result_sig(ref.submit(query))
        with RankJoinService(durable, SCORING, kind=kind, k=5) as svc:
            res = svc.submit(query)
            assert result_sig(res) == want
            # One shard replayed by one stream: exactly the pulled rows.
            for rel, depth in zip(durable, res.depths):
                assert materialised(rel) == [depth]
                assert depth < len(rel)
            canonical = svc.canonical_query(query)
            shard = durable[0].storage.shard_relation(0)
            order = svc._order_for(shard, 0, svc._bucket_key(canonical), canonical)
            assert_rows_are_relation_rows(order, shard)
        for r in durable:
            r.close()

    @pytest.mark.parametrize("shards", [2, 4])
    @pytest.mark.parametrize("kind", KINDS)
    def test_sharded_hot_shards_materialise_pulled_or_staged(
        self, tmp_path, shards, kind
    ):
        relations, durable, query = durable_problem(tmp_path, shards=shards)
        with RankJoinService(relations, SCORING, kind=kind, k=5) as ref:
            want = result_sig(ref.submit(query))
        with RankJoinService(durable, SCORING, kind=kind, k=5) as svc:
            res = svc.submit(query)
            assert result_sig(res) == want
            for rel, depth in zip(durable, res.depths):
                built = sum(materialised(rel))
                # Pulled rows, plus at most one refill's unpulled stage.
                assert depth <= built <= depth + MergeStream.READAHEAD
                assert built < len(rel) // 2
        for r in durable:
            r.close()

    @pytest.mark.parametrize("kind", KINDS)
    def test_restarted_service_materialises_only_pulled_rows(self, tmp_path, kind):
        relations, durable, query = durable_problem(tmp_path, shards=1)
        with RankJoinService(durable, SCORING, kind=kind, k=5) as first:
            want = result_sig(first.submit(query))
        for r in durable:
            r.close()
        # Restarted: fresh relation objects, orders sorted anew.
        durable = [open_relation(tmp_path, r.name) for r in relations]
        with RankJoinService(durable, SCORING, kind=kind, k=5) as again:
            res = again.submit(query)
            assert result_sig(res) == want
            assert again.stats.order_sorts == len(durable)
            for rel, depth in zip(durable, res.depths):
                assert materialised(rel) == [depth]
            canonical = again.canonical_query(query)
            shard = durable[0].storage.shard_relation(0)
            order = again._order_for(shard, 0, again._bucket_key(canonical), canonical)
            assert again.stats.order_sorts == len(durable)
            assert_rows_are_relation_rows(order, shard)
        for r in durable:
            r.close()

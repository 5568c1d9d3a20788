"""Differential tests for the sharded storage layer.

The acceptance bar: for S in {1, 2, 4, 7} shards, under both partition
schemes and both access kinds, completed sharded runs return
*bit-identical* top-K (same combination keys, same float scores, same
tie-break order) to the single-shard reference and the brute-force
oracle — on randomized and tie-heavy workloads alike.  The merge layer
itself is additionally pinned against the single sorted access stream,
order position by order position.
"""

import numpy as np
import pytest

from repro.core import (
    AccessKind,
    DistanceAccess,
    EuclideanLogScoring,
    Relation,
    ScoreAccess,
    ShardedRelation,
    brute_force_topk,
    make_algorithm,
    open_streams,
    partition_indices,
)
from repro.core.access import MergeStream, ShardCursor, sorted_stream
from repro.data import SyntheticConfig, generate_problem
from repro.service import LatencyModel, RemoteShardEndpoint

SHARD_COUNTS = (1, 2, 4, 7)


def ranked_ids(result_combinations):
    return [(c.key, c.score) for c in result_combinations]


def random_workload(seed):
    """One randomized (n, d, k, skew) problem instance (same family as
    the block-pull differential suite)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 4))  # n in {2, 3}
    d = int(rng.choice([2, 8]))
    k = int(rng.integers(1, 12))
    skew = float(rng.choice([1.0, 2.0, 4.0]))
    size = int(rng.integers(8, 16))
    relations, query = generate_problem(
        SyntheticConfig(
            n_relations=n, dims=d, density=50.0, skew=skew,
            n_tuples=size, seed=seed,
        )
    )
    return relations, query, k


def tie_heavy_workload(seed):
    """Vectors on a tiny integer grid, scores from a two-value set: most
    combinations collide exactly in aggregate score."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 4))
    k = int(rng.integers(2, 10))
    size = int(rng.integers(6, 12))
    relations = [
        Relation(
            f"R{i}",
            rng.choice([0.5, 1.0], size),
            rng.choice([-1.0, 0.0, 1.0], (size, 2)),
            sigma_max=1.0,
        )
        for i in range(n)
    ]
    return relations, np.zeros(2), k


def shard_all(relations, shards, partition="hash"):
    return [
        ShardedRelation.from_relation(r, shards=shards, partition=partition)
        for r in relations
    ]


class TestPartitioning:
    @pytest.mark.parametrize("partition", ["hash", "range"])
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_partition_is_disjoint_and_complete(self, shards, partition):
        parts = partition_indices(23, shards, partition)
        assert len(parts) == shards
        merged = np.sort(np.concatenate(parts))
        assert merged.tolist() == list(range(23))

    def test_hash_partition_spreads_load(self):
        sizes = [len(p) for p in partition_indices(1000, 4, "hash")]
        assert min(sizes) > 150  # no starved shard

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="partition"):
            partition_indices(10, 2, "zigzag")

    def test_shards_carry_global_tids_and_parent_metadata(self):
        rng = np.random.default_rng(0)
        rel = ShardedRelation(
            "R", rng.uniform(0.1, 1.0, 20), rng.uniform(-1, 1, (20, 2)),
            sigma_max=1.0, shards=4,
        )
        shards = rel.storage.shards
        all_tids = sorted(int(t) for s in shards for t in s.tids)
        assert all_tids == list(range(20))
        for shard in shards:
            assert shard.name == rel.name
            assert shard.sigma_max == rel.sigma_max
        # The sharded relation itself still reads whole, like any Relation.
        assert len(rel) == 20
        assert [t.tid for t in rel] == list(range(20))

    def test_more_shards_than_tuples(self):
        rel = ShardedRelation("R", [0.5, 0.6], [[0.0], [1.0]], shards=5)
        assert 1 <= rel.shard_count <= 2
        stream = open_streams([rel], AccessKind.SCORE)[0]
        assert [t.tid for t in stream.next_block(10)] == [1, 0]

    def test_hash_empty_shards_are_dropped_not_materialised(self):
        """Hash partitioning of a small relation can leave requested
        partitions empty; shard_count reports non-empty shards only and
        the union still covers every tuple."""
        rel = ShardedRelation(
            "R", [0.5, 0.6, 0.7], [[0.0], [1.0], [2.0]], shards=3
        )
        assert 1 <= rel.shard_count <= 3
        covered = sorted(
            int(t) for s in rel.storage.shards for t in s.tids
        )
        assert covered == [0, 1, 2]

    def test_shard_tuples_share_parent_objects(self):
        """Shards reuse the parent's RankTuple rows — sharding must not
        re-materialise the Python tuple layer."""
        rng = np.random.default_rng(1)
        rel = ShardedRelation(
            "R", rng.uniform(0.1, 1.0, 12), rng.uniform(-1, 1, (12, 2)),
            sigma_max=1.0, shards=3,
        )
        parent = {t.tid: t for t in rel}
        for shard in rel.storage.shards:
            for tup in shard:
                assert tup is parent[tup.tid]

    def test_from_relation_preserves_explicit_tids(self):
        base = Relation(
            "R", [0.5, 0.9, 0.7], [[0.0], [1.0], [2.0]], tids=[10, 11, 12]
        )
        sharded = ShardedRelation.from_relation(base, shards=2)
        assert sorted(int(t) for t in sharded.tids) == [10, 11, 12]
        shard_tids = sorted(
            int(t) for s in sharded.storage.shards for t in s.tids
        )
        assert shard_tids == [10, 11, 12]
        stream = open_streams([sharded], AccessKind.SCORE)[0]
        assert [t.tid for t in stream.next_block(3)] == [11, 12, 10]


class TestMergeStreamOrder:
    """The merged stream is the single sorted access, bit for bit."""

    @pytest.mark.parametrize("partition", ["hash", "range"])
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_distance_merge_matches_single_stream(self, shards, partition):
        rng = np.random.default_rng(shards * 10 + (partition == "range"))
        n = 41
        scores = rng.uniform(0.05, 1.0, n)
        vectors = rng.uniform(-2, 2, (n, 3))
        query = rng.uniform(-1, 1, 3)
        base = Relation("R", scores, vectors, sigma_max=1.0)
        sharded = ShardedRelation(
            "R", scores, vectors, sigma_max=1.0, shards=shards, partition=partition
        )
        ref = DistanceAccess(base, query)
        got = open_streams([sharded], AccessKind.DISTANCE, query)[0]
        ref_block = ref.next_block(n)
        got_block = got.next_block(n)
        assert [t.tid for t in got_block] == [t.tid for t in ref_block]
        assert np.array_equal(got.distances, ref.distances)
        assert got.last_distance == ref.last_distance

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_score_merge_matches_single_stream(self, shards):
        rng = np.random.default_rng(shards)
        n = 33
        # Heavy score ties: the tid tie-break must hold across shards.
        scores = rng.choice([0.3, 0.7, 1.0], n)
        vectors = rng.uniform(-2, 2, (n, 2))
        base = Relation("R", scores, vectors, sigma_max=1.0)
        sharded = ShardedRelation("R", scores, vectors, sigma_max=1.0, shards=shards)
        ref = [t.tid for t in ScoreAccess(base).next_block(n)]
        got_stream = open_streams([sharded], AccessKind.SCORE)[0]
        assert [t.tid for t in got_stream.next_block(n)] == ref
        assert got_stream.exhausted

    @pytest.mark.parametrize("block", [1, 3, 8, 64])
    def test_merge_is_block_size_invariant(self, block):
        rng = np.random.default_rng(7)
        n = 29
        sharded = ShardedRelation(
            "R", rng.uniform(0.05, 1, n), rng.uniform(-2, 2, (n, 2)),
            sigma_max=1.0, shards=4,
        )
        query = np.zeros(2)
        whole = open_streams([sharded], AccessKind.DISTANCE, query)[0]
        expected = [t.tid for t in whole.next_block(n)]
        stream = open_streams([sharded], AccessKind.DISTANCE, query)[0]
        got = []
        while not stream.exhausted:
            got.extend(t.tid for t in stream.next_block(block))
        assert got == expected

    def test_merge_stream_requires_cursors(self):
        rel = Relation("R", [0.5], [[0.0]])
        with pytest.raises(ValueError, match="cursor"):
            MergeStream(rel, AccessKind.DISTANCE, [])


def tie_heavy_relation(n, seed):
    """One relation on a 3x3 grid with two scores: ranks tie in runs, so
    the order across shards rests on the tid tie-break."""
    rng = np.random.default_rng(seed)
    return Relation(
        "R",
        rng.choice([0.5, 1.0], n),
        rng.choice([-1.0, 0.0, 1.0], (n, 2)),
        sigma_max=1.0,
    )


class TestMergeFetchSchedule:
    """What a refill reads from its shards: fetched shards page in about
    as deep as the merge takes from them, resident shards stage the full
    span as before, and the merged order never changes."""

    BLOCKS = (1, 8, 3, 64)

    @pytest.mark.parametrize("kind", [AccessKind.DISTANCE, AccessKind.SCORE])
    @pytest.mark.parametrize("partition", ["hash", "range"])
    @pytest.mark.parametrize("page", [1, 3, 25])
    @pytest.mark.parametrize("shards", [2, 4, 7])
    def test_blocking_sources_fetch_by_the_frontier(
        self, shards, page, partition, kind
    ):
        n = 150
        base = tie_heavy_relation(n, seed=shards * 31 + page)
        query = np.zeros(2) if kind is AccessKind.DISTANCE else None
        sharded = ShardedRelation.from_relation(
            base, shards=shards, partition=partition
        )
        cursors = [
            ShardCursor(
                RemoteShardEndpoint.from_relation(
                    shard, kind=kind, query=query, shard_index=i,
                    page_size=page, latency=LatencyModel(0.0, 0.0),
                )
            )
            for i, shard in enumerate(sharded.storage.shards)
        ]
        stream = MergeStream(sharded, kind, cursors)
        expected = [t.tid for t in sorted_stream(base, kind, query).next_block(n)]
        got = []
        i = 0
        while not stream.exhausted:
            got.extend(t.tid for t in stream.next_block(self.BLOCKS[i % 4]))
            i += 1
            for c in cursors:
                assert c.source.pages <= -(-c.pos // page) + 1
                assert c.source.pages == -(-c.source.tuples_served // page)
        assert got == expected

    @pytest.mark.parametrize("kind", [AccessKind.DISTANCE, AccessKind.SCORE])
    @pytest.mark.parametrize("shards", [2, 4, 7])
    def test_resident_refills_stage_the_full_span(self, shards, kind):
        n = 300
        base = tie_heavy_relation(n, seed=shards)
        query = np.zeros(2) if kind is AccessKind.DISTANCE else None
        sharded = ShardedRelation.from_relation(base, shards=shards)
        stream = open_streams([sharded], kind, query)[0]
        staged = []
        refill = stream._refill

        def spy(needed):
            left = sum(c.remaining for c in stream.cursors)
            if refill(needed):
                want = min(max(needed, MergeStream.READAHEAD), left)
                staged.append((len(stream._stage_tuples), want))
                return True
            return False

        stream._refill = spy
        got = []
        i = 0
        while not stream.exhausted:
            got.extend(t.tid for t in stream.next_block(self.BLOCKS[i % 4]))
            i += 1
        assert got == [t.tid for t in sorted_stream(base, kind, query).next_block(n)]
        assert staged and all(have == want for have, want in staged)


class TestShardedEngineDifferential:
    """Sharded runs through the full engine match the single-shard
    oracle exactly — keys, scores and tie-break order."""

    @pytest.mark.parametrize("seed", [0, 3, 11, 19])
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_randomized_distance_access(self, shards, seed):
        relations, query, k = random_workload(seed)
        scoring = EuclideanLogScoring(1.0, 1.0, 1.0)
        oracle = ranked_ids(brute_force_topk(relations, scoring, query, k))
        sharded = shard_all(relations, shards)
        for algo, block in (("TBPA", 8), ("CBRR", 1), ("CBPA", 4)):
            result = make_algorithm(
                algo, sharded, scoring, query, k,
                kind=AccessKind.DISTANCE, pull_block=block,
            ).run()
            assert result.completed
            assert ranked_ids(result.combinations) == oracle

    @pytest.mark.parametrize("seed", [30, 37, 44, 51])
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_tie_heavy_distance_access(self, shards, seed):
        relations, query, k = tie_heavy_workload(seed)
        scoring = EuclideanLogScoring(1.0, 1.0, 1.0)
        oracle = ranked_ids(brute_force_topk(relations, scoring, query, k))
        sharded = shard_all(relations, shards)
        for block in (1, 4, 16):
            result = make_algorithm(
                "TBPA", sharded, scoring, query, k,
                kind=AccessKind.DISTANCE, pull_block=block,
            ).run()
            assert result.completed
            assert ranked_ids(result.combinations) == oracle

    @pytest.mark.parametrize("seed", [99, 104])
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_score_access(self, shards, seed):
        relations, query, k = random_workload(seed)
        scoring = EuclideanLogScoring(1.0, 1.0, 1.0)
        oracle = ranked_ids(brute_force_topk(relations, scoring, query, k))
        sharded = shard_all(relations, shards)
        for block in (1, 5):
            result = make_algorithm(
                "TBRR", sharded, scoring, query, k,
                kind=AccessKind.SCORE, pull_block=block,
            ).run()
            assert ranked_ids(result.combinations) == oracle

    @pytest.mark.parametrize("seed", [36, 42])
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_tie_heavy_score_access(self, shards, seed):
        relations, query, k = tie_heavy_workload(seed)
        scoring = EuclideanLogScoring(1.0, 1.0, 1.0)
        oracle = ranked_ids(brute_force_topk(relations, scoring, query, k))
        result = make_algorithm(
            "TBRR", shard_all(relations, shards), scoring, query, k,
            kind=AccessKind.SCORE, pull_block=4,
        ).run()
        assert ranked_ids(result.combinations) == oracle

    @pytest.mark.parametrize("partition", ["hash", "range"])
    def test_range_and_hash_partitions_agree(self, partition):
        relations, query, k = random_workload(5)
        scoring = EuclideanLogScoring(1.0, 1.0, 1.0)
        oracle = ranked_ids(brute_force_topk(relations, scoring, query, k))
        result = make_algorithm(
            "TBPA", shard_all(relations, 4, partition), scoring, query, k,
            kind=AccessKind.DISTANCE, pull_block=8,
        ).run()
        assert result.completed
        assert ranked_ids(result.combinations) == oracle

    def test_sharded_pull_schedule_matches_single_shard(self):
        """Beyond the ranked output: bounds and rank statistics are
        identical, so even the adaptive pull schedule (depths per
        relation) is partition-invariant."""
        relations, query, k = random_workload(13)
        scoring = EuclideanLogScoring(1.0, 1.0, 1.0)
        ref = make_algorithm(
            "TBPA", relations, scoring, query, k,
            kind=AccessKind.DISTANCE, pull_block=4,
        ).run()
        for shards in (2, 7):
            got = make_algorithm(
                "TBPA", shard_all(relations, shards), scoring, query, k,
                kind=AccessKind.DISTANCE, pull_block=4,
            ).run()
            assert got.depths == ref.depths
            assert got.bound == ref.bound

"""Differential and crash-consistency tests for the durable tier.

The acceptance bar: relations served from disk are *bit-identical* to
in-memory runs — same top-K combination keys, same float scores, same
depths and bounds — for S in {1, 2, 4} shards, both access kinds, and
all three disk paths (hot memmap-backed shards, evicted shards paged
back window by window, and a freshly restarted process re-opening the
store).  Plus the durability protocol itself: a writer killed anywhere
mid-``persist`` leaves the previous generation fully readable — no torn
columnar reads.
"""

import numpy as np
import pytest

from repro.core import (
    AccessKind,
    EuclideanLogScoring,
    Relation,
    ShardedRelation,
    make_algorithm,
)
from repro.core.durable import (
    DurableRelation,
    ShardCatalog,
    ShardFile,
    open_relation,
    persist_relation,
    write_shard_file,
)
from repro.core.durable.backend import LazyTuples
from repro.data import (
    SyntheticConfig,
    generate_problem,
    load_problem_durable,
    save_problem_durable,
)

SHARD_COUNTS = (1, 2, 4)


def ranked(result):
    return (
        [(c.key, c.score) for c in result.combinations],
        tuple(result.depths),
        result.bound,
    )


def make_problem(seed, n_relations=2, size=40, dims=2):
    return generate_problem(
        SyntheticConfig(
            n_relations=n_relations, dims=dims, density=50.0, skew=1.0,
            n_tuples=size, seed=seed,
        )
    )


def shard(relation, s):
    if s == 1:
        return relation
    return ShardedRelation.from_relation(relation, shards=s)


def run(relations, query, kind, k=8):
    scoring = EuclideanLogScoring(1.0, 1.0, 1.0)
    engine = make_algorithm(
        "TBPA", relations, scoring, query, k, kind=kind, pull_block=8
    )
    return engine.run()


# -- shard file format ------------------------------------------------------


def test_shard_file_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    n, d = 30, 3
    scores = rng.random(n)
    vectors = rng.random((n, d))
    tids = np.arange(n, dtype=np.int64)
    positions = rng.permutation(n).astype(np.int64)
    attrs = [{"i": i} for i in range(n)]
    row = write_shard_file(
        tmp_path / "a.shard",
        relation="R", shard_index=0, generation=1, sigma_max=1.0,
        scores=scores, vectors=vectors, tids=tids, positions=positions,
        attrs=attrs,
    )
    assert row["n"] == n and row["dim"] == d
    f = ShardFile(tmp_path / "a.shard", verify=True)
    # Bit-exact columns through the memmap views.
    assert f.scores.tobytes() == scores.tobytes()
    assert f.vectors.tobytes() == vectors.tobytes()
    assert np.array_equal(f.tids, tids)
    assert np.array_equal(f.positions, positions)
    assert f.attrs[7] == {"i": 7}
    assert f.relation == "R" and f.generation == 1


def test_shard_file_rejects_garbage_and_truncation(tmp_path):
    bad = tmp_path / "bad.shard"
    bad.write_bytes(b"NOTASHARD" + b"\0" * 64)
    with pytest.raises(ValueError, match="bad magic"):
        ShardFile(bad)
    rng = np.random.default_rng(1)
    good = tmp_path / "good.shard"
    write_shard_file(
        good, relation="R", shard_index=0, generation=1, sigma_max=1.0,
        scores=rng.random(20), vectors=rng.random((20, 2)),
        tids=np.arange(20), positions=np.arange(20),
    )
    data = good.read_bytes()
    torn = tmp_path / "torn.shard"
    torn.write_bytes(data[: len(data) - 40])
    with pytest.raises(ValueError, match="torn"):
        ShardFile(torn)
    # Bit-flip inside a segment: caught by verify(), not by open.
    flipped = bytearray(data)
    flipped[-5] ^= 0xFF
    corrupt = tmp_path / "corrupt.shard"
    corrupt.write_bytes(bytes(flipped))
    with pytest.raises(ValueError, match="checksum mismatch"):
        ShardFile(corrupt, verify=True)


# -- catalog ----------------------------------------------------------------


def test_catalog_order_blobs_bit_identical(tmp_path):
    cat = ShardCatalog(tmp_path / "catalog.sqlite")
    rng = np.random.default_rng(2)
    perm = rng.permutation(100).astype(np.int64)
    ranks = rng.random(100)
    cat.commit_generation(
        name="R", generation=1, n=100, dim=2, sigma_max=0.123456789123456789,
        partition=None,
        shard_rows=[{
            "filename": "f", "n": 100, "dim": 2, "sigma_max": 1.0,
            "tid_min": 0, "tid_max": 99, "checksum": 0,
        }],
    )
    cat.put_order(
        relation="R", generation=1, shard_index=0, kind="distance",
        bucket=b"q", perm=perm, ranks=ranks,
    )
    got_perm, got_ranks = cat.get_order(
        relation="R", generation=1, shard_index=0, kind="distance", bucket=b"q"
    )
    assert got_perm.tobytes() == perm.tobytes()
    assert got_ranks.tobytes() == ranks.tobytes()
    # sigma_max is an SQLite REAL: IEEE double, exact round trip.
    assert cat.relation_row("R")["sigma_max"] == 0.123456789123456789
    # The hit was counted.
    assert cat.total_order_hits("R") == 1
    cat.close()


# -- differential: disk-served == in-memory ---------------------------------


@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("kind", [AccessKind.DISTANCE, AccessKind.SCORE])
def test_hot_disk_bit_identical(tmp_path, shards, kind):
    relations, query = make_problem(seed=shards, n_relations=2)
    sharded = [shard(r, shards) for r in relations]
    reference = ranked(run(sharded, query, kind))
    store = tmp_path / "store"
    for r in sharded:
        persist_relation(r, store)
    durable = [open_relation(store, r.name) for r in sharded]
    assert ranked(run(durable, query, kind)) == reference
    for r in durable:
        r.close()


@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("kind", [AccessKind.DISTANCE, AccessKind.SCORE])
def test_evicted_paged_bit_identical(tmp_path, shards, kind):
    relations, query = make_problem(seed=10 + shards, n_relations=2)
    sharded = [shard(r, shards) for r in relations]
    reference = ranked(run(sharded, query, kind))
    store = tmp_path / "store"
    for r in sharded:
        persist_relation(r, store)
    durable = [open_relation(store, r.name) for r in sharded]
    for r in durable:
        r.storage.evict_all()
    assert ranked(run(durable, query, kind)) == reference
    # The evicted path really paged: every shard was served by windows.
    assert all(r.storage.counters["paged_windows"] >= shards for r in durable)
    assert all(r.storage.counters["order_scans"] == shards for r in durable)
    for r in durable:
        r.close()


@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("kind", [AccessKind.DISTANCE, AccessKind.SCORE])
def test_restarted_process_bit_identical(tmp_path, shards, kind):
    """Simulated restart: persist, run once, re-open fresh objects over
    the same store, run evicted again — identical results."""
    relations, query = make_problem(seed=20 + shards, n_relations=2)
    sharded = [shard(r, shards) for r in relations]
    reference = ranked(run(sharded, query, kind))
    store = tmp_path / "store"
    for r in sharded:
        persist_relation(r, store)
    first = [open_relation(store, r.name) for r in sharded]
    for r in first:
        r.storage.evict_all()
    assert ranked(run(first, query, kind)) == reference
    for r in first:
        r.close()
    # "Restart": brand-new relation objects over the same store.
    second = [open_relation(store, r.name) for r in sharded]
    for r in second:
        r.storage.evict_all()
    assert ranked(run(second, query, kind)) == reference
    for r in second:
        r.close()


def test_tie_heavy_orders_survive_the_round_trip(tmp_path):
    """Grid vectors + two-valued scores: the (rank, tid) tie-breaks are
    where a lossy order round-trip would first diverge."""
    rng = np.random.default_rng(3)
    size = 24
    rel = ShardedRelation(
        "T",
        rng.choice([0.5, 1.0], size),
        rng.choice([-1.0, 0.0, 1.0], (size, 2)),
        shards=4,
        sigma_max=1.0,
    )
    query = np.zeros(2)
    for kind in (AccessKind.DISTANCE, AccessKind.SCORE):
        reference = ranked(run([rel], query, kind, k=6))
        store = tmp_path / f"store-{kind.value}"
        persist_relation(rel, store)
        for _ in range(2):  # second pass replays persisted orders
            dur = open_relation(store)
            dur.storage.evict_all()
            assert ranked(run([dur], query, kind, k=6)) == reference
            dur.close()


# -- tier manager -----------------------------------------------------------


def test_memory_budget_evicts_lru(tmp_path):
    relations, _ = make_problem(seed=5, n_relations=1, size=64)
    sharded = shard(relations[0], 4)
    persist_relation(sharded, tmp_path / "s")
    dur = open_relation(tmp_path / "s")
    backend = dur.storage
    # Budget sized from the actual (possibly uneven) shard extents so it
    # fits any two of the shards this test touches but never three.
    s = [h.file.nbytes for h in backend.handles]
    budget = min(s[0] + s[1] + s[2], s[1] + s[2] + s[3]) - 1
    assert budget >= max(s[0] + s[1], s[1] + s[2], s[1] + s[3])
    backend.memory_budget = budget
    backend.shard_relation(0)
    backend.shard_relation(1)
    backend.shard_relation(2)  # budget forces the LRU shard (0) out
    assert backend.handles[0].relation is None and backend.handles[0].evicted
    assert backend.counters["evictions"] >= 1
    # Touch 1, then load 3: victim must be 2 (least recently touched).
    backend.shard_relation(1)
    backend.shard_relation(3)
    assert backend.handles[2].relation is None
    assert backend.handles[1].relation is not None
    # Reloading an evicted shard works and is counted.
    backend.shard_relation(0)
    assert backend.counters["reloads"] >= 1
    dur.close()


def test_whole_relation_readers_see_parent_order(tmp_path):
    relations, _ = make_problem(seed=6, n_relations=1, size=30)
    base = relations[0]
    sharded = ShardedRelation.from_relation(base, shards=4)
    persist_relation(sharded, tmp_path / "s")
    dur = open_relation(tmp_path / "s")
    assert len(dur) == len(base) and dur.dim == base.dim
    assert dur.sigma_max == base.sigma_max
    # Scatter-reconstructed parent columns match the original bit for bit.
    assert dur.vectors.tobytes() == base.vectors.tobytes()
    assert dur.scores.tobytes() == base.scores.tobytes()
    assert np.array_equal(dur.tids, base.tids)
    assert dur[7] == base[7] and dur[7].attrs == base[7].attrs
    dur.close()


def test_lazy_tuples_materialise_on_demand():
    rng = np.random.default_rng(7)
    lt = LazyTuples("L", rng.random(10), rng.random((10, 2)), np.arange(10))
    assert len(lt) == 10
    assert sum(t is not None for t in lt._cache) == 0
    t3 = lt[3]
    assert t3.tid == 3 and lt[3] is t3  # cached
    assert [t.tid for t in lt[2:5]] == [2, 3, 4]
    assert sum(t is not None for t in lt._cache) == 3


# -- persist/open API -------------------------------------------------------


def test_relation_persist_open_api(tmp_path):
    relations, query = make_problem(seed=8, n_relations=2)
    store = tmp_path / "store"
    for r in relations:
        r.persist(store)  # Relation.persist chains through the durable tier
    # name= optional only when unambiguous
    with pytest.raises(ValueError, match="pass name="):
        Relation.open(store)
    dur = Relation.open(store, relations[0].name)
    assert isinstance(dur, DurableRelation)
    assert len(dur) == len(relations[0])
    dur.close()
    with pytest.raises(KeyError):
        Relation.open(store, "nope")
    with pytest.raises(FileNotFoundError):
        Relation.open(tmp_path / "empty")


def test_problem_store_round_trip(tmp_path):
    relations, query = make_problem(seed=9, n_relations=3)
    store = save_problem_durable(relations, query, tmp_path / "problem")
    loaded, q2 = load_problem_durable(store, verify=True)
    assert [r.name for r in loaded] == [r.name for r in relations]
    assert np.array_equal(q2, query)
    reference = ranked(run(relations, query, AccessKind.DISTANCE))
    assert ranked(run(loaded, q2, AccessKind.DISTANCE)) == reference
    for r in loaded:
        r.close()


def test_repersist_bumps_generation_and_gcs_old_files(tmp_path):
    relations, _ = make_problem(seed=11, n_relations=1)
    rel = shard(relations[0], 2)
    store = tmp_path / "s"
    persist_relation(rel, store)
    persist_relation(rel, store)
    dur = open_relation(store)
    assert dur.generation == 2
    files = sorted(p.name for p in (store / "shards").glob("*.shard"))
    assert all("-g000002-" in f for f in files) and len(files) == 2
    dur.close()


# -- crash consistency ------------------------------------------------------


class _Boom(RuntimeError):
    pass


def _crash_at(stage):
    def failpoint(label):
        if label == stage:
            raise _Boom(stage)

    return failpoint


@pytest.mark.parametrize("stage", ["shard-bytes", "before-commit"])
def test_writer_killed_before_commit_keeps_previous_generation(tmp_path, stage):
    relations, query = make_problem(seed=12, n_relations=1)
    rel = shard(relations[0], 2)
    store = tmp_path / "s"
    persist_relation(rel, store)
    reference_files = sorted(p.name for p in (store / "shards").glob("*.shard"))
    dur = open_relation(store)
    dur.storage.evict_all()
    reference = ranked(run([dur], query, AccessKind.DISTANCE))
    dur.close()
    # Kill a second persist mid-flight at the given stage.
    with pytest.raises(_Boom):
        persist_relation(rel, store, _failpoint=_crash_at(stage))
    # The catalog still points at generation 1 and every one of its files
    # is intact: full differential run, checksum-verified open.
    dur2 = open_relation(store, verify=True)
    assert dur2.generation == 1
    dur2.storage.evict_all()
    assert ranked(run([dur2], query, AccessKind.DISTANCE)) == reference
    dur2.close()
    surviving = sorted(p.name for p in (store / "shards").glob("*.shard"))
    assert set(reference_files) <= set(surviving)


def test_writer_killed_after_commit_serves_new_generation(tmp_path):
    relations, query = make_problem(seed=13, n_relations=1)
    rel = shard(relations[0], 2)
    store = tmp_path / "s"
    persist_relation(rel, store)
    with pytest.raises(_Boom):
        persist_relation(rel, store, _failpoint=_crash_at("after-commit"))
    # Commit landed before the crash: readers see generation 2, verified.
    dur = open_relation(store, verify=True)
    assert dur.generation == 2
    in_memory = ranked(run([rel], query, AccessKind.DISTANCE))
    assert ranked(run([dur], query, AccessKind.DISTANCE)) == in_memory
    dur.close()
    # A later successful persist cleans up whatever the crash left.
    persist_relation(rel, store)
    assert not list((store / "shards").glob("*.tmp"))


def test_crashed_writer_leaves_no_readable_partial_files(tmp_path):
    relations, _ = make_problem(seed=14, n_relations=1)
    rel = shard(relations[0], 2)
    store = tmp_path / "s"
    with pytest.raises(_Boom):
        persist_relation(rel, store, _failpoint=_crash_at("shard-bytes"))
    # Nothing committed, and any debris is a .tmp no catalog row names.
    cat = ShardCatalog(store / "catalog.sqlite")
    assert cat.latest_generation(rel.name) == 0
    cat.close()
    assert not list((store / "shards").glob("*.shard")) or all(
        ShardFile(p) for p in (store / "shards").glob("*.shard")
    )

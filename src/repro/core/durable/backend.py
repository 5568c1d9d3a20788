"""The durable storage backend: memmap shards + catalog behind the
storage boundary.

Everything above :class:`~repro.core.storage.StorageBackend` keeps the
one-monotone-stream-per-relation contract; this module adds the tier
*below* it:

* :func:`persist_relation` writes a relation (single-shard or sharded)
  as one immutable columnar file per shard plus one catalog transaction
  flipping the relation to the new generation;
* :class:`DurableRelation` (``Relation.open``) re-opens a persisted
  relation: shard files are memory-mapped, shard ``Relation`` objects
  materialise lazily as zero-copy views over the maps, and the parent's
  full columnar arrays are only scatter-reconstructed when a
  whole-relation reader (oracle, CSV export) actually asks;
* :class:`DurableShardBackend` is the relation's storage backend *and*
  tier manager: a shard is **hot** (a lazy-tuple ``Relation`` over the
  memmap feeds the ordinary sorted-access path, bit-identical to
  in-memory) or **evicted** (no ``Relation``: each stream scans the
  shard's rank column from the memmap in bounded chunks and sorts the
  same head order a hot shard gets, and the same
  :class:`~repro.core.access.ShardCursor` every tier merges through
  copies it out window by window; rows resolve through the shard's own
  :class:`~repro.core.access.OrderRows` view, as for hot orders, so the
  merge/engine layers run unchanged).  An optional ``memory_budget``
  evicts least-recently-touched shards as others are made hot.

Bit-identity across tiers rests on two facts: the shard files store the
exact float64/int64 bytes of the in-memory columns, and every rank
computation is row-local (chunked distance evaluation over the memmap
produces the same per-row values as the one-shot in-memory evaluation),
so the ``(rank, tid)`` head sorts — and therefore every stream, bound
and top-K — coincide bit for bit.
"""

from __future__ import annotations

import re
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

import numpy as np

from repro.core.access import (
    AccessOrder,
    MergeStream,
    ShardCursor,
    rank_column,
    sorted_stream,
)
from repro.core.durable.catalog import CATALOG_FILENAME, ShardCatalog
from repro.core.durable.shardfile import ShardFile, write_shard_file
from repro.core.relation import RankTuple, Relation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.access import AccessKind

__all__ = [
    "DurableRelation",
    "DurableShardBackend",
    "LazyTuples",
    "persist_relation",
    "open_relation",
]

SHARD_DIRNAME = "shards"

#: Default rows per page an evicted shard serves (the paged cursor's
#: fetch quantum).
_PAGE_ROWS = 256


class LazyTuples(Sequence):
    """Aligned-columns view that materialises ``RankTuple`` rows on
    demand (and caches them).

    A durable shard's row sequence: hot shards carry millions of rows
    the engine will mostly never touch as Python objects, and every
    access order over the shard views these rows through its
    permutation (:class:`~repro.core.access.OrderRows`), so the object
    layer stays pay-as-you-go while satisfying every list-shaped
    consumer (len, indexing, slicing, iteration).
    """

    __slots__ = ("name", "_scores", "_vectors", "_tids", "_attrs", "_cache")

    def __init__(
        self,
        name: str,
        scores: np.ndarray,
        vectors: np.ndarray,
        tids: np.ndarray,
        attrs: Sequence[Mapping[str, Any]] | None = None,
    ) -> None:
        self.name = name
        self._scores = scores
        self._vectors = vectors
        self._tids = tids
        self._attrs = attrs
        self._cache: list[RankTuple | None] = [None] * len(scores)

    def __len__(self) -> int:
        return len(self._cache)

    def _make(self, i: int) -> RankTuple:
        tup = self._cache[i]
        if tup is None:
            tup = RankTuple(
                relation=self.name,
                tid=int(self._tids[i]),
                score=float(self._scores[i]),
                vector=self._vectors[i],
                attrs=dict(self._attrs[i]) if self._attrs is not None else {},
            )
            self._cache[i] = tup
        return tup

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self._make(j) for j in range(*i.indices(len(self._cache)))]
        return self._make(int(i))


class ShardHandle:
    """One shard's tier state: the always-open memmap file, plus the hot
    ``Relation`` when the shard is resident."""

    __slots__ = ("backend", "index", "file", "relation", "evicted", "_rows")

    def __init__(self, backend: "DurableShardBackend", index: int, file: ShardFile) -> None:
        self.backend = backend
        self.index = index
        self.file = file
        self.relation: Relation | None = None
        self.evicted = False
        self._rows: LazyTuples | None = None

    @property
    def rows(self) -> LazyTuples:
        """The shard's row sequence, shared by the hot ``Relation`` and
        every order replayed over the shard (built on first use; dropped
        on eviction)."""
        if self._rows is None:
            file = self.file
            self._rows = LazyTuples(
                file.relation, file.scores, file.vectors, file.tids,
                attrs=file.attrs,
            )
        return self._rows


class DurableShardBackend:
    """Storage backend + tier manager over a persisted relation.

    Implements the :class:`~repro.core.storage.StorageBackend` protocol
    (``shard_count``/``shards``/``open_stream``) and adds the durable
    tier's own surface: per-shard hot/evicted state under an optional
    ``memory_budget`` and paged cursors for evicted shards.
    ``counters`` meters the tier's traffic (evicted-shard rank scans,
    evictions, reloads, paged windows and rows) — the evidence the
    eviction tests read.
    """

    is_durable = True

    def __init__(
        self,
        relation: "DurableRelation",
        handles_files: Sequence[ShardFile],
        catalog: ShardCatalog,
        *,
        memory_budget: int | None = None,
        page_rows: int = _PAGE_ROWS,
    ) -> None:
        self.relation = relation
        self.catalog = catalog
        self.generation = int(handles_files[0].generation) if handles_files else 0
        self.memory_budget = memory_budget
        self.page_rows = int(page_rows)
        self.handles = tuple(
            ShardHandle(self, i, f) for i, f in enumerate(handles_files)
        )
        self._touch_clock = 0
        self._touched = [0] * len(self.handles)
        self.counters: dict[str, int] = {
            "order_scans": 0,
            "evictions": 0,
            "reloads": 0,
            "paged_windows": 0,
            "paged_rows": 0,
        }

    # -- tier management ----------------------------------------------------

    @property
    def shard_count(self) -> int:
        return len(self.handles)

    @property
    def evicted_count(self) -> int:
        return sum(1 for h in self.handles if h.evicted)

    @property
    def resident_bytes(self) -> int:
        """Payload bytes of the currently hot shards (budget model: a
        hot shard is charged its full columnar extent, since sorted
        access touches every page)."""
        return sum(h.file.nbytes for h in self.handles if h.relation is not None)

    def shard_relation(self, index: int) -> Relation:
        """The hot ``Relation`` of shard ``index`` (materialising it —
        and evicting colder shards past the budget — as needed)."""
        handle = self.handles[index]
        if handle.relation is None:
            file = handle.file
            handle.relation = Relation._from_columns(
                file.relation,
                file.scores,
                file.vectors,
                file.tids,
                file.sigma_max,
                handle.rows,
            )
            if handle.evicted:
                handle.evicted = False
                self.counters["reloads"] += 1
        self._touch_clock += 1
        self._touched[index] = self._touch_clock
        self._enforce_budget(keep=index)
        return handle.relation

    def _enforce_budget(self, *, keep: int) -> None:
        if self.memory_budget is None:
            return
        while self.resident_bytes > self.memory_budget:
            victims = [
                h.index
                for h in self.handles
                if h.relation is not None and h.index != keep
            ]
            if not victims:
                break
            self.evict(min(victims, key=lambda i: self._touched[i]))

    def evict(self, index: int) -> None:
        """Drop shard ``index``'s hot tier: its ``Relation`` (and every
        lazily built tuple) is released and subsequent streams page the
        shard back from the memmap through the window API."""
        handle = self.handles[index]
        if handle.relation is not None:
            handle.relation = None
            self.counters["evictions"] += 1
        handle._rows = None
        handle.evicted = True

    def evict_all(self) -> None:
        for i in range(len(self.handles)):
            self.evict(i)

    @property
    def shards(self) -> tuple[Relation, ...]:
        """Every shard as a hot ``Relation`` (the whole-relation reader
        path: materialises — and un-evicts — all shards)."""
        return tuple(self.shard_relation(i) for i in range(len(self.handles)))

    # -- evicted shards -----------------------------------------------------

    def paged_cursor(
        self,
        shard_index: int,
        kind: "AccessKind",
        query: np.ndarray | None,
    ) -> ShardCursor:
        """A merge-ready cursor paging an evicted shard's order from the
        memmap.

        One chunked scan of the memmap computes the shard's rank column
        (:func:`~repro.core.access.rank_column` reads the vectors in
        bounded chunks, so only the rank column and the sorted head
        become resident), and the order is the same head-first
        :class:`~repro.core.access.AccessOrder` a hot shard gets, over
        the memmap columns.  The cursor copies it out window by window,
        in ``page_rows`` quanta; rows resolve through the shard's row
        view, as they do for hot orders.
        """
        handle = self.handles[shard_index]
        file = handle.file
        self.counters["order_scans"] += 1
        order = AccessOrder(
            kind, handle.rows, file.vectors, file.scores, file.tids,
            file.sigma_max, rank_column(kind, file.vectors, file.scores, query),
        )
        counters = self.counters

        def fetch_window(start: int, limit: int):
            window = order.fetch_window(start, limit)
            counters["paged_windows"] += 1
            counters["paged_rows"] += len(window[0])
            return window

        return ShardCursor(
            SimpleNamespace(
                total=order.total,
                tuples=order.tuples,
                page_size=self.page_rows,
                fetch_window=fetch_window,
            )
        )

    # -- stream opening -----------------------------------------------------

    def open_stream(
        self,
        kind: "AccessKind",
        query: np.ndarray | None = None,
        *,
        metric: Callable[[np.ndarray, np.ndarray], float] | None = None,
    ):
        from repro.core.access import AccessKind

        if kind is AccessKind.DISTANCE and query is None:
            raise ValueError("distance-based access requires a query vector")
        if metric is not None and self.evicted_count:
            raise ValueError(
                "evicted shards serve Euclidean/score orders only; "
                "reload the shard (shard_relation) before using a custom metric"
            )
        query_arr = None if query is None else np.asarray(query, dtype=float)
        if self.shard_count == 1 and not self.handles[0].evicted:
            # Single hot shard: the plain sorted-access fast path, exactly
            # like SingleShardBackend over in-memory columns.
            return sorted_stream(
                self.shard_relation(0), kind, query_arr, metric=metric
            )
        cursors = [
            self.paged_cursor(handle.index, kind, query_arr)
            if handle.evicted
            else ShardCursor(
                sorted_stream(
                    self.shard_relation(handle.index), kind, query_arr, metric=metric
                ).order
            )
            for handle in self.handles
        ]
        return MergeStream(
            self.relation, kind, cursors, sigma_max=self.relation.sigma_max
        )

    def __repr__(self) -> str:
        tiers = "".join("E" if h.evicted else ("H" if h.relation else "-") for h in self.handles)
        return (
            f"DurableShardBackend({self.relation.name!r}, gen={self.generation}, "
            f"shards={self.shard_count} [{tiers}])"
        )


class DurableRelation(Relation):
    """A relation re-opened from its durable store.

    Carries only metadata eagerly (name, ``sigma_max``, cardinality,
    dimensionality — all from the catalog); shard columns are memmap
    views, and the parent-level arrays/tuples that whole-relation
    readers (brute-force oracle, CSV export, re-persist) need are
    scatter-reconstructed on first access.  Its :attr:`storage` is a
    stable :class:`DurableShardBackend` instance, so tier state (hot /
    evicted, budget clocks, counters) survives across streams.
    """

    def __init__(
        self,
        path: Path | str,
        name: str | None = None,
        *,
        memory_budget: int | None = None,
        verify: bool = False,
        page_rows: int = _PAGE_ROWS,
        read_only: bool = False,
    ) -> None:
        self.path = Path(path)
        catalog_path = self.path / CATALOG_FILENAME
        if not catalog_path.exists():
            raise FileNotFoundError(f"no durable catalog at {catalog_path}")
        catalog = ShardCatalog(catalog_path, read_only=read_only)
        names = catalog.relation_names()
        if name is None:
            if len(names) != 1:
                catalog.close()
                raise ValueError(
                    f"store at {self.path} holds relations {names}; "
                    "pass name= to pick one"
                )
            name = names[0]
        row = catalog.relation_row(name)
        if row is None:
            catalog.close()
            raise KeyError(f"relation {name!r} not in catalog at {catalog_path}")
        self.name = name
        self.sigma_max = float(row["sigma_max"])
        self._n = int(row["n"])
        self._dim = int(row["dim"])
        self.partition = row["partition"]
        self.generation = int(row["generation"])
        files = []
        for shard_row in catalog.shard_rows(name, self.generation):
            file = ShardFile(
                self.path / SHARD_DIRNAME / shard_row["filename"], verify=verify
            )
            files.append(file)
        if not files:
            catalog.close()
            raise ValueError(
                f"relation {name!r} generation {self.generation} has no shards"
            )
        self._backend = DurableShardBackend(
            self, files, catalog, memory_budget=memory_budget, page_rows=page_rows
        )
        # Parent-level columns/tuples: reconstructed on demand only.
        self._parent_ready = False
        self._vectors = None
        self._scores = None
        self._tids = None
        self._tuples = None

    # -- metadata (no materialisation) --------------------------------------

    @property
    def dim(self) -> int:
        return self._dim

    def __len__(self) -> int:
        return self._n

    @property
    def catalog(self) -> ShardCatalog:
        return self._backend.catalog

    @property
    def storage(self) -> DurableShardBackend:
        return self._backend

    def close(self) -> None:
        """Close the catalog connection (memmaps are dropped with the
        object)."""
        self._backend.catalog.close()

    # -- whole-relation reader path ------------------------------------------

    def _materialise_parent(self) -> None:
        """Scatter every shard's rows back into parent row positions —
        the exact arrays (and tids) the relation was persisted with."""
        if self._parent_ready:
            return
        vecs = np.empty((self._n, self._dim), dtype=float)
        scores = np.empty(self._n, dtype=float)
        tids = np.empty(self._n, dtype=np.int64)
        attrs: list[dict] | None = None
        for handle in self._backend.handles:
            file = handle.file
            pos = np.asarray(file.positions)
            vecs[pos] = file.vectors
            scores[pos] = file.scores
            tids[pos] = file.tids
            if file.attrs is not None:
                if attrs is None:
                    attrs = [{} for _ in range(self._n)]
                for local, p in enumerate(pos.tolist()):
                    attrs[p] = file.attrs[local]
        for col in (vecs, scores, tids):
            col.setflags(write=False)
        self._vectors = vecs
        self._scores = scores
        self._tids = tids
        self._tuples = LazyTuples(self.name, scores, vecs, tids, attrs=attrs)
        self._parent_ready = True

    @property
    def vectors(self) -> np.ndarray:
        self._materialise_parent()
        return self._vectors

    @property
    def scores(self) -> np.ndarray:
        self._materialise_parent()
        return self._scores

    @property
    def tids(self) -> np.ndarray:
        self._materialise_parent()
        return self._tids

    def __iter__(self):
        self._materialise_parent()
        return iter(self._tuples)

    def __getitem__(self, i: int) -> RankTuple:
        self._materialise_parent()
        return self._tuples[i]

    def __repr__(self) -> str:
        return (
            f"DurableRelation({self.name!r}, n={self._n}, d={self._dim}, "
            f"shards={self._backend.shard_count}, gen={self.generation}, "
            f"path={str(self.path)!r})"
        )


def _safe_filename(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]", "_", name)


def persist_relation(
    relation: Relation,
    path: Path | str,
    *,
    _failpoint: Callable[[str], None] | None = None,
) -> Path:
    """Persist ``relation`` into the durable store at ``path``.

    Writes one immutable columnar file per storage shard (single-shard
    relations produce one; :class:`~repro.core.storage.ShardedRelation`
    one per shard, preserving the partition), then commits the new
    generation to the catalog in one transaction and garbage-collects
    files of superseded generations.  Crash-consistency: new files get
    generation-fresh names and are fsync-renamed into place *before*
    the commit, so a writer dying at any point leaves the previous
    generation fully readable — no torn columnar reads are possible.

    ``_failpoint`` is a test-only hook called with a stage label
    (``"shard-bytes"`` mid-file, ``"before-commit"``, ``"after-commit"``)
    so the crash-consistency suite can kill the writer deterministically
    at each stage.
    """
    path = Path(path)
    shard_dir = path / SHARD_DIRNAME
    shard_dir.mkdir(parents=True, exist_ok=True)
    catalog = ShardCatalog(path / CATALOG_FILENAME)
    try:
        storage = relation.storage
        shards = storage.shards
        generation = catalog.latest_generation(relation.name) + 1
        partition = getattr(relation, "partition", None)
        # Parent-position index: global row position of each tid, so the
        # store can scatter shards back into the exact parent order.
        parent_tids = relation.tids
        sorter = np.argsort(parent_tids, kind="stable")
        sorted_tids = parent_tids[sorter]
        rows = []
        safe = _safe_filename(relation.name)
        for idx, shard in enumerate(shards):
            positions = sorter[np.searchsorted(sorted_tids, shard.tids)]
            filename = f"{safe}-g{generation:06d}-s{idx:04d}.shard"
            interrupt = None
            if _failpoint is not None:
                interrupt = lambda: _failpoint("shard-bytes")  # noqa: E731
            rows.append(
                write_shard_file(
                    shard_dir / filename,
                    relation=relation.name,
                    shard_index=idx,
                    generation=generation,
                    sigma_max=shard.sigma_max,
                    scores=shard.scores,
                    vectors=shard.vectors,
                    tids=shard.tids,
                    positions=positions,
                    attrs=[t.attrs for t in shard],
                    interrupt=interrupt,
                )
            )
        if _failpoint is not None:
            _failpoint("before-commit")
        catalog.commit_generation(
            name=relation.name,
            generation=generation,
            n=len(relation),
            dim=relation.dim,
            sigma_max=relation.sigma_max,
            partition=partition,
            shard_rows=rows,
        )
        if _failpoint is not None:
            _failpoint("after-commit")
        # The new generation is committed: unlink superseded files (and
        # any stray .tmp a crashed writer left behind).
        for stale in catalog.prune_generations(relation.name, generation):
            try:
                (shard_dir / stale).unlink()
            except OSError:
                pass
        for tmp in shard_dir.glob("*.tmp"):
            try:
                tmp.unlink()
            except OSError:
                pass
    finally:
        catalog.close()
    return path


def open_relation(
    path: Path | str,
    name: str | None = None,
    *,
    memory_budget: int | None = None,
    verify: bool = False,
    page_rows: int = _PAGE_ROWS,
    read_only: bool = False,
) -> DurableRelation:
    """Open one relation from the durable store at ``path``.

    ``read_only=True`` opens the catalog without write access — the
    multi-process serving contract: any number of worker processes can
    map the same shard files (one physical copy in the page cache) and
    read the catalog concurrently without ever taking the WAL writer
    lock.
    """
    return DurableRelation(
        path,
        name,
        memory_budget=memory_budget,
        verify=verify,
        page_rows=page_rows,
        read_only=read_only,
    )

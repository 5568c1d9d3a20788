"""Storage backends: where a relation's tuples physically live.

The paper's model gives every relation exactly one sorted access; the
engine, the bounds and the service were all written against that
assumption.  This module introduces the storage boundary that breaks it
cleanly: a :class:`StorageBackend` owns the physical layout of one
relation's tuples and knows how to open a *monotone access stream* over
them — everything above the boundary (engine loop, batch scorer, bounding
schemes, service) keeps seeing the one-stream-per-relation contract of
Definition 2.1.

Two implementations:

* :class:`SingleShardBackend` — the existing in-memory path: one
  contiguous columnar relation, streams opened directly
  (:func:`~repro.core.access.sorted_stream`).
* :class:`ShardedBackend`, owned by :class:`ShardedRelation` — tuples
  hash- or range-partitioned across ``S`` shard relations, each with its
  own columnar arrays and its own per-query sorted order.  Opening a
  stream sorts every shard *independently* (no global sort ever exists)
  and k-way-merges the per-shard cursors through
  :class:`~repro.core.access.MergeStream`.

A third, :class:`~repro.core.durable.DurableShardBackend`, lives with
the durable tier.  Whatever tier a shard lives in — resident arrays, an
evicted durable shard paged from its memmap, or a remote endpoint (the
async service builds its merge streams over those directly) — the merge
reads it through one :class:`~repro.core.access.ShardCursor`, filled
window by window from the shard's source.

Shard invariants the merge relies on (and the differential suite pins):

* **Determinism** — each shard order is sorted by ``(rank, tid)`` with
  the parent's *global* tids, and tids are unique across shards, so the
  merged order is the single-shard order bit for bit (per-tuple ranks are
  row-local computations, unchanged by partitioning).
* **Monotonicity across the merge** — the merged rank sequence is
  non-decreasing (distance) / non-increasing (score), so ``last_distance``
  / ``last_score`` statistics feed the bounding schemes exactly as a
  single sorted stream would.
* **``sigma_max`` max-combination** — the merged stream's score ceiling
  is ``max`` over the shards' ``sigma_max``; shards inherit the parent's
  declared ceiling, so the combined value equals the parent's.

Partitioning is by tuple id (``hash``: multiplicative hashing for an
even, order-destroying spread; ``range``: contiguous blocks, the layout a
range-partitioned store would give), so a relation's partition is stable
across queries and access kinds.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Mapping, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.core.relation import Relation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.access import AccessKind

__all__ = [
    "StorageBackend",
    "SingleShardBackend",
    "ShardedBackend",
    "ShardedRelation",
    "partition_indices",
]

#: Knuth's multiplicative hash constant (2^32 / golden ratio), enough to
#: decorrelate shard assignment from tid order without a real hash call.
_HASH_MULT = 2654435761
_HASH_MASK = (1 << 32) - 1

PARTITIONERS = ("hash", "range")


def partition_indices(
    n: int, shards: int, partition: str = "hash"
) -> list[np.ndarray]:
    """Positions ``0..n-1`` split into ``shards`` disjoint index arrays.

    ``hash`` spreads ids via multiplicative hashing (even load in
    expectation, adjacent ids land on different shards); ``range`` cuts
    contiguous blocks of near-equal size.  Every position is assigned to
    exactly one shard.  ``range`` shards are empty only when
    ``shards > n``; ``hash`` shards can come up empty whenever the ids
    hash unevenly (small ``n``), so consumers must count *non-empty*
    shards rather than assume ``shards`` of them.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    if partition not in PARTITIONERS:
        raise ValueError(
            f"unknown partition scheme {partition!r}; choose from {PARTITIONERS}"
        )
    positions = np.arange(n, dtype=np.int64)
    if partition == "hash":
        assignment = ((positions * _HASH_MULT) & _HASH_MASK) % shards
        return [positions[assignment == s] for s in range(shards)]
    bounds = np.linspace(0, n, shards + 1).astype(np.int64)
    return [positions[bounds[s] : bounds[s + 1]] for s in range(shards)]


@runtime_checkable
class StorageBackend(Protocol):
    """The boundary between physical tuple layout and the access layer.

    A backend answers two questions: what shards exist (each one a
    :class:`~repro.core.relation.Relation` carrying the parent's global
    tids), and how to open one monotone access stream over the whole
    relation.  ``open_stream`` must produce a stream whose pull sequence
    is bit-identical to a single sorted access over the union of the
    shards — partitioning is an implementation detail the engine never
    observes.
    """

    relation: Relation

    @property
    def shard_count(self) -> int: ...

    @property
    def shards(self) -> tuple[Relation, ...]: ...

    def open_stream(
        self,
        kind: "AccessKind",
        query: np.ndarray | None = None,
        *,
        metric: Callable[[np.ndarray, np.ndarray], float] | None = None,
        use_index: bool = False,
    ): ...


class SingleShardBackend:
    """The in-memory single-shard path: streams open against the relation
    itself, exactly as before the storage boundary existed."""

    def __init__(self, relation: Relation) -> None:
        self.relation = relation

    @property
    def shard_count(self) -> int:
        return 1

    @property
    def shards(self) -> tuple[Relation, ...]:
        return (self.relation,)

    def open_stream(
        self,
        kind: "AccessKind",
        query: np.ndarray | None = None,
        *,
        metric: Callable[[np.ndarray, np.ndarray], float] | None = None,
        use_index: bool = False,
    ):
        from repro.core.access import sorted_stream

        return sorted_stream(
            self.relation, kind, query, metric=metric, use_index=use_index
        )

    def __repr__(self) -> str:
        return f"SingleShardBackend({self.relation.name!r})"


class ShardedBackend:
    """Partitioned storage: per-shard sorted orders, merged on access.

    Each shard is sorted independently at stream-open time (the global
    order is never materialised anywhere), and the returned
    :class:`~repro.core.access.MergeStream` k-way-merges the shard
    cursors lazily — only what the engine actually pulls is ever merged.
    ``use_index`` is accepted for interface compatibility but sharded
    access always pre-sorts each shard (a per-shard k-d traversal would
    produce the same stream at strictly more bookkeeping).
    """

    def __init__(self, relation: Relation, shards: Sequence[Relation]) -> None:
        if not shards:
            raise ValueError("need at least one shard")
        self.relation = relation
        self._shards = tuple(shards)

    @property
    def shard_count(self) -> int:
        return len(self._shards)

    @property
    def shards(self) -> tuple[Relation, ...]:
        return self._shards

    def open_stream(
        self,
        kind: "AccessKind",
        query: np.ndarray | None = None,
        *,
        metric: Callable[[np.ndarray, np.ndarray], float] | None = None,
        use_index: bool = False,
    ):
        from repro.core.access import MergeStream, ShardCursor, sorted_stream

        shards = [shard for shard in self._shards if len(shard)]
        return MergeStream(
            self.relation,
            kind,
            [
                ShardCursor(sorted_stream(shard, kind, query, metric=metric).order)
                for shard in shards
            ],
            sigma_max=max(s.sigma_max for s in shards),
        )

    def __repr__(self) -> str:
        sizes = [len(s) for s in self._shards]
        return f"ShardedBackend({self.relation.name!r}, shards={sizes})"


class ShardedRelation(Relation):
    """A relation whose tuples are partitioned across ``S`` shards.

    Behaves exactly like :class:`~repro.core.relation.Relation` for every
    consumer that reads it whole (brute-force oracle, experiment harness,
    persistence) — the full columnar arrays still exist and iteration
    yields the same tuples — but its :attr:`storage` backend is a
    :class:`ShardedBackend`, so access streams are opened per shard and
    merged.  Each shard relation shares the parent's name, ``sigma_max``,
    *global* tids and the parent's ``RankTuple`` objects themselves (only
    the per-shard columnar arrays are new allocations), making shard
    tuples indistinguishable from parent tuples — the invariant that
    keeps sharded top-K bit-identical.

    ``shard_count`` counts *non-empty* shards: hash partitioning of a
    small relation (or ``shards > n``) can leave some of the requested
    partitions without tuples, and empty shards are dropped rather than
    materialised.

    Parameters beyond :class:`Relation`'s:

    shards:
        Number of partitions ``S`` (>= 1).
    partition:
        ``"hash"`` (default) or ``"range"``; see :func:`partition_indices`.
    """

    def __init__(
        self,
        name: str,
        scores: Sequence[float],
        vectors: np.ndarray,
        *,
        attrs: Sequence[Mapping[str, Any]] | None = None,
        sigma_max: float | None = None,
        tids: Sequence[int] | None = None,
        shards: int = 1,
        partition: str = "hash",
    ) -> None:
        super().__init__(
            name, scores, vectors, attrs=attrs, sigma_max=sigma_max, tids=tids
        )
        self.partition = partition
        parts = partition_indices(len(self), shards, partition)
        tuples = list(self)
        self._shard_relations = tuple(
            Relation._from_rows(
                name,
                self.scores[idx],
                self.vectors[idx],
                self.tids[idx],
                [tuples[i] for i in idx.tolist()],
                self.sigma_max,
            )
            for idx in parts
            if len(idx)
        )

    @property
    def shard_count(self) -> int:
        return len(self._shard_relations)

    @property
    def storage(self) -> ShardedBackend:
        return ShardedBackend(self, self._shard_relations)

    @classmethod
    def from_relation(
        cls, relation: Relation, *, shards: int, partition: str = "hash"
    ) -> "ShardedRelation":
        """Re-partition an existing relation across ``shards`` shards,
        preserving its tids (explicit or default) and attrs."""
        return cls(
            relation.name,
            relation.scores,
            relation.vectors,
            attrs=[t.attrs for t in relation],
            sigma_max=relation.sigma_max,
            tids=relation.tids,
            shards=shards,
            partition=partition,
        )

    def __repr__(self) -> str:
        return (
            f"ShardedRelation({self.name!r}, n={len(self)}, d={self.dim}, "
            f"shards={self.shard_count}, partition={self.partition!r})"
        )

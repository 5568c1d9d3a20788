"""Sequential access streams over relations (Definition 2.1).

The paper's algorithms never see a relation directly — only a stream that
returns tuples one at a time, either in increasing distance from the query
(access kind A) or in decreasing score (access kind B).  The stream also
exposes exactly the statistics the bounding schemes are allowed to use:
the distance/score of the first and last tuple retrieved so far, the
depth, and the relation's ``sigma_max``.

Streams are columnar inside.  Every pre-sorted order is computed by one
function, :func:`sort_order`: one distance computation over the
relation's stacked ``(N, d)`` vector matrix, one ``np.lexsort`` keyed by
``(rank, tid)`` (tid as the tie-break keeps the stream deterministic,
which instance-optimality requires).  :class:`AccessOrder` wraps the
resulting permutation: one fancy-index per column materialises the
order's columnar arrays, while its rows stay an :class:`OrderRows` view —
``order.tuples[i]`` is the relation's own row ``relation[perm[i]]``,
looked up only when a stream pulls position ``i``.  Orders are columnar;
rows are built on pull.  Every stream maintains a
:class:`~repro.core.columnar.ColumnarPrefix` — the extracted prefix
``P_i`` as contiguous arrays in access order — which is what the batch
scorer, the candidate pruner and the bounding schemes slice instead of
re-walking ``RankTuple`` lists.  :class:`OrderStream` (the base of the
pre-sorted streams, and the service's replay of a cached order) freezes
the prefix over the order arrays, so pulling just advances a cursor and
``next_block`` is one slice — the engine's block-pull fast path; the k-d
indexed path appends row by row as the traversal produces tuples.

``DistanceAccess`` can traverse a k-d tree incrementally (the realistic
spatial-engine path) or pre-sort (simplest correct baseline); both produce
identical streams and are property-tested against each other.

Streams are opened through the relation's storage backend
(:mod:`repro.core.storage`): partitioned relations sort each shard
independently and :class:`MergeStream` k-way-merges the per-shard
cursors into one monotone stream, bit-identical to single-shard access.
:class:`ShardCursor` is the one cursor under every tier: it fills an
order's columns window by window from a source — a resident
:class:`AccessOrder`, an evicted durable shard or a remote endpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator, Protocol, Sequence

import numpy as np

from repro.core.columnar import ColumnarPrefix
from repro.core.relation import RankTuple, Relation
from repro.spatial.kdtree import KDTree

__all__ = [
    "AccessKind",
    "AccessOrder",
    "AccessStream",
    "DistanceAccess",
    "MergeStream",
    "OrderRows",
    "OrderStream",
    "ScoreAccess",
    "ShardCursor",
    "StreamInterrupted",
    "open_streams",
    "sort_order",
    "sorted_stream",
]


class StreamInterrupted(RuntimeError):
    """A stream gave up mid-pull (deadline expired, query cancelled).

    Raised by streams whose data arrives asynchronously (remote shard
    cursors) when the query's budget runs out while waiting for rows.
    The engine treats it as a clean early stop: the run result carries
    everything pulled so far plus the current bound, so the partial
    top-K stays *certified* — never corrupt — exactly like a
    ``max_pulls`` cut-off.
    """


class AccessKind(Enum):
    """The two access kinds of Definition 2.1."""

    DISTANCE = "distance"  # kind A: increasing delta(x, q)
    SCORE = "score"  # kind B: decreasing sigma


class AccessStream(Protocol):
    """What the ProxRJ engine and the bounding schemes may observe."""

    kind: AccessKind
    relation: Relation

    @property
    def depth(self) -> int: ...

    @property
    def exhausted(self) -> bool: ...

    def next(self) -> RankTuple | None: ...

    @property
    def sigma_max(self) -> float: ...

    def next_block(self, limit: int) -> list[RankTuple]:
        """Optional block pull; the engine falls back to repeated
        :meth:`next` calls for streams that do not provide it."""
        ...


class _BaseStream:
    """Shared depth/exhaustion bookkeeping plus the columnar prefix."""

    kind: AccessKind

    def __init__(self, relation: Relation) -> None:
        self.relation = relation
        self._seen: list[RankTuple] = []
        #: Columnar view of the seen prefix, in access order.  Subclasses
        #: that materialise their full order up-front replace this with a
        #: frozen (cursor-mode) prefix over the order arrays.
        self.prefix = ColumnarPrefix(relation.dim)

    @property
    def depth(self) -> int:
        """Number of tuples pulled so far (``p_i`` in the paper)."""
        return len(self._seen)

    @property
    def seen(self) -> list[RankTuple]:
        """The extracted prefix ``P_i`` in access order (object view)."""
        return self._seen

    @property
    def sigma_max(self) -> float:
        return self.relation.sigma_max

    @property
    def exhausted(self) -> bool:
        return self.depth >= len(self.relation)

    def next_block(self, limit: int) -> list[RankTuple]:
        """Pull up to ``limit`` tuples in access order (block pull).

        Returns fewer than ``limit`` tuples — possibly none — once the
        stream runs out.  Semantically identical to ``limit`` calls to
        :meth:`next`; pre-sorted streams override this with direct order
        slicing, and other implementations (e.g. the service simulator)
        amortise per-pull work such as whole-page fetches.
        """
        block: list[RankTuple] = []
        for _ in range(limit):
            tup = self.next()
            if tup is None:
                break
            block.append(tup)
        return block


#: Rows per chunk when evaluating distances: bounds the transient
#: ``(rows, d)`` difference matrix, so sorting a memory-mapped shard never
#: makes its whole vector column resident at once.
_SCAN_CHUNK = 4096


def sort_order(
    kind: AccessKind,
    vectors: np.ndarray,
    scores: np.ndarray,
    tids: np.ndarray,
    query: np.ndarray | None = None,
    *,
    metric: Callable[[np.ndarray, np.ndarray], float] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """A shard's ``(rank, tid)`` access order: ``(perm, ranks)``.

    The one place an access order is computed.  ``perm`` lists base row
    positions in access order (int64 — the permutation the durable
    catalog persists); ``ranks`` is the distance (kind A) or score
    (kind B) at each access position.  One ``np.lexsort`` keyed by
    ``(rank, tid)``: the tid tie-break keeps the order deterministic,
    which instance-optimality requires.  Distances are evaluated in row
    chunks; every rank is row-local, so chunking is bit-identical to a
    single pass.  A custom ``metric`` is evaluated once per row.
    """
    tids = np.asarray(tids)
    if kind is AccessKind.DISTANCE:
        if query is None:
            raise ValueError("distance-based access requires a query vector")
        query = np.asarray(query, dtype=float)
        n = len(tids)
        if metric is not None:
            keys = np.fromiter(
                (metric(v, query) for v in vectors), dtype=float, count=n
            )
        else:
            keys = np.empty(n, dtype=float)
            for lo in range(0, n, _SCAN_CHUNK):
                hi = min(lo + _SCAN_CHUNK, n)
                diff = np.asarray(vectors[lo:hi], dtype=float) - query
                keys[lo:hi] = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        perm = np.lexsort((tids, keys))
    else:
        keys = np.asarray(scores, dtype=float)
        # Negation is exact for floats, so (-score, tid) lexsort matches
        # the canonical sorted(key=(-score, tid)) order bit for bit.
        perm = np.lexsort((tids, -keys))
    return perm.astype(np.int64, copy=False), keys[perm]


class OrderRows(Sequence):
    """The rows of an access order, resolved when pulled.

    Position ``i`` is ``rows[perm[i]]`` — the relation's own row object,
    looked up only when a stream pulls (or a merge stages) that
    position.  Opening an order therefore builds no Python rows, and a
    relation that materialises rows lazily (a durable shard) builds only
    the rows a query actually reads.
    """

    __slots__ = ("_rows", "_perm")

    def __init__(self, rows: Sequence[RankTuple], perm: np.ndarray) -> None:
        self._rows = rows
        self._perm = perm

    def __len__(self) -> int:
        return len(self._perm)

    def __getitem__(self, i):
        if isinstance(i, slice):
            rows = self._rows
            return [rows[p] for p in self._perm[i].tolist()]
        return self._rows[int(self._perm[i])]


@dataclass(frozen=True)
class AccessOrder:
    """One shard's full access order (immutable, shareable).

    ``ranks`` holds the distance per position under distance access and
    the score per position under score access.  ``vectors``/``scores``/
    ``tids`` are the order's columnar arrays, shared by every stream and
    cursor replaying it.  ``tuples`` is an :class:`OrderRows` view: row
    objects are looked up only for positions a stream pulls.
    ``positions`` is the sort permutation (base positions in access
    order) — what the durable catalog persists for zero-re-sort
    restarts.
    """

    kind: AccessKind
    tuples: Sequence[RankTuple]
    ranks: np.ndarray
    vectors: np.ndarray
    scores: np.ndarray
    tids: np.ndarray
    sigma_max: float
    positions: np.ndarray

    @classmethod
    def gather(
        cls,
        kind: AccessKind,
        rows: Sequence[RankTuple],
        vectors: np.ndarray,
        scores: np.ndarray,
        tids: np.ndarray,
        sigma_max: float,
        perm: np.ndarray,
        ranks: np.ndarray,
    ) -> "AccessOrder":
        """The order ``(perm, ranks)`` over base columns and rows: one
        gather per column, rows viewed through ``perm``."""
        return cls(
            kind=kind,
            tuples=OrderRows(rows, perm),
            ranks=ranks,
            vectors=np.asarray(vectors[perm], dtype=float),
            scores=np.asarray(scores[perm], dtype=float),
            tids=np.asarray(tids[perm], dtype=np.int64),
            sigma_max=float(sigma_max),
            positions=perm,
        )

    @classmethod
    def sort(
        cls,
        relation: Relation,
        kind: AccessKind,
        query: np.ndarray | None = None,
        *,
        metric: Callable[[np.ndarray, np.ndarray], float] | None = None,
    ) -> "AccessOrder":
        """Sort ``relation`` (one shard) into its kind-``kind`` order."""
        vectors, scores, tids = relation.vectors, relation.scores, relation.tids
        perm, ranks = sort_order(kind, vectors, scores, tids, query, metric=metric)
        return cls.gather(
            kind, relation, vectors, scores, tids, relation.sigma_max, perm, ranks
        )

    @property
    def total(self) -> int:
        """Rows in the order."""
        return len(self.ranks)

    def fetch_window(
        self, start: int, limit: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Rows ``[start, start + limit)`` clamped to the end, as
        ``(ranks, tids, vectors, scores)`` views of the order's columns."""
        if start < 0 or limit < 0:
            raise ValueError("start and limit must be non-negative")
        rows = slice(start, start + limit)
        return self.ranks[rows], self.tids[rows], self.vectors[rows], self.scores[rows]


class OrderStream(_BaseStream):
    """Replays one :class:`AccessOrder` of ``relation`` through the
    engine's stream API.

    The columnar ``prefix`` is a frozen cursor over the order's arrays,
    so a pull is O(1) bookkeeping plus the row lookups of the pulled
    positions; ``next_block`` slices the order directly — the engine's
    block-pull fast path.  Many streams may replay one shared order.
    """

    def __init__(self, order: AccessOrder, relation: Relation) -> None:
        super().__init__(relation)
        self.kind = order.kind
        self.order = order
        self.prefix = ColumnarPrefix.from_arrays(
            order.vectors, order.scores, order.tids
        )

    def next(self) -> RankTuple | None:
        """Pull the next tuple; ``None`` once the relation is exhausted."""
        pos = len(self._seen)
        if pos >= len(self.order.ranks):
            return None
        tup = self.order.tuples[pos]
        self._seen.append(tup)
        self.prefix.advance(1)
        return tup

    def next_block(self, limit: int) -> list[RankTuple]:
        """Slice the order: one row-view slice, one cursor move."""
        pos = len(self._seen)
        take = min(limit, len(self.order.ranks) - pos)
        if take <= 0:
            return []
        block = self.order.tuples[pos : pos + take]
        self._seen.extend(block)
        self.prefix.advance(take)
        return block

    @property
    def distances(self) -> np.ndarray:
        """Ranks of the seen prefix, aligned with access order."""
        return self.order.ranks[: self.depth]

    @property
    def first_distance(self) -> float:
        """``delta(x(R_i[1]), q)``; 0 before any access (paper convention)."""
        return float(self.order.ranks[0]) if self.depth else 0.0

    @property
    def last_distance(self) -> float:
        """``delta_i = delta(x(R_i[p_i]), q)``; 0 before any access."""
        p = self.depth
        return float(self.order.ranks[p - 1]) if p else 0.0

    @property
    def first_score(self) -> float:
        """``sigma(R_i[1])``; ``sigma_max`` before any access."""
        return float(self.order.ranks[0]) if self.depth else self.sigma_max

    @property
    def last_score(self) -> float:
        """``sigma(R_i[p_i])``; ``sigma_max`` before any access."""
        p = self.depth
        return float(self.order.ranks[p - 1]) if p else self.sigma_max


class DistanceAccess(OrderStream):
    """Access kind A: tuples in non-decreasing distance from ``query``.

    Ties are broken by tuple id, making the stream deterministic (the
    paper requires deterministic algorithms for instance-optimality).

    Parameters
    ----------
    relation, query:
        The relation and the query vector ``q``.
    metric:
        Distance function; Euclidean by default.  The incremental k-d
        tree path is only valid for the Euclidean metric; other metrics
        fall back to pre-sorting (each distance computed exactly once).
    use_index:
        Traverse a k-d tree incrementally instead of sorting everything
        up-front.  Results are identical; this mirrors how a spatial
        service would lazily produce its output.
    """

    kind = AccessKind.DISTANCE

    def __init__(
        self,
        relation: Relation,
        query: np.ndarray,
        *,
        metric: Callable[[np.ndarray, np.ndarray], float] | None = None,
        use_index: bool = False,
    ) -> None:
        self.query = np.asarray(query, dtype=float)
        if self.query.shape != (relation.dim,):
            raise ValueError(
                f"query shape {self.query.shape} does not match relation "
                f"dimension {relation.dim}"
            )
        self._indexed = bool(use_index and metric is None)
        if not self._indexed:
            super().__init__(
                AccessOrder.sort(relation, self.kind, self.query, metric=metric),
                relation,
            )
            return
        _BaseStream.__init__(self, relation)
        self._distances: list[float] = []
        tree = KDTree(relation.vectors, payloads=list(relation))
        self._iter = self._indexed_iter(tree)

    def _indexed_iter(self, tree: KDTree) -> Iterator[tuple[float, RankTuple]]:
        # The k-d stream is distance-sorted but breaks distance ties
        # arbitrarily; buffer runs of equal distance and emit by tid so the
        # indexed and sorted paths are bit-identical.
        run: list[tuple[float, RankTuple]] = []
        for dist, tup in tree.iter_nearest(self.query):
            if run and dist > run[-1][0] + 1e-12:
                yield from sorted(run, key=lambda p: p[1].tid)
                run = []
            run.append((dist, tup))
        yield from sorted(run, key=lambda p: p[1].tid)

    def next(self) -> RankTuple | None:
        """Pull the next tuple; ``None`` once the relation is exhausted."""
        if not self._indexed:
            return super().next()
        try:
            dist, tup = next(self._iter)
        except StopIteration:
            return None
        self._seen.append(tup)
        self._distances.append(float(dist))
        self.prefix.append(tup.vector, tup.score, tup.tid)
        return tup

    def next_block(self, limit: int) -> list[RankTuple]:
        if not self._indexed:
            return super().next_block(limit)
        return _BaseStream.next_block(self, limit)

    @property
    def distances(self) -> np.ndarray:
        """Distances of the seen prefix, aligned with access order."""
        if self._indexed:
            return np.asarray(self._distances, dtype=float)
        return super().distances

    @property
    def first_distance(self) -> float:
        """``delta(x(R_i[1]), q)``; 0 before any access (paper convention)."""
        if not self._indexed:
            return super().first_distance
        return float(self._distances[0]) if self.depth else 0.0

    @property
    def last_distance(self) -> float:
        """``delta_i = delta(x(R_i[p_i]), q)``; 0 before any access."""
        if not self._indexed:
            return super().last_distance
        return float(self._distances[-1]) if self.depth else 0.0


class ScoreAccess(OrderStream):
    """Access kind B: tuples in non-increasing score, ties by tuple id."""

    kind = AccessKind.SCORE

    def __init__(self, relation: Relation) -> None:
        super().__init__(AccessOrder.sort(relation, self.kind), relation)


def sorted_stream(
    relation: Relation,
    kind: AccessKind,
    query: np.ndarray | None = None,
    *,
    metric: Callable[[np.ndarray, np.ndarray], float] | None = None,
    use_index: bool = False,
) -> OrderStream:
    """Open kind-``kind`` sorted access over one in-memory relation (or
    shard): a :class:`DistanceAccess` or a :class:`ScoreAccess`."""
    if kind is AccessKind.DISTANCE:
        if query is None:
            raise ValueError("distance-based access requires a query vector")
        return DistanceAccess(relation, query, metric=metric, use_index=use_index)
    return ScoreAccess(relation)


class ShardCursor:
    """A read cursor over one shard's access order, filled window by
    window from a *source*.

    A source has ``total`` (rows in the order), ``tuples`` (the order's
    row view, resolved when a position is merged), ``page_size`` (the
    fetch quantum) and ``fetch_window(start, limit)``, which returns the
    ``(ranks, tids, vectors, scores)`` columns of rows ``[start, start +
    limit)`` clamped to the end.  Every tier is a source: a resident
    :class:`AccessOrder` (viewed zero-copy, so there is nothing to
    fetch), an evicted durable shard's persisted order (its windows are
    gathered from the memmap) and a remote shard endpoint
    (:class:`~repro.service.simulation.RemoteShardEndpoint`).

    The other sources' columns are allocated at full order size on the
    first window and filled as windows land; ``filled`` is the
    watermark.  :class:`MergeStream` calls :meth:`request` with the
    cursor's share of a refill on every live cursor before it calls
    :meth:`ensure` on any — for one row when other shards are live, for
    the rows the pull takes when this is the last — then reads
    :meth:`window` and advances ``pos``.  A blocking source therefore
    fetches one page per multi-shard refill that finds it dry.
    """

    __slots__ = (
        "source",
        "total",
        "tuples",
        "ranks",
        "vectors",
        "scores",
        "tids",
        "pos",
        "filled",
    )

    def __init__(self, source) -> None:
        self.source = source
        self.total = source.total
        self.tuples = source.tuples
        self.pos = 0
        if isinstance(source, AccessOrder):
            self.ranks, self.tids = source.ranks, source.tids
            self.vectors, self.scores = source.vectors, source.scores
            self.filled = self.total
        else:
            self.ranks = self.tids = self.vectors = self.scores = None
            self.filled = 0

    @property
    def remaining(self) -> int:
        return self.total - self.pos

    def request(self, n: int) -> None:
        """Read-ahead hint for the next ``n`` rows.  A blocking source
        reads nothing ahead: it fetches in :meth:`ensure` only."""

    def ensure(self, n: int) -> None:
        """Make the next ``min(n, remaining)`` rows local, fetching the
        deficit as one window of whole pages."""
        need = min(self.pos + n, self.total)
        if self.filled < need:
            page = self.source.page_size
            rows = -(-(need - self.filled) // page) * page
            self._fill(self.source.fetch_window(self.filled, rows))

    def _fill(self, window) -> None:
        """Append one fetched window at the ``filled`` watermark."""
        ranks, tids, vectors, scores = window
        lo = self.filled
        hi = lo + len(ranks)
        if hi > lo:
            if self.ranks is None:
                self.ranks, self.tids, self.vectors, self.scores = (
                    np.empty((self.total,) + col.shape[1:], col.dtype)
                    for col in window
                )
            self.ranks[lo:hi] = ranks
            self.tids[lo:hi] = tids
            self.vectors[lo:hi] = vectors
            self.scores[lo:hi] = scores
        self.filled = hi

    def window(
        self, limit: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(ranks, tids, vectors, scores)`` of the next <= ``limit``
        local rows (no advance, no fetch)."""
        lo = self.pos
        hi = min(lo + max(limit, 0), self.filled)
        return self.ranks[lo:hi], self.tids[lo:hi], self.vectors[lo:hi], self.scores[lo:hi]


class MergeStream:
    """K-way merge of per-shard sorted cursors into one monotone stream.

    The engine-facing contract is exactly :class:`AccessStream`: depth,
    exhaustion, ``sigma_max``, block pulls and the first/last rank
    statistics behave as if the relation had a single sorted access.
    Because every shard order is ``(rank, tid)``-sorted with globally
    unique tids, the merged sequence is the single-shard access order bit
    for bit — completed sharded runs return identical top-K, depths and
    bounds (the differential suite pins this for S in {1, 2, 4, 7}).

    The merge runs *ahead of* the pulls: a refill merges up to the next
    ``R = max(B, readahead)`` rows in one vectorised pass — each live
    shard exposes its local rows, at most R of them (the top-R of the
    merge can only come from those), one ``np.lexsort`` over the stacked
    ``(rank, tid)`` candidates fixes their global order, and each cursor
    advances by how many of its rows were taken.  Pulls then serve array
    slices of the staged merge, so the per-numpy-call overhead of
    merging amortises across blocks and block pulls stay within noise of
    the single-shard slicing fast path (the staging is invisible: staged
    rows do not count toward ``depth`` or the rank statistics until
    actually pulled).  With an ``executor`` the per-shard window reads
    of a refill are dispatched as one task per shard and merged when all
    return (the service passes its shard pool here, which is what
    "shard-parallel block pulls" means operationally).

    Every shard, whatever its tier, is read through one
    :class:`ShardCursor`.  A refill asks each live cursor for its share
    ``ceil(R / live)`` of the rows and needs only one local row from
    each, so a fetched shard reads about what the merge takes from it.
    A shard whose local rows stop short of R may hold unseen rows, each
    sorting after its last local row, so the refill stages the
    candidates only up to the *frontier* — the earliest last local row
    among the short shards — which is at least one row.  Resident
    cursors hold their whole order, are never short, and stage exactly
    the top R.

    The merged prefix is a *growing* :class:`~repro.core.columnar.
    ColumnarPrefix` (like the k-d indexed path): rows are appended in
    merged order, one block-sized ``extend`` per pull, so the columnar
    batch scorer and the tight bound run over sharded streams unchanged.
    """

    #: Minimum rows merged per refill; amortises the vectorised merge
    #: over several engine blocks (the merged order is deterministic, so
    #: merging ahead can never change what a later pull returns).
    READAHEAD = 64

    def __init__(
        self,
        relation: Relation,
        kind: AccessKind,
        cursors: Sequence[ShardCursor],
        *,
        sigma_max: float | None = None,
        executor=None,
    ) -> None:
        if not cursors:
            raise ValueError("MergeStream needs at least one shard cursor")
        self.relation = relation
        self.kind = kind
        #: The per-shard cursors, in shard order.
        self.cursors = list(cursors)
        self._total = sum(c.total for c in self.cursors)
        # Max-combination over the shards' score ceilings (each shard
        # inherits the parent's sigma_max, so this equals the parent's).
        self._sigma_max = (
            float(sigma_max) if sigma_max is not None else relation.sigma_max
        )
        self._executor = executor
        self._seen: list[RankTuple] = []
        self.prefix = ColumnarPrefix(relation.dim)
        # Staged merge: rows [._stage_pos:] are merged but not yet pulled.
        self._stage_tuples: list[RankTuple] = []
        self._stage_ranks = np.empty(0)
        self._stage_vecs = np.empty((0, relation.dim))
        self._stage_scores = np.empty(0)
        self._stage_tids = np.empty(0, dtype=np.int64)
        self._stage_pos = 0
        #: Whether the stage arrays live in the reusable slabs below
        #: (multi-shard refills) or are views of immutable cursor arrays
        #: (single-live fast path) — decides whether escaping rank
        #: chunks must be copied out of the stage.
        self._stage_is_slab = False
        # Grow-by-doubling merge scratch, reused across refills: the
        # stacked candidate columns fed to the lexsort and the staged
        # payload rows.  S-way merges refill thousands of times per
        # query; reallocating these per refill is the "S=8 merge tax".
        self._scratch_cap = 0
        self._scr_ranks = self._scr_keys = np.empty(0)
        self._scr_tids = np.empty(0, dtype=np.int64)
        self._scr_shards = np.empty(0, dtype=np.intp)
        self._stage_cap = 0
        self._stage_ranks_buf = self._stage_scores_buf = np.empty(0)
        self._stage_tids_buf = np.empty(0, dtype=np.int64)
        self._stage_vecs_buf = np.empty((0, relation.dim))
        # Rank statistics of the *pulled* prefix only.
        self._first_rank: float | None = None
        self._last_rank: float | None = None
        self._rank_chunks: list[np.ndarray] = []

    # -- AccessStream interface -------------------------------------------

    @property
    def depth(self) -> int:
        return len(self._seen)

    @property
    def seen(self) -> list[RankTuple]:
        return self._seen

    @property
    def sigma_max(self) -> float:
        return self._sigma_max

    @property
    def exhausted(self) -> bool:
        return self.depth >= self._total

    @property
    def shard_count(self) -> int:
        return len(self.cursors)

    def next(self) -> RankTuple | None:
        block = self.next_block(1)
        return block[0] if block else None

    def next_block(self, limit: int) -> list[RankTuple]:
        """Merge up to ``limit`` tuples from the shard cursors.

        Returns fewer than ``limit`` tuples — possibly none — once every
        shard runs out; ``limit`` past the remaining total never raises
        and exhaustion flips exactly at depletion.
        """
        if limit <= 0:
            return []
        block: list[RankTuple] = []
        while len(block) < limit:
            staged = len(self._stage_tuples) - self._stage_pos
            if staged == 0:
                try:
                    refilled = self._refill(limit - len(block))
                except StreamInterrupted:
                    # Keep the object view consistent with the columnar
                    # prefix (rows already served this call) before the
                    # interrupt unwinds to the engine.
                    self._seen.extend(block)
                    raise
                if not refilled:
                    break
                staged = len(self._stage_tuples) - self._stage_pos
            take = min(limit - len(block), staged)
            lo = self._stage_pos
            hi = lo + take
            block.extend(self._stage_tuples[lo:hi])
            self.prefix.extend(
                self._stage_vecs[lo:hi],
                self._stage_scores[lo:hi],
                self._stage_tids[lo:hi],
            )
            chunk = self._stage_ranks[lo:hi]
            if self._stage_is_slab:
                # The slab is overwritten by the next refill; rank
                # chunks outlive it (``distances`` concatenates them),
                # so they must leave the slab by copy.
                chunk = chunk.copy()
            self._rank_chunks.append(chunk)
            if self._first_rank is None:
                self._first_rank = float(self._stage_ranks[lo])
            self._last_rank = float(self._stage_ranks[hi - 1])
            self._stage_pos = hi
        self._seen.extend(block)
        return block

    def _refill(self, needed: int) -> bool:
        """Merge up to ``max(needed, READAHEAD)`` rows of the shard
        cursors into the stage — every row the local windows prove
        final, at least one; False when every cursor is drained."""
        live = [c for c in self.cursors if c.remaining > 0]
        if not live:
            return False
        span = max(needed, self.READAHEAD)
        # Every live cursor learns its share of the span before any
        # blocks, so asynchronously fed cursors (remote shard streams)
        # overlap their fetches across shards.
        share = -(-span // len(live))
        for c in live:
            c.request(share)
        if len(live) == 1:
            # Every other shard is drained: the merge degenerates to the
            # single-shard slicing fast path, which needs only the rows
            # this pull takes and stages whatever of the span is local.
            c = live[0]
            c.ensure(needed)
            ranks, tids, vecs, scores = c.window(span)
            take = len(ranks)
            self._stage_tuples = c.tuples[c.pos : c.pos + take]
            self._stage_ranks = ranks
            self._stage_vecs = vecs
            self._stage_scores = scores
            self._stage_tids = tids
            self._stage_pos = 0
            self._stage_is_slab = False
            c.pos += take
            return True
        # One local row per shard is enough to emit something: see the
        # frontier cut below.
        for c in live:
            c.ensure(1)
        if self._executor is not None:
            try:
                windows = list(self._executor.map(lambda c: c.window(span), live))
            except RuntimeError:
                # Pool shut down under a live stream (service close()
                # racing an in-flight query): degrade to serial fetches.
                self._executor = None
                windows = [c.window(span) for c in live]
        else:
            windows = [c.window(span) for c in live]
        sizes = [len(w[0]) for w in windows]
        total = sum(sizes)
        self._ensure_scratch(total)
        ranks = self._scr_ranks[:total]
        tids = self._scr_tids[:total]
        shard_of = self._scr_shards[:total]
        off = 0
        for s, w in enumerate(windows):
            k = len(w[0])
            ranks[off : off + k] = w[0]
            tids[off : off + k] = w[1]
            shard_of[off : off + k] = s
            off += k
        # Merge key mirrors the single-shard lexsort: (distance, tid)
        # ascending, or (-score, tid) — cursors carry raw score ranks.
        if self.kind is AccessKind.DISTANCE:
            keys = ranks
        else:
            keys = np.negative(ranks, out=self._scr_keys[:total])
        order = np.lexsort((tids, keys))
        cut = span
        offsets = np.concatenate(([0], np.cumsum(sizes[:-1])))
        # A shard whose local rows stop short of the span may hold unseen
        # rows, and each of them sorts after its last local row.  So the
        # candidates up to the earliest such last row are final (a shard
        # holding its whole span contributes no unseen row within it);
        # that row itself is one, so the cut is never empty.  Resident
        # cursors are never short and skip this.
        ends = [
            offsets[s] + sizes[s] - 1
            for s, c in enumerate(live)
            if sizes[s] < min(span, c.remaining)
        ]
        if ends:
            last = np.zeros(total, dtype=bool)
            last[ends] = True
            cut = min(cut, int(np.argmax(last[order])) + 1)
        sel = order[:cut]
        sel_shards = shard_of[sel]
        counts = np.bincount(sel_shards, minlength=len(live))
        # Rows taken from a shard are always a prefix of its (sorted)
        # window, and within ``sel`` they appear in window order, so the
        # payload gather is one prefix-slice scatter per shard — the wide
        # vector windows themselves are views and never copied whole.
        starts = np.array([c.pos for c in live])
        local = sel - offsets[sel_shards] + starts[sel_shards]
        self._stage_tuples = [
            live[s].tuples[p]
            for s, p in zip(sel_shards.tolist(), local.tolist())
        ]
        take = len(sel)
        self._ensure_stage(take)
        vecs = self._stage_vecs_buf[:take]
        scores = self._stage_scores_buf[:take]
        for s, w in enumerate(windows):
            k = int(counts[s])
            if k:
                mask = sel_shards == s
                vecs[mask] = w[2][:k]
                scores[mask] = w[3][:k]
        self._stage_ranks = np.take(ranks, sel, out=self._stage_ranks_buf[:take])
        self._stage_vecs = vecs
        self._stage_scores = scores
        self._stage_tids = np.take(tids, sel, out=self._stage_tids_buf[:take])
        self._stage_pos = 0
        self._stage_is_slab = True
        for s, c in enumerate(live):
            c.pos += int(counts[s])
        return True

    def _ensure_scratch(self, need: int) -> None:
        """Candidate-column slabs (ranks/tids/shard ids/negated keys)
        big enough for ``need`` stacked rows, growing by doubling."""
        if self._scratch_cap >= need:
            return
        cap = max(need, 2 * self._scratch_cap, self.READAHEAD)
        self._scr_ranks = np.empty(cap)
        self._scr_keys = np.empty(cap)
        self._scr_tids = np.empty(cap, dtype=np.int64)
        self._scr_shards = np.empty(cap, dtype=np.intp)
        self._scratch_cap = cap

    def _ensure_stage(self, need: int) -> None:
        """Staged-payload slabs for ``need`` merged rows (same growth)."""
        if self._stage_cap >= need:
            return
        cap = max(need, 2 * self._stage_cap, self.READAHEAD)
        self._stage_ranks_buf = np.empty(cap)
        self._stage_scores_buf = np.empty(cap)
        self._stage_tids_buf = np.empty(cap, dtype=np.int64)
        self._stage_vecs_buf = np.empty((cap, self.relation.dim))
        self._stage_cap = cap

    # -- distance-kind statistics -----------------------------------------

    @property
    def distances(self) -> np.ndarray:
        """Ranks of the *pulled* prefix (distance access), in merge order."""
        if not self._rank_chunks:
            return np.empty(0)
        return np.concatenate(self._rank_chunks)

    @property
    def first_distance(self) -> float:
        return self._first_rank if self._first_rank is not None else 0.0

    @property
    def last_distance(self) -> float:
        return self._last_rank if self._last_rank is not None else 0.0

    # -- score-kind statistics --------------------------------------------

    @property
    def first_score(self) -> float:
        return self._first_rank if self._first_rank is not None else self._sigma_max

    @property
    def last_score(self) -> float:
        return self._last_rank if self._last_rank is not None else self._sigma_max

    def __repr__(self) -> str:
        return (
            f"MergeStream({self.relation.name!r}, {self.kind.value}, "
            f"shards={self.shard_count}, depth={self.depth}/{self._total})"
        )


def open_streams(
    relations: list[Relation],
    kind: AccessKind,
    query: np.ndarray | None = None,
    *,
    use_index: bool = False,
) -> list[_BaseStream]:
    """Open one access stream per relation with the given kind.

    Streams are opened through each relation's
    :class:`~repro.core.storage.StorageBackend` — single-shard relations
    yield plain :class:`DistanceAccess`/:class:`ScoreAccess` streams,
    sharded relations yield a :class:`MergeStream` over their per-shard
    orders.  The engine sees one monotone stream per relation either way.
    """
    if kind is AccessKind.DISTANCE and query is None:
        raise ValueError("distance-based access requires a query vector")
    return [
        r.storage.open_stream(kind, query, use_index=use_index) for r in relations
    ]

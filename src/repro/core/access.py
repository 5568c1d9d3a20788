"""Sequential access streams over relations (Definition 2.1).

The paper's algorithms never see a relation directly — only a stream that
returns tuples one at a time, either in increasing distance from the query
(access kind A) or in decreasing score (access kind B).  The stream also
exposes exactly the statistics the bounding schemes are allowed to use:
the distance/score of the first and last tuple retrieved so far, the
depth, and the relation's ``sigma_max``.

Streams are columnar inside.  Every pre-sorted order is an
:class:`AccessOrder`, sorted lazily, head first: one rank pass
(:func:`rank_column`: one distance computation over the relation's
stacked ``(N, d)`` vector matrix, or its scores) computes the shard's
rank column once, and :func:`head_order` sorts only the order's first
:data:`HEAD_ROWS` rows by ``(rank, tid)`` (tid as the tie-break keeps
the stream deterministic, which instance-optimality requires), keeping
every row tied at the cut so the head is the full order's leading rows
bit for bit.  A read past the head extends it by doubling; the merge
typically reads a few dozen rows of a shard, so most orders are never
sorted beyond their first head.  One fancy-index per column
materialises the head's columnar arrays, while its rows stay an
:class:`OrderRows` view — ``order.tuples[i]`` is the relation's own row
``relation[perm[i]]``, looked up only when a stream pulls position
``i``.  Orders are columnar; rows are built on pull.  Every stream
maintains a :class:`~repro.core.columnar.ColumnarPrefix` — the
extracted prefix ``P_i`` as contiguous arrays in access order — which
is what the batch scorer, the candidate pruner and the bounding schemes
slice instead of re-walking ``RankTuple`` lists.  :class:`OrderStream`
(the base of the pre-sorted streams, and the service's replay of a
cached order) freezes the prefix over the head arrays, so pulling just
advances a cursor and ``next_block`` is one slice — the engine's
block-pull fast path — and re-freezes it over the extended arrays when
a pull runs past the head; :class:`MergeStream` appends each merged
block to a growing prefix.

Streams are opened through the relation's storage backend
(:mod:`repro.core.storage`): partitioned relations sort each shard
independently and :class:`MergeStream` k-way-merges the per-shard
cursors into one monotone stream, bit-identical to single-shard access.
:class:`ShardCursor` is the one cursor under every tier: it fills an
order's columns window by window from a source — a resident
:class:`AccessOrder`, an evicted durable shard or a remote endpoint.
"""

from __future__ import annotations

import threading
from enum import Enum
from typing import Callable, Protocol, Sequence

import numpy as np

from repro.core.columnar import ColumnarPrefix
from repro.core.relation import RankTuple, Relation

__all__ = [
    "AccessKind",
    "AccessOrder",
    "AccessStream",
    "DistanceAccess",
    "MergeStream",
    "OrderHead",
    "OrderRows",
    "OrderStream",
    "ScoreAccess",
    "ShardCursor",
    "StreamInterrupted",
    "head_order",
    "open_streams",
    "rank_column",
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
    """What the ProxRJ engine and the bounding schemes may observe.

    Every stream exposes its extracted prefix twice — ``seen`` as row
    objects and ``prefix`` as a :class:`~repro.core.columnar.
    ColumnarPrefix` in the same access order — and pulls in blocks:
    the engine pulls through ``next_block`` only, and the batch scorer,
    the candidate pruner and the tight bound read ``prefix``.
    :class:`OrderStream` and :class:`MergeStream` are the
    implementations.
    """

    kind: AccessKind
    relation: Relation
    prefix: ColumnarPrefix

    @property
    def depth(self) -> int: ...

    @property
    def exhausted(self) -> bool: ...

    @property
    def seen(self) -> list[RankTuple]: ...

    @property
    def sigma_max(self) -> float: ...

    def next(self) -> RankTuple | None: ...

    def next_block(self, limit: int) -> list[RankTuple]:
        """Pull up to ``limit`` tuples in access order; fewer — possibly
        none — once the stream runs out."""
        ...


#: Rows per chunk when evaluating distances: bounds the transient
#: ``(rows, d)`` difference matrix, so scanning a memory-mapped shard never
#: makes its whole vector column resident at once.
_SCAN_CHUNK = 4096

#: Rows in an order's first sorted head (plus the rows tied at its cut).
#: The merge reads a few dozen rows of a typical shard, and a read past
#: the head extends it, so the size only trades one sort against a few.
HEAD_ROWS = 256


def rank_column(
    kind: AccessKind,
    vectors: np.ndarray,
    scores: np.ndarray,
    query: np.ndarray | None = None,
    *,
    metric: Callable[[np.ndarray, np.ndarray], float] | None = None,
) -> np.ndarray:
    """The rank pass of an access order: one rank per base row, unsorted.

    The distance to ``query`` under kind A, the score under kind B.
    Distances are evaluated in row chunks; every rank is row-local, so
    chunking is bit-identical to a single pass.  A custom ``metric`` is
    evaluated once per row.
    """
    if kind is AccessKind.SCORE:
        return np.asarray(scores, dtype=float)
    if query is None:
        raise ValueError("distance-based access requires a query vector")
    query = np.asarray(query, dtype=float)
    n = len(vectors)
    if metric is not None:
        return np.fromiter((metric(v, query) for v in vectors), dtype=float, count=n)
    ranks = np.empty(n, dtype=float)
    for lo in range(0, n, _SCAN_CHUNK):
        hi = min(lo + _SCAN_CHUNK, n)
        diff = np.asarray(vectors[lo:hi], dtype=float) - query
        ranks[lo:hi] = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    return ranks


def head_order(
    kind: AccessKind, ranks: np.ndarray, tids: np.ndarray, rows: int
) -> np.ndarray:
    """Base positions of the first ``rows`` rows of the ``(rank, tid)``
    order, plus every row tied with the last of them (int64).

    The one place an access order is sorted.  The sort key is the rank
    under kind A and ``-score`` under kind B (negation is exact for
    floats, so the ``(-score, tid)`` order matches ``sorted(key=(-score,
    tid))`` bit for bit); the tid tie-break keeps the order
    deterministic, which instance-optimality requires.  Below the full
    size, one ``np.partition`` finds the ``rows``-th smallest key and
    only the rows keyed at most that are lexsorted: every row left out
    sorts after every row kept, so the result is the full order's head
    bit for bit.
    """
    keys = ranks if kind is AccessKind.DISTANCE else -ranks
    if rows < len(keys):
        cut = np.partition(keys, rows - 1)[rows - 1]
        idx = np.flatnonzero(keys <= cut)
        # Fewer rows only when NaN keys reach the cut: sort them all.
        if len(idx) >= rows:
            perm = idx[np.lexsort((tids[idx], keys[idx]))]
            return perm.astype(np.int64, copy=False)
    return np.lexsort((tids, keys)).astype(np.int64, copy=False)


def sort_order(
    kind: AccessKind,
    vectors: np.ndarray,
    scores: np.ndarray,
    tids: np.ndarray,
    query: np.ndarray | None = None,
    *,
    metric: Callable[[np.ndarray, np.ndarray], float] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """A shard's full ``(rank, tid)`` access order: ``(perm, ranks)``.

    The rank pass, then a head of every row: ``perm`` lists base row
    positions in access order, ``ranks`` the rank at each position.
    """
    ranks = rank_column(kind, vectors, scores, query, metric=metric)
    perm = head_order(kind, ranks, np.asarray(tids), len(ranks))
    return perm, ranks[perm]


class OrderRows(Sequence):
    """The rows of an access order, resolved when pulled.

    Position ``i`` is ``rows[perm[i]]`` under the order's current head
    permutation — the relation's own row object, looked up only when a
    stream pulls (or a merge stages) that position; a position past the
    head extends it.  Opening an order therefore builds no Python rows,
    and a relation that materialises rows lazily (a durable shard)
    builds only the rows a query actually reads.
    """

    __slots__ = ("_rows", "_order")

    def __init__(self, rows: Sequence[RankTuple], order: "AccessOrder") -> None:
        self._rows = rows
        self._order = order

    def __len__(self) -> int:
        return self._order.total

    def __getitem__(self, i):
        if isinstance(i, slice):
            start, stop, step = i.indices(self._order.total)
            if step != 1:
                return [self[j] for j in range(start, stop, step)]
            rows = self._rows
            perm = self._order.extend(stop).perm
            return [rows[p] for p in perm[start:stop].tolist()]
        # The merge stages rows one position at a time: keep the common
        # case (a position inside the current head) to one lookup.
        perm = self._order._head.perm
        if 0 <= i < len(perm):
            return self._rows[perm[i]]
        total = self._order.total
        if i < 0:
            i += total
        if not 0 <= i < total:
            raise IndexError("order position out of range")
        return self._rows[self._order.extend(i + 1).perm[i]]


class OrderHead:
    """One sorted head of an :class:`AccessOrder`: its first
    ``len(perm)`` positions as the permutation (base positions) and the
    gathered ``ranks``/``tids``/``vectors``/``scores`` columns.  Never
    mutated once published."""

    __slots__ = ("perm", "ranks", "tids", "vectors", "scores")

    def __init__(self, perm, ranks, tids, vectors, scores) -> None:
        self.perm = perm
        self.ranks = ranks
        self.tids = tids
        self.vectors = vectors
        self.scores = scores

    def __len__(self) -> int:
        return len(self.perm)


class AccessOrder:
    """One shard's access order, sorted head first (shareable).

    The order keeps its shard's rank column (distance under kind A,
    score under kind B; unsorted, computed once by :func:`rank_column`)
    and a sorted *head*: the first :data:`HEAD_ROWS` positions (plus the
    rows tied at the cut) by :func:`head_order`, gathered into columnar
    arrays.  :meth:`extend` sorts a longer head when a read runs past
    the current one — at least double its size and at least the rows
    the read needs — and a head of ``total`` rows is the full order.

    Orders are shared by concurrent streams and cursors.  An extension
    runs under the order's lock and publishes the new head as one
    :class:`OrderHead` object, so no reader sees a torn head, and every
    head is a prefix of the next, so views taken from an older head stay
    valid.  ``ranks``/``vectors``/``scores``/``tids`` are views of the
    current head; ``tuples`` is an :class:`OrderRows` view resolving
    positions through the current head's permutation.
    """

    __slots__ = ("kind", "sigma_max", "tuples", "_columns", "_ranks", "_lock", "_head")

    def __init__(
        self,
        kind: AccessKind,
        rows: Sequence[RankTuple],
        vectors: np.ndarray,
        scores: np.ndarray,
        tids: np.ndarray,
        sigma_max: float,
        ranks: np.ndarray,
    ) -> None:
        """The order of base ``rows`` (aligned with the base columns)
        under the unsorted rank column ``ranks``; sorts the first head."""
        self.kind = kind
        self.sigma_max = float(sigma_max)
        self.tuples = OrderRows(rows, self)
        self._columns = (vectors, scores, tids)
        self._ranks = ranks
        self._lock = threading.Lock()
        self._head = self._sort_head(HEAD_ROWS)

    @classmethod
    def sort(
        cls,
        relation: Relation,
        kind: AccessKind,
        query: np.ndarray | None = None,
        *,
        metric: Callable[[np.ndarray, np.ndarray], float] | None = None,
    ) -> "AccessOrder":
        """The kind-``kind`` order of ``relation`` (one shard)."""
        vectors, scores = relation.vectors, relation.scores
        ranks = rank_column(kind, vectors, scores, query, metric=metric)
        return cls(
            kind, relation, vectors, scores, relation.tids, relation.sigma_max, ranks
        )

    def _sort_head(self, rows: int) -> OrderHead:
        vectors, scores, tids = self._columns
        perm = head_order(self.kind, self._ranks, tids, rows)
        return OrderHead(
            perm,
            self._ranks[perm],
            np.asarray(tids[perm], dtype=np.int64),
            np.asarray(vectors[perm], dtype=float),
            np.asarray(scores[perm], dtype=float),
        )

    @property
    def total(self) -> int:
        """Rows in the order (the shard size, whatever the head)."""
        return len(self._ranks)

    @property
    def head(self) -> OrderHead:
        """The current head."""
        return self._head

    def extend(self, rows: int) -> OrderHead:
        """A head covering the first ``min(rows, total)`` positions: the
        current one, or a longer one sorted and published here."""
        head = self._head
        need = min(rows, self.total)
        if len(head) >= need:
            return head
        with self._lock:
            head = self._head
            if len(head) < need:
                head = self._sort_head(max(need, 2 * len(head)))
                self._head = head
        return head

    @property
    def ranks(self) -> np.ndarray:
        return self._head.ranks

    @property
    def tids(self) -> np.ndarray:
        return self._head.tids

    @property
    def vectors(self) -> np.ndarray:
        return self._head.vectors

    @property
    def scores(self) -> np.ndarray:
        return self._head.scores

    def fetch_window(
        self, start: int, limit: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Rows ``[start, start + limit)`` clamped to the end, as
        ``(ranks, tids, vectors, scores)`` views of a head covering
        them (extended as needed)."""
        if start < 0 or limit < 0:
            raise ValueError("start and limit must be non-negative")
        head = self.extend(start + limit)
        rows = slice(start, start + limit)
        return head.ranks[rows], head.tids[rows], head.vectors[rows], head.scores[rows]


class OrderStream:
    """Replays one :class:`AccessOrder` of ``relation`` through the
    engine's stream API.

    The columnar ``prefix`` is a frozen cursor over the arrays of the
    order head the stream is bound to, so a pull is O(1) bookkeeping
    plus the row lookups of the pulled positions; ``next_block`` slices
    the order directly — the engine's block-pull fast path.  A pull that
    runs past the bound head extends the order first and rebinds the
    prefix to the extended arrays (consumers re-read ``stream.prefix``
    on every call).  Many streams may replay one shared order.
    """

    def __init__(self, order: AccessOrder, relation: Relation) -> None:
        self.relation = relation
        self.kind = order.kind
        self.order = order
        self._seen: list[RankTuple] = []
        self._bind(order.head)

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

    def _bind(self, head: OrderHead) -> None:
        self._head = head
        self.prefix = ColumnarPrefix.from_arrays(
            head.vectors, head.scores, head.tids, length=len(self._seen)
        )

    def _reach(self, rows: int) -> None:
        """Bind a head covering the first ``rows`` positions."""
        if len(self._head) < rows:
            self._bind(self.order.extend(rows))

    def next(self) -> RankTuple | None:
        """Pull the next tuple; ``None`` once the relation is exhausted."""
        pos = len(self._seen)
        if pos >= self.order.total:
            return None
        self._reach(pos + 1)
        tup = self.order.tuples[pos]
        self._seen.append(tup)
        self.prefix.advance(1)
        return tup

    def next_block(self, limit: int) -> list[RankTuple]:
        """Slice the order: one row-view slice, one cursor move."""
        pos = len(self._seen)
        take = min(limit, self.order.total - pos)
        if take <= 0:
            return []
        self._reach(pos + take)
        block = self.order.tuples[pos : pos + take]
        self._seen.extend(block)
        self.prefix.advance(take)
        return block

    @property
    def distances(self) -> np.ndarray:
        """Ranks of the seen prefix, aligned with access order."""
        return self._head.ranks[: self.depth]

    @property
    def first_distance(self) -> float:
        """``delta(x(R_i[1]), q)``; 0 before any access (paper convention)."""
        return float(self._head.ranks[0]) if self.depth else 0.0

    @property
    def last_distance(self) -> float:
        """``delta_i = delta(x(R_i[p_i]), q)``; 0 before any access."""
        p = self.depth
        return float(self._head.ranks[p - 1]) if p else 0.0

    @property
    def first_score(self) -> float:
        """``sigma(R_i[1])``; ``sigma_max`` before any access."""
        return float(self._head.ranks[0]) if self.depth else self.sigma_max

    @property
    def last_score(self) -> float:
        """``sigma(R_i[p_i])``; ``sigma_max`` before any access."""
        p = self.depth
        return float(self._head.ranks[p - 1]) if p else self.sigma_max


class DistanceAccess(OrderStream):
    """Access kind A: tuples in non-decreasing distance from ``query``.

    Ties are broken by tuple id, making the stream deterministic (the
    paper requires deterministic algorithms for instance-optimality).

    Parameters
    ----------
    relation, query:
        The relation and the query vector ``q``.
    metric:
        Distance function; Euclidean by default.  A custom metric is
        evaluated once per row when the stream opens.
    """

    kind = AccessKind.DISTANCE

    def __init__(
        self,
        relation: Relation,
        query: np.ndarray,
        *,
        metric: Callable[[np.ndarray, np.ndarray], float] | None = None,
    ) -> None:
        self.query = np.asarray(query, dtype=float)
        if self.query.shape != (relation.dim,):
            raise ValueError(
                f"query shape {self.query.shape} does not match relation "
                f"dimension {relation.dim}"
            )
        super().__init__(
            AccessOrder.sort(relation, self.kind, self.query, metric=metric),
            relation,
        )


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
) -> OrderStream:
    """Open kind-``kind`` sorted access over one in-memory relation (or
    shard): a :class:`DistanceAccess` or a :class:`ScoreAccess`."""
    if kind is AccessKind.DISTANCE:
        if query is None:
            raise ValueError("distance-based access requires a query vector")
        return DistanceAccess(relation, query, metric=metric)
    return ScoreAccess(relation)


class ShardCursor:
    """A read cursor over one shard's access order, filled window by
    window from a *source*.

    A source has ``total`` (rows in the order), ``tuples`` (the order's
    row view, resolved when a position is merged), ``page_size`` (the
    fetch quantum) and ``fetch_window(start, limit)``, which returns the
    ``(ranks, tids, vectors, scores)`` columns of rows ``[start, start +
    limit)`` clamped to the end.  Every tier is a source: a resident
    :class:`AccessOrder`, an evicted durable shard (its windows are
    copied out of a head order over the memmap) and a remote shard
    endpoint (:class:`~repro.service.simulation.RemoteShardEndpoint`).

    A resident order is viewed zero-copy: the cursor's columns are its
    current head's, ``filled`` is the head's length, and :meth:`request`
    or :meth:`ensure` extend the head and re-view it when the cursor
    needs rows past it.  The other sources' columns are allocated at
    full order size on the first window and filled as windows land;
    ``filled`` is the watermark.  :class:`MergeStream` calls
    :meth:`request` with the cursor's share of a refill on every live
    cursor before it calls :meth:`ensure` on any — for one row when
    other shards are live, for the rows the pull takes when this is the
    last — then reads :meth:`window` and advances ``pos``.  A blocking
    source therefore fetches one page per multi-shard refill that finds
    it dry.
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
        "_resident",
    )

    def __init__(self, source) -> None:
        self.source = source
        self.total = source.total
        self.tuples = source.tuples
        self.pos = 0
        self._resident = isinstance(source, AccessOrder)
        if self._resident:
            self._view(source.head)
        else:
            self.ranks = self.tids = self.vectors = self.scores = None
            self.filled = 0

    def _view(self, head: OrderHead) -> None:
        self.ranks, self.tids = head.ranks, head.tids
        self.vectors, self.scores = head.vectors, head.scores
        self.filled = len(head)

    @property
    def remaining(self) -> int:
        return self.total - self.pos

    def request(self, n: int) -> None:
        """Read-ahead hint for the next ``n`` rows: a resident order
        extends its head to cover them.  A blocking source reads nothing
        ahead: it fetches in :meth:`ensure` only."""
        if self._resident and self.pos + n > self.filled < self.total:
            self._view(self.source.extend(self.pos + n))

    def ensure(self, n: int) -> None:
        """Make the next ``min(n, remaining)`` rows local: extend a
        resident order's head, or fetch the deficit as one window of
        whole pages."""
        need = min(self.pos + n, self.total)
        if self.filled < need:
            if self._resident:
                self._view(self.source.extend(need))
                return
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
    among the short shards — which is at least one row.  A resident
    cursor holds its order's sorted head, so it is short only when its
    head ends inside the span (it extends the head once a refill needs
    rows past it); otherwise the refill stages exactly the top R.

    The merged prefix is a *growing* :class:`~repro.core.columnar.
    ColumnarPrefix`: rows are appended in merged order, one block-sized
    ``extend`` per pull, so the columnar batch scorer and the tight
    bound run over sharded streams unchanged.
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
        # that row itself is one, so the cut is never empty.  A resident
        # cursor is short only when its sorted head ends inside the span.
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
) -> list[AccessStream]:
    """Open one access stream per relation with the given kind.

    Streams are opened through each relation's
    :class:`~repro.core.storage.StorageBackend` — single-shard relations
    yield plain :class:`DistanceAccess`/:class:`ScoreAccess` streams,
    sharded relations yield a :class:`MergeStream` over their per-shard
    orders.  The engine sees one monotone stream per relation either way.
    """
    if kind is AccessKind.DISTANCE and query is None:
        raise ValueError("distance-based access requires a query vector")
    return [r.storage.open_stream(kind, query) for r in relations]

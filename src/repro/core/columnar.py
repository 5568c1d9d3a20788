"""Columnar prefix store: structure-of-arrays views of access prefixes.

The engine's hot path is dominated by re-walking Python ``RankTuple``
lists: every pull re-submits the full seen prefixes to the scorer, the
pruner and the bounds, so per-query CPU grows quadratically with access
depth.  This module provides the contiguous-array layer underneath:

* :class:`ColumnarPrefix` — one stream's extracted prefix ``P_i`` in
  access order as three aligned numpy arrays (``vectors (p, d)``,
  ``scores (p,)``, ``tids (p,)``).  Two backing modes share the API:

  - **growing** (the merged streams of sharded, durable and remote
    relations): each pulled block is appended with one ``extend``, with
    doubling reallocation, so a pull costs amortised O(1);
  - **frozen** (sorted single-shard streams, cached service orders): the
    order head is already materialised as arrays, and the prefix is
    just a cursor into it — ``advance`` is O(1) and nothing is ever
    copied, which is what makes an LRU hit on a cached order free.

Consumers index by *access position*, never by ``(relation, tid)`` dict
keys: the scorer's slabs, the pruner's running maxima and the tight
bound's entry batches are all built from ``arrays(lo, hi)`` slices.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ColumnarPrefix"]

_MIN_CAPACITY = 16


class ColumnarPrefix:
    """Append-only columnar view of one access stream's seen prefix.

    ``length`` is the number of valid rows (the stream's depth); rows
    beyond it are uninitialised (growing mode) or not-yet-pulled order
    entries (frozen mode).
    """

    __slots__ = ("dim", "length", "_vecs", "_scores", "_tids", "_frozen")

    def __init__(self, dim: int) -> None:
        if dim < 0:
            raise ValueError("dim must be >= 0")
        self.dim = int(dim)
        self.length = 0
        self._vecs = np.empty((_MIN_CAPACITY, self.dim), dtype=float)
        self._scores = np.empty(_MIN_CAPACITY, dtype=float)
        self._tids = np.empty(_MIN_CAPACITY, dtype=np.int64)
        self._frozen = False

    @classmethod
    def from_arrays(
        cls,
        vectors: np.ndarray,
        scores: np.ndarray,
        tids: np.ndarray,
        *,
        length: int = 0,
    ) -> "ColumnarPrefix":
        """Wrap a fully materialised access order (frozen mode).

        The arrays are shared, not copied; :meth:`advance` moves the
        prefix cursor over them.  Used by pre-sorted local streams and
        the service's cached orders, where the whole order exists before
        the first pull.
        """
        vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
        scores = np.asarray(scores, dtype=float)
        tids = np.asarray(tids, dtype=np.int64)
        n = len(vectors)
        if len(scores) != n or len(tids) != n:
            raise ValueError(
                f"misaligned columns: {n} vectors, {len(scores)} scores, "
                f"{len(tids)} tids"
            )
        if not 0 <= length <= n:
            raise ValueError(f"length {length} outside [0, {n}]")
        self = cls.__new__(cls)
        self.dim = int(vectors.shape[1])
        self.length = int(length)
        self._vecs = vectors
        self._scores = scores
        self._tids = tids
        self._frozen = True
        return self

    @property
    def capacity(self) -> int:
        """Rows the current backing arrays can hold."""
        return len(self._scores)

    @property
    def frozen(self) -> bool:
        """Whether the full order is pre-materialised (cursor mode)."""
        return self._frozen

    def _grow(self, needed: int) -> None:
        cap = self.capacity
        while cap < needed:
            cap *= 2
        vecs = np.empty((cap, self.dim), dtype=float)
        scores = np.empty(cap, dtype=float)
        tids = np.empty(cap, dtype=np.int64)
        p = self.length
        vecs[:p] = self._vecs[:p]
        scores[:p] = self._scores[:p]
        tids[:p] = self._tids[:p]
        self._vecs, self._scores, self._tids = vecs, scores, tids

    def extend(
        self, vectors: np.ndarray, scores: np.ndarray, tids: np.ndarray
    ) -> None:
        """Record a block of pulled tuples in one copy."""
        if self._frozen:
            raise ValueError("frozen prefix: use advance(), not extend()")
        b = len(scores)
        if b == 0:
            return
        p = self.length
        if p + b > self.capacity:
            self._grow(p + b)
        self._vecs[p : p + b] = vectors
        self._scores[p : p + b] = scores
        self._tids[p : p + b] = tids
        self.length = p + b

    def advance(self, count: int) -> None:
        """Move the cursor of a frozen prefix past ``count`` pulled rows."""
        if not self._frozen:
            raise ValueError("growing prefix: rows arrive via extend()")
        new_len = self.length + int(count)
        if not 0 <= new_len <= len(self._scores):
            raise ValueError(
                f"advance({count}) leaves length {new_len} outside "
                f"[0, {len(self._scores)}]"
            )
        self.length = new_len

    def arrays(
        self, lo: int = 0, hi: int | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(vectors, scores, tids)`` views of prefix rows ``[lo, hi)``.

        Views alias the current backing arrays: valid until the next
        growth reallocation, so derive what you need before appending
        more rows (the slabs in :mod:`repro.core.batchscore` copy-derive
        on sync, which satisfies this).
        """
        if hi is None:
            hi = self.length
        if not 0 <= lo <= hi <= self.length:
            raise ValueError(
                f"rows [{lo}, {hi}) outside the filled prefix "
                f"[0, {self.length})"
            )
        return self._vecs[lo:hi], self._scores[lo:hi], self._tids[lo:hi]

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:
        mode = "frozen" if self._frozen else "growing"
        return (
            f"ColumnarPrefix(length={self.length}, dim={self.dim}, "
            f"capacity={self.capacity}, {mode})"
        )

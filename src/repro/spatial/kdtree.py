"""A k-d tree with best-first incremental nearest-neighbour traversal.

The related work the paper cites (Hjaltason & Samet's incremental
distance joins) walks R-trees; offline we implement the same
*incremental best-first* traversal over a k-d tree: a stream of
``(distance, item)`` pairs in non-decreasing distance order, produced
lazily.  The access streams do not use it — they read head-sorted
orders (:mod:`repro.core.access`) — but the anchor-and-probe extension
(:class:`repro.core.probing.ProbeRankJoin`) probes each anchor's
neighbourhood through it.

The tree stores points with opaque payloads and supports:

* :meth:`KDTree.nearest` — classic k-NN queries,
* :meth:`KDTree.iter_nearest` — the incremental generator (the probe
  join's unbounded probes),
* :meth:`KDTree.range_query` — all points within a radius (the probe
  join's pruned probes).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence

import numpy as np

__all__ = ["KDTree", "KDNode"]

_LEAF_SIZE = 8


@dataclass
class KDNode:
    """A node of the k-d tree.

    Internal nodes split on ``axis`` at ``threshold``; leaves hold row
    indices into the tree's point array.  ``lo``/``hi`` give the node's
    bounding box, used to lower-bound distances during best-first search.
    """

    lo: np.ndarray
    hi: np.ndarray
    axis: int = -1
    threshold: float = 0.0
    left: "KDNode | None" = None
    right: "KDNode | None" = None
    indices: np.ndarray | None = None

    @property
    def is_leaf(self) -> bool:
        return self.indices is not None

    def min_sqdist(self, query: np.ndarray) -> float:
        """Squared distance from ``query`` to this node's bounding box."""
        clipped = np.clip(query, self.lo, self.hi)
        d = query - clipped
        return float(d @ d)


class KDTree:
    """Static k-d tree over a set of d-dimensional points.

    Parameters
    ----------
    points:
        Array-like of shape ``(n, d)``.
    payloads:
        Optional sequence of ``n`` opaque objects returned alongside each
        point.  Defaults to the row index.
    leaf_size:
        Maximum number of points stored in a leaf.
    """

    def __init__(
        self,
        points: np.ndarray,
        payloads: Sequence[Any] | None = None,
        *,
        leaf_size: int = _LEAF_SIZE,
    ) -> None:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.ndim != 2:
            raise ValueError(f"points must be 2-D, got shape {pts.shape}")
        if payloads is not None and len(payloads) != len(pts):
            raise ValueError(
                f"got {len(pts)} points but {len(payloads)} payloads"
            )
        if leaf_size < 1:
            raise ValueError("leaf_size must be >= 1")
        self._points = pts
        self._payloads = list(payloads) if payloads is not None else list(range(len(pts)))
        self._leaf_size = leaf_size
        self._root: KDNode | None = None
        if len(pts) > 0:
            self._root = self._build(np.arange(len(pts)))

    # -- construction ---------------------------------------------------

    def _build(self, idx: np.ndarray) -> KDNode:
        pts = self._points[idx]
        lo = pts.min(axis=0)
        hi = pts.max(axis=0)
        if len(idx) <= self._leaf_size:
            return KDNode(lo=lo, hi=hi, indices=idx)
        spans = hi - lo
        axis = int(np.argmax(spans))
        if spans[axis] <= 0.0:
            # All points coincide; keep them in one leaf to avoid an
            # unbounded recursion on duplicate data.
            return KDNode(lo=lo, hi=hi, indices=idx)
        order = np.argsort(pts[:, axis], kind="stable")
        half = len(idx) // 2
        left_idx = idx[order[:half]]
        right_idx = idx[order[half:]]
        threshold = float(pts[order[half], axis])
        node = KDNode(lo=lo, hi=hi, axis=axis, threshold=threshold)
        node.left = self._build(left_idx)
        node.right = self._build(right_idx)
        return node

    # -- basic introspection ---------------------------------------------

    def __len__(self) -> int:
        return len(self._points)

    @property
    def points(self) -> np.ndarray:
        """The ``(n, d)`` array the tree was built over (do not mutate)."""
        return self._points

    # -- queries ----------------------------------------------------------

    def iter_nearest(self, query: np.ndarray) -> Iterator[tuple[float, Any]]:
        """Yield ``(distance, payload)`` in non-decreasing distance order.

        This is the incremental best-first traversal of Hjaltason & Samet:
        a single priority queue holds both unexpanded nodes (keyed by the
        distance to their bounding box) and individual points (keyed by
        their true distance).  Points are emitted exactly when they reach
        the front of the queue, which guarantees global ordering while
        expanding only the parts of the tree the consumer actually needs.
        """
        if self._root is None:
            return
        q = np.asarray(query, dtype=float)
        if q.shape != (self._points.shape[1],):
            raise ValueError(
                f"query has shape {q.shape}, expected ({self._points.shape[1]},)"
            )
        counter = itertools.count()
        # Entries: (sqdist, tiebreak, kind, object); kind 0 = point, 1 = node,
        # so coincident point/node keys emit the point first.
        heap: list[tuple[float, int, int, Any]] = [
            (self._root.min_sqdist(q), next(counter), 1, self._root)
        ]
        while heap:
            sqdist, _, kind, obj = heapq.heappop(heap)
            if kind == 0:
                yield float(np.sqrt(sqdist)), self._payloads[obj]
                continue
            node: KDNode = obj
            if node.is_leaf:
                assert node.indices is not None
                diffs = self._points[node.indices] - q
                sq = np.einsum("ij,ij->i", diffs, diffs)
                for i, s in zip(node.indices, sq):
                    heapq.heappush(heap, (float(s), next(counter), 0, int(i)))
            else:
                for child in (node.left, node.right):
                    assert child is not None
                    heapq.heappush(
                        heap, (child.min_sqdist(q), next(counter), 1, child)
                    )

    def nearest(self, query: np.ndarray, k: int = 1) -> list[tuple[float, Any]]:
        """Return the ``k`` nearest ``(distance, payload)`` pairs."""
        if k < 1:
            raise ValueError("k must be >= 1")
        out = []
        for item in self.iter_nearest(query):
            out.append(item)
            if len(out) == k:
                break
        return out

    def range_query(self, query: np.ndarray, radius: float) -> list[tuple[float, Any]]:
        """All ``(distance, payload)`` with distance <= radius, sorted."""
        if radius < 0:
            raise ValueError("radius must be non-negative")
        out = []
        for dist, payload in self.iter_nearest(query):
            if dist > radius:
                break
            out.append((dist, payload))
        return out

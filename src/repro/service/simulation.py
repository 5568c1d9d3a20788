"""Simulated remote search services.

The paper motivates proximity rank join with "search computing": the
relations are remote services (Yahoo! Local, IMDB, ...) invoked over the
Web, where fetching tuples dominates every other cost — which is exactly
why sumDepths is the metric that matters.  This module models that
deployment so the examples and benchmarks can report *latency-weighted*
costs, not only access counts:

* :class:`RemoteShardEndpoint` puts one shard's sorted access order
  behind an *offset-addressed*, paginated window API: each window is
  served as ``ceil(rows / page_size)`` sequential pages, and each page
  charges a latency sampled from a :class:`LatencyModel`.  The blocking
  :meth:`~RemoteShardEndpoint.fetch_window` only meters the latency
  (simulated time, so tests stay fast and deterministic); the awaitable
  :meth:`~RemoteShardEndpoint.afetch_window` also sleeps it
  (``asyncio.sleep``), which is what lets the async service overlap
  in-flight windows across shards and against engine compute.  Every
  client asks for whole pages from a page boundary, so no page is
  charged twice: the async service's pipelined feeders ask for one page
  per window, its serial comparator and the blocking
  :class:`~repro.core.access.ShardCursor` for the pages covering a
  deficit.
* :func:`make_service_streams` serves whole relations through blocking
  endpoints: one :class:`~repro.core.access.MergeStream` per relation
  over one :class:`~repro.core.access.ShardCursor`, so the ProxRJ engine
  runs unchanged against "remote" data and reads the sort's exact ranks.
  A pull fetches only when the local rows run out: one page for a
  per-tuple pull, one window of whole pages covering the deficit for a
  block pull (the paper's block-fetch trade-off), no read-ahead.

Determinism: every latency sample is drawn from a generator owned by the
endpoint and threaded through :meth:`LatencyModel.sample` — there is no
module-level RNG anywhere in the service layer, so a fixed seed pins the
exact latency sequence of a run (the regression tests assert the values).
"""

from __future__ import annotations

import asyncio
import threading
from dataclasses import dataclass

import numpy as np

from repro.core.access import (
    AccessKind,
    AccessOrder,
    MergeStream,
    ShardCursor,
    sorted_stream,
)
from repro.core.relation import Relation

__all__ = [
    "LatencyModel",
    "RemoteShardEndpoint",
    "make_service_streams",
]


@dataclass(frozen=True)
class LatencyModel:
    """Per-call latency: ``base + uniform(0, jitter)`` simulated seconds."""

    base: float = 0.05
    jitter: float = 0.02

    def sample(self, rng: np.random.Generator) -> float:
        if self.base < 0 or self.jitter < 0:
            raise ValueError("latency parameters must be non-negative")
        return self.base + (rng.uniform(0.0, self.jitter) if self.jitter else 0.0)


class RemoteShardEndpoint:
    """One shard's sorted access order behind a paged remote API.

    A latency-and-meter wrapper over an
    :class:`~repro.core.access.AccessOrder`: clients ask for
    **offset-addressed windows** — ``fetch_window(start, limit)``, rows
    clamped to the order's end — which the service serves as ``ceil(rows
    / page_size)`` sequential pages, one latency charge each.  As a
    :class:`~repro.core.access.ShardCursor` source it also exposes the
    order's ``total`` and its row view ``tuples``.

    Latency is metered in ``simulated_seconds`` either way; the
    awaitable :meth:`afetch_window` additionally *sleeps* the window's
    total latency on the event loop, so concurrently awaited windows of
    different shards overlap in real wall-clock — the physical effect
    the pipelined-prefetch subsystem exists to exploit — while the
    blocking :meth:`fetch_window` only meters it.

    One endpoint may serve many concurrent queries (it is stateless
    between calls apart from the meters, which a lock protects); the
    latency generator is owned by the endpoint, so a fixed seed pins the
    sample sequence of any deterministic call order.
    """

    def __init__(
        self,
        name: str,
        shard_index: int,
        order: AccessOrder,
        *,
        page_size: int = 25,
        latency: LatencyModel | None = None,
        rng: np.random.Generator | int | None = None,
        sink=None,
    ) -> None:
        if page_size < 1:
            raise ValueError("page_size must be >= 1")
        #: Optional shared meter: an object with an ``add(windows=...,
        #: pages=..., tuples=..., seconds=...)`` method that outlives the
        #: endpoint (services aggregate traffic across endpoint eviction
        #: through this).
        self.sink = sink
        self.name = name
        self.shard_index = shard_index
        self.order = order
        self.page_size = page_size
        self.latency = latency or LatencyModel()
        self._rng = (
            rng
            if isinstance(rng, np.random.Generator)
            else np.random.default_rng(rng)
        )
        self._lock = threading.Lock()
        self.windows = 0
        self.pages = 0
        self.tuples_served = 0
        self.simulated_seconds = 0.0

    @property
    def total(self) -> int:
        """Rows in the shard's order (clients may not read past this)."""
        return self.order.total

    @property
    def tuples(self):
        """The order's rows, resolved when a client reads a position."""
        return self.order.tuples

    @classmethod
    def from_relation(
        cls,
        relation: Relation,
        *,
        kind: AccessKind,
        query: np.ndarray | None = None,
        shard_index: int = 0,
        page_size: int = 25,
        latency: LatencyModel | None = None,
        rng: np.random.Generator | int | None = None,
    ) -> "RemoteShardEndpoint":
        """Sort ``relation``'s order (head first) and expose it as an
        endpoint; windows past the head extend it."""
        # Via the stream, like RankJoinService._order_for, so the sort is
        # traced under the sorted-stream constructor span.
        return cls(
            relation.name,
            shard_index,
            sorted_stream(relation, kind, query).order,
            page_size=page_size,
            latency=latency,
            rng=rng,
        )

    def _charge(self, rows: int) -> float:
        """Meter one window of ``rows`` rows; returns its total latency.

        Every window — including an empty exhaustion probe — costs at
        least one page round-trip.
        """
        pages = max(1, -(-rows // self.page_size))
        lat = 0.0
        with self._lock:
            for _ in range(pages):
                sample = self.latency.sample(self._rng)
                lat += sample
                self.simulated_seconds += sample
            self.windows += 1
            self.pages += pages
            self.tuples_served += rows
        if self.sink is not None:
            self.sink.add(windows=1, pages=pages, tuples=rows, seconds=lat)
        return lat

    def fetch_window(
        self, start: int, limit: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Rows ``[start, start + limit)`` of the order, clamped to the
        end: ``(ranks, tids, vectors, scores)``.

        Blocking flavour: meters the window's latency without waiting it
        out (streams from :func:`make_service_streams` and tooling read
        the order synchronously; the serial comparator is the async
        service's non-pipelined mode, which awaits :meth:`afetch_window`
        one window at a time).
        """
        window = self.order.fetch_window(start, limit)
        self._charge(len(window[0]))
        return window

    async def afetch_window(
        self, start: int, limit: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Awaitable :meth:`fetch_window`: sleeps the window's latency on
        the event loop (pages of one window are sequential round-trips;
        windows of *different* shards overlap freely)."""
        window = self.order.fetch_window(start, limit)
        lat = self._charge(len(window[0]))
        if lat > 0.0:
            await asyncio.sleep(lat)
        return window

    def __repr__(self) -> str:
        return (
            f"RemoteShardEndpoint({self.name!r}, shard={self.shard_index}, "
            f"rows={self.total}, page_size={self.page_size})"
        )


def make_service_streams(
    relations: list[Relation],
    *,
    kind: AccessKind,
    query: np.ndarray | None = None,
    page_size: int = 10,
    latency: LatencyModel | None = None,
    seed: int = 0,
) -> list[MergeStream]:
    """One service-backed stream per relation (shared latency model).

    Each stream reads one cursor over a blocking
    :class:`RemoteShardEndpoint` (relation ``i`` seeded ``seed + i``);
    the endpoints' meters are ``stream.cursors[0].source``.
    """
    return [
        MergeStream(
            rel,
            kind,
            [
                ShardCursor(
                    RemoteShardEndpoint.from_relation(
                        rel,
                        kind=kind,
                        query=query,
                        page_size=page_size,
                        latency=latency,
                        rng=seed + idx,
                    )
                )
            ],
        )
        for idx, rel in enumerate(relations)
    ]

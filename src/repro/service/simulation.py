"""Simulated remote search services.

The paper motivates proximity rank join with "search computing": the
relations are remote services (Yahoo! Local, IMDB, ...) invoked over the
Web, where fetching tuples dominates every other cost — which is exactly
why sumDepths is the metric that matters.  This module models that
deployment so the examples and benchmarks can report *latency-weighted*
costs, not only access counts:

* :class:`ServiceEndpoint` wraps a relation behind a paged API: each
  *call* returns one page of tuples (distance- or score-ordered) and
  charges a latency sampled from a configurable model.  Latency is
  *simulated time*, accumulated in the endpoint's meter — no real
  sleeping — so tests stay fast and deterministic.
* :class:`ServiceStream` adapts an endpoint to the
  :class:`~repro.core.access.AccessStream` interface, letting the ProxRJ
  engine run unchanged against "remote" data.  Page size > 1 models
  services that return blocks (the paper's block-fetch trade-off).
* :class:`RemoteShardEndpoint` is the per-shard flavour the async
  serving subsystem talks to: one shard's fully sorted access order
  behind an *offset-addressed*, paginated window API, with a per-shard
  latency model and both blocking and awaitable fetches.  The awaitable
  path really sleeps (``asyncio.sleep``), which is what lets the async
  service overlap in-flight windows across shards and against engine
  compute — wall-clock improves by *overlapping* latency, while the
  simulated-seconds meter still records the full serial cost.

Determinism: every latency sample is drawn from a generator owned by the
endpoint and threaded through :meth:`LatencyModel.sample` — there is no
module-level RNG anywhere in the service layer, so a fixed seed pins the
exact latency sequence of a run (the regression tests assert the values).
"""

from __future__ import annotations

import asyncio
import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.access import AccessKind, sorted_stream
from repro.core.columnar import ColumnarPrefix
from repro.core.relation import RankTuple, Relation

__all__ = [
    "LatencyModel",
    "RemoteShardEndpoint",
    "ServiceEndpoint",
    "ServiceStream",
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


class ServiceEndpoint:
    """A paged, ordered view of a relation behind a simulated network.

    Parameters
    ----------
    relation, kind, query:
        What the service serves and in which order.
    page_size:
        Tuples returned per call.
    latency:
        Latency model; each *call* (not each tuple) charges one sample.
    seed:
        Seed for the latency jitter.
    """

    def __init__(
        self,
        relation: Relation,
        *,
        kind: AccessKind,
        query: np.ndarray | None = None,
        page_size: int = 10,
        latency: LatencyModel | None = None,
        seed: int = 0,
    ) -> None:
        if page_size < 1:
            raise ValueError("page_size must be >= 1")
        self._inner = sorted_stream(relation, kind, query)
        self.relation = relation
        self.kind = kind
        self.page_size = page_size
        self.latency = latency or LatencyModel()
        self._rng = np.random.default_rng(seed)
        self.calls = 0
        self.tuples_served = 0
        self.simulated_seconds = 0.0

    def fetch_page(self) -> list[RankTuple]:
        """One service invocation: up to ``page_size`` ordered tuples.

        An empty page signals exhaustion.  Every call — including the one
        that discovers exhaustion — pays the latency.
        """
        self.calls += 1
        self.simulated_seconds += self.latency.sample(self._rng)
        page: list[RankTuple] = []
        for _ in range(self.page_size):
            tup = self._inner.next()
            if tup is None:
                break
            page.append(tup)
        self.tuples_served += len(page)
        return page

    def fetch_window(self, limit: int) -> list[RankTuple]:
        """One bulk request for up to ``limit`` tuples.

        The service still paginates internally — ``ceil(limit /
        page_size)`` pages, one latency charge each — but the caller
        issues a single window request instead of interleaving per-page
        round-trips with its own buffering.  Stops early at exhaustion
        (a short or empty page); an exhaustion-discovering page pays its
        latency like any other call.
        """
        if limit < 1:
            raise ValueError("limit must be >= 1")
        window: list[RankTuple] = []
        pages = -(-limit // self.page_size)
        for _ in range(pages):
            page = self.fetch_page()
            window.extend(page)
            if len(page) < self.page_size:
                break
        return window


class ServiceStream:
    """Adapts a :class:`ServiceEndpoint` to the engine's stream interface.

    Buffers pages locally; the endpoint's meters keep the remote-cost
    accounting (calls, simulated seconds) while this object keeps the
    paper-visible state (depth, first/last distance or score).
    """

    def __init__(self, endpoint: ServiceEndpoint) -> None:
        self.endpoint = endpoint
        self.kind = endpoint.kind
        self.relation = endpoint.relation
        self._seen: list[RankTuple] = []
        self._buffer: list[RankTuple] = []
        self._distances: list[float] = []
        #: Columnar prefix in arrival order, so the engine's range-based
        #: scorer works over "remote" data too.
        self.prefix = ColumnarPrefix(endpoint.relation.dim)
        self._remote_exhausted = False
        if self.kind is AccessKind.DISTANCE:
            self._query = np.asarray(endpoint._inner.query, dtype=float)

    # -- AccessStream interface -------------------------------------------

    @property
    def depth(self) -> int:
        return len(self._seen)

    @property
    def seen(self) -> list[RankTuple]:
        return self._seen

    @property
    def sigma_max(self) -> float:
        return self.relation.sigma_max

    @property
    def exhausted(self) -> bool:
        return self._remote_exhausted and not self._buffer

    def next(self) -> RankTuple | None:
        if not self._buffer and not self._remote_exhausted:
            page = self.endpoint.fetch_page()
            if len(page) < self.endpoint.page_size:
                self._remote_exhausted = True
            self._buffer.extend(page)
        if not self._buffer:
            return None
        tup = self._buffer.pop(0)
        self._record(tup)
        return tup

    def next_block(self, limit: int) -> list[RankTuple]:
        """Pull up to ``limit`` tuples, fetching the deficit in bulk.

        Block pulls align naturally with the paged endpoint: one remote
        call can satisfy many engine pulls, so a block-pull engine pays
        ``ceil(limit / page_size)`` latencies instead of up to ``limit``.
        The whole deficit is requested as one
        :meth:`ServiceEndpoint.fetch_window` bulk call up front — not a
        buffer-refill loop of single-page round-trips — so a ``limit``
        beyond the page size costs exactly one window request.
        """
        if limit <= 0:
            return []
        deficit = limit - len(self._buffer)
        if deficit > 0 and not self._remote_exhausted:
            window = self.endpoint.fetch_window(deficit)
            if len(window) < deficit:
                self._remote_exhausted = True
            self._buffer.extend(window)
        take = min(limit, len(self._buffer))
        block = self._buffer[:take]
        del self._buffer[:take]
        for tup in block:
            self._record(tup)
        return block

    def _record(self, tup: RankTuple) -> None:
        self._seen.append(tup)
        self.prefix.append(tup.vector, tup.score, tup.tid)
        if self.kind is AccessKind.DISTANCE:
            self._distances.append(float(np.linalg.norm(tup.vector - self._query)))

    # -- distance-kind statistics -------------------------------------------

    @property
    def first_distance(self) -> float:
        return self._distances[0] if self._distances else 0.0

    @property
    def last_distance(self) -> float:
        return self._distances[-1] if self._distances else 0.0

    # -- score-kind statistics ------------------------------------------------

    @property
    def first_score(self) -> float:
        return self._seen[0].score if self._seen else self.sigma_max

    @property
    def last_score(self) -> float:
        return self._seen[-1].score if self._seen else self.sigma_max


class RemoteShardEndpoint:
    """One shard's sorted access order behind a paged remote API.

    Where :class:`ServiceEndpoint` models a *sequential* service (each
    call returns the next page), this models the per-shard window API
    the async serving subsystem fetches through: the shard's order is
    fully materialised service-side (ranks and columnar arrays, exactly
    one pre-agreed order per endpoint; its row sequence is kept as given,
    so an :class:`~repro.core.access.AccessOrder`'s rows are looked up
    only for the windows served) and clients ask
    for **offset-addressed windows** — ``fetch_window(start, limit)`` —
    which the service serves as ``ceil(rows / page_size)`` sequential
    pages, one latency charge each.

    Latency is metered in ``simulated_seconds`` either way; the
    awaitable :meth:`afetch_window` additionally *sleeps* the window's
    total latency on the event loop, so concurrently awaited windows of
    different shards overlap in real wall-clock — the physical effect
    the pipelined-prefetch subsystem exists to exploit — while the
    blocking :meth:`fetch_window` only meters it.  (The serial
    comparator is the async service's non-pipelined mode, which awaits
    windows one at a time.)

    One endpoint may serve many concurrent queries (it is stateless
    between calls apart from the meters, which a lock protects); the
    latency generator is owned by the endpoint, so a fixed seed pins the
    sample sequence of any deterministic call order.
    """

    def __init__(
        self,
        name: str,
        shard_index: int,
        tuples: Sequence[RankTuple],
        ranks: np.ndarray,
        vectors: np.ndarray,
        scores: np.ndarray,
        tids: np.ndarray,
        *,
        page_size: int = 25,
        latency: LatencyModel | None = None,
        rng: np.random.Generator | int | None = None,
        sink=None,
    ) -> None:
        if page_size < 1:
            raise ValueError("page_size must be >= 1")
        if not len(ranks) == len(tuples) == len(vectors) == len(scores) == len(tids):
            raise ValueError("misaligned shard order columns")
        #: Optional shared meter: an object with an ``add(windows=...,
        #: pages=..., tuples=..., seconds=...)`` method that outlives the
        #: endpoint (services aggregate traffic across endpoint eviction
        #: through this).
        self.sink = sink
        self.name = name
        self.shard_index = shard_index
        self.page_size = page_size
        self.latency = latency or LatencyModel()
        self._rng = (
            rng
            if isinstance(rng, np.random.Generator)
            else np.random.default_rng(rng)
        )
        self._tuples = tuples
        self._ranks = np.asarray(ranks, dtype=float)
        self._vectors = np.asarray(vectors, dtype=float)
        self._scores = np.asarray(scores, dtype=float)
        self._tids = np.asarray(tids)
        self._lock = threading.Lock()
        self.windows = 0
        self.pages = 0
        self.tuples_served = 0
        self.simulated_seconds = 0.0

    @property
    def total(self) -> int:
        """Rows in the shard's order (clients may not read past this)."""
        return len(self._ranks)

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
        """Sort ``relation`` once and expose the order as an endpoint."""
        # Via the stream, like RankJoinService._order_for, so the sort is
        # traced under the sorted-stream constructor span.
        order = sorted_stream(relation, kind, query).order
        return cls(
            relation.name,
            shard_index,
            order.tuples,
            order.ranks,
            order.vectors,
            order.scores,
            order.tids,
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
        with self._lock:
            lat = float(
                sum(self.latency.sample(self._rng) for _ in range(pages))
            )
            self.windows += 1
            self.pages += pages
            self.tuples_served += rows
            self.simulated_seconds += lat
        if self.sink is not None:
            self.sink.add(windows=1, pages=pages, tuples=rows, seconds=lat)
        return lat

    def _slice(
        self, start: int, limit: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, list[RankTuple]]:
        if start < 0 or limit < 0:
            raise ValueError("start and limit must be non-negative")
        hi = min(start + limit, self.total)
        lo = min(start, hi)
        return (
            self._ranks[lo:hi],
            self._tids[lo:hi],
            self._vectors[lo:hi],
            self._scores[lo:hi],
            self._tuples[lo:hi],
        )

    def fetch_window(
        self, start: int, limit: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, list[RankTuple]]:
        """Rows ``[start, start + limit)`` of the order, clamped to the
        end: ``(ranks, tids, vectors, scores, tuples)``.

        Blocking flavour: meters the window's latency without waiting it
        out (tests and tooling read the order synchronously; the serial
        comparator is the async service's non-pipelined mode, which
        awaits :meth:`afetch_window` one window at a time).
        """
        window = self._slice(start, limit)
        self._charge(len(window[0]))
        return window

    async def afetch_window(
        self, start: int, limit: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, list[RankTuple]]:
        """Awaitable :meth:`fetch_window`: sleeps the window's latency on
        the event loop (pages of one window are sequential round-trips;
        windows of *different* shards overlap freely)."""
        window = self._slice(start, limit)
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
) -> list[ServiceStream]:
    """One service-backed stream per relation (shared latency model)."""
    streams = []
    for idx, rel in enumerate(relations):
        endpoint = ServiceEndpoint(
            rel,
            kind=kind,
            query=query,
            page_size=page_size,
            latency=latency,
            seed=seed + idx,
        )
        streams.append(ServiceStream(endpoint))
    return streams

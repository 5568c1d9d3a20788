"""Span tracing from outside the program, for the benchmark's traced runs.

The tracer wraps public entry points of each layer (``*.submit``,
``ProxRJ.run``, ``TightBound.update``, ``MergeStream.next_block``, the
sorted-stream constructors, the catalog's order probes, the remote
window fetch and ``wire.rehydrate_result``) with functions that record a
span: name, start, end, parent span and query id.  Nothing under ``src/``
changes; :meth:`Tracer.uninstall` restores every original attribute.

Parents and query ids travel in :mod:`contextvars`, so spans nest
correctly per thread and per asyncio task.  Pool workers are forked from
the parent after installation: they inherit the wrappers, start with an
empty span list and write their spans to one file each when their pump
loop returns (see :meth:`Tracer.install`).

Spans stay in memory until the run ends.  A span's *self time* is its
duration minus the part of it covered by its blocking children; the
remote window fetches run overlapped with the engine on the event loop,
so they are recorded as non-blocking and never subtracted.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

# Span tuple layout (kept as plain tuples: appending one costs ~1 µs).
SID, PARENT, NAME, QID, T0, T1, BLOCKING, EXTRA, PID = range(9)

#: Layer of each traced entry point in the self-time breakdown (submit
#: and engine-run spans are split further by the breakdown itself).
LAYER_OF = {
    "bounds.update": "bounds",
    "access.merge": "merge",
    "access.sort": "sort",
    "durable.get_order": "catalog",
    "durable.put_order": "catalog",
    "wire.rehydrate": "wire",
}


class Tracer:
    """Records spans around the program's public calls while installed."""

    def __init__(self, dump_dir: Path) -> None:
        self.dump_dir = Path(dump_dir)
        self.spans: list[tuple] = []
        self.pid = os.getpid()
        self._ids = itertools.count(1)
        self.current = contextvars.ContextVar("perfbench_span", default=0)
        self.query = contextvars.ContextVar("perfbench_query", default=None)
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def clear(self) -> None:
        self.spans = []

    def open(self, name: str, qid, t0: float):
        """Start a root span whose start time is given (an open-loop query
        starts at its scheduled send, not when its task first runs)."""
        sid = next(self._ids)
        token = self.current.set(sid)
        qtoken = self.query.set(qid)
        return sid, token, qtoken, name, qid, t0

    def close(self, handle) -> None:
        sid, token, qtoken, name, qid, t0 = handle
        t1 = time.perf_counter()
        self.current.reset(token)
        self.query.reset(qtoken)
        self.spans.append((sid, 0, name, qid, t0, t1, True, None, self.pid))

    def _sync(self, fn, name, extra_of=None):
        ids, current, query = self._ids, self.current, self.query
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = current.get()
            sid = next(ids)
            token = current.set(sid)
            t0 = time.perf_counter()
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = time.perf_counter()
                current.reset(token)
                extra = extra_of(out) if extra_of is not None and out is not None else None
                tracer.spans.append(
                    (sid, parent, name, query.get(), t0, t1, True, extra, tracer.pid)
                )

        return wrapper

    def _async(self, fn, name, blocking=True):
        ids, current, query = self._ids, self.current, self.query
        tracer = self

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            parent = current.get()
            sid = next(ids)
            token = current.set(sid)
            t0 = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                current.reset(token)
                tracer.spans.append(
                    (sid, parent, name, query.get(), t0, t1, blocking, None, tracer.pid)
                )

        return wrapper

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced entry point; :meth:`uninstall` undoes it."""
        from repro.core.access import DistanceAccess, MergeStream, ScoreAccess
        from repro.core.bounds.tight import TightBound
        from repro.core.durable.catalog import ShardCatalog
        from repro.core.template import ProxRJ
        from repro.service import procpool, wire
        from repro.service.async_service import AsyncRankJoinService
        from repro.service.procpool import ProcPoolRankJoinService
        from repro.service.rankjoin import RankJoinService
        from repro.service.simulation import RemoteShardEndpoint

        for cls in (RankJoinService, ProcPoolRankJoinService):
            self._patch(cls, "submit", self._sync(cls.__dict__["submit"], "service.submit"))
        self._patch(
            AsyncRankJoinService,
            "submit",
            self._async(AsyncRankJoinService.__dict__["submit"], "service.submit"),
        )
        self._patch(
            ProxRJ,
            "run",
            self._sync(ProxRJ.run, "engine.run", extra_of=lambda r: r.total_seconds),
        )
        self._patch(TightBound, "update", self._sync(TightBound.update, "bounds.update"))
        self._patch(
            MergeStream, "next_block", self._sync(MergeStream.next_block, "access.merge")
        )
        for cls in (DistanceAccess, ScoreAccess):
            self._patch(cls, "__init__", self._sync(cls.__init__, "access.sort"))
        for attr in ("get_order", "put_order"):
            self._patch(
                ShardCatalog,
                attr,
                self._sync(ShardCatalog.__dict__[attr], f"durable.{attr}"),
            )
        self._patch(
            RemoteShardEndpoint,
            "afetch_window",
            self._async(
                RemoteShardEndpoint.afetch_window, "remote.fetch", blocking=False
            ),
        )
        self._patch(
            wire,
            "rehydrate_result",
            self._sync(wire.rehydrate_result, "wire.rehydrate"),
        )
        self._patch(procpool, "worker_main", self._worker_main(procpool.worker_main))

    def _worker_main(self, original):
        tracer = self

        def traced_worker_main(conn, parent_conn, spec):
            # Forked child: keep the inherited wrappers, drop the parent's
            # spans, and flush this worker's spans once when its pump ends.
            tracer.pid = os.getpid()
            tracer.spans = []
            try:
                original(conn, parent_conn, spec)
            finally:
                tracer.dump(tracer.dump_dir / f"worker-{tracer.pid}.json")

        return traced_worker_main

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- worker span files --------------------------------------------------

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.spans))
        os.replace(tmp, path)

    def load_worker_spans(self) -> list[tuple]:
        spans: list[tuple] = []
        for path in sorted(self.dump_dir.glob("worker-*.json")):
            spans.extend(tuple(s) for s in json.loads(path.read_text()))
        return spans


class ContextExecutor(ThreadPoolExecutor):
    """Thread pool that runs each task in a copy of the submitter's
    context, so spans opened by an engine thread nest under the asyncio
    task that awaits it (``run_in_executor`` does not copy context)."""

    def submit(self, fn, /, *args, **kwargs):
        ctx = contextvars.copy_context()
        return super().submit(ctx.run, fn, *args, **kwargs)


def blocking_children(spans: list[tuple]) -> dict[tuple[int, int], list]:
    """``(pid, sid)`` of a span -> intervals of its blocking children."""
    children: dict[tuple[int, int], list[tuple[float, float]]] = {}
    for s in spans:
        if s[PARENT] and s[BLOCKING]:
            children.setdefault((s[PID], s[PARENT]), []).append((s[T0], s[T1]))
    return children


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` inside ``[lo, hi]``."""
    total, edge = 0.0, lo
    for c0, c1 in sorted(intervals):
        c0, c1 = max(c0, edge), min(c1, hi)
        if c1 > c0:
            total += c1 - c0
            edge = c1
    return total


def self_times(spans: list[tuple], children=None) -> dict[tuple[int, int], float]:
    """Self time of every span keyed by ``(pid, sid)``: its duration minus
    the union of its blocking children's intervals, clipped to it."""
    if children is None:
        children = blocking_children(spans)
    return {
        (s[PID], s[SID]): (s[T1] - s[T0])
        - covered(children.get((s[PID], s[SID]), ()), s[T0], s[T1])
        for s in spans
    }

"""Per-run scratch arena and memoisation for the bound kernel.

One :class:`BoundWorkspace` lives for the duration of an engine run
(created by :class:`~repro.core.template.ProxRJ` and threaded through
:class:`~repro.core.bounds.base.EngineState`), and owns every reusable
slab the batched bound stack fills on each refresh:

* the stacked QP coefficient blocks — fixed/lower pattern masks and
  value arrays — that :class:`~repro.core.bounds.tight.TightBound`
  gathers across *all* stale subsets (from its store's cached
  completion geometry) before its single
  :func:`~repro.optim.solve_bound_qp_masked` call;
* generic named scratch buffers (grow-only, doubling) that the batch
  scorer's candidate sieve borrows for its per-block temporaries;
* the per-relation potentials memo: ``pot_i`` depends only on the
  subsets' cached maxima, which change exactly when the bound updates,
  so :meth:`~repro.core.bounds.tight.TightBound.potentials` caches its
  answer per bound version and a mid-block strategy consultation becomes
  a list copy instead of a subset sweep.

Slabs grow by doubling and are never returned to the allocator: a
steady-state refresh performs no array allocation for its gather
buffers, which is the same append-only discipline the engine's columnar
slabs (:mod:`repro.core.columnar`, :mod:`repro.core.batchscore`) follow.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["BoundWorkspace"]


class BoundWorkspace:
    """Reusable slabs + memoisation shared by one engine run's bound stack.

    Not thread-safe; the engine owns one per run (bounding schemes
    lazily create a private one when driven without an engine, e.g. in
    unit tests that call ``update`` directly).
    """

    __slots__ = ("_buffers", "potentials_cache", "potentials_version")

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}
        #: Cached per-relation potentials and the bound version they
        #: were computed at (-1 = nothing cached yet).
        self.potentials_cache: list[float] | None = None
        self.potentials_version: int = -1

    # -- scratch slabs -----------------------------------------------------

    def array(
        self,
        name: str,
        shape: tuple[int, ...],
        dtype=np.float64,
        *,
        zero: bool = False,
    ) -> np.ndarray:
        """A ``shape``-shaped view into the grow-only buffer ``name``.

        The backing buffer doubles when ``shape`` outgrows it and is
        reused across calls, so steady-state gathers allocate nothing.
        Contents are undefined unless ``zero`` is set.  Callers must not
        hold a view across two ``array`` calls for the same name.
        """
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size or buf.dtype != np.dtype(dtype):
            cap = max(16, buf.size if buf is not None else 0)
            while cap < size:
                cap *= 2
            buf = np.empty(cap, dtype=dtype)
            self._buffers[name] = buf
        view = buf[:size].reshape(shape)
        if zero:
            view[...] = 0
        return view

    def qp_slabs(
        self, rows: int, n: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The stacked bound-QP coefficient blocks for one refresh:
        ``(fixed_mask, fixed_vals, lower_mask, lower_vals)``, each
        ``(rows, n)``; masks come back zeroed, value slabs are written
        only where their mask is set."""
        return (
            self.array("qp_fixed_mask", (rows, n), np.bool_, zero=True),
            self.array("qp_fixed_vals", (rows, n)),
            self.array("qp_lower_mask", (rows, n), np.bool_, zero=True),
            self.array("qp_lower_vals", (rows, n)),
        )

    # -- potentials memo ---------------------------------------------------

    def potentials_if_fresh(self, version: int) -> list[float] | None:
        """The memoised potentials if they were computed at ``version``."""
        if self.potentials_version == version:
            return self.potentials_cache
        return None

    def cache_potentials(self, version: int, pots: list[float]) -> None:
        """Memoise ``pots`` as the potentials of bound ``version``."""
        self.potentials_cache = pots
        self.potentials_version = version

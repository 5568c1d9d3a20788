"""The tight bounding scheme (Section 3.2, Algorithms 2 and 3).

For every proper subset ``M`` of the relations, the scheme keeps the set
``PC(M)`` of partial combinations formable from seen tuples and, for each,
the upper bound ``t(tau)`` on completing it with unseen tuples.  The
global bound is ``t = max_M max_{tau in PC(M)} t(tau)`` (eq. 8–9).
Tightness (Definition 2.2) holds because the optimiser's solution can be
materialised as an actual continuation (Theorem 3.2), which is what buys
instance-optimality (Theorem 3.3).

Bookkeeping follows Algorithm 2 (distance access) and Algorithm 3 (score
access), with these engineering refinements:

* **One columnar store** holds ``PC(M)`` for every subset: one set of
  growing arrays (bound values ``t``, cached optima ``theta``, dominance
  flags, coefficients and witnesses, completion geometry) with a
  subset-id column, rows appended in creation order, plus per-subset
  tables indexed by subset id (member and unseen masks, ``dead``, the
  subset maxima).  A distance-access refresh therefore costs a fixed
  number of array calls whatever ``2^n - 1`` is: one cross product
  builds every subset's new partial combinations from the streams'
  columnar prefixes; one fused
  :func:`~repro.core.bounds.geometry.completion_terms` call per subset
  *size* computes their QP geometry (fixed values, residual, score term)
  and dominance coefficients, once, at append; one staleness mask picks
  the cached optima to re-solve; one gather, one QP solve and one
  scatter refresh ``t``; one segmented max gives the subset maxima the
  bound and the potentials read.
* **One QP call per refresh**: the stale completion problems of every
  subset go to a single :func:`~repro.optim.solve_bound_qp_masked` call
  on arrays gathered straight from the store (mixed fixed/lower
  patterns, closed-form water-level rows; the ``qp_enumerated`` counter
  reports the rows it hands to its active-set enumeration).  Every row
  is bit-identical to :func:`~repro.optim.solve_bound_qp_batch`, the
  per-pattern enumeration, on the same row; the test suites check that
  on every call an engine run makes.
* The dominance pass is lazy: it screens the subsets that gained rows
  since the last pass in one sort, then walks each subset's live rows
  and tests only the candidates whose completion bound could set
  ``t_M`` (see :mod:`repro.core.bounds.dominance`), so
  flags never move the bound and most subsets end after one certified
  row, without an LP.  The few LPs left are solved one dense
  :func:`~repro.optim.polyhedron_feasible_point` call each.
* The scheme synchronises against the streams' seen prefixes, so the
  engine may invoke it only every ``bound_period`` pulls (the paper's
  practical-systems trade-off) and the incremental cross-product still
  forms every new partial combination exactly once.
* After new pulls from ``R_i``, only partial combinations *using a new
  tuple* need fresh solves; cached solutions of subsets with ``i not in
  M`` are revalidated in O(1): the constraint ``theta_i >= delta_i`` only
  shrinks the feasible set, so a cached optimum that still satisfies it
  remains optimal.  Subsets none of whose relevant streams advanced are
  not re-solved at all — results are cached incrementally across blocks.
* Subsets missing an exhausted relation are dead — no continuation can
  complete them — and their rows leave the store (their ``t_M = -inf``).
* Per-relation potentials are memoised per bound version: ``pot_i``
  reads only the subsets' cached maxima, which change exactly when
  :meth:`update` runs, so the potential-adaptive strategy's
  once-per-block consultation costs a cached-list copy unless the bound
  actually moved (``potential_consults`` vs. ``potential_evals`` in the
  counters).
* Score access keeps a single best entry per subset (Algorithm 3): the
  paper shows relative order within ``PC(M)`` never changes under score
  access, so everything else is immediately dominated.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.access import AccessKind
from repro.core.bounds.base import NEG_INFINITY, BoundingScheme, EngineState
from repro.core.bounds.dominance import (
    equal_slope_screen,
    pending_lps,
    walk_by_bound,
)
from repro.core.bounds.geometry import (
    completion_terms,
    score_access_completion,
    score_access_completion_batch,
)
from repro.core.relation import RankTuple
from repro.core.scoring import QuadraticFormScoring
from repro.optim.qp import solve_bound_qp_masked, spread_matrix

__all__ = ["TightBound"]

_EPS = 1e-9
_MAX_RELATIONS = 10
_MIN_CAPACITY = 256


class _Store:
    """Every subset's partial combinations in one set of columns.

    Subset ``s`` is the bitmask of its member relations (``0`` is the
    empty subset, ``2^n - 2`` the largest proper one).  Rows live in
    creation order, ``sid`` naming each row's subset, so a subset's rows
    keep their relative order.  ``dominated`` rows are skipped by the
    maxima and the staleness scan but stay as dominance competitors;
    rows of dead subsets are dropped.  ``proj`` holds the QP's fixed
    values zero-padded to ``n`` columns, read under the row's member
    mask; ``residual_sq`` and ``score_term`` complete the geometry, and
    ``b``/``c`` are the dominance coefficients.  A ``theta`` row of
    ``-inf`` marks an optimum never solved (the ``M = {}`` seed), forcing
    a first solve through the staleness scan.

    Per-subset tables, indexed by subset id: the ``members`` and
    ``others`` masks ``(S, n)`` (also as index lists), ``size``, the
    shared quadratic coefficient ``quad`` of eq. (24), the unseen
    relations' summed score utility at ``sigma_max``, ``dead``, the
    subset maxima ``t_max`` and ``fresh`` (gained rows since the last
    dominance pass).
    """

    _COLUMNS = (
        "sid", "t", "theta", "dominated", "b", "c", "witness",
        "proj", "residual_sq", "score_term",
    )

    def __init__(
        self, scoring: QuadraticFormScoring, n: int, d: int, sigma_max: list[float]
    ) -> None:
        subsets = (1 << n) - 1
        self.members = (np.arange(subsets)[:, None] >> np.arange(n)) & 1 == 1
        self.others = ~self.members
        self.member_idx = [np.flatnonzero(row).tolist() for row in self.members]
        self.other_idx = [np.flatnonzero(row).tolist() for row in self.others]
        self.size = self.members.sum(axis=1)
        # Cross-product span tables: [j, l] is l == j, and l <= j.
        cols = np.arange(n)
        self.diag = cols == cols[:, None]
        self.upto = cols <= cols[:, None]
        self.quad = [
            scoring.w_q * (n - m) + scoring.w_mu * (m / n) * (n - m)
            for m in self.size.tolist()
        ]
        self.unseen_utility = np.array([
            sum(scoring.score_utility(sigma_max[j]) for j in others)
            for others in self.other_idx
        ])
        self.h = spread_matrix(n, scoring.w_q, scoring.w_mu)
        self.dead = np.zeros(subsets, dtype=bool)
        self.t_max = np.full(subsets, NEG_INFINITY)
        self.fresh = np.zeros(subsets, dtype=bool)
        self.count = 0
        cap = _MIN_CAPACITY
        self.sid = np.zeros(cap, dtype=np.int16)
        self.t = np.full(cap, NEG_INFINITY)
        self.theta = np.full((cap, n), NEG_INFINITY)
        self.dominated = np.zeros(cap, dtype=bool)
        self.b = np.empty((cap, d))
        self.c = np.empty(cap)
        self.witness = np.full((cap, d), np.nan)
        self.proj = np.zeros((cap, n))
        self.residual_sq = np.empty(cap)
        self.score_term = np.empty(cap)

    def reserve(self, e: int) -> int:
        """Make room for ``e`` new rows; returns the first one's index.
        Rows may be reused after :meth:`drop_dead`, so stale flags and
        witnesses are reset."""
        lo = self.count
        if lo + e > len(self.t):
            cap = len(self.t)
            while cap < lo + e:
                cap *= 2
            for name in self._COLUMNS:
                old = getattr(self, name)
                grown = np.empty((cap,) + old.shape[1:], dtype=old.dtype)
                grown[:lo] = old[:lo]
                setattr(self, name, grown)
        self.count = lo + e
        self.dominated[lo : lo + e] = False
        self.witness[lo : lo + e] = np.nan
        return lo

    def drop_dead(self) -> None:
        """Drop the rows of dead subsets, keeping the others' order."""
        keep = ~self.dead[self.sid[: self.count]]
        kept = int(keep.sum())
        for name in self._COLUMNS:
            col = getattr(self, name)
            col[:kept] = col[: self.count][keep]
        self.count = kept

    def refresh_max(self) -> None:
        """Every subset's max ``t`` over its live rows, in one segmented
        max (``-inf`` for a subset without live rows)."""
        cnt = self.count
        live_t = np.where(self.dominated[:cnt], NEG_INFINITY, self.t[:cnt])
        self.t_max[:] = NEG_INFINITY
        np.maximum.at(self.t_max, self.sid[:cnt], live_t)


class TightBound(BoundingScheme):
    """Tight bounding scheme for either access kind.

    Parameters
    ----------
    dominance_period:
        Run the dominance pass every this many accesses under distance
        access (Figures 3(m)/(n) sweep this): a refresh runs a pass when
        the access count crosses a multiple of the period since the last
        refresh, so block pulls and ``bound_period`` keep the cadence.
        The pass is lazy: per subset it tests only the candidates whose
        completion bound could set the subset's max, so it never moves
        the bound, the depths or the answer — flags only spare later
        refreshes the flagged rows' re-solves.  ``None`` disables
        dominance (the paper's "period = infinity").  Ignored under
        score access, where Algorithm 3's best-entry rule plays the same
        role for free.
    """

    def __init__(self, dominance_period: int | None = None) -> None:
        super().__init__()
        if dominance_period is not None and dominance_period < 1:
            raise ValueError("dominance_period must be >= 1 (or None)")
        self.dominance_period = dominance_period
        self._store: _Store | None = None
        #: Score access: each subset's incumbent ``(scores, vectors)``.
        self._incumbents: list[tuple[np.ndarray, np.ndarray] | None] = []
        #: Every stream's seen rows, ``(n, cap, d)`` vectors and
        #: ``(n, cap)`` scores, so the cross product gathers in one call.
        self._seen_vecs = np.empty((0, 0, 0))
        self._seen_scores = np.empty((0, 0))
        self._synced: list[int] = []
        self._accesses = 0
        #: Bumped by every :meth:`update`; the potentials memo is valid
        #: for the version it was computed at.
        self._version = 0
        self._pots: list[float] = []
        self._pots_version = -1

    @property
    def is_tight(self) -> bool:
        return True

    # -- shared plumbing ---------------------------------------------------

    def _init_store(self, state: EngineState) -> _Store:
        if self._store is None:
            n = state.n
            if n > _MAX_RELATIONS:
                raise ValueError(
                    f"tight bounding enumerates 2^n subsets; n={n} exceeds "
                    f"the supported maximum of {_MAX_RELATIONS}"
                )
            if not isinstance(state.scoring, QuadraticFormScoring):
                raise TypeError(
                    "TightBound requires a QuadraticFormScoring (paper eq. 2 "
                    "family); other scorings need the numeric fallback of "
                    "repro.core.bounds.numeric"
                )
            d = len(state.query)
            store = _Store(
                state.scoring, n, d, [s.sigma_max for s in state.streams]
            )
            self._store = store
            self._seen_vecs = np.empty((n, _MIN_CAPACITY, d))
            self._seen_scores = np.empty((n, _MIN_CAPACITY))
            self._synced = [0] * n
            # Seed M = {} with its single "empty tuple" partial combination
            # (Appendix B.1): it bounds combinations unseen in every slot.
            seed = (np.zeros((1, 0)), np.zeros((1, 0, d)))
            if state.kind is AccessKind.DISTANCE:
                # Its -inf theta row forces a solve on first use.
                self._append(state, store, np.zeros(1, dtype=np.int16), *seed)
                store.t[0] = NEG_INFINITY
                store.theta[0] = NEG_INFINITY
            else:
                self._incumbents = [None] * len(store.dead)
                self._incumbents[0] = (seed[0][0], seed[1][0])
        return self._store

    def update(self, state: EngineState, i: int, tau: RankTuple) -> float:
        start = time.perf_counter()
        dominance_before = self.counters.dominance_seconds
        self.counters.updates += 1
        store = self._init_store(state)
        depths = [s.depth for s in state.streams]
        self._mark_dead(state, store)
        if state.kind is AccessKind.DISTANCE:
            self._update_distance(state, store, depths)
        else:
            self._update_score(state, store, depths)
        self._synced = depths
        self._version += 1
        # Keep the two stacked-bar shares disjoint (Figure 3(m)/(n)): the
        # dominance pass runs inside this call but reports its own share.
        elapsed = time.perf_counter() - start
        dominance_delta = self.counters.dominance_seconds - dominance_before
        self.counters.bound_seconds += elapsed - dominance_delta
        return float(store.t_max.max())

    def potentials(self, state: EngineState) -> list[float]:
        self.counters.potential_consults += 1
        if self._pots_version != self._version:
            store = self._init_store(state)
            self.counters.potential_evals += 1
            pots = np.where(store.others, store.t_max[:, None], NEG_INFINITY)
            self._pots = pots.max(axis=0).tolist()
            self._pots_version = self._version
        return list(self._pots)

    def _mark_dead(self, state: EngineState, store: _Store) -> None:
        exhausted = np.array([s.exhausted for s in state.streams])
        if not exhausted.any():
            return
        dying = ~store.dead & (store.others & exhausted).any(axis=1)
        if dying.any():
            store.dead |= dying
            store.t_max[dying] = NEG_INFINITY
            store.drop_dead()
            if self._incumbents:
                for s in np.flatnonzero(dying).tolist():
                    self._incumbents[s] = None

    def _new_entries(
        self, state: EngineState, store: _Store, depths: list[int]
    ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Every live subset's partial combinations that use at least one
        tuple pulled since the last sync, each exactly once, as one
        ``(sids, scores (E, m), vectors (E, m, d))`` batch per subset size
        ``m`` (ascending); a subset's rows are contiguous within its batch.

        Standard incremental cross-product: the chunk of member ``j``
        combines ``R_j``'s *new* access positions with the full current
        prefixes of earlier members and the old prefixes of later
        members.  All chunks of all subsets are laid out in one pass,
        each row-major over its members, a subset's chunks in member
        order; positions are gathered from the bound's mirror of the
        streams' seen rows, so no ``RankTuple`` is touched.
        """
        depth = np.array(depths)
        synced = np.array(self._synced)
        self._mirror_seen(state, depths)
        # Chunk (s, j): member j of live subset s pulled new tuples.
        cs, cj = np.nonzero(
            store.members & (depth > synced) & ~store.dead[:, None]
        )
        if not cs.size:
            return []
        # Spans per relation l of the chunk of member j: new rows of R_j,
        # full prefixes of earlier members, old prefixes of later ones;
        # non-members get the one-position span [0, 1).
        lo_of = np.where(store.diag, synced, 0)[cj]
        hi_of = np.where(store.upto, depth, synced)[cj]
        mem = store.members[cs]
        lo = np.where(mem, lo_of, 0)
        lens = np.where(mem, hi_of - lo_of, 1)
        sizes = np.multiply.reduce(lens, axis=1)
        # Keep non-empty chunks, ordered by subset size (stably, so each
        # subset's chunks stay together and in member order).
        keep = sizes.nonzero()[0]
        if not keep.size:
            return []
        keep = keep[store.size[cs[keep]].argsort(kind="stable")]
        cs, lo, lens, sizes = cs[keep], lo[keep], lens[keep], sizes[keep]
        chunk = np.arange(len(sizes)).repeat(sizes)
        ends = sizes.cumsum()
        k = np.arange(ends[-1]) - (ends - sizes).repeat(sizes)
        stride = lens[:, ::-1].cumprod(axis=1)[:, ::-1] // lens
        pos = lo[chunk] + k[:, None] // stride[chunk] % lens[chunk]
        sids = cs[chunk]
        chunk_size = store.size[cs]
        last = np.concatenate((chunk_size[1:] != chunk_size[:-1], [True]))
        last = last.nonzero()[0]
        batches = []
        a = 0
        for e, m in zip(ends[last].tolist(), chunk_size[last].tolist()):
            mask = store.members[sids[a:e]]
            rel, at = np.nonzero(mask)[1], pos[a:e][mask]
            batches.append((
                sids[a:e],
                self._seen_scores[rel, at].reshape(e - a, m),
                self._seen_vecs[rel, at].reshape(e - a, m, -1),
            ))
            a = e
        return batches

    def _mirror_seen(self, state: EngineState, depth: list[int]) -> None:
        """Copy the rows each stream pulled since the last sync into the
        ``_seen_*`` mirror."""
        cap = self._seen_scores.shape[1]
        if max(depth) > cap:
            while cap < max(depth):
                cap *= 2
            n, old, d = self._seen_vecs.shape
            vecs, scores = np.empty((n, cap, d)), np.empty((n, cap))
            vecs[:, :old] = self._seen_vecs
            scores[:, :old] = self._seen_scores
            self._seen_vecs, self._seen_scores = vecs, scores
        for j, (lo, hi) in enumerate(zip(self._synced, depth)):
            if hi > lo:
                vecs, scores, _ = state.prefix_arrays(j, lo, hi)
                self._seen_vecs[j, lo:hi] = vecs
                self._seen_scores[j, lo:hi] = scores

    # -- distance access (Algorithm 2) ---------------------------------------

    def _append(
        self,
        state: EngineState,
        store: _Store,
        sids: np.ndarray,
        scores: np.ndarray,
        vecs: np.ndarray,
    ) -> None:
        """Append one subset size's new entries with their completion
        geometry and dominance coefficients (one fused call)."""
        proj, residual_sq, score_term, bs, cs = completion_terms(
            state.scoring, state.n, state.query, scores, vecs,
            store.unseen_utility[sids],
            dominance=self.dominance_period is not None,
        )
        lo = store.reserve(len(sids))
        hi = store.count
        store.sid[lo:hi] = sids
        padded = store.proj[lo:hi]
        padded[...] = 0.0
        padded[store.members[sids]] = proj.ravel()
        store.residual_sq[lo:hi] = residual_sq
        store.score_term[lo:hi] = score_term
        if bs is not None:
            store.b[lo:hi] = bs
            store.c[lo:hi] = cs
        store.fresh[sids] = True

    def _update_distance(
        self, state: EngineState, store: _Store, depths: list[int]
    ) -> None:
        deltas = np.array([s.last_distance for s in state.streams])
        grown = np.array(depths) > self._synced
        accesses_before = self._accesses
        self._accesses += sum(depths) - sum(self._synced)

        # Revalidate cached optima where an unseen delta grew (Algorithm
        # 2's "i not in M" branch, feasibility fast path: a cached optimum
        # that still satisfies the new, tighter constraints remains
        # optimal).  One mask over the pre-existing live rows; fresh rows
        # are solved with the current deltas, so they are never stale in
        # this refresh.
        pre = store.count
        stale = (
            np.logical_or.reduce(
                store.others[store.sid[:pre]]
                & grown
                & (store.theta[:pre] < deltas - _EPS),
                axis=1,
            )
            & ~store.dominated[:pre]
        ).nonzero()[0]
        for sids, scores, vecs in self._new_entries(state, store, depths):
            self._append(state, store, sids, scores, vecs)
        created = store.count - pre
        self.counters.entries_created += created
        self.counters.entries_revalidated += stale.size
        self.counters.qp_solves += created + stale.size
        rows = np.concatenate((stale, np.arange(pre, store.count)))
        self._solve(state, store, rows, deltas)

        # A refresh advances the access count by whole blocks (or by
        # ``bound_period`` pulls) and may skip over a multiple of the
        # period, so the pass runs whenever the count crosses one.
        period = self.dominance_period
        if period is not None and accesses_before // period < self._accesses // period:
            self._dominance_pass(store)
        store.refresh_max()

    def _solve(
        self, state: EngineState, store: _Store, rows: np.ndarray, deltas: np.ndarray
    ) -> None:
        """Solve the completion problems of ``rows`` from their cached
        geometry in one QP call and scatter ``t`` and ``theta`` back;
        ``solver_seconds`` times the QP call alone."""
        if not rows.size:
            return
        scoring = state.scoring
        sids = store.sid[rows]
        fixed_mask, fixed_vals = store.members[sids], store.proj[rows]
        lower_mask = store.others[sids]
        lower_vals = np.broadcast_to(deltas, (rows.size, state.n))
        started = time.perf_counter()
        qp_vals, thetas, enumerated = solve_bound_qp_masked(
            store.h, fixed_mask, fixed_vals, lower_mask, lower_vals
        )
        self.counters.solver_seconds += time.perf_counter() - started
        self.counters.qp_enumerated += int(enumerated.sum())
        store.t[rows] = (
            store.score_term[rows]
            - qp_vals
            - (scoring.w_q + scoring.w_mu) * store.residual_sq[rows]
        )
        store.theta[rows] = thetas

    def _dominance_pass(self, store: _Store) -> None:
        """The dominance pass over the store (see
        :mod:`repro.core.bounds.dominance`).

        One equal-slope screen over the live rows of every subset that
        gained rows since the last pass; then, per subset with members
        and at least two live rows, the lazy walk down its live rows in
        creation order, and one dense feasibility LP per candidate it
        leaves pending.  ``solver_seconds`` times exactly the LPs.
        """
        start = time.perf_counter()
        counters = self.counters
        cnt = store.count
        sid = store.sid[:cnt]
        fresh = (store.fresh[sid] & ~store.dominated[:cnt]).nonzero()[0]
        screened = equal_slope_screen(
            store.b, store.c, fresh, store.dominated, sid[fresh]
        )
        store.fresh[:] = False
        counters.dominance_screened += screened
        counters.entries_dominated += screened

        live = (~store.dominated[:cnt]).nonzero()[0]
        live_sid = sid[live]
        grouped = live[live_sid.argsort(kind="stable")]
        counts = np.bincount(live_sid, minlength=len(store.dead))
        ends = counts.cumsum().tolist()
        for s in ((counts >= 2) & (store.size > 0)).nonzero()[0].tolist():
            rows = grouped[ends[s] - counts[s] : ends[s]]
            pend, at_opt, hits = walk_by_bound(
                store.b, store.c, rows, store.t, store.quad[s], store.witness
            )
            counters.dominance_witness_hits += hits
            if not pend.size:
                continue
            prep = pending_lps(
                store.b, store.c, store.dominated, rows, pend, at_opt
            )
            lp_started = time.perf_counter()
            prep.solve(store.witness)
            counters.solver_seconds += time.perf_counter() - lp_started
            counters.lp_solves += pend.size
            counters.entries_dominated += int(store.dominated[prep.alpha].sum())
        counters.dominance_seconds += time.perf_counter() - start

    # -- score access (Algorithm 3) -------------------------------------------

    def _update_score(
        self, state: EngineState, store: _Store, depths: list[int]
    ) -> None:
        scoring = state.scoring
        assert isinstance(scoring, QuadraticFormScoring)
        n = state.n
        last_scores = [s.last_score for s in state.streams]
        grown = [d > p for d, p in zip(depths, self._synced)]
        incumbents = self._incumbents

        # Refresh each incumbent first (an unseen last-score may have
        # dropped), then challenge it with every new partial combination;
        # Algorithm 3 retains only the best entry per subset.  Relative
        # order inside PC(M) is unaffected by the refresh (Appendix C),
        # so a single incumbent is safe.
        for s, incumbent in enumerate(incumbents):
            others = store.other_idx[s]
            if incumbent is None or not any(grown[j] for j in others):
                continue
            scores, vecs = incumbent
            result = score_access_completion(
                scoring, n, state.query,
                {j: (float(scores[r]), vecs[r])
                 for r, j in enumerate(store.member_idx[s])},
                {j: last_scores[j] for j in others},
            )
            store.t_max[s] = result.value
            self.counters.closed_form_evals += 1

        # Challenge the incumbents with every new partial combination in
        # one vectorised closed-form evaluation per subset (values only —
        # the single survivor per subset never needs the maximiser
        # geometry).  The sequential scalar loop kept the *first* entry
        # attaining the running maximum (strict-> replacement), which is
        # exactly ``argmax``; all other challengers are immediately
        # dominated, as is a beaten incumbent.
        for sids, scores, vecs in self._new_entries(state, store, depths):
            cuts = np.concatenate(([True], sids[1:] != sids[:-1], [True]))
            cuts = cuts.nonzero()[0]
            for a, e in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
                s = int(sids[a])
                values = score_access_completion_batch(
                    scoring, n, state.query, scores[a:e], vecs[a:e],
                    {j: last_scores[j] for j in store.other_idx[s]},
                )
                self.counters.closed_form_evals += e - a
                self.counters.entries_created += e - a
                best = int(np.argmax(values))
                first = incumbents[s] is None
                self.counters.entries_dominated += e - a - int(first)
                if first or values[best] > store.t_max[s]:
                    incumbents[s] = (
                        scores[a + best].copy(), vecs[a + best].copy()
                    )
                    store.t_max[s] = float(values[best])

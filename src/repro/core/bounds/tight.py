"""The tight bounding scheme (Section 3.2, Algorithms 2 and 3).

For every proper subset ``M`` of the relations, the scheme keeps the set
``PC(M)`` of partial combinations formable from seen tuples and, for each,
the upper bound ``t(tau)`` on completing it with unseen tuples.  The
global bound is ``t = max_M max_{tau in PC(M)} t(tau)`` (eq. 8–9).
Tightness (Definition 2.2) holds because the optimiser's solution can be
materialised as an actual continuation (Theorem 3.2), which is what buys
instance-optimality (Theorem 3.3).

Bookkeeping follows Algorithm 2 (distance access) and Algorithm 3 (score
access), with the engineering refinements called out in DESIGN.md:

* ``PC(M)`` is stored **columnar**: one aligned set of growing arrays per
  subset (member scores ``(E, m)``, member vectors ``(E, m, d)``, bound
  values ``t``, cached optima ``theta``, dominance flags/coefficients).
  New partial combinations are gathered straight from the streams'
  columnar prefix arrays (via :meth:`EngineState.prefix_arrays`) as
  position-grid batches, QP-solved in one vectorised call, and appended
  in amortised O(1) per entry; staleness scans and per-subset maxima are
  array reductions instead of per-entry Python loops.
* **Batched bound kernel** (default, ``batch_kernel=True``): instead of
  one QP call per subset, a refresh *gathers* every stale subset's
  completion problems into the run's
  :class:`~repro.core.bounds.workspace.BoundWorkspace` slabs and makes a
  single :func:`~repro.optim.solve_bound_qp_masked` call (mixed
  fixed/lower patterns, closed-form water-level rows; the
  ``qp_enumerated`` counter reports the rows it hands to its active-set
  enumeration).  The kernel's row-stable arithmetic makes completed
  runs bit-identical to the scalar path (``batch_kernel=False``, the
  per-subset reference kept for the differential suite).
* Each entry's completion geometry (its QP's fixed values, residual and
  score term) depends only on its own tuples, the query and the
  streams' constant ``sigma_max``: the batched kernel computes it once
  at append and every later solve of the entry gathers it from the
  subset's columns.
* Both execution strategies run one dominance pass, lazy: a subset's
  pass tests only the candidates whose completion bound could set
  ``t_M`` (see :mod:`repro.core.bounds.dominance`), so flags never move
  the bound and most passes end after one certified row, without an
  LP.  The few LPs left are solved one dense
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
  complete them — and are dropped permanently (their ``t_M = -inf``).
* Dominated partial combinations (Sec. 3.2.2) are flagged periodically
  and skipped forever; see :mod:`repro.core.bounds.dominance`.
* Per-relation potentials are memoised per bound version in the
  workspace: ``pot_i`` reads only the subsets' cached maxima, which
  change exactly when :meth:`update` runs, so the potential-adaptive
  strategy's once-per-block consultation costs a cached-list copy unless
  the bound actually moved (``potential_consults`` vs.
  ``potential_evals`` in the counters).
* Score access keeps a single best entry per subset (Algorithm 3): the
  paper shows relative order within ``PC(M)`` never changes under score
  access, so everything else is immediately dominated.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.access import AccessKind
from repro.core.bounds.base import NEG_INFINITY, BoundingScheme, EngineState
from repro.core.bounds.dominance import prepare_dominance_pass
from repro.core.bounds.geometry import (
    completion_geometry,
    dominance_coefficients_batch,
    score_access_completion,
    score_access_completion_batch,
)
from repro.core.bounds.workspace import BoundWorkspace
from repro.core.relation import RankTuple
from repro.core.scoring import QuadraticFormScoring
from repro.optim.qp import (
    solve_bound_qp_batch,
    solve_bound_qp_masked,
    spread_matrix,
)

__all__ = ["TightBound"]

_EPS = 1e-9
_MAX_RELATIONS = 10
_MIN_CAPACITY = 8


class _SubsetState:
    """All bookkeeping for one proper subset ``M``, stored columnar.

    ``count`` entries live in creation order across aligned arrays;
    ``dominated`` rows are skipped by maxima and revalidation but remain
    as dominance competitors.  ``theta`` rows of ``-inf`` mark optima
    that have never been solved (the ``M = {}`` seed), forcing a first
    solve through the staleness scan.
    """

    __slots__ = (
        "mask",
        "members",
        "others",
        "dead",
        "t_max",
        "count",
        "scores",
        "vecs",
        "t",
        "theta",
        "dominated",
        "b",
        "c",
        "witness",
        "proj",
        "residual_sq",
        "score_term",
    )

    def __init__(self, mask: int, n: int, d: int):
        self.mask = mask
        self.members = tuple(i for i in range(n) if mask >> i & 1)
        self.others = tuple(i for i in range(n) if not mask >> i & 1)
        self.dead = False
        self.t_max = NEG_INFINITY
        self.count = 0
        m = len(self.members)
        cap = _MIN_CAPACITY
        self.scores = np.empty((cap, m))
        self.vecs = np.empty((cap, m, d))
        self.t = np.full(cap, NEG_INFINITY)
        self.theta = np.full((cap, n), NEG_INFINITY)
        self.dominated = np.zeros(cap, dtype=bool)
        self.b = np.empty((cap, d))
        self.c = np.empty(cap)
        self.witness = np.full((cap, d), np.nan)
        # Batched-kernel state (see TightBound's docstring): the entry's
        # completion geometry (its QP's fixed values, residual and score
        # term, fixed at append).
        self.proj = np.empty((cap, m))
        self.residual_sq = np.empty(cap)
        self.score_term = np.empty(cap)

    def _grow(self, needed: int) -> None:
        cap = len(self.t)
        while cap < needed:
            cap *= 2
        p = self.count
        for name, fill in (
            ("scores", None),
            ("vecs", None),
            ("t", NEG_INFINITY),
            ("theta", NEG_INFINITY),
            ("dominated", False),
            ("b", None),
            ("c", None),
            ("witness", np.nan),
            ("proj", None),
            ("residual_sq", None),
            ("score_term", None),
        ):
            old = getattr(self, name)
            fresh = (
                np.empty((cap,) + old.shape[1:], dtype=old.dtype)
                if fill is None
                else np.full((cap,) + old.shape[1:], fill, dtype=old.dtype)
            )
            fresh[:p] = old[:p]
            setattr(self, name, fresh)

    def append(
        self,
        scores: np.ndarray,
        vecs: np.ndarray,
        geometry: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    ) -> int:
        """Append an entry batch; returns the first new row index.

        ``geometry`` is the batch's :func:`completion_geometry` (the
        batched kernel caches it; the scalar path passes none)."""
        e = len(scores)
        lo = self.count
        if lo + e > len(self.t):
            self._grow(lo + e)
        self.scores[lo : lo + e] = scores
        self.vecs[lo : lo + e] = vecs
        # Rows may be reused after clear(): stale flags and witnesses
        # must not leak into new entries.
        self.dominated[lo : lo + e] = False
        self.witness[lo : lo + e] = np.nan
        if geometry is not None:
            proj, residual_sq, score_term = geometry
            self.proj[lo : lo + e] = proj
            self.residual_sq[lo : lo + e] = residual_sq
            self.score_term[lo : lo + e] = score_term
        self.count = lo + e
        return lo

    def clear(self) -> None:
        self.count = 0
        self.t_max = NEG_INFINITY

    def recompute_max(self) -> None:
        cnt = self.count
        live = self.t[:cnt][~self.dominated[:cnt]]
        self.t_max = float(live.max()) if live.size else NEG_INFINITY


@dataclass
class _QPChunk:
    """One subset's pending completion problems within a gathered refresh:
    ``rows`` of ``sub``'s columnar arrays whose QP inputs occupy
    ``span`` of the workspace slabs."""

    sub: _SubsetState
    rows: np.ndarray
    span: slice


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
    batch_kernel:
        ``True`` (default) routes each refresh's bound QPs through the
        batched kernel: one gathered
        :func:`~repro.optim.solve_bound_qp_masked` call for every stale
        subset.  ``False`` keeps the per-subset scalar QP path — the
        reference the differential suite pins the kernel against
        (completed runs are bit-identical either way).  The dominance
        pass is the same on both.
    """

    def __init__(
        self,
        dominance_period: int | None = None,
        *,
        batch_kernel: bool = True,
    ) -> None:
        super().__init__()
        if dominance_period is not None and dominance_period < 1:
            raise ValueError("dominance_period must be >= 1 (or None)")
        self.dominance_period = dominance_period
        self.batch_kernel = batch_kernel
        self._subsets: list[_SubsetState] | None = None
        self._synced: list[int] = []
        self._accesses = 0
        self._version = 0
        self._own_workspace: BoundWorkspace | None = None

    @property
    def is_tight(self) -> bool:
        return True

    # -- shared plumbing ---------------------------------------------------

    def _workspace(self, state: EngineState) -> BoundWorkspace:
        if state.workspace is not None:
            return state.workspace
        if self._own_workspace is None:
            self._own_workspace = BoundWorkspace()
        return self._own_workspace

    def _init_subsets(self, state: EngineState) -> list[_SubsetState]:
        if self._subsets is None:
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
            self._subsets = [
                _SubsetState(mask, n, d) for mask in range((1 << n) - 1)
            ]
            # Seed M = {} with its single "empty tuple" partial combination
            # (Appendix B.1): it bounds combinations unseen in every slot.
            # Its -inf theta row forces a solve on first use.
            seed_scores, seed_vecs = np.zeros((1, 0)), np.zeros((1, 0, d))
            geometry = None
            if self.batch_kernel and state.kind is AccessKind.DISTANCE:
                geometry = completion_geometry(
                    state.scoring, state.query, seed_scores, seed_vecs,
                    {j: s.sigma_max for j, s in enumerate(state.streams)},
                )
            self._subsets[0].append(seed_scores, seed_vecs, geometry)
            self._synced = [0] * n
        return self._subsets

    def update(self, state: EngineState, i: int, tau: RankTuple) -> float:
        start = time.perf_counter()
        dominance_before = self.counters.dominance_seconds
        self.counters.updates += 1
        subsets = self._init_subsets(state)
        new_counts = [s.depth - p for s, p in zip(state.streams, self._synced)]
        if state.kind is AccessKind.DISTANCE:
            t = self._update_distance(state, subsets, new_counts)
        else:
            t = self._update_score(state, subsets, new_counts)
        self._synced = [s.depth for s in state.streams]
        self._version += 1
        # Keep the two stacked-bar shares disjoint (Figure 3(m)/(n)): the
        # dominance pass runs inside this call but reports its own share.
        elapsed = time.perf_counter() - start
        dominance_delta = self.counters.dominance_seconds - dominance_before
        self.counters.bound_seconds += elapsed - dominance_delta
        return t

    def potentials(self, state: EngineState) -> list[float]:
        self.counters.potential_consults += 1
        ws = self._workspace(state)
        cached = ws.potentials_if_fresh(self._version)
        if cached is not None:
            return list(cached)
        subsets = self._init_subsets(state)
        self.counters.potential_evals += 1
        pots = [NEG_INFINITY] * state.n
        for sub in subsets:
            if sub.dead:
                continue
            for i in sub.others:
                if sub.t_max > pots[i]:
                    pots[i] = sub.t_max
        ws.cache_potentials(self._version, pots)
        return list(pots)

    def _mark_dead_subsets(self, state: EngineState, subsets: list[_SubsetState]) -> None:
        for sub in subsets:
            if sub.dead:
                continue
            if any(state.streams[j].exhausted for j in sub.others):
                sub.dead = True
                sub.clear()

    def _new_member_batch(
        self, state: EngineState, sub: _SubsetState, new_counts: list[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Gather the partial combinations of ``M`` that use at least one
        tuple pulled since the last sync, each exactly once, as stacked
        ``(E, m)`` scores and ``(E, m, d)`` vectors.

        Standard incremental cross-product: for the ``r``-th member
        relation, combine its *new* access positions with the full
        current prefixes of earlier members and the old prefixes of later
        members.  Position index grids are fancy-indexed against the
        streams' columnar prefix arrays, so no ``RankTuple`` is touched;
        chunks keep the canonical row-major creation order.
        """
        members = sub.members
        pos_chunks: list[np.ndarray] = []
        for r, j in enumerate(members):
            if new_counts[j] == 0:
                continue
            spans = []
            for r2, l in enumerate(members):
                if r2 < r:
                    spans.append((0, state.streams[l].depth))
                elif r2 == r:
                    spans.append((self._synced[l], state.streams[l].depth))
                else:
                    spans.append((0, self._synced[l]))
            if any(hi <= lo for lo, hi in spans):
                continue
            grids = np.meshgrid(
                *[np.arange(lo, hi) for lo, hi in spans], indexing="ij"
            )
            pos_chunks.append(np.stack([g.ravel() for g in grids], axis=1))
        m = len(members)
        d = len(state.query)
        if not pos_chunks:
            return np.zeros((0, m)), np.zeros((0, m, d))
        pos = np.concatenate(pos_chunks, axis=0)
        per_member = [state.prefix_arrays(l) for l in members]
        scores = np.stack(
            [col[1][pos[:, c]] for c, col in enumerate(per_member)], axis=1
        )
        vecs = np.stack(
            [col[0][pos[:, c]] for c, col in enumerate(per_member)], axis=1
        )
        return scores, vecs

    # -- distance access (Algorithm 2) ---------------------------------------

    def _update_distance(
        self,
        state: EngineState,
        subsets: list[_SubsetState],
        new_counts: list[int],
    ) -> float:
        scoring = state.scoring
        assert isinstance(scoring, QuadraticFormScoring)
        n = state.n
        deltas = [s.last_distance for s in state.streams]
        sigma_max = [s.sigma_max for s in state.streams]

        self._mark_dead_subsets(state, subsets)
        track_dominance = self.dominance_period is not None
        gathered = self.batch_kernel
        accesses_before = self._accesses
        self._accesses += sum(new_counts)

        # Gather phase (batch kernel) / solve phase (scalar reference).
        # ``pending`` collects every subset's stale completion problems
        # so the flush makes exactly one masked-QP kernel call.
        pending: list[tuple[_SubsetState, np.ndarray]] = []
        for sub in subsets:
            if sub.dead:
                continue
            members = list(sub.members)
            unseen_delta = {j: deltas[j] for j in sub.others}
            unseen_sigma = {j: sigma_max[j] for j in sub.others}

            # New partial combinations (subsets intersecting the new
            # pulls), gathered columnar; the staleness scan below covers
            # only the pre-existing rows — fresh rows are solved with the
            # current deltas, so they can never be stale in this refresh.
            pre_count = sub.count
            new_scores, new_vecs = self._new_member_batch(state, sub, new_counts)
            e_new = len(new_scores)
            if e_new:
                # The kernel computes each entry's geometry once, here;
                # every later solve of the entry gathers it.
                geometry = (
                    completion_geometry(
                        scoring, state.query, new_scores, new_vecs, unseen_sigma
                    )
                    if gathered
                    else None
                )
                lo = sub.append(new_scores, new_vecs, geometry)
                rows = np.arange(lo, lo + e_new)
                if gathered:
                    pending.append((sub, rows))
                else:
                    values, thetas = self._solve_subset_scalar(
                        scoring, n, state.query, members, new_scores,
                        new_vecs, unseen_delta, unseen_sigma,
                    )
                    sub.t[rows] = values
                    sub.theta[rows] = thetas
                if track_dominance:
                    bs, cs = dominance_coefficients_batch(
                        scoring, n, state.query, new_scores, new_vecs,
                        unseen_sigma,
                    )
                    sub.b[lo : lo + e_new] = bs
                    sub.c[lo : lo + e_new] = cs
                self.counters.qp_solves += e_new
                self.counters.entries_created += e_new

            # Revalidate cached optima where an unseen delta grew
            # (Algorithm 2's "i not in M" branch, feasibility fast path:
            # a cached optimum that still satisfies the new, tighter
            # constraints remains optimal).  One array reduction over the
            # subset's theta columns replaces the per-entry scan.
            grown = [j for j in sub.others if new_counts[j] > 0]
            if grown and pre_count:
                lows = np.array([deltas[j] for j in grown]) - _EPS
                stale = ~sub.dominated[:pre_count] & (
                    sub.theta[:pre_count][:, grown] < lows
                ).any(axis=1)
                idx = np.flatnonzero(stale)
                if idx.size:
                    if gathered:
                        pending.append((sub, idx))
                    else:
                        values, thetas = self._solve_subset_scalar(
                            scoring, n, state.query, members,
                            sub.scores[idx], sub.vecs[idx],
                            unseen_delta, unseen_sigma,
                        )
                        sub.t[idx] = values
                        sub.theta[idx] = thetas
                    self.counters.qp_solves += idx.size
                    self.counters.entries_revalidated += idx.size
            if not gathered:
                sub.recompute_max()

        if gathered:
            self._flush_qp_gather(state, pending, deltas)
            for sub in subsets:
                if not sub.dead:
                    sub.recompute_max()

        # A refresh advances the access count by whole blocks (or by
        # ``bound_period`` pulls) and may skip over a multiple of the
        # period, so the pass runs whenever the count crosses one.
        if track_dominance:
            period = self.dominance_period
            if accesses_before // period < self._accesses // period:
                self._dominance_pass(scoring, n, subsets)
                for sub in subsets:
                    sub.recompute_max()

        return max((sub.t_max for sub in subsets if not sub.dead), default=NEG_INFINITY)

    def _solve_subset_scalar(
        self,
        scoring: QuadraticFormScoring,
        n: int,
        query: np.ndarray,
        members: list[int],
        scores: np.ndarray,
        vecs: np.ndarray,
        unseen_delta: dict[int, float],
        unseen_sigma: dict[int, float],
    ) -> tuple[np.ndarray, np.ndarray]:
        """Scalar-path :func:`solve_completion_batch` with the QP kernel
        time split out, so ``solver_seconds`` draws the bookkeeping /
        solver line in the same place for both execution strategies."""
        proj, residual_sq, score_term = completion_geometry(
            scoring, query, scores, vecs, unseen_sigma
        )
        lower_idx = sorted(unseen_delta)
        lower_vals = np.array([unseen_delta[j] for j in lower_idx])
        h = spread_matrix(n, scoring.w_q, scoring.w_mu)
        started = time.perf_counter()
        qp_vals, thetas = solve_bound_qp_batch(
            h, members, proj, lower_idx, lower_vals
        )
        self.counters.solver_seconds += time.perf_counter() - started
        values = score_term - qp_vals - (scoring.w_q + scoring.w_mu) * residual_sq
        return values, thetas

    def _flush_qp_gather(
        self,
        state: EngineState,
        pending: list[tuple[_SubsetState, np.ndarray]],
        deltas: list[float],
    ) -> None:
        """Solve every gathered completion problem of one refresh with a
        single masked batch-QP kernel call and scatter the results back
        into the subsets' columnar arrays.  The QP inputs are gathered
        from each entry's cached geometry columns."""
        if not pending:
            return
        scoring = state.scoring
        assert isinstance(scoring, QuadraticFormScoring)
        n = state.n
        total = sum(len(rows) for _, rows in pending)
        ws = self._workspace(state)
        fixed_mask, fixed_vals, lower_mask, lower_vals = ws.qp_slabs(total, n)
        score_term = ws.array("qp_score_term", (total,))
        residual_sq = ws.array("qp_residual_sq", (total,))

        chunks: list[_QPChunk] = []
        offset = 0
        for sub, rows in pending:
            e = len(rows)
            span = slice(offset, offset + e)
            members = list(sub.members)
            others = list(sub.others)
            if members:
                fixed_mask[span, members] = True
                fixed_vals[span, members] = sub.proj[rows]
            if others:
                lower_mask[span, others] = True
                lower_vals[span, others] = [deltas[j] for j in others]
            score_term[span] = sub.score_term[rows]
            residual_sq[span] = sub.residual_sq[rows]
            chunks.append(_QPChunk(sub, rows, span))
            offset += e

        h = spread_matrix(n, scoring.w_q, scoring.w_mu)
        started = time.perf_counter()
        qp_vals, thetas, enumerated = solve_bound_qp_masked(
            h, fixed_mask, fixed_vals, lower_mask, lower_vals
        )
        self.counters.solver_seconds += time.perf_counter() - started
        self.counters.qp_enumerated += int(enumerated.sum())
        values = score_term - qp_vals - (scoring.w_q + scoring.w_mu) * residual_sq
        for chunk in chunks:
            chunk.sub.t[chunk.rows] = values[chunk.span]
            chunk.sub.theta[chunk.rows] = thetas[chunk.span]

    def _dominance_pass(
        self, scoring: QuadraticFormScoring, n: int, subsets: list[_SubsetState]
    ) -> None:
        """The dominance pass: one dense feasibility LP per pending
        candidate.

        Structured as gather (the screen, the lazy walk and the
        constraint assembly of
        :func:`~repro.core.bounds.dominance.prepare_dominance_pass`)
        followed by the per-candidate LP loop
        (:meth:`~repro.core.bounds.dominance.DominancePrep.solve`), so
        ``solver_seconds`` times exactly the feasibility solves.
        """
        start = time.perf_counter()
        for sub in subsets:
            if sub.dead or not sub.members:
                continue
            cnt = sub.count
            if cnt - int(sub.dominated[:cnt].sum()) < 2:
                continue
            m = len(sub.members)
            # Shared quadratic coefficient of eq. (24) for this subset.
            quad = scoring.w_q * (n - m) + scoring.w_mu * (m / n) * (n - m)
            # The pre-pass updates the witness rows in place, so cached
            # non-emptiness certificates persist across passes.
            prep = prepare_dominance_pass(
                sub.b[:cnt], sub.c[:cnt], sub.dominated[:cnt],
                quad_coeff=quad, witnesses=sub.witness[:cnt], t=sub.t[:cnt],
            )
            self.counters.dominance_witness_hits += prep.witness_hits
            self.counters.dominance_screened += prep.screened
            lp_started = time.perf_counter()
            out = prep.solve(sub.witness[:cnt])
            self.counters.solver_seconds += time.perf_counter() - lp_started
            self.counters.lp_solves += prep.alpha.size
            newly = out & ~sub.dominated[:cnt]
            self.counters.entries_dominated += int(newly.sum())
            sub.dominated[:cnt] = out
        self.counters.dominance_seconds += time.perf_counter() - start

    # -- score access (Algorithm 3) -------------------------------------------

    def _update_score(
        self,
        state: EngineState,
        subsets: list[_SubsetState],
        new_counts: list[int],
    ) -> float:
        scoring = state.scoring
        assert isinstance(scoring, QuadraticFormScoring)
        n = state.n
        last_scores = [s.last_score for s in state.streams]

        self._mark_dead_subsets(state, subsets)

        for sub in subsets:
            if sub.dead:
                continue
            members = list(sub.members)
            unseen_sigma = {j: last_scores[j] for j in sub.others}

            # Refresh the incumbent first (an unseen last-score may have
            # dropped), then challenge it with every new partial
            # combination; Algorithm 3 retains only the best entry per
            # subset (row 0).  Relative order inside PC(M) is unaffected
            # by the refresh (Appendix C), so a single incumbent is safe.
            if sub.count and any(new_counts[j] > 0 for j in sub.others):
                result = score_access_completion(
                    scoring, n, state.query,
                    self._row_dict(sub, 0), unseen_sigma,
                )
                sub.t[0] = result.value
                self.counters.closed_form_evals += 1
            # Challenge the incumbent with every new partial combination
            # in one vectorised closed-form evaluation (values only — the
            # single survivor per subset never needs the maximiser
            # geometry).  The sequential scalar loop kept the *first*
            # entry attaining the running maximum (strict-> replacement),
            # which is exactly ``argmax``; all other challengers are
            # immediately dominated, as is a beaten incumbent.
            new_scores, new_vecs = self._new_member_batch(state, sub, new_counts)
            e_new = len(new_scores)
            if e_new:
                values = score_access_completion_batch(
                    scoring, n, state.query, new_scores, new_vecs, unseen_sigma
                )
                self.counters.closed_form_evals += e_new
                self.counters.entries_created += e_new
                best = int(np.argmax(values))
                if sub.count == 0:
                    sub.append(
                        new_scores[best : best + 1], new_vecs[best : best + 1]
                    )
                    sub.t[0] = float(values[best])
                    self.counters.entries_dominated += e_new - 1
                else:
                    if values[best] > sub.t[0]:
                        sub.scores[0] = new_scores[best]
                        sub.vecs[0] = new_vecs[best]
                        sub.t[0] = float(values[best])
                    self.counters.entries_dominated += e_new
            sub.count = min(sub.count, 1)
            sub.recompute_max()

        return max((sub.t_max for sub in subsets if not sub.dead), default=NEG_INFINITY)

    @staticmethod
    def _row_dict(
        sub: _SubsetState, row: int
    ) -> dict[int, tuple[float, np.ndarray]]:
        """Entry row as the mapping the scalar geometry helpers expect."""
        return {
            j: (float(sub.scores[row, r]), sub.vecs[row, r])
            for r, j in enumerate(sub.members)
        }

"""The ProxRJ template (Algorithm 1) and its run instrumentation.

The engine pulls tuples from the access streams, forms every new
combination the pulls enable (line 6 of Algorithm 1: a cross product
against the seen prefixes of the other relations), keeps the best ``K`` in
the output buffer, and stops as soon as the buffer is full *and* its K-th
score strictly exceeds the bounding scheme's upper bound on unseen
combinations (strict so that boundary *ties* are certified too — see the
comment on the stopping rule in :meth:`ProxRJ.run`).

Two execution modes share the loop:

* **Per-tuple** (``pull_block=1``, the paper's Algorithm 1): one tuple per
  iteration, one bound refresh per ``bound_period`` pulls.
* **Block pull** (``pull_block=B > 1``): up to ``B`` tuples are pulled
  from the chosen relation per iteration, their enabled cross products are
  scored in one vectorised pass, and the bound is refreshed once per
  block.  For the quadratic scoring family a
  :class:`~repro.core.batchscore.CandidatePruner` additionally skips any
  block whose best possible aggregate score cannot beat the current K-th
  score.  Completed runs return the *same ranked top-K* as the per-tuple
  mode (the buffer's retained set depends only on the deterministic
  (score, tuple-id) order, never on insertion order); only the pull
  schedule — and hence ``sum_depths`` — may differ.

For quadratic scorings both modes run **columnar**: every stream keeps
its seen prefix as a columnar prefix, and the loop hands the batch
scorer (stream, start, stop) access-position ranges, so scoring is
broadcasting over cached prefix slabs and block admission reads running
prefix maxima in O(1) — see :mod:`repro.core.batchscore`.
``vectorise=False`` forces the object-per-tuple reference path (used by
the differential suite to pit the two implementations against each
other).

Correctness requires only that the bound is a correct upper bound;
strategies *should* return unexhausted relations, but the engine
tolerates misbehaving ones by re-choosing the first unexhausted stream
(so ``max_pulls`` and termination guarantees cannot be bypassed).
Optimality additionally needs a tight bound (Theorems 3.2/3.3).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.access import AccessKind, StreamInterrupted, open_streams
from repro.core.batchscore import CandidatePruner, QuadraticBatchScorer
from repro.core.bounds.base import INFINITY, BoundingScheme, EngineState
from repro.core.buffers import TopKBuffer
from repro.core.pulling import PullingStrategy
from repro.core.relation import Combination, Relation
from repro.core.scoring import QuadraticFormScoring, Scoring

__all__ = ["ProxRJ", "RunResult"]


@dataclass
class RunResult:
    """Outcome of one ProxRJ run.

    Attributes
    ----------
    combinations:
        The top-K combinations, best first.
    depths:
        Tuples pulled per relation (``depth(A, I, i)``).
    bound:
        Final value of the upper bound when the loop stopped.
    total_seconds:
        Wall-clock time of the engine loop only: pulling, combination
        formation/scoring and bound updates.  Stream setup — opening the
        access streams or calling ``stream_factory``, which is where the
        order heads are sorted — is excluded, matching the paper's
        convention of excluding data generation and tuple-fetch
        preparation from CPU time.
    bound_seconds / dominance_seconds:
        Shares of ``total_seconds`` spent in updateBound and in the
        dominance test (the lighter stacked bars of Figure 3).
    solver_seconds:
        Wall-clock inside the LP/QP solver kernels proper — a sub-share
        of ``bound_seconds + dominance_seconds`` that isolates what the
        batched bound kernel can win back from pure bookkeeping.
    combinations_formed:
        How many candidate combinations were materialised and scored (the
        dominant CPU cost of corner-bound algorithms at high depth).
    counters:
        Raw bounding-scheme counters (QP/LP solve counts etc.).
    completed:
        False when the run was cut off — by ``max_pulls``, by the
        ``should_stop`` hook (deadlines/cancellation), or by a stream
        raising :class:`~repro.core.access.StreamInterrupted` — before
        the stopping condition held; the reported top-K is then only the
        best of what was read (used to reproduce the paper's "CBPA did
        not finish within five minutes" n=4 data point).
    """

    combinations: list[Combination]
    depths: list[int]
    bound: float
    total_seconds: float
    bound_seconds: float
    dominance_seconds: float
    combinations_formed: int
    counters: dict[str, float] = field(default_factory=dict)
    completed: bool = True
    solver_seconds: float = 0.0

    @property
    def sum_depths(self) -> int:
        """The paper's primary I/O cost metric."""
        return int(sum(self.depths))

    @property
    def certified_count(self) -> int:
        """How many leading combinations are *certified* final.

        A combination scoring strictly above the final bound cannot be
        displaced by any unseen combination, so the first
        ``certified_count`` entries of ``combinations`` are exactly what
        a completed run would also return.  Completed runs certify all
        ``K``; cut-off runs (deadline, ``max_pulls``) certify the prefix
        whose scores beat the bound at cut-off time — a *certified
        partial top-K*, never a corrupt one.
        """
        return sum(1 for c in self.combinations if c.score > self.bound)


class ProxRJ:
    """Algorithm 1, parameterised by bounding scheme and pulling strategy.

    Parameters
    ----------
    relations:
        The ``n`` input relations.
    scoring:
        Aggregation function (Section 2).
    kind:
        Access kind: distance-based or score-based.
    query:
        The query vector ``q``.  Required for both access kinds (the
        aggregation function depends on it even under score access).
    bound / pull:
        The ``BS`` and ``PS`` of the template.
    k:
        Number of results.
    bound_period:
        Recompute the bound only every this many pulls (>= 1).  A stale
        bound is still a *correct* (if looser) upper bound — bounds only
        decrease as accesses accumulate — so correctness is preserved;
        the paper suggests this as the practical-systems trade-off.
    pull_block:
        Tuples pulled per chosen relation per loop iteration (>= 1).
        ``1`` is the paper's per-tuple Algorithm 1; larger blocks
        amortise strategy calls and bound updates over the block and let
        the vectorised scorer work on bigger batches.  Completed runs
        return the same ranked top-K regardless of the block size; I/O
        (``sum_depths``) may grow by up to ``pull_block - 1`` per
        relation versus per-tuple pulling.
    vectorise:
        Use the columnar batch scorer when the scoring supports it
        (default).  ``False`` forces the scalar object-per-tuple path —
        the reference implementation the differential tests compare
        against; completed runs are bit-identical either way.
    stream_factory:
        Optional callable returning one access stream per relation (e.g.
        :func:`repro.service.make_service_streams` partial); overrides
        the default local streams.  Streams must match ``kind`` and
        follow :class:`~repro.core.access.AccessStream`: besides the
        depth, exhaustion and rank statistics, each needs a columnar
        ``prefix`` of its seen tuples and a ``next_block`` pull, and
        :meth:`run` raises :class:`TypeError` for a stream without
        either.
    should_stop:
        Optional zero-argument callable checked once per loop iteration
        (before the pull).  Returning True ends the run early with
        ``completed=False`` — the deadline/cancellation hook of the
        async serving layer.  Streams may additionally raise
        :class:`~repro.core.access.StreamInterrupted` from inside a pull
        (e.g. a deadline expiring while remote rows are in flight),
        which the loop converts into the same early stop; either way the
        result is a certified partial: current top-K plus the bound in
        force when the run stopped.
    """

    def __init__(
        self,
        relations: list[Relation],
        scoring: Scoring,
        *,
        kind: AccessKind,
        query: np.ndarray,
        bound: BoundingScheme,
        pull: PullingStrategy,
        k: int,
        bound_period: int = 1,
        pull_block: int = 1,
        vectorise: bool = True,
        stream_factory=None,
        max_pulls: int | None = None,
        should_stop: Callable[[], bool] | None = None,
    ) -> None:
        if not relations:
            raise ValueError("need at least one relation")
        if k < 1:
            raise ValueError("K must be >= 1")
        if bound_period < 1:
            raise ValueError("bound_period must be >= 1")
        if pull_block < 1:
            raise ValueError("pull_block must be >= 1")
        if max_pulls is not None and max_pulls < 1:
            raise ValueError("max_pulls must be >= 1 (or None)")
        dims = {r.dim for r in relations}
        if len(dims) != 1:
            raise ValueError(f"relations disagree on dimensionality: {sorted(dims)}")
        names = [r.name for r in relations]
        if len(set(names)) != len(names):
            raise ValueError(f"relation names must be unique, got {names}")
        self.relations = relations
        self.scoring = scoring
        self.kind = kind
        self.query = np.asarray(query, dtype=float)
        self.bound = bound
        self.pull = pull
        self.k = k
        self.bound_period = bound_period
        self.pull_block = pull_block
        self.vectorise = vectorise
        self.stream_factory = stream_factory
        self.max_pulls = max_pulls
        self.should_stop = should_stop

    def run(self) -> RunResult:
        """Execute Algorithm 1 and return the instrumented result."""
        if self.stream_factory is not None:
            streams = self.stream_factory()
            if len(streams) != len(self.relations):
                raise ValueError(
                    f"stream_factory returned {len(streams)} streams for "
                    f"{len(self.relations)} relations"
                )
            for j, stream in enumerate(streams):
                for attr in ("prefix", "next_block"):
                    if getattr(stream, attr, None) is None:
                        raise TypeError(
                            f"stream_factory stream {j} ({stream!r}) has no "
                            f"{attr!r}; the engine reads every stream's "
                            "columnar prefix and pulls in blocks"
                        )
        else:
            streams = open_streams(self.relations, self.kind, self.query)
        state = EngineState(
            scoring=self.scoring,
            kind=self.kind,
            query=self.query,
            streams=streams,
            k=self.k,
            output=TopKBuffer(self.k),
        )
        self.pull.reset()
        batch_scorer = (
            QuadraticBatchScorer(self.scoring, self.query)
            if self.vectorise and isinstance(self.scoring, QuadraticFormScoring)
            else None
        )
        if batch_scorer is not None:
            batch_scorer.bind_streams(streams)
        # Block mode prunes hopeless blocks before scoring them; per-tuple
        # mode keeps the paper's exact work profile (the scorer's own
        # admission filter already handles single pulls).
        pruner = (
            CandidatePruner(batch_scorer)
            if batch_scorer is not None and self.pull_block > 1
            else None
        )
        # The timer starts *after* stream setup: opening streams sorts
        # their order heads, which RunResult.total_seconds documents as
        # excluded (tuple-fetch preparation, not engine work).
        start = time.perf_counter()
        t = INFINITY
        pulls = 0
        pulls_at_bound = 0
        combos_formed = 0
        completed = True

        # Stopping rule: the paper's Algorithm 1 stops at kth >= t, which
        # certifies the top-K *scores* but lets an unseen combination tie
        # the K-th score — and ties resolve by tuple id, so the retained
        # representative would depend on the pull schedule (and hence on
        # pull_block).  We certify strictly (continue while kth <= t): at
        # termination every unseen combination scores strictly below the
        # K-th score, making the ranked top-K — tie-breaks included — a
        # pure function of the data, bit-identical across block sizes,
        # strategies and the brute-force oracle.  For continuous scores
        # the equality case has probability zero, so the I/O cost of the
        # stricter rule is confined to genuinely tied data.
        while len(state.output) < self.k or state.output.kth_score <= t:
            if all(s.exhausted for s in streams):
                break  # the cross product is fully enumerated
            if self.max_pulls is not None and pulls >= self.max_pulls:
                completed = False
                break
            if self.should_stop is not None and self.should_stop():
                completed = False
                break
            i = self.pull.choose_input(state, self.bound)
            if streams[i].exhausted:
                # A misbehaving strategy returned an exhausted stream.
                # Re-choose here — the single place exhaustion is skipped —
                # so the loop always makes progress and max_pulls cannot
                # be bypassed by repeated no-op pulls.
                i = next(j for j, s in enumerate(streams) if not s.exhausted)
            budget = self.pull_block
            if self.max_pulls is not None:
                budget = min(budget, self.max_pulls - pulls)
            try:
                block = streams[i].next_block(budget)
            except StreamInterrupted:
                completed = False
                break
            if not block:
                # The stream only discovered its exhaustion on this pull
                # (e.g. a remote service returning an empty page); it now
                # reports exhausted, so the next iteration skips it.
                continue
            pulls += len(block)

            # Line 6-7: form combinations P_1 x ... x B_i x ... x P_n,
            # the cross product of the pulled block against the other
            # relations' seen prefixes, in one vectorised pass.
            if batch_scorer is not None:
                depth_i = streams[i].depth
                ranges = [
                    (i, depth_i - len(block), depth_i)
                    if j == i
                    else (j, 0, streams[j].depth)
                    for j in range(state.n)
                ]
                if pruner is None or pruner.admit_ranges(
                    ranges, state.output.kth_score
                ):
                    combos_formed += batch_scorer.add_cross_ranges(
                        ranges, state.output
                    )
            else:
                pools = [
                    block if j == i else streams[j].seen for j in range(state.n)
                ]
                combos_formed += self._form_combinations(state, pools)

            # Line 9: refresh the bound, once per block at most.  With
            # bound_period > 1 (or blocks) the stale t is reused between
            # refreshes — bounds only decrease as accesses accumulate, so
            # a stale t is a correct (looser) upper bound; schemes
            # synchronise against the streams, so skipped pulls are
            # absorbed by the next update.
            if pulls - pulls_at_bound >= self.bound_period or all(
                s.exhausted for s in streams
            ):
                t = self.bound.update(state, i, block[-1])
                pulls_at_bound = pulls

        total = time.perf_counter() - start
        counters = self.bound.counters
        counter_dict = counters.as_dict()
        if pruner is not None:
            counter_dict.update(pruner.as_dict())
        return RunResult(
            combinations=state.output.ranked(),
            depths=state.depths(),
            bound=t,
            total_seconds=total,
            bound_seconds=counters.bound_seconds,
            dominance_seconds=counters.dominance_seconds,
            combinations_formed=combos_formed,
            counters=counter_dict,
            completed=completed,
            solver_seconds=counters.solver_seconds,
        )

    def _form_combinations(self, state: EngineState, pools: list[list]) -> int:
        """Materialise and score the cross product of ``pools``."""
        if any(not pool for pool in pools):
            return 0
        scoring = self.scoring
        query = self.query
        output = state.output
        count = 0
        # Iterative odometer over the pools (cheaper than itertools.product
        # plus per-item function calls for the hot n=2/3 cases).
        idx = [0] * len(pools)
        sizes = [len(p) for p in pools]
        while True:
            tuples = tuple(pools[j][idx[j]] for j in range(len(pools)))
            output.add(scoring.make_combination(tuples, query))
            count += 1
            j = len(pools) - 1
            while j >= 0:
                idx[j] += 1
                if idx[j] < sizes[j]:
                    break
                idx[j] = 0
                j -= 1
            if j < 0:
                break
        return count

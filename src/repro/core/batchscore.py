"""Columnar combination scoring for quadratic-form aggregations.

Algorithm 1's line 6 forms ``P_1 x ... x {tau} x ... x P_n`` after every
pull; with corner-bound algorithms at n >= 3 this cross product is the
dominant CPU cost (the paper's Figure 3(k) shows CBPA drowning in
combination formation).  For the quadratic family (2) the aggregate score
separates::

    S(tau) = sum_i [w_s u(sigma_i) - (w_q + w_mu) ||x_i - q||^2]
             + (w_mu / n) || sum_i (x_i - q) ||^2

using ``sum_i ||x_i - mu||^2 = sum_i ||x_i||^2 - (1/n) ||sum_i x_i||^2``
for the mean centroid.  Both terms are outer sums over the pools, so a
whole batch is scored with broadcasting.

The scorer is **columnar**: :meth:`QuadraticBatchScorer.bind_streams`
attaches one :class:`_PrefixSlab` per access stream — a derived
structure-of-arrays cache, aligned with the stream's
:class:`~repro.core.columnar.ColumnarPrefix`, holding the centred vectors
``x - q``, the per-tuple scalar ``w_s u(sigma) - (w_q + w_mu)||x - q||^2``,
the centred norms, and *running per-prefix maxima* of the pruning
statistics.  Slabs grow append-only in amortised O(1) per pulled tuple;
everything downstream indexes by **access position**:

* :meth:`QuadraticBatchScorer.score_ranges` scores a cross product of
  prefix ranges with pure broadcasting over slab slices — no per-pull
  Python loop, no ``(relation, tid)`` dict hashing;
* :meth:`QuadraticBatchScorer.ranges_upper_bound` bounds a block cross
  product in O(1) per full prefix by reading the running maxima, which
  makes :meth:`CandidatePruner.admit_ranges` an O(1)-per-block admission
  test;
* :meth:`QuadraticBatchScorer.add_cross_ranges` materialises only the
  handful of candidates that can possibly enter the top-K buffer (their
  scores recomputed by the canonical scalar path, so downstream ordering
  is bit-identical to the object-per-tuple engine) and admits them via
  :meth:`~repro.core.buffers.TopKBuffer.add_many`.
"""

from __future__ import annotations

import numpy as np

from repro.core.buffers import TopKBuffer
from repro.core.scoring import QuadraticFormScoring

__all__ = ["QuadraticBatchScorer", "CandidatePruner"]

#: Extra candidates materialised beyond K to absorb float-associativity
#: reordering between the batched and the canonical score evaluation.
_SLACK = 8

#: One range of one stream's prefix, by access position: (stream index,
#: start, stop).  The engine passes (j, 0, depth_j) for the full seen
#: prefixes and (i, depth_i - b, depth_i) for the pulled block.
Range = tuple[int, int, int]


class _PrefixSlab:
    """Scoring-derived columnar cache over one stream's prefix.

    Aligned with the stream's access order; row ``p`` derives from the
    ``p``-th pulled tuple.  Arrays grow by doubling, and each sync
    vectorises over just the newly pulled suffix, so maintaining a slab
    costs amortised O(1) per pull.
    """

    __slots__ = (
        "scoring",
        "query",
        "synced",
        "centred",
        "scalar",
        "norm",
        "cheap",
        "max_scalar",
        "max_norm",
        "max_cheap",
    )

    def __init__(self, scoring: QuadraticFormScoring, query: np.ndarray) -> None:
        self.scoring = scoring
        self.query = query
        self.synced = 0
        d = len(query)
        cap = 16
        self.centred = np.empty((cap, d))
        #: w_s u(sigma) - (w_q + w_mu) ||x - q||^2, the separated scalar.
        self.scalar = np.empty(cap)
        self.norm = np.empty(cap)
        #: scalar + w_mu ||x - q||^2 — the centroid-decoupled relaxation.
        self.cheap = np.empty(cap)
        self.max_scalar = np.empty(cap)
        self.max_norm = np.empty(cap)
        self.max_cheap = np.empty(cap)

    def _grow(self, needed: int) -> None:
        cap = len(self.scalar)
        while cap < needed:
            cap *= 2
        p = self.synced
        for name in self.__slots__[3:]:
            old = getattr(self, name)
            fresh = np.empty((cap,) + old.shape[1:])
            fresh[:p] = old[:p]
            setattr(self, name, fresh)

    def sync(self, prefix, depth: int) -> None:
        """Derive rows ``[synced, depth)`` from the stream's raw prefix."""
        lo = self.synced
        if depth <= lo:
            return
        if depth > len(self.scalar):
            self._grow(depth)
        vecs, scores, _ = prefix.arrays(lo, depth)
        scoring = self.scoring
        centred = vecs - self.query
        sq = np.einsum("ij,ij->i", centred, centred)
        scalar = scoring.w_s * scoring.score_utility_array(scores) - (
            scoring.w_q + scoring.w_mu
        ) * sq
        self.centred[lo:depth] = centred
        self.scalar[lo:depth] = scalar
        self.norm[lo:depth] = np.sqrt(sq)
        cheap = scalar + scoring.w_mu * sq
        self.cheap[lo:depth] = cheap
        # Running maxima, seeded with the previous prefix maximum so a
        # full-prefix bound is one array read.
        for src, dst in (
            (self.scalar, self.max_scalar),
            (self.norm, self.max_norm),
            (self.cheap, self.max_cheap),
        ):
            chunk = src[lo:depth]
            if lo:
                chunk = np.maximum(chunk, dst[lo - 1])
            dst[lo:depth] = np.maximum.accumulate(chunk)
        self.synced = depth


class QuadraticBatchScorer:
    """Batch scorer bound to one (scoring, query) pair.

    Per-tuple statistics (utility-minus-distance scalar and the centred
    feature vector) are cached across calls in columnar slabs indexed by
    the bound streams' access positions.
    """

    def __init__(self, scoring: QuadraticFormScoring, query: np.ndarray) -> None:
        self.scoring = scoring
        self.query = np.asarray(query, dtype=float)
        self._streams: list | None = None
        self._slabs: list[_PrefixSlab] = []

    def bind_streams(self, streams: list) -> None:
        """Attach one prefix slab per stream; ranges index these streams'
        columnar prefixes."""
        self._streams = streams
        self._slabs = [_PrefixSlab(self.scoring, self.query) for _ in streams]

    def _slab(self, j: int, hi: int) -> _PrefixSlab:
        slab = self._slabs[j]
        if slab.synced < hi:
            slab.sync(self._streams[j].prefix, hi)
        return slab

    def score_ranges(self, ranges: list[Range]) -> np.ndarray:
        """Aggregate scores of the cross product of prefix ranges.

        Returns an n-dimensional array indexed like the ranges.  Pure
        broadcasting over cached slab slices: the per-tuple statistics
        were derived when the tuples were pulled, so re-scoring a prefix
        against a new block costs array arithmetic only.
        """
        n = len(ranges)
        acc_scalar = np.zeros(())
        acc_vec = np.zeros((len(self.query),))
        for j, lo, hi in ranges:
            slab = self._slab(j, hi)
            acc_scalar = acc_scalar[..., None] + slab.scalar[lo:hi]
            acc_vec = acc_vec[..., None, :] + slab.centred[lo:hi]
        spread = np.einsum("...d,...d->...", acc_vec, acc_vec)
        return acc_scalar + (self.scoring.w_mu / n) * spread

    def add_cross_ranges(self, ranges: list[Range], output: TopKBuffer) -> int:
        """Score the cross product of ``ranges`` and offer the viable
        candidates to the top-K buffer.  Returns combinations scored.

        The aggregate separates into a broadcast sum of cached per-tuple
        scalars plus a non-negative spread term, so the K-th score
        admits a staged sieve that avoids ever materialising the
        ``(..., d)`` centred-vector broadcast — the dominant memory
        traffic of dense scoring:

        1. dense scalar grid + *constant* spread cap (range norm maxima,
           O(1) from the slabs): drops every combination whose scalar sum
           alone sinks it;
        2. per-survivor norm-sum cap (gathered, sparse): tightens the
           spread bound per combination;
        3. exact spread for the remaining handful.

        Each stage's cap dominates the true score up to float rounding,
        and the sieve keeps a strict superset of everything within
        ``1e-9`` of the K-th score (2e-9 thresholds absorb the rounding),
        so the surviving cohort — and hence the buffer's retained set,
        which is decided by canonically recomputed scores — is identical
        to dense scoring's.
        """
        if any(hi <= lo for _, lo, hi in ranges):
            return 0
        n = len(ranges)
        w_mu = self.scoring.w_mu
        kth = output.kth_score
        slabs = [self._slab(j, hi) for j, _, hi in ranges]
        acc = np.zeros(())
        for slab, (_, lo, hi) in zip(slabs, ranges):
            acc = acc[..., None] + slab.scalar[lo:hi]
        shape = acc.shape
        total = acc.size
        flat_scalar = acc.ravel()
        coords: tuple[np.ndarray, ...] | None = None
        if kth == -np.inf:
            # Buffer not yet full: everything is viable, score densely
            # (depths are small this early).
            idx = np.arange(total)
            exact = self.score_ranges(ranges).ravel()
        elif w_mu == 0.0:
            idx = np.nonzero(flat_scalar >= kth - 2e-9)[0]
            exact = flat_scalar[idx]
        else:
            norm_cap = 0.0
            for slab, (_, lo, hi) in zip(slabs, ranges):
                norm_cap += (
                    slab.max_norm[hi - 1] if lo == 0 else slab.norm[lo:hi].max()
                )
            spread_cap = (w_mu / n) * norm_cap * norm_cap
            idx = np.nonzero(flat_scalar >= kth - 2e-9 - spread_cap)[0]
            if idx.size:
                coords = np.unravel_index(idx, shape)
                norm_sum = np.zeros(idx.size)
                for slab, (_, lo, _), c in zip(slabs, ranges, coords):
                    norm_sum += slab.norm[lo + c]
                upper = flat_scalar[idx] + (w_mu / n) * norm_sum * norm_sum
                alive = upper >= kth - 2e-9
                idx = idx[alive]
                coords = tuple(c[alive] for c in coords)
            if idx.size:
                vsum = np.zeros((idx.size, len(self.query)))
                for slab, (_, lo, _), c in zip(slabs, ranges, coords):
                    vsum += slab.centred[lo + c]
                exact = flat_scalar[idx] + (w_mu / n) * np.einsum(
                    "md,md->m", vsum, vsum
                )
            else:
                exact = np.zeros(0)
        if idx.size == 0:
            return total
        # Same viable cut as the dense path (the sieve keeps a superset
        # of every candidate above the floor, so the floor — and the
        # selected cohort — matches dense scoring exactly).  The cut
        # keeps every candidate tied with the boundary, not an arbitrary
        # ``keep`` of them, so the buffer applies the tuple-id tie-break
        # over the whole tied cohort, as the sequential engine does.
        m = idx.size
        keep = min(m, output.k + _SLACK)
        if keep < m:
            boundary = np.argpartition(exact, m - keep)[m - keep :]
            floor = max(float(exact[boundary].min()), kth) - 1e-9
            sel = exact >= floor
            idx = idx[sel]
            exact = exact[sel]
        order = np.argsort(-exact, kind="stable")
        final = np.unravel_index(idx[order], shape)
        seens = [self._streams[j].seen for j, _, _ in ranges]
        offsets = [lo for _, lo, _ in ranges]
        scoring = self.scoring
        query = self.query
        combos = [
            scoring.make_combination(
                tuple(
                    seen[off + int(c)]
                    for seen, off, c in zip(seens, offsets, pos)
                ),
                query,
            )
            for pos in zip(*final)
        ]
        output.add_many(combos)
        return total

    def ranges_upper_bound(self, ranges: list[Range]) -> float:
        """Upper bound on the best score in the cross product of
        ``ranges`` — O(1) per full prefix via the slabs' running maxima
        (a suffix range, i.e. the pulled block, reduces over its own
        (small) slice).

        Uses the separated form of the quadratic family: with
        ``scalar(t) = w_s u(sigma) - (w_q + w_mu) ||x - q||^2`` and
        ``v(t) = x - q``, two correct relaxations of

            S = sum_i scalar(t_i) + (w_mu / n) || sum_i v(t_i) ||^2

        are combined:

        * triangle inequality:
          ``S <= sum_i max scalar + (w_mu / n) (sum_i max ||v||)^2``
        * dropping the centroid coupling via ``||sum v||^2 <= n sum
          ||v||^2``, which cancels the ``w_mu`` distance charge per tuple:
          ``S <= sum_i max [w_s u(sigma) - w_q ||x - q||^2]``

        The second is what bites for far-away blocks (their ``- w_q
        ||x - q||^2`` term sinks the sum); the first wins when ``w_q`` is
        tiny.
        """
        w_mu = self.scoring.w_mu
        sum_scalar = 0.0
        norm_sum = 0.0
        sum_cheap = 0.0
        for j, lo, hi in ranges:
            slab = self._slab(j, hi)
            if lo == 0:
                pool_scalar = slab.max_scalar[hi - 1]
                pool_norm = slab.max_norm[hi - 1]
                pool_cheap = slab.max_cheap[hi - 1]
            else:
                pool_scalar = slab.scalar[lo:hi].max()
                pool_norm = slab.norm[lo:hi].max()
                pool_cheap = slab.cheap[lo:hi].max()
            sum_scalar += pool_scalar
            norm_sum += pool_norm
            sum_cheap += pool_cheap
        triangle = sum_scalar + (w_mu / len(ranges)) * norm_sum * norm_sum
        return float(min(triangle, sum_cheap))


class CandidatePruner:
    """Engine-level admission test for candidate blocks.

    Before a block cross product is scored, an upper bound on its best
    achievable aggregate score is compared against the current K-th
    score.  A block that provably cannot place a combination into the
    top-K buffer is skipped without scoring or materialising anything.
    The bound (:meth:`admit_ranges`) reads the slabs' running per-prefix
    maxima, so admission costs O(1) per block instead of a rescan of
    every pool tuple.

    The bound overestimates, and ties at the K-th score survive the
    epsilon guard, so pruning never changes the engine's ranked top-K —
    only the work done to reach it.
    """

    def __init__(self, scorer: QuadraticBatchScorer) -> None:
        self.scorer = scorer
        self.blocks_pruned = 0
        self.blocks_scored = 0
        self.combinations_pruned = 0

    def admit_ranges(self, ranges: list[Range], kth_score: float) -> bool:
        """Whether the cross product of prefix ranges must be scored."""
        if any(hi <= lo for _, lo, hi in ranges):
            return False  # nothing to form; not counted as a pruned block
        if kth_score == -np.inf:
            self.blocks_scored += 1
            return True
        if self.scorer.ranges_upper_bound(ranges) < kth_score - 1e-9:
            self.blocks_pruned += 1
            size = 1
            for _, lo, hi in ranges:
                size *= hi - lo
            self.combinations_pruned += size
            return False
        self.blocks_scored += 1
        return True

    def as_dict(self) -> dict[str, float]:
        return {
            "blocks_pruned": self.blocks_pruned,
            "blocks_scored": self.blocks_scored,
            "combinations_pruned": self.combinations_pruned,
        }

"""Micro-benchmarks of this reproduction's building blocks.

Not figures of the paper.  Each case times one building block, most of
them beside the simpler alternative on the same input:

* opening a head-sorted distance stream and reading a short prefix;
* the batched bound QP vs the scalar active-set solver;
* the columnar combination scorer vs naive per-tuple scoring;
* the witness pre-pass inside the dominance test vs LP-for-everyone;
* the anchor-and-probe extension vs TBPA on the same clustered data,
  and TBPA on the Table 2 default cell.
"""

import itertools

import numpy as np
import pytest

from repro.core import AccessKind, EuclideanLogScoring, Relation, TopKBuffer, tbpa
from repro.core.access import DistanceAccess, open_streams
from repro.core.batchscore import QuadraticBatchScorer
from repro.core.bounds.dominance import dominated_mask
from repro.optim.qp import solve_bound_qp, solve_bound_qp_batch, spread_matrix

RNG = np.random.default_rng(123)


def _relation(size=2000, d=2, name="R"):
    return Relation(
        name,
        RNG.uniform(0.05, 1.0, size),
        RNG.uniform(-3.0, 3.0, (size, d)),
        sigma_max=1.0,
    )


class TestAccessPaths:
    def test_presorted_prefix(self, benchmark):
        """Opening a 2000-tuple relation's distance stream (one rank pass,
        a 256-row head sort) and reading a 50-tuple prefix."""
        rel = _relation()
        query = np.zeros(2)

        def prefix():
            stream = DistanceAccess(rel, query)
            return [stream.next() for _ in range(50)]

        out = benchmark(prefix)
        assert len(out) == 50


class TestQPPaths:
    def _instances(self, count=256, n=3):
        h = spread_matrix(n, 1.0, 1.0)
        fixed_vals = RNG.normal(size=(count, 1))
        lower = {1: 0.7, 2: 1.4}
        return h, fixed_vals, lower

    def test_scalar_qp(self, benchmark):
        h, fixed_vals, lower = self._instances()

        def run():
            return [
                solve_bound_qp(h, fixed={0: float(v[0])}, lower=lower).value
                for v in fixed_vals
            ]

        values = benchmark(run)
        assert len(values) == 256

    def test_batch_qp(self, benchmark):
        h, fixed_vals, lower = self._instances()
        lower_idx = sorted(lower)
        lower_vals = np.array([lower[j] for j in lower_idx])

        def run():
            vals, _ = solve_bound_qp_batch(h, [0], fixed_vals, lower_idx, lower_vals)
            return vals

        values = benchmark(run)
        assert len(values) == 256
        # Cross-check once against the scalar path.
        ref = solve_bound_qp(h, fixed={0: float(fixed_vals[0, 0])}, lower=dict(zip(lower_idx, lower_vals)))
        assert values[0] == pytest.approx(ref.value, abs=1e-9)


class TestCombinationScoring:
    def _pools(self, sizes=(60, 60)):
        pools = []
        for i, size in enumerate(sizes):
            pools.append(list(_relation(size, name=f"P{i}")))
        return pools

    def test_vectorised_scorer(self, benchmark):
        """Two 60-tuple relations opened through ``open_streams`` and
        pulled whole; a fresh scorer derives its slabs and scores the
        full range cross product."""
        scoring = EuclideanLogScoring()
        query = np.zeros(2)
        relations = [_relation(60, name=f"P{i}") for i in range(2)]
        streams = open_streams(relations, AccessKind.DISTANCE, query)
        for stream in streams:
            stream.next_block(60)
        ranges = [(0, 0, 60), (1, 0, 60)]

        def run():
            scorer = QuadraticBatchScorer(scoring, query)
            scorer.bind_streams(streams)
            buf = TopKBuffer(10)
            scorer.add_cross_ranges(ranges, buf)
            return buf.ranked()

        top = benchmark(run)
        assert len(top) == 10

    def test_naive_scorer(self, benchmark):
        scoring = EuclideanLogScoring()
        query = np.zeros(2)
        pools = self._pools()

        def run():
            buf = TopKBuffer(10)
            for tuples in itertools.product(*pools):
                buf.add(scoring.make_combination(tuples, query))
            return buf.ranked()

        top = benchmark(run)
        assert len(top) == 10


class TestDominancePaths:
    def _coeffs(self, u=100, d=2):
        bs = RNG.normal(size=(u, d))
        cs = RNG.normal(size=u)
        return bs, cs

    def test_with_witness_prepass(self, benchmark):
        bs, cs = self._coeffs()

        def run():
            mask, lps = dominated_mask(
                bs, cs, np.zeros(len(cs), dtype=bool), quad_coeff=1.0
            )
            return mask, lps

        mask, lps = benchmark(run)
        # The pre-pass should spare most entries the LP.
        assert lps <= mask.size

    def test_without_witness_prepass(self, benchmark):
        bs, cs = self._coeffs()

        def run():
            # quad_coeff <= 0 disables the pre-pass: every live entry LPs.
            return dominated_mask(
                bs, cs, np.zeros(len(cs), dtype=bool), quad_coeff=0.0
            )

        mask, _ = benchmark.pedantic(run, rounds=1, iterations=1)
        assert mask.size == 100


class TestEndToEndReference:
    def test_default_cell_tbpa(self, benchmark):
        """The Table 2 default cell: the headline configuration."""
        relations = [_relation(400, name=f"R{i}") for i in range(2)]
        query = np.zeros(2)
        scoring = EuclideanLogScoring()

        def run():
            return tbpa(relations, scoring, query, 10, kind=AccessKind.DISTANCE).run()

        result = benchmark(run)
        assert result.completed


class TestRandomAccessExtension:
    def test_probe_join(self, benchmark):
        """The anchor-and-probe extension on clustered data (its sweet
        spot: co-located winners, collapsing probe radius)."""
        from repro.core import ProbeRankJoin
        from repro.data import clustered_problem

        relations, query = clustered_problem(n_tuples=300, seed=5)
        scoring = EuclideanLogScoring(1.0, 1.0, 4.0)

        def run():
            return ProbeRankJoin(relations, scoring, query, 5).run()

        result = benchmark(run)
        assert len(result.combinations) == 5

    def test_sorted_only_reference(self, benchmark):
        """TBPA on the same workload, for the probe-vs-sorted comparison."""
        from repro.core import tbpa
        from repro.data import clustered_problem

        relations, query = clustered_problem(n_tuples=300, seed=5)
        scoring = EuclideanLogScoring(1.0, 1.0, 4.0)

        def run():
            return tbpa(relations, scoring, query, 5, kind=AccessKind.DISTANCE).run()

        result = benchmark(run)
        assert result.completed

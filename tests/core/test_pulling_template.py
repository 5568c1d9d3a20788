"""Tests for pulling strategies and engine-level behaviour."""

import numpy as np
import pytest

from repro.core import (
    AccessKind,
    CornerBound,
    EuclideanLogScoring,
    PotentialAdaptive,
    ProxRJ,
    Relation,
    RoundRobin,
    TightBound,
    TopKBuffer,
)
from repro.core.access import open_streams
from repro.core.bounds.base import EngineState


def tiny_relations(n=2, size=6, seed=0, d=2):
    rng = np.random.default_rng(seed)
    return [
        Relation(
            f"R{i}", rng.uniform(0.05, 1, size), rng.uniform(-2, 2, (size, d)),
            sigma_max=1.0,
        )
        for i in range(n)
    ], np.zeros(d)


def make_state(relations, query, kind=AccessKind.DISTANCE, k=2):
    return EngineState(
        scoring=EuclideanLogScoring(),
        kind=kind,
        query=query,
        streams=open_streams(relations, kind, query),
        k=k,
        output=TopKBuffer(k),
    )


class TestRoundRobin:
    def test_cycles_in_order(self):
        relations, query = tiny_relations(n=3)
        state = make_state(relations, query)
        rr = RoundRobin()
        bound = CornerBound()
        order = []
        for _ in range(6):
            i = rr.choose_input(state, bound)
            order.append(i)
            state.streams[i].next()
        assert order == [0, 1, 2, 0, 1, 2]

    def test_skips_exhausted(self):
        r1 = Relation("R1", [1.0], [[0.0, 0.0]], sigma_max=1.0)
        r2 = Relation("R2", [1.0, 0.9], [[0.0, 0.0], [1.0, 1.0]], sigma_max=1.0)
        state = make_state([r1, r2], np.zeros(2))
        rr = RoundRobin()
        bound = CornerBound()
        picks = []
        for _ in range(3):
            i = rr.choose_input(state, bound)
            picks.append(i)
            state.streams[i].next()
        assert picks == [0, 1, 1]

    def test_reset(self):
        relations, query = tiny_relations(n=2)
        state = make_state(relations, query)
        rr = RoundRobin()
        bound = CornerBound()
        rr.choose_input(state, bound)
        rr.reset()
        assert rr.choose_input(state, bound) == 0

    def test_all_exhausted_raises(self):
        r = Relation("R", [1.0], [[0.0, 0.0]], sigma_max=1.0)
        state = make_state([r], np.zeros(2))
        state.streams[0].next()
        with pytest.raises(RuntimeError, match="exhausted"):
            RoundRobin().choose_input(state, CornerBound())


class TestPotentialAdaptive:
    def test_prefers_higher_potential(self):
        # R1's frontier is much farther out than R2's, so with the corner
        # bound, deepening R2 has higher potential.
        r1 = Relation("R1", [1.0, 1.0], [[5.0, 0.0], [6.0, 0.0]], sigma_max=1.0)
        r2 = Relation("R2", [1.0, 1.0], [[0.1, 0.0], [0.2, 0.0]], sigma_max=1.0)
        state = make_state([r1, r2], np.zeros(2))
        bound = CornerBound()
        pa = PotentialAdaptive()
        # Two pulls from R1, one from R2: R1's frontier distance (6) makes
        # its corner term far worse than R2's (0.1), so R2 has higher
        # potential despite being shallower.
        for i in (0, 1, 0):
            tau = state.streams[i].next()
            bound.update(state, i, tau)
        assert pa.choose_input(state, bound) == 1

    def test_tie_breaks_by_depth_then_index(self):
        relations, query = tiny_relations(n=2, seed=3)
        state = make_state(relations, query)
        bound = CornerBound()  # no accesses yet: potentials equal
        pa = PotentialAdaptive()
        assert pa.choose_input(state, bound) == 0
        state.streams[0].next()
        # Now depths (1, 0): equal potentials -> pick least depth = R2.
        assert pa.choose_input(state, bound) in (0, 1)

    def test_skips_exhausted(self):
        r1 = Relation("R1", [1.0], [[0.0, 0.0]], sigma_max=1.0)
        r2 = Relation("R2", [1.0, 0.9], [[0.0, 0.0], [1.0, 1.0]], sigma_max=1.0)
        state = make_state([r1, r2], np.zeros(2))
        state.streams[0].next()  # exhaust R1
        pa = PotentialAdaptive()
        assert pa.choose_input(state, CornerBound()) == 1


class TestEngineValidation:
    def test_empty_relations(self):
        with pytest.raises(ValueError, match="at least one"):
            ProxRJ(
                [], EuclideanLogScoring(), kind=AccessKind.DISTANCE,
                query=np.zeros(2), bound=CornerBound(), pull=RoundRobin(), k=1,
            )

    def test_bad_k(self):
        relations, query = tiny_relations()
        with pytest.raises(ValueError, match="K"):
            ProxRJ(
                relations, EuclideanLogScoring(), kind=AccessKind.DISTANCE,
                query=query, bound=CornerBound(), pull=RoundRobin(), k=0,
            )

    def test_bad_bound_period(self):
        relations, query = tiny_relations()
        with pytest.raises(ValueError, match="bound_period"):
            ProxRJ(
                relations, EuclideanLogScoring(), kind=AccessKind.DISTANCE,
                query=query, bound=CornerBound(), pull=RoundRobin(), k=1,
                bound_period=0,
            )

    def test_bad_max_pulls(self):
        relations, query = tiny_relations()
        with pytest.raises(ValueError, match="max_pulls"):
            ProxRJ(
                relations, EuclideanLogScoring(), kind=AccessKind.DISTANCE,
                query=query, bound=CornerBound(), pull=RoundRobin(), k=1,
                max_pulls=0,
            )

    def test_dimension_mismatch(self):
        r1 = Relation("R1", [1.0], [[0.0, 0.0]])
        r2 = Relation("R2", [1.0], [[0.0]])
        with pytest.raises(ValueError, match="dimensionality"):
            ProxRJ(
                [r1, r2], EuclideanLogScoring(), kind=AccessKind.DISTANCE,
                query=np.zeros(2), bound=CornerBound(), pull=RoundRobin(), k=1,
            )

    def test_duplicate_names(self):
        r1 = Relation("R", [1.0], [[0.0]])
        r2 = Relation("R", [1.0], [[1.0]])
        with pytest.raises(ValueError, match="unique"):
            ProxRJ(
                [r1, r2], EuclideanLogScoring(), kind=AccessKind.DISTANCE,
                query=np.zeros(1), bound=CornerBound(), pull=RoundRobin(), k=1,
            )

    def test_stream_factory_count_mismatch(self):
        relations, query = tiny_relations()
        engine = ProxRJ(
            relations, EuclideanLogScoring(), kind=AccessKind.DISTANCE,
            query=query, bound=CornerBound(), pull=RoundRobin(), k=1,
            stream_factory=lambda: [],
        )
        with pytest.raises(ValueError, match="stream_factory"):
            engine.run()

    @pytest.mark.parametrize("missing", ["prefix", "next_block"])
    def test_stream_factory_stream_without_columnar_api_rejected(self, missing):
        """A factory stream must carry a columnar prefix and block pulls;
        the engine names the stream and the attribute instead of falling
        back to another path."""
        relations, query = tiny_relations()

        class Hidden:
            """A working stream with one attribute hidden."""

            def __init__(self, inner):
                self._inner = inner

            def __getattr__(self, name):
                if name == missing:
                    raise AttributeError(name)
                return getattr(self._inner, name)

            def __repr__(self):
                return f"Hidden({self._inner.relation.name})"

        engine = ProxRJ(
            relations, EuclideanLogScoring(), kind=AccessKind.DISTANCE,
            query=query, bound=TightBound(), pull=RoundRobin(), k=2,
            stream_factory=lambda: [
                Hidden(s)
                for s in open_streams(relations, AccessKind.DISTANCE, query)
            ],
        )
        pattern = rf"stream 0 \(Hidden\(R0\)\) has no '{missing}'"
        with pytest.raises(TypeError, match=pattern):
            engine.run()


class TestEngineBehaviour:
    def test_max_pulls_flags_incomplete(self):
        relations, query = tiny_relations(size=30, seed=9)
        engine = ProxRJ(
            relations, EuclideanLogScoring(), kind=AccessKind.DISTANCE,
            query=query, bound=CornerBound(), pull=RoundRobin(), k=10,
            max_pulls=4,
        )
        result = engine.run()
        assert not result.completed
        assert result.sum_depths == 4

    def test_exhaustion_returns_full_ranking(self):
        relations, query = tiny_relations(size=3, seed=10)
        engine = ProxRJ(
            relations, EuclideanLogScoring(), kind=AccessKind.DISTANCE,
            query=query, bound=TightBound(), pull=RoundRobin(), k=9,
        )
        result = engine.run()
        assert len(result.combinations) == 9  # the whole cross product
        assert result.completed

    def test_k_larger_than_cross_product(self):
        relations, query = tiny_relations(size=2, seed=11)
        engine = ProxRJ(
            relations, EuclideanLogScoring(), kind=AccessKind.DISTANCE,
            query=query, bound=TightBound(), pull=RoundRobin(), k=100,
        )
        result = engine.run()
        assert len(result.combinations) == 4

    def test_results_sorted_descending(self):
        relations, query = tiny_relations(size=10, seed=12)
        result = ProxRJ(
            relations, EuclideanLogScoring(), kind=AccessKind.DISTANCE,
            query=query, bound=TightBound(), pull=PotentialAdaptive(), k=5,
        ).run()
        scores = [c.score for c in result.combinations]
        assert scores == sorted(scores, reverse=True)

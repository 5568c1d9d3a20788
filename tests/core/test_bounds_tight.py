"""Behavioural tests of the TightBound bookkeeping (Algorithms 2 and 3):
monotonicity, tightness against continuations, dead subsets, caching and
the dominance hook."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AccessKind,
    CosineProximityScoring,
    EuclideanLogScoring,
    Relation,
    TightBound,
    TopKBuffer,
    tbpa,
    tbrr,
)
from repro.core.access import open_streams
from repro.core.bounds.base import EngineState


def make_state(relations, kind, query, k=3):
    return EngineState(
        scoring=EuclideanLogScoring(1.0, 1.0, 1.0),
        kind=kind,
        query=query,
        streams=open_streams(relations, kind, query),
        k=k,
        output=TopKBuffer(k),
    )


def random_relations(seed, n=2, size=15, d=2):
    rng = np.random.default_rng(seed)
    return [
        Relation(
            f"R{i}",
            rng.uniform(0.05, 1.0, size),
            rng.uniform(-2, 2, (size, d)),
            sigma_max=1.0,
        )
        for i in range(n)
    ], rng.uniform(-1, 1, d)


def round_robin_updates(state, bound, rounds):
    """Pull round-robin, returning the bound value after every update."""
    values = []
    for _ in range(rounds):
        for i, s in enumerate(state.streams):
            tau = s.next()
            if tau is not None:
                values.append(bound.update(state, i, tau))
    return values


class TestBoundMonotonicity:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 500), st.sampled_from([AccessKind.DISTANCE, AccessKind.SCORE]))
    def test_bound_never_increases(self, seed, kind):
        relations, query = random_relations(seed)
        state = make_state(relations, kind, query)
        bound = TightBound()
        values = round_robin_updates(state, bound, rounds=6)
        for a, b in zip(values, values[1:]):
            assert b <= a + 1e-9

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 500))
    def test_tight_below_corner(self, seed):
        """The tight bound never exceeds the corner bound (it optimises
        over strictly more constraints)."""
        from repro.core import CornerBound

        relations, query = random_relations(seed)
        state_t = make_state(relations, AccessKind.DISTANCE, query)
        state_c = make_state(relations, AccessKind.DISTANCE, query)
        tight, corner = TightBound(), CornerBound()
        tv = round_robin_updates(state_t, tight, rounds=4)
        cv = round_robin_updates(state_c, corner, rounds=4)
        for t, c in zip(tv, cv):
            assert t <= c + 1e-7


class TestTightness:
    """Definition 2.2: with >= K seen combinations, the bound must be a
    potential score — achievable by a continuation.  We verify it is
    attained by the witness the optimiser provides, via brute force over
    an explicitly extended instance."""

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 200))
    def test_bound_upper_bounds_unseen_combinations(self, seed):
        relations, query = random_relations(seed, n=2, size=10)
        state = make_state(relations, AccessKind.DISTANCE, query)
        bound = TightBound()
        t = round_robin_updates(state, bound, rounds=3)[-1]
        scoring = state.scoring
        # Every *actual* combination with at least one unseen tuple must
        # score at most t.
        seen_ids = [set(tt.tid for tt in s.seen) for s in state.streams]
        for t0 in relations[0]:
            for t1 in relations[1]:
                unseen = t0.tid not in seen_ids[0] or t1.tid not in seen_ids[1]
                if unseen:
                    assert (
                        scoring.score_combination((t0, t1), query) <= t + 1e-7
                    )


class TestDeadSubsets:
    def test_exhausted_relation_kills_subsets(self):
        r1 = Relation("R1", [1.0, 0.9], [[0.1], [0.2]], sigma_max=1.0)
        r2 = Relation("R2", [1.0], [[0.3]], sigma_max=1.0)  # exhausts first
        state = make_state([r1, r2], AccessKind.DISTANCE, np.zeros(1))
        bound = TightBound()
        # Pull everything.
        for i, s in enumerate(state.streams):
            while True:
                tau = s.next()
                if tau is None:
                    break
                t = bound.update(state, i, tau)
        # All relations exhausted: no unseen combination exists.
        assert t == float("-inf")

    def test_partially_exhausted(self):
        r1 = Relation("R1", [1.0, 0.9, 0.8], [[0.1], [0.2], [5.0]], sigma_max=1.0)
        r2 = Relation("R2", [1.0], [[0.3]], sigma_max=1.0)
        state = make_state([r1, r2], AccessKind.DISTANCE, np.zeros(1))
        bound = TightBound()
        t = None
        state.streams[1].next()
        t = bound.update(state, 1, state.streams[1].seen[-1])
        state.streams[0].next()
        t = bound.update(state, 0, state.streams[0].seen[-1])
        # R2 exhausted: only subsets containing R2's index stay alive, so
        # the bound reflects completions with unseen tuples of R1 only.
        assert np.isfinite(t)
        pots = bound.potentials(state)
        assert np.isfinite(pots[0])
        assert pots[1] == float("-inf")


class TestCachingEquivalence:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 300))
    def test_batched_sync_equals_per_pull_updates(self, seed):
        """Updating once after several pulls must give the same bound as
        updating after every pull (the sync logic behind bound_period)."""
        relations, query = random_relations(seed, n=2, size=12)

        state_a = make_state(relations, AccessKind.DISTANCE, query)
        bound_a = TightBound()
        per_pull = round_robin_updates(state_a, bound_a, rounds=4)[-1]

        state_b = make_state(relations, AccessKind.DISTANCE, query)
        bound_b = TightBound()
        last = None
        for _ in range(4):
            for i, s in enumerate(state_b.streams):
                last = (i, s.next())
        batched = bound_b.update(state_b, *last)
        assert batched == pytest.approx(per_pull, abs=1e-9)

    def test_revalidation_counter_grows(self):
        relations, query = random_relations(11, n=2, size=15)
        state = make_state(relations, AccessKind.DISTANCE, query)
        bound = TightBound()
        round_robin_updates(state, bound, rounds=6)
        # Some cached optima must have been invalidated by growing deltas.
        assert bound.counters.entries_created > 0
        assert bound.counters.qp_solves >= bound.counters.entries_created


def tie_heavy_relations(seed, n=2, size=20, d=2):
    """:func:`random_relations` snapped to a 3-point grid per axis and a
    3-rung score ladder: repeated member vectors give partial
    combinations byte-identical ``b`` rows, which the equal-slope screen
    flags."""
    rng = np.random.default_rng(seed)
    return [
        Relation(
            f"R{i}",
            rng.choice([0.25, 0.5, 1.0], size),
            rng.choice([-1.0, 0.0, 1.0], (size, d)),
            sigma_max=1.0,
        )
        for i in range(n)
    ], np.zeros(d)


class TestDominanceIntegration:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("seed", range(13, 53))
    def test_dominated_entries_never_raise_bound(self, seed, n):
        """Dominance must not change the bound value at all, bit for bit:
        a dominated partial combination is beaten at every point by
        another row of its subset, so it can never carry the max.  The
        lazy pass rests on this — which rows it flags never moves t."""
        relations, query = random_relations(seed, n=n, size=15)
        state_plain = make_state(relations, AccessKind.DISTANCE, query)
        plain = TightBound()
        v_plain = round_robin_updates(state_plain, plain, rounds=6)

        state_dom = make_state(relations, AccessKind.DISTANCE, query)
        dom = TightBound(dominance_period=2)
        v_dom = round_robin_updates(state_dom, dom, rounds=6)
        assert v_dom == v_plain

    def test_dominance_flags_some_entries(self):
        """On tie-heavy data the screen flags rows even though the lazy
        pass sends no candidate at or below a certified row to an LP."""
        relations, query = tie_heavy_relations(17)
        state = make_state(relations, AccessKind.DISTANCE, query)
        bound = TightBound(dominance_period=1)
        round_robin_updates(state, bound, rounds=8)
        assert bound.counters.entries_dominated > 0
        assert bound.counters.dominance_seconds > 0

    def test_invalid_period_rejected(self):
        with pytest.raises(ValueError):
            TightBound(dominance_period=0)

    @pytest.mark.parametrize("strategy", [tbpa, tbrr], ids=["TBPA", "TBRR"])
    @pytest.mark.parametrize(
        "size,k,pull_block,bound_period,period",
        [
            (300, 10, 8, 1, 5),
            (300, 10, 8, 1, 12),
            (300, 10, 3, 1, 4),
            (300, 10, 1, 3, 2),
            (300, 10, 1, 2, 3),
            # Both streams run dry, so the last blocks are short.
            (11, 100, 4, 1, 4),
        ],
    )
    def test_period_counts_accesses_across_refreshes(
        self, strategy, size, k, pull_block, bound_period, period
    ):
        """A refresh runs one dominance pass iff the access count crossed
        a multiple of the period since the previous refresh, so block
        pulls, short blocks and ``bound_period`` keep the cadence instead
        of firing only every lcm(period, step) accesses, under either
        pulling strategy."""
        relations, query = random_relations(7, n=2, size=size)
        engine = strategy(
            relations, EuclideanLogScoring(1.0, 1.0, 1.0), query, k,
            kind=AccessKind.DISTANCE, pull_block=pull_block,
            bound_period=bound_period, dominance_period=period,
        )
        bound = engine.bound
        passes = []

        def counted(method):
            def run(*args):
                passes.append(1)
                return method(*args)

            return run

        bound._dominance_pass = counted(bound._dominance_pass)
        refreshes = []  # (accesses after the refresh, passes it ran)
        update = bound.update

        def traced(state, i, tau):
            before = len(passes)
            t = update(state, i, tau)
            refreshes.append((state.sum_depths(), len(passes) - before))
            return t

        bound.update = traced
        assert engine.run().completed
        expected, prev = [], 0
        for now, _ in refreshes:
            expected.append(int(prev // period < now // period))
            prev = now
        assert [ran for _, ran in refreshes] == expected
        assert sum(expected) >= 3


class TestGuards:
    def test_too_many_relations_rejected(self):
        relations = [
            Relation(f"R{i}", [1.0], [[float(i)]], sigma_max=1.0) for i in range(11)
        ]
        state = make_state(relations, AccessKind.DISTANCE, np.zeros(1))
        bound = TightBound()
        state.streams[0].next()
        with pytest.raises(ValueError, match="2\\^n"):
            bound.update(state, 0, state.streams[0].seen[-1])

    def test_non_quadratic_scoring_rejected(self):
        relations, query = random_relations(0)
        state = make_state(relations, AccessKind.DISTANCE, query)
        state.scoring = CosineProximityScoring()
        bound = TightBound()
        state.streams[0].next()
        with pytest.raises(TypeError, match="QuadraticFormScoring"):
            bound.update(state, 0, state.streams[0].seen[-1])


class TestScoreAccessAlgorithm3:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 300))
    def test_single_incumbent_per_subset(self, seed):
        relations, query = random_relations(seed, n=2, size=12)
        state = make_state(relations, AccessKind.SCORE, query)
        bound = TightBound()
        round_robin_updates(state, bound, rounds=5)
        store = bound._store
        # Score access keeps no rows in the distance path's store, only
        # one incumbent (a single member row) per subset.
        assert store.count == 0
        assert len(bound._incumbents) == 2**2 - 1
        for s, incumbent in enumerate(bound._incumbents):
            if incumbent is not None:
                scores, vecs = incumbent
                assert scores.shape == (store.size[s],)
                assert vecs.shape == (store.size[s], len(query))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 300))
    def test_score_bound_upper_bounds_unseen(self, seed):
        relations, query = random_relations(seed, n=2, size=10)
        state = make_state(relations, AccessKind.SCORE, query)
        bound = TightBound()
        t = round_robin_updates(state, bound, rounds=3)[-1]
        scoring = state.scoring
        seen_ids = [set(tt.tid for tt in s.seen) for s in state.streams]
        for t0 in relations[0]:
            for t1 in relations[1]:
                if t0.tid not in seen_ids[0] or t1.tid not in seen_ids[1]:
                    assert scoring.score_combination((t0, t1), query) <= t + 1e-7

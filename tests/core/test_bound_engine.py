"""Engine-level tests of the tight bound's QP path: every kernel call
against the enumeration, the masks it is handed, the geometry cache, the
solver-time split and the potentials memo.

* Every bound-QP call a TBPA/TBRR run makes returns values and thetas
  ``==`` the per-pattern enumeration on the same rows (the
  ``kernel_spy`` fixture of ``conftest.py``), dominance on and off,
  per-tuple and block-pull, capped and completed runs, and every QP the
  counters report goes through a checked call.
* Each kernel row fixes its subset's members and lower-bounds the other
  relations, gathered afresh from the store on every call.
* The bound computes each entry's completion geometry once, at append,
  in one call per subset size, and gathers it from the store on every
  later solve; the geometry of a row does not depend on the batch it was
  computed in.
* ``PotentialAdaptive`` consults the bound once per block; the memo must
  collapse repeat consultations of an unchanged bound version into cache
  hits (``potential_evals`` vs ``potential_consults``) without touching
  the run's outcome, and hand every caller its own copy.
"""

import numpy as np
import pytest

import repro.core.bounds.tight as tight
from repro.core import (
    AccessKind,
    EuclideanLogScoring,
    TightBound,
    TopKBuffer,
    make_algorithm,
)
from repro.core.access import open_streams
from repro.core.bounds import completion_terms
from repro.core.bounds.base import EngineState
from repro.data import SyntheticConfig, generate_problem


def problem(seed, n_relations=3, n_tuples=70):
    return generate_problem(
        SyntheticConfig(
            n_relations=n_relations, dims=2, density=50.0, skew=1.0,
            n_tuples=n_tuples, seed=seed,
        )
    )


def run(algo, relations, query, **kwargs):
    scoring = EuclideanLogScoring(1.0, 1.0, 1.0)
    engine = make_algorithm(
        algo, relations, scoring, query, 10,
        kind=kwargs.pop("kind", AccessKind.DISTANCE), **kwargs,
    )
    return engine.run()


def assert_every_qp_checked(spy, result):
    """The run reached the kernel, and every QP its counters report went
    through a checked call."""
    assert spy.calls > 0
    assert spy.rows == result.counters["qp_solves"]


class TestEngineBitIdentity:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("algo", ["TBPA", "TBRR"])
    @pytest.mark.parametrize("period", [4, None])
    @pytest.mark.parametrize("pull_block", [1, 8])
    def test_distance_access(self, kernel_spy, seed, algo, period, pull_block):
        # The check is call by call, so a capped prefix pins it as
        # strictly as a completed run (which test_completed_run covers).
        relations, query = problem(seed)
        result = run(relations=relations, query=query, algo=algo,
                     dominance_period=period, pull_block=pull_block,
                     max_pulls=48)
        assert_every_qp_checked(kernel_spy, result)

    def test_completed_run(self, kernel_spy):
        relations, query = problem(0, n_tuples=40)
        result = run(relations=relations, query=query, algo="TBPA",
                     dominance_period=4, pull_block=8)
        assert result.completed
        assert_every_qp_checked(kernel_spy, result)

    @pytest.mark.parametrize("seed", range(2))
    def test_score_access(self, kernel_spy, seed):
        # Algorithm 3's closed form needs no QP: a score-access run never
        # reaches the kernel, and certifies the distance-access run's
        # ranked scores.
        relations, query = problem(seed)
        score = run(relations=relations, query=query, algo="TBPA",
                    kind=AccessKind.SCORE, pull_block=4)
        assert kernel_spy.calls == 0 and score.counters["qp_solves"] == 0
        distance = run(relations=relations, query=query, algo="TBPA",
                       pull_block=4)
        assert score.completed and distance.completed
        assert [c.score for c in score.combinations] == [
            c.score for c in distance.combinations
        ]

    def test_n2_and_bound_period(self, kernel_spy):
        relations, query = problem(1, n_relations=2, n_tuples=100)
        result = run(relations=relations, query=query, algo="TBPA",
                     dominance_period=1, bound_period=5)
        assert result.completed
        assert_every_qp_checked(kernel_spy, result)


class TestKernelInputs:
    def test_masks_partition_relations(self, monkeypatch):
        # Every row handed to the kernel fixes its subset's members and
        # lower-bounds exactly the other relations at the refresh's
        # per-relation thresholds: the masks are gathered from the store
        # on every call, so no call inherits an earlier call's pattern.
        calls = []
        real = tight.solve_bound_qp_masked

        def record(h, fixed_mask, fixed_vals, lower_mask, lower_vals):
            calls.append((fixed_mask.copy(), lower_mask.copy(),
                          np.array(lower_vals)))
            return real(h, fixed_mask, fixed_vals, lower_mask, lower_vals)

        monkeypatch.setattr(tight, "solve_bound_qp_masked", record)
        relations, query = problem(1)
        result = run(relations=relations, query=query, algo="TBRR",
                     dominance_period=4, pull_block=4)
        assert result.completed
        assert sum(len(fixed) for fixed, _, _ in calls) == (
            result.counters["qp_solves"]
        )
        patterns = set()
        for fixed, lower, lower_vals in calls:
            assert (fixed ^ lower).all()
            assert (lower_vals == lower_vals[0]).all()
            assert (lower_vals >= 0.0).all()
            patterns.update(map(bytes, np.packbits(fixed, axis=1)))
        # The seed row M = {} and every proper subset of the 3 relations.
        assert len(patterns) == 7


class TestSolverSecondsSplit:
    def test_solver_share_reported(self):
        relations, query = problem(0)
        result = run(relations=relations, query=query, algo="TBPA",
                     dominance_period=2, pull_block=8)
        assert result.solver_seconds > 0.0
        assert result.counters["solver_seconds"] == result.solver_seconds
        # The solver share lives inside the bound + dominance shares
        # (generous slack: both sides are wall-clock measurements).
        assert result.solver_seconds <= (
            result.bound_seconds + result.dominance_seconds
        ) * 1.5 + 1e-3


class TestGeometryCache:
    @staticmethod
    def spy_terms(monkeypatch, sink):
        """Record the member count of every ``completion_terms`` call the
        tight bound makes (``sink(m, rows)``)."""
        import repro.core.bounds.tight as tight

        real = tight.completion_terms

        def spy(scoring, n, query, scores, *args, **kwargs):
            sink(scores.shape[1], len(scores))
            return real(scoring, n, query, scores, *args, **kwargs)

        monkeypatch.setattr(tight, "completion_terms", spy)

    def test_geometry_computed_once_per_entry(self, monkeypatch):
        # The bound computes an entry's completion geometry at append
        # (the M = {} seed row included) and gathers it from the store on
        # every later solve, so revalidations add no geometry rows.
        rows = []
        self.spy_terms(monkeypatch, lambda m, e: rows.append(e))
        relations, query = problem(1)
        result = run(relations=relations, query=query, algo="TBPA",
                     dominance_period=4, pull_block=4)
        assert result.counters["entries_revalidated"] > 1
        assert sum(rows) == result.counters["entries_created"] + 1

    def test_one_geometry_call_per_subset_size(self, monkeypatch):
        # n = 4 has subset sizes 0-3; a refresh computes the geometry of
        # every subset of one size in one call, so no refresh makes more
        # calls than there are sizes that gained rows.
        import repro.core.bounds.tight as tight

        per_refresh = [[]]
        self.spy_terms(monkeypatch, lambda m, e: per_refresh[-1].append(m))
        real_update = tight.TightBound.update

        def update(self, state, i, tau):
            per_refresh.append([])
            return real_update(self, state, i, tau)

        monkeypatch.setattr(tight.TightBound, "update", update)
        relations, query = problem(3, n_relations=4, n_tuples=16)
        result = run(relations=relations, query=query, algo="TBRR",
                     dominance_period=4, pull_block=4)
        assert result.completed
        for sizes in per_refresh:
            assert len(sizes) == len(set(sizes)), sizes
        assert max(len(sizes) for sizes in per_refresh) == 3

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_terms_independent_of_batch(self, n, d):
        # Rows of several same-size subsets in one call give the same
        # bytes as each subset's rows alone (with its unseen utility
        # passed as a scalar), centroids on the query point included.
        rng = np.random.default_rng(100 * n + d)
        scoring = EuclideanLogScoring(0.8, 1.2, 0.6)
        query = rng.normal(size=d)
        for m in range(1, n):
            groups = []
            for rows in (1, 3, 7):
                scores = rng.uniform(0.1, 1.0, size=(rows, m))
                offsets = rng.normal(size=(rows, m, d))
                # Row 0's members balance around the query: its centroid
                # is the query point (the direction-free branch).
                offsets[0, -1] = -offsets[0, :-1].sum(axis=0)
                groups.append((scores, query + offsets, float(rng.normal())))
            joint = completion_terms(
                scoring, n, query,
                np.concatenate([g[0] for g in groups]),
                np.concatenate([g[1] for g in groups]),
                np.concatenate([np.full(len(g[0]), g[2]) for g in groups]),
            )
            start = 0
            for scores, vectors, utility in groups:
                alone = completion_terms(
                    scoring, n, query, scores, vectors, utility
                )
                part = slice(start, start + len(scores))
                for got, want in zip(joint, alone):
                    assert got[part].tobytes() == want.tobytes(), (m, d)
                start += len(scores)


class TestPotentialsMemo:
    def test_one_eval_per_bound_version(self):
        relations, query = problem(0)
        # bound_period > pull_block means several strategy consultations
        # share one bound version; the memo must collapse them.
        result = run(relations=relations, query=query, algo="TBPA",
                     bound_period=12, pull_block=3)
        consults = result.counters["potential_consults"]
        evals = result.counters["potential_evals"]
        updates = result.counters["updates"]
        assert consults > evals, (consults, evals)
        # One evaluation per bound version actually consulted: at most
        # one per update plus the pre-first-update version.
        assert evals <= updates + 1

    def test_memo_does_not_change_outcome(self):
        relations, query = problem(2)
        a = run(relations=relations, query=query, algo="TBPA",
                bound_period=12, pull_block=3)
        b = run(relations=relations, query=query, algo="TBRR",
                bound_period=12, pull_block=3)
        # Both certified the same ranked answer set (strategies differ
        # only in pull schedule).
        assert [c.score for c in a.combinations] == [
            c.score for c in b.combinations
        ]

    def test_potentials_memo_api(self):
        # One evaluation per bound version, handed out as a copy: a
        # caller that edits its list cannot change the next read.  Every
        # proper subset misses some relation, so the largest potential is
        # the bound itself.
        relations, query = problem(0)
        state = EngineState(
            scoring=EuclideanLogScoring(1.0, 1.0, 1.0),
            kind=AccessKind.DISTANCE, query=query,
            streams=open_streams(relations, AccessKind.DISTANCE, query),
            k=10, output=TopKBuffer(10),
        )
        bound = TightBound()
        for i in (0, 1):
            t = bound.update(state, i, state.streams[i].next())
            evals = bound.counters.potential_evals
            pots = bound.potentials(state)
            assert bound.counters.potential_evals == evals + 1
            assert max(pots) == t
            pots[0] = float("inf")
            again = bound.potentials(state)
            assert bound.counters.potential_evals == evals + 1
            assert bound.counters.potential_consults == 2 * (i + 1)
            assert max(again) == t and again[0] != pots[0]

    def test_corner_bound_unaffected(self):
        relations, query = problem(0)
        scoring = EuclideanLogScoring(1.0, 1.0, 1.0)
        result = make_algorithm(
            "CBPA", relations, scoring, query, 10,
            kind=AccessKind.DISTANCE, pull_block=4,
        ).run()
        assert result.completed

"""The bound-kernel acceptance suite: engine-level differential tests of
the batched bound kernel against the scalar reference path, the
workspace's slab reuse, and the potentials memo.

* Completed TBPA/TBRR runs with ``batch_kernel=True`` must return the
  *identical* ranked top-K, depths and bound as ``batch_kernel=False``
  (the pre-refactor per-subset / per-candidate path) — bit for bit,
  dominance on and off, per-tuple and block-pull.
* Both execution strategies compute each entry's completion geometry
  once, at append, in one call per subset size, and gather it from the
  store on every later solve; the geometry of a row does not depend on
  the batch it was computed in.
* ``PotentialAdaptive`` consults the bound once per block; the memo must
  collapse repeat consultations of an unchanged bound version into cache
  hits (``potential_evals`` vs ``potential_consults``) without touching
  the run's outcome.
"""

import numpy as np
import pytest

from repro.core import AccessKind, EuclideanLogScoring, make_algorithm
from repro.core.bounds import BoundWorkspace, completion_terms
from repro.data import SyntheticConfig, generate_problem


def problem(seed, n_relations=3, n_tuples=70):
    return generate_problem(
        SyntheticConfig(
            n_relations=n_relations, dims=2, density=50.0, skew=1.0,
            n_tuples=n_tuples, seed=seed,
        )
    )


def run(algo, relations, query, *, batch_kernel, **kwargs):
    scoring = EuclideanLogScoring(1.0, 1.0, 1.0)
    engine = make_algorithm(
        algo, relations, scoring, query, 10,
        kind=kwargs.pop("kind", AccessKind.DISTANCE),
        batch_kernel=batch_kernel, **kwargs,
    )
    return engine.run()


def ranked_key(result):
    return [
        (c.score, tuple(t.tid for t in c.tuples)) for c in result.combinations
    ]


class TestEngineBitIdentity:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("algo", ["TBPA", "TBRR"])
    @pytest.mark.parametrize("period", [4, None])
    @pytest.mark.parametrize("pull_block", [1, 8])
    def test_distance_access(self, seed, algo, period, pull_block):
        # max_pulls keeps the dominance-heavy scalar reference cheap; the
        # identity claim is pull-for-pull, so a capped prefix pins it as
        # strictly as a completed run (which test_completed_run covers).
        relations, query = problem(seed)
        a = run(relations=relations, query=query, algo=algo,
                batch_kernel=True, dominance_period=period,
                pull_block=pull_block, max_pulls=48)
        b = run(relations=relations, query=query, algo=algo,
                batch_kernel=False, dominance_period=period,
                pull_block=pull_block, max_pulls=48)
        assert a.completed == b.completed
        assert a.depths == b.depths
        assert a.bound == b.bound  # bitwise
        assert ranked_key(a) == ranked_key(b)
        # Same logical work: entry creation/revalidation and QP counts
        # are execution-strategy-independent.
        for key in ("qp_solves", "entries_created", "entries_revalidated",
                    "entries_dominated"):
            assert a.counters[key] == b.counters[key], key

    def test_completed_run(self):
        relations, query = problem(0, n_tuples=40)
        a = run(relations=relations, query=query, algo="TBPA",
                batch_kernel=True, dominance_period=4, pull_block=8)
        b = run(relations=relations, query=query, algo="TBPA",
                batch_kernel=False, dominance_period=4, pull_block=8)
        assert a.completed and b.completed
        assert a.depths == b.depths and a.bound == b.bound
        assert ranked_key(a) == ranked_key(b)

    @pytest.mark.parametrize("seed", range(2))
    def test_score_access(self, seed):
        relations, query = problem(seed)
        a = run(relations=relations, query=query, algo="TBPA",
                batch_kernel=True, kind=AccessKind.SCORE, pull_block=4)
        b = run(relations=relations, query=query, algo="TBPA",
                batch_kernel=False, kind=AccessKind.SCORE, pull_block=4)
        assert a.depths == b.depths and a.bound == b.bound
        assert ranked_key(a) == ranked_key(b)

    def test_n2_and_bound_period(self):
        relations, query = problem(1, n_relations=2, n_tuples=100)
        a = run(relations=relations, query=query, algo="TBPA",
                batch_kernel=True, dominance_period=1, bound_period=5)
        b = run(relations=relations, query=query, algo="TBPA",
                batch_kernel=False, dominance_period=1, bound_period=5)
        assert a.depths == b.depths and a.bound == b.bound
        assert ranked_key(a) == ranked_key(b)


class TestSolverSecondsSplit:
    def test_solver_share_reported(self):
        relations, query = problem(0)
        result = run(relations=relations, query=query, algo="TBPA",
                     batch_kernel=True, dominance_period=2, pull_block=8)
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

    def geometry_rows(self, monkeypatch, batch_kernel):
        rows = []
        self.spy_terms(monkeypatch, lambda m, e: rows.append(e))
        relations, query = problem(1)
        result = run(relations=relations, query=query, algo="TBPA",
                     batch_kernel=batch_kernel, dominance_period=4,
                     pull_block=4)
        assert result.counters["entries_revalidated"] > 1
        return sum(rows), result.counters["entries_created"]

    def test_geometry_computed_once_per_entry(self, monkeypatch):
        # The kernel computes an entry's completion geometry at append
        # (the M = {} seed row included) and gathers it from the store on
        # every later solve, so revalidations add no geometry rows.
        rows, created = self.geometry_rows(monkeypatch, batch_kernel=True)
        assert rows == created + 1

    def test_scalar_path_reads_cached_geometry(self, monkeypatch):
        # The scalar reference differs only in its QP call: it gathers
        # the same cached geometry instead of recomputing it.
        rows, created = self.geometry_rows(monkeypatch, batch_kernel=False)
        assert rows == created + 1

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
                     batch_kernel=True, dominance_period=4, pull_block=4)
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
                     batch_kernel=True, bound_period=12, pull_block=3)
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
                batch_kernel=True, bound_period=12, pull_block=3)
        b = run(relations=relations, query=query, algo="TBRR",
                batch_kernel=True, bound_period=12, pull_block=3)
        # Both certified the same ranked answer set (strategies differ
        # only in pull schedule).
        assert [c.score for c in a.combinations] == [
            c.score for c in b.combinations
        ]

    def test_corner_bound_unaffected(self):
        relations, query = problem(0)
        scoring = EuclideanLogScoring(1.0, 1.0, 1.0)
        result = make_algorithm(
            "CBPA", relations, scoring, query, 10,
            kind=AccessKind.DISTANCE, pull_block=4,
        ).run()
        assert result.completed


class TestWorkspaceSlabs:
    def test_grow_only_reuse(self):
        ws = BoundWorkspace()
        a = ws.array("x", (4, 3), zero=True)
        assert a.shape == (4, 3) and (a == 0).all()
        a[:] = 7.0
        b = ws.array("x", (2, 3))
        # Same backing memory, no reallocation for smaller requests.
        assert b.base is a.base
        c = ws.array("x", (64, 9))
        assert c.shape == (64, 9)

    def test_qp_slab_masks_zeroed(self):
        ws = BoundWorkspace()
        fm, fv, lm, lv = ws.qp_slabs(5, 3)
        fm[:] = True
        lm[:] = True
        fm2, _, lm2, _ = ws.qp_slabs(5, 3)
        assert not fm2.any() and not lm2.any()

    def test_potentials_memo_api(self):
        ws = BoundWorkspace()
        assert ws.potentials_if_fresh(0) is None
        ws.cache_potentials(3, [1.0, 2.0])
        assert ws.potentials_if_fresh(3) == [1.0, 2.0]
        assert ws.potentials_if_fresh(4) is None

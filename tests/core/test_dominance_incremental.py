"""Soundness regression for the dominance pass's reuse and laziness.

Properties pinned, layer by layer:

* **The lazy pass tests only candidates that can set the subset's
  bound** — given ``t``, :func:`prepare_dominance_pass` walks the live
  rows in descending ``t``, ends the subset's pass at the first
  certified row (no LP when that is the top row) and sends to an LP
  only the uncertified rows above it; the eager pass (no ``t``, the
  public ``dominated_mask``) still flags what the lazy pass leaves
  untested.
* **Stale witnesses never shield a candidate** — a cached witness is
  re-checked against the current competitor field.
* **Engine-level identity** — on tie-heavy workloads every bound-QP
  call returns the per-pattern enumeration's values and thetas (the
  ``kernel_spy`` fixture), the run returns the same ranked answer,
  depths and bound as the dominance-off run, solves almost no LPs, and
  the screen and cached witnesses actually fire.
* **No scipy on the dominance path** — the engine solves its dominance
  LPs without importing scipy.
* **No silent QP fallback** — ``qp_enumerated`` counts the bound-QP rows
  the closed form handed to the enumeration: none on the tie-heavy
  workload, every row when ``w_q = 0`` leaves no closed form.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.core import AccessKind, EuclideanLogScoring, make_algorithm
from repro.core.bounds.dominance import dominated_mask, prepare_dominance_pass
from repro.core.relation import Relation
from repro.optim.simplex import polyhedron_feasible_point

#: Ceiling on the LPs a tie-heavy engine run may solve: the lazy pass
#: sends a candidate to an LP only when it sits above every certified
#: row of its subset in bound order, and a dominated row's bound can at
#: most tie its subset's best non-dominated row's.
MAX_LAZY_LPS = 40


def test_lazy_pass_tests_only_rows_that_can_set_the_bound():
    """1-D sandwich: row 1 (b=0, c=2) loses to row 0 left of 0 and to
    row 2 right of 0, but wins at no probed optimum, so only an LP proves
    its region empty."""
    bs = np.array([[-1.0], [0.0], [1.0]])
    cs = np.array([0.0, 2.0, 0.0])
    fresh = np.zeros(3, dtype=bool)
    eager, lps = dominated_mask(bs, cs, fresh, quad_coeff=1.0)
    assert eager.tolist() == [False, True, False] and lps == 1

    # Top-t row 0 wins at its own optimum: the pass ends there, with no
    # LP, and row 1 stays live and unflagged.
    witnesses = np.full((3, 1), np.nan)
    lazy = prepare_dominance_pass(
        bs, cs, fresh, quad_coeff=1.0, witnesses=witnesses,
        t=np.array([5.0, 1.0, 3.0]),
    )
    assert lazy.alpha.size == 0
    assert not lazy.out.any()
    assert witnesses[0, 0] == 1.0  # the optimum that certified it
    # Cached now: the next pass certifies row 0 by its witness.
    again = prepare_dominance_pass(
        bs, cs, fresh, quad_coeff=1.0, witnesses=witnesses,
        t=np.array([5.0, 1.0, 3.0]),
    )
    assert again.alpha.size == 0 and again.witness_hits == 1

    # A dominated row above every certified row does get its LP, and the
    # LP flags it.
    above = prepare_dominance_pass(
        bs, cs, fresh, quad_coeff=1.0, t=np.array([1.0, 5.0, 3.0])
    )
    assert above.alpha.tolist() == [1]
    assert polyhedron_feasible_point(*above.assemble(0)) is None


@pytest.mark.parametrize("lazy", [False, True], ids=["eager", "lazy"])
def test_cached_witness_invalidated_by_new_competitor(lazy):
    """A cached witness is never trusted after a constraint it violates
    arrives: the pre-pass (or the lazy walk) re-checks it against the
    *current* competitor field, so a newly appended dominator flags the
    candidate on the next pass despite its stored pass-1 witness."""

    def solve(bs, cs, already, witnesses):
        if not lazy:
            return dominated_mask(
                bs, cs, already, quad_coeff=1.0, witnesses=witnesses
            )
        # Bounds descending in row order: the walk tests A first.
        prep = prepare_dominance_pass(
            bs, cs, already, quad_coeff=1.0, witnesses=witnesses,
            t=np.arange(len(cs), 0, -1.0),
        )
        return prep.solve(witnesses), prep.alpha.size

    # Pass 1: A (b=0, c=0) wins at its own optimum against the weak B.
    bs = np.array([[0.0], [1.0]])
    cs = np.array([0.0, 5.0])
    witnesses = np.full((3, 1), np.nan)
    out, _ = solve(bs, cs, np.zeros(2, dtype=bool), witnesses[:2])
    assert not out[0]
    assert not np.isnan(witnesses[0, 0])  # A's witness was cached
    # Pass 2: C (b=-1, c=-10) beats A at its witness y=0 and wherever A
    # beats B (y >= -2.5) — A's region is now empty.  C's b differs from
    # A's, so the equal-slope screen cannot answer A: the stale witness
    # must be rejected and A's LP solved.
    bs2 = np.vstack([bs, [[-1.0]]])
    cs2 = np.append(cs, -10.0)
    out2, lps = solve(bs2, cs2, np.append(out, False), witnesses)
    assert out2[0], "stale witness shielded a now-dominated candidate"
    assert lps >= 1
    assert not out2[2]


def tie_heavy_problem(n_relations=3, n_tuples=90, dims=2, levels=4, seed=0):
    """Miniature of the benchmark's tie-heavy workload: quantised
    vectors/scores so streams stall and exact duplicates occur."""
    rng = np.random.default_rng(seed)
    side = (n_tuples / 50.0) ** (1.0 / dims)
    relations = []
    for i in range(n_relations):
        vectors = rng.uniform(-side / 2, side / 2, size=(n_tuples, dims))
        grid = np.linspace(-side / 2, side / 2, levels)
        vectors = grid[np.abs(vectors[..., None] - grid).argmin(axis=-1)]
        scores = rng.choice(np.linspace(0.1, 1.0, levels), size=n_tuples)
        relations.append(Relation(f"R{i + 1}", scores, vectors, sigma_max=1.0))
    return relations, np.zeros(dims)


def _run(relations, query, *, algo, w_q=1.0, dominance_period=2):
    scoring = EuclideanLogScoring(1.0, w_q, 1.0)
    return make_algorithm(
        algo, relations, scoring, query, 5,
        kind=AccessKind.DISTANCE, pull_block=4,
        dominance_period=dominance_period,
    ).run()


def _same_answer(a, b):
    return (
        a.depths == b.depths
        and a.bound == b.bound  # bitwise
        and [(c.key, c.score) for c in a.combinations]
        == [(c.key, c.score) for c in b.combinations]
    )


@pytest.mark.parametrize("algo", ["TBPA", "TBRR"])
@pytest.mark.parametrize("seed", [0, 1])
def test_engine_kernel_matches_enumeration(algo, seed, kernel_spy):
    """Every kernel call == the enumeration, on the tie-heavy workload,
    for both pulling strategies."""
    relations, query = tie_heavy_problem(seed=seed)
    kernel = _run(relations, query, algo=algo)
    assert kernel.completed
    assert kernel_spy.calls > 0
    assert kernel_spy.rows == kernel.counters["qp_solves"]


@pytest.mark.parametrize("algo", ["TBPA", "TBRR"])
def test_engine_lazy_pass(algo, kernel_spy):
    """The lazy pass on the tie-heavy workload at period 2: the screen
    flags rows and cached witnesses answer candidates, every kernel call
    == the enumeration, the run solves at most MAX_LAZY_LPS LPs, and the
    answer equals the dominance-off run's."""
    relations, query = tie_heavy_problem()
    kernel = _run(relations, query, algo=algo)
    off = _run(relations, query, algo=algo, dominance_period=None)
    assert kernel.counters["dominance_screened"] > 0
    assert kernel.counters["dominance_witness_hits"] > 0
    assert kernel_spy.calls > 0
    assert kernel.counters["lp_solves"] <= MAX_LAZY_LPS
    assert kernel.completed and off.completed
    assert _same_answer(kernel, off)


@pytest.mark.parametrize("algo", ["TBPA", "TBRR"])
def test_engine_screen_matches_dominance_off(algo, kernel_spy):
    """The equal-slope screen flags rows, every kernel call == the
    enumeration, and the answer equals the dominance-off run's."""
    relations, query = tie_heavy_problem(n_tuples=120, seed=2)
    kernel = _run(relations, query, algo=algo)
    off = _run(relations, query, algo=algo, dominance_period=None)
    assert kernel.completed and off.completed
    assert kernel.counters["dominance_screened"] > 0
    assert off.counters["dominance_screened"] == 0
    assert kernel_spy.calls > 0
    assert _same_answer(kernel, off)


#: A tie-heavy problem whose lazy passes reach the LP under both
#: pulling strategies (1 LP under TBPA and 7 under TBRR at period 2).
LP_PROBLEM = {"levels": 5, "seed": 1}


@pytest.mark.parametrize("algo", ["TBPA", "TBRR"])
def test_dominance_path_never_imports_scipy(algo):
    """The engine solves its dominance LPs in a fresh interpreter without
    importing scipy: the dense simplex is the only LP solver, so no
    import lands inside the engine's timed region."""
    script = textwrap.dedent(f"""
        import sys
        from test_dominance_incremental import _run, tie_heavy_problem
        relations, query = tie_heavy_problem(**{LP_PROBLEM!r})
        run = _run(relations, query, algo={algo!r})
        assert run.completed
        print({algo!r}, int(run.counters["lp_solves"]), "scipy" in sys.modules)
    """)
    here = Path(__file__).resolve().parent
    path = [str(here.parents[1] / "src"), str(here), os.environ.get("PYTHONPATH", "")]
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    legs = [line.split() for line in done.stdout.splitlines()]
    assert len(legs) == 1
    _, lps, scipy_loaded = legs[0]
    assert int(lps) > 0
    assert scipy_loaded == "False"


def test_qp_enumerated_counts_fallback_rows(kernel_spy):
    """The tie-heavy run with dominance solves every bound QP in closed
    form; with ``w_q = 0`` (singular Hessian) every row is enumerated,
    and every kernel call still equals the enumeration."""
    relations, query = tie_heavy_problem(seed=1)
    kernel = _run(relations, query, algo="TBPA")
    assert kernel.counters["qp_solves"] > 0
    assert kernel.counters["qp_enumerated"] == 0

    calls = kernel_spy.calls
    singular = _run(relations, query, algo="TBPA", w_q=0.0)
    assert singular.counters["qp_enumerated"] == singular.counters["qp_solves"] > 0
    assert kernel_spy.calls > calls

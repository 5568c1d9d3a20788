"""Soundness regression for the batched kernel's dominance reuse.

Properties pinned, layer by layer:

* **Class collapse is byte-exact where ties stay within classes, and
  verdict-exact everywhere** — with ``collapse=True``,
  :func:`prepare_dominance_pass` groups the pending candidates by the
  bytes of their ``(b, c)`` rows and keeps one representative LP per
  class; its assembled ``(G, h)`` system is byte-identical to the
  plain per-candidate assembly of *every* owner in the class (the
  self/twin swap contributes an all-zero vacuous row either way) unless
  a cross-class probe-value tie permutes rows between twins, and fanning
  one verdict out to the whole class flags exactly the candidates the
  plain one-LP-per-candidate pass flags in both regimes.
* **Trivial constraint counts skip the tableau soundly** — zero- and
  single-constraint problems are answered analytically by the batch,
  bit-identical to the scalar :func:`chebyshev_center`.
* **Engine-level identity** — on tie-heavy workloads the batched kernel
  returns the same ranked answer, depths and bound as the scalar
  reference and as the dominance-off run, while its reuse counters
  actually fire and the equal-slope screen flags the same rows on both
  paths.
* **No silent QP fallback** — ``qp_enumerated`` counts the bound-QP rows
  the closed form handed to the enumeration: none on the tie-heavy
  workload, every row when ``w_q = 0`` leaves no closed form.
"""

import numpy as np
import pytest

from repro.core import AccessKind, EuclideanLogScoring, make_algorithm
from repro.core.bounds.dominance import prepare_dominance_pass
from repro.core.relation import Relation
from repro.optim.simplex import (
    chebyshev_center,
    chebyshev_center_batch,
    polyhedron_feasible_point_batch,
)


def duplicated_family(rng, count, d, dup_frac=0.4, tie_free=False):
    """A random ``(b, c)`` family where ``dup_frac`` of the rows are
    exact byte-copies of earlier rows, plus per-row value-equality class
    ids (the classes ``collapse=True`` must find).  ``tie_free``
    keeps ``c`` continuous so strength-order ties occur only *within*
    duplicate classes; the default coarse rounding also ties distinct
    classes (the adversarial tie-heavy regime)."""
    bs = rng.normal(size=(count, d))
    cs = rng.normal(size=count)
    if not tie_free:
        cs = np.round(cs, 1)  # coarse -> cross-class value ties too
    n_dup = max(2, int(count * dup_frac))
    src = rng.integers(0, count - n_dup, size=n_dup)
    for k, s in enumerate(src):
        bs[count - n_dup + k] = bs[s]
        cs[count - n_dup + k] = cs[s]
    ids: dict[bytes, int] = {}
    canon = np.empty(count, dtype=np.int64)
    for r in range(count):
        key = bs[r].tobytes() + cs[r].tobytes()
        canon[r] = ids.setdefault(key, len(ids))
    return bs, cs, canon


@pytest.mark.parametrize("seed", range(8))
def test_class_collapse_assembly_byte_identical(seed):
    """Every owner's class-representative (G, h) is byte-equal to the
    plain per-candidate assembly would have built for that owner —
    guaranteed whenever strength-order ties stay within classes (twins
    adjacent in the stable order; cross-class ties only permute rows,
    covered by the verdict-level test below)."""
    rng = np.random.default_rng(seed)
    count = int(rng.integers(8, 40))
    d = int(rng.integers(1, 4))
    bs, cs, canon = duplicated_family(rng, count, d, tie_free=True)
    already = np.zeros(count, dtype=bool)
    # quad_coeff=0 disables the witness pre-pass: every live candidate is
    # pending, so the collapse is exercised on the full family.
    plain = prepare_dominance_pass(bs, cs, already, quad_coeff=0.0)
    coll = prepare_dominance_pass(
        bs, cs, already, quad_coeff=0.0, collapse=True
    )

    assert coll.owners_alpha is not None and coll.owners_class is not None
    # Same pending set, just factored through class representatives.
    assert np.array_equal(np.sort(coll.owners_alpha), np.sort(plain.alpha))
    assert coll.alpha.size == len(np.unique(canon))
    assert coll.alpha.size < plain.alpha.size  # duplicates were planted
    # The byte grouping matches the per-row bytes-key loop's classes.
    pairs = set(
        zip(coll.owners_class.tolist(), canon[coll.owners_alpha].tolist())
    )
    assert len(pairs) == coll.alpha.size

    plain_row = {int(a): k for k, a in enumerate(plain.alpha)}
    for i, owner in enumerate(coll.owners_alpha):
        g_rep, h_rep = coll.assemble(int(coll.owners_class[i]))
        g_own, h_own = plain.assemble(plain_row[int(owner)])
        assert g_rep.tobytes() == g_own.tobytes()
        assert h_rep.tobytes() == h_own.tobytes()


@pytest.mark.parametrize("seed", range(6))
def test_class_collapse_verdicts_match_memoryless(seed):
    """Solving one LP per class and fanning the verdict out flags exactly
    the candidates the plain one-LP-per-candidate pass flags — on
    the adversarial family whose cross-class value ties permute rows
    between twins (the regime where byte-identity no longer holds)."""
    rng = np.random.default_rng(50 + seed)
    count = int(rng.integers(8, 36))
    bs, cs, canon = duplicated_family(rng, count, 2)
    already = np.zeros(count, dtype=bool)
    plain = prepare_dominance_pass(bs, cs, already, quad_coeff=0.0)
    coll = prepare_dominance_pass(
        bs, cs, already, quad_coeff=0.0, collapse=True
    )

    probs_p = [plain.assemble(k) for k in range(plain.alpha.size)]
    _, empty_p = polyhedron_feasible_point_batch(
        [g for g, _ in probs_p], [h for _, h in probs_p]
    )
    mask_p = plain.out.copy()
    mask_p[plain.alpha[empty_p]] = True

    probs_c = [coll.assemble(k) for k in range(coll.alpha.size)]
    _, empty_c = polyhedron_feasible_point_batch(
        [g for g, _ in probs_c], [h for _, h in probs_c]
    )
    mask_c = coll.out.copy()
    mask_c[coll.owners_alpha[empty_c[coll.owners_class]]] = True

    assert np.array_equal(mask_c, mask_p)


@pytest.mark.parametrize("runner", ["scalar", "batched"])
def test_cached_witness_invalidated_by_new_competitor(runner):
    """A cached witness is never trusted after a constraint it violates
    arrives: the pre-pass re-checks it against the *current* competitor
    field, so a newly appended dominator flags the candidate on the next
    pass despite its stored pass-1 witness."""
    from repro.core.bounds.dominance import dominated_mask, dominated_mask_batch

    solve = dominated_mask if runner == "scalar" else dominated_mask_batch
    # Pass 1: A (b=0, c=0) wins at its own optimum against the weak B.
    bs = np.array([[0.0], [1.0]])
    cs = np.array([0.0, 5.0])
    witnesses = np.full((3, 1), np.nan)
    out, _ = solve(
        bs, cs, np.zeros(2, dtype=bool), quad_coeff=1.0,
        witnesses=witnesses[:2],
    )
    assert not out[0]
    assert not np.isnan(witnesses[0, 0])  # A's witness was cached
    # Pass 2: C (b=-1, c=-10) beats A at its witness y=0 and wherever A
    # beats B (y >= -2.5) — A's region is now empty.  C's b differs from
    # A's, so the equal-slope screen cannot answer A: the stale witness
    # must be rejected and A's LP solved.
    bs2 = np.vstack([bs, [[-1.0]]])
    cs2 = np.append(cs, -10.0)
    out2, lps = solve(
        bs2, cs2, np.append(out, False), quad_coeff=1.0, witnesses=witnesses
    )
    assert out2[0], "stale witness shielded a now-dominated candidate"
    assert lps >= 1
    assert not out2[2]


def test_trivial_constraint_counts_match_scalar():
    """m=0 (all rows stripped), m=1 (analytic centre) and the
    contradictory zero-row certificate are answered without a tableau,
    bit-identical to the scalar path."""
    d = 3
    gs = [
        np.zeros((2, d)),                       # all rows strip -> whole space
        np.array([[1.0, -2.0, 0.5]]),           # one half-space
        np.vstack([np.zeros(d), [1.0, 0.0, 0.0]]),  # zero row + real row
        np.zeros((1, d)),                       # zero row with h < 0: empty
    ]
    hs = [
        np.array([0.5, 0.0]),
        np.array([-3.0]),
        np.array([1.0, 2.0]),
        np.array([-1.0]),
    ]
    b_centers, b_radii = chebyshev_center_batch(gs, hs)
    for i, (g, h) in enumerate(zip(gs, hs)):
        center, radius = chebyshev_center(g, h)
        if center is None:
            assert np.isnan(b_centers[i]).all()
            assert b_radii[i] == -np.inf
        else:
            assert b_centers[i].tobytes() == np.asarray(center).tobytes()
            assert b_radii[i] == radius


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


def _run(relations, query, *, algo, batch_kernel, w_q=1.0, dominance_period=2):
    scoring = EuclideanLogScoring(1.0, w_q, 1.0)
    return make_algorithm(
        algo, relations, scoring, query, 5,
        kind=AccessKind.DISTANCE, pull_block=4,
        dominance_period=dominance_period, batch_kernel=batch_kernel,
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
def test_engine_three_way_identity(algo, seed):
    """Batched kernel == scalar reference, on the tie-heavy workload, for
    both pulling strategies."""
    relations, query = tie_heavy_problem(seed=seed)
    kernel = _run(relations, query, algo=algo, batch_kernel=True)
    scalar = _run(relations, query, algo=algo, batch_kernel=False)
    assert kernel.completed and scalar.completed
    assert _same_answer(kernel, scalar)


def test_engine_reuse_counters_fire():
    """The kernel's reuse machinery does real work on the tie-heavy
    workload: the screen flags rows, duplicates collapse, cached
    witnesses answer candidates, and the solved-LP count drops below the
    scalar path's."""
    relations, query = tie_heavy_problem()
    kernel = _run(relations, query, algo="TBPA", batch_kernel=True)
    scalar = _run(relations, query, algo="TBPA", batch_kernel=False)
    assert kernel.counters["dominance_screened"] > 0
    assert kernel.counters["dominance_lp_deduped"] > 0
    assert kernel.counters["dominance_witness_hits"] > 0
    assert 0 < kernel.counters["lp_solves"] < scalar.counters["lp_solves"]
    # The scalar reference solves one LP per candidate: no collapse.
    assert scalar.counters["dominance_lp_deduped"] == 0


@pytest.mark.parametrize("algo", ["TBPA", "TBRR"])
def test_engine_screen_matches_scalar_and_dominance_off(algo):
    """The equal-slope screen runs in the shared front end: it flags the
    same number of rows on the kernel and scalar paths, and the answer
    equals the dominance-off run's."""
    relations, query = tie_heavy_problem(n_tuples=120, seed=2)
    kernel = _run(relations, query, algo=algo, batch_kernel=True)
    scalar = _run(relations, query, algo=algo, batch_kernel=False)
    off = _run(
        relations, query, algo=algo, batch_kernel=True, dominance_period=None
    )
    assert kernel.completed and scalar.completed and off.completed
    assert kernel.counters["dominance_screened"] > 0
    assert (
        kernel.counters["dominance_screened"]
        == scalar.counters["dominance_screened"]
    )
    assert off.counters["dominance_screened"] == 0
    assert _same_answer(kernel, scalar)
    assert _same_answer(kernel, off)


def test_qp_enumerated_counts_fallback_rows():
    """The tie-heavy run with dominance solves every bound QP in closed
    form; with ``w_q = 0`` (singular Hessian) every row is enumerated,
    and both kernels still agree."""
    relations, query = tie_heavy_problem(seed=1)
    kernel = _run(relations, query, algo="TBPA", batch_kernel=True)
    assert kernel.counters["qp_solves"] > 0
    assert kernel.counters["qp_enumerated"] == 0

    singular = _run(relations, query, algo="TBPA", batch_kernel=True, w_q=0.0)
    scalar = _run(relations, query, algo="TBPA", batch_kernel=False, w_q=0.0)
    assert singular.counters["qp_enumerated"] == singular.counters["qp_solves"] > 0
    assert scalar.counters["qp_enumerated"] == 0  # the scalar path never counts
    assert _same_answer(singular, scalar)

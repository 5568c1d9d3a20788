"""The bound kernel, the lazy dominance pass, and where TBPA's CPU time
actually goes.

The tight bound solves one tiny QP per stale partial combination and one
feasibility LP per dominance candidate.  The paper already warns that
"solving the LP might be too costly".  The bound kernel stops solving
the QPs one at a time: every subset's partial combinations live in one
columnar store, and each refresh gathers every subset's stale QPs into a
single masked batch call.  The dominance pass is lazy: the tight bound
is a max, and a dominated partial combination can never carry it, so a
subset's pass tests only the candidates whose completion bound could
set the subset's max — most subsets end after
certifying the top row at its cached witness or its own optimum,
without an LP, and the few LPs left take one dense simplex call each.
In front of that, an equal-slope screen flags a partial combination
whose ``b`` row repeats another's with a larger ``c``: it loses
everywhere, no LP needed.  One sort screens every subset that gained
rows since the last pass.

This example runs a dominance-heavy n=3 workload — quantised to a
coarse grid so streams stall on ties and repeated member vectors occur,
the regime the screen targets — through the batched kernel with
dominance on and off, and prints the bound-time split (engine / bound /
dominance / solver), demonstrating that

* the answers are *identical* — same ranked top-K, depths and bound bit
  for bit on both runs (flags never move the bound);
* the kernel solves almost no dominance LPs: the screen and cached
  witnesses answer the candidates the lazy pass looks at;
* what dominance still costs next to the dominance-off run.

Run:  python examples/bound_kernel.py
"""

import numpy as np

from repro.core import AccessKind, EuclideanLogScoring, make_algorithm
from repro.core.relation import Relation
from repro.data import SyntheticConfig, generate_problem

relations, query = generate_problem(
    SyntheticConfig(n_relations=3, dims=2, density=50.0, skew=1.0,
                    n_tuples=120, seed=0)
)
# Snap vectors and scores to a coarse ladder: tie-heavy streams with
# exact duplicate tuples, where the screen and reuse have work to do.
LEVELS = 5
tied = []
for rel in relations:
    lo, hi = rel.vectors.min(), rel.vectors.max()
    grid = np.linspace(lo, hi, LEVELS)
    vectors = grid[np.abs(rel.vectors[..., None] - grid).argmin(axis=-1)]
    ladder = np.linspace(0.1, 1.0, LEVELS)
    scores = ladder[np.abs(rel.scores[:, None] - ladder).argmin(axis=-1)]
    tied.append(Relation(rel.name, scores, vectors, sigma_max=rel.sigma_max))
relations = tied
scoring = EuclideanLogScoring(1.0, 1.0, 1.0)

STRATEGIES = (
    ("batched kernel", 2),  # dominance pass every 2 accesses
    ("dominance off", None),
)
results = {}
for label, period in STRATEGIES:
    engine = make_algorithm(
        "TBPA", relations, scoring, query, 10,
        kind=AccessKind.DISTANCE,
        pull_block=8,
        dominance_period=period,
    )
    results[label] = engine.run()

print(f"{'path':<16}{'engine':>12}{'bound':>11}{'dominance':>12}"
      f"{'solver':>12}{'LPs':>7}{'QPs':>7}")
for label, _ in STRATEGIES:
    r = results[label]
    print(f"{label:<16}"
          f"{r.total_seconds * 1e3:>10.1f}ms"
          f"{r.bound_seconds * 1e3:>9.1f}ms"
          f"{r.dominance_seconds * 1e3:>10.1f}ms"
          f"{r.solver_seconds * 1e3:>10.1f}ms"
          f"{r.counters['lp_solves']:>7.0f}"
          f"{r.counters['qp_solves']:>7.0f}")

batched, off = results["batched kernel"], results["dominance off"]
assert batched.depths == off.depths and batched.bound == off.bound
assert [(c.key, c.score) for c in batched.combinations] == [
    (c.key, c.score) for c in off.combinations
]
print(f"\nidentical top-{len(batched.combinations)}, depths and bound "
      f"with dominance on and off; dominance on costs "
      f"{batched.total_seconds / off.total_seconds:.1f}x dominance off")
c = batched.counters
print("dominance:",
      f"{c['entries_dominated']:.0f} rows flagged,",
      f"{c['dominance_screened']:.0f} by the screen,",
      f"{c['dominance_witness_hits']:.0f} cached-witness hits,",
      f"{c['lp_solves']:.0f} LPs")
print("potentials memo:",
      f"{batched.counters['potential_evals']:.0f} evaluations for "
      f"{batched.counters['potential_consults']:.0f} strategy consultations")

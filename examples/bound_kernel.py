"""The batched bound kernel, and where TBPA's CPU time actually goes.

The tight bound solves one tiny QP per stale partial combination and one
feasibility LP per dominance candidate.  The paper already warns that
"solving the LP might be too costly" — and on dominance-heavy workloads
those solver loops dominate TBPA's engine time.  The bound-kernel
refactor stops solving them one at a time: each refresh gathers every
subset's QPs into a single masked batch call, and each dominance pass
pivots all surviving feasibility LPs as one lockstep simplex wave.  In
front of the LPs, both paths share an equal-slope screen: a partial
combination whose ``b`` row repeats another's with a larger ``c`` loses
everywhere and is flagged without an LP.  The kernel also remembers
across passes: cached witnesses answer candidates without an LP, and
byte-identical duplicate LPs collapse to one representative per
value-equality class.

This example runs the same dominance-heavy n=3 workload — quantised to a
coarse grid so streams stall on ties and exact-duplicate dominance LPs
occur, the regime the reuse machinery targets — through the scalar
reference and the batched kernel and prints the bound-time split
(engine / bound / dominance / solver), demonstrating that

* the answers are *identical* — same ranked top-K, depths and bound bit
  for bit (the kernels are row-stable replicas of the scalar solvers,
  and the reuse layers are verdict-preserving);
* the engine time drops by several x, almost all of it solver time won
  back from the dominance LP loop;
* the kernel answers most dominance candidates without solving their LP
  at all (screen + witness hits + dedup).

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

STRATEGIES = (("scalar loops", False), ("batched kernel", True))
results = {}
for label, batch_kernel in STRATEGIES:
    engine = make_algorithm(
        "TBPA", relations, scoring, query, 10,
        kind=AccessKind.DISTANCE,
        pull_block=8,
        dominance_period=2,       # dominance-heavy: LP pass every 2 accesses
        batch_kernel=batch_kernel,
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

scalar = results["scalar loops"]
batched = results["batched kernel"]
assert batched.depths == scalar.depths and batched.bound == scalar.bound
assert [(c.key, c.score) for c in batched.combinations] == [
    (c.key, c.score) for c in scalar.combinations
]
print(f"\nidentical top-{len(batched.combinations)}, depths and bound "
      f"across both strategies; "
      f"batched {scalar.total_seconds / batched.total_seconds:.1f}x "
      f"vs scalar")
c = batched.counters
print("LPs avoided:",
      f"{c['dominance_screened']:.0f} rows screened,",
      f"{c['dominance_witness_hits']:.0f} cached-witness hits,",
      f"{c['dominance_lp_deduped']:.0f} duplicate LPs collapsed,",
      f"{c['dominance_subset_skips']:.0f} subset passes skipped")
print("potentials memo:",
      f"{batched.counters['potential_evals']:.0f} evaluations for "
      f"{batched.counters['potential_consults']:.0f} strategy consultations")

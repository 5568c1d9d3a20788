"""Seeded bound-kernel differential sweep.

The tight bound solves each refresh's QPs in one masked-kernel call
(gathered rows, cached completion geometry) and runs a lazy dominance
pass, one LP per pending candidate.  This sweep draws random
configurations with stdlib ``random`` — relation count, dimension, k,
block size, bound period, access kind, algorithm (TBPA/TBRR), dominance
period and uniform or tie-heavy data — and runs each one under the
``kernel_spy`` fixture (``conftest.py``), which checks that every kernel
call returns values and thetas ``==`` the per-pattern enumeration on the
same rows.  A config with a dominance period must also equal the same
config with dominance off with ``==`` on the ranked ``(key, score)``
list, the depths and the bound: the pass only flags rows that can never
carry a subset's bound, so it moves no answer, depth or bound.  A second
draw of configs fixes n = 4 (15 subsets, sizes 0-3, where n = 3 reaches
only sizes 0-2) with at most 16 rows per relation.  A failure names
the config's seed; ``pytest tests/core/test_kernel_differential.py -k
seed<N>`` reruns it alone.
"""

import random

import numpy as np
import pytest

from repro.core import AccessKind, EuclideanLogScoring, Relation, make_algorithm

CONFIGS = 120
SEED_BASE = 30_000
N4_CONFIGS = 30
N4_SEED_BASE = 44_000
SCORING = EuclideanLogScoring(1.0, 1.0, 1.0)


def draw_config(seed):
    rnd = random.Random(seed)
    n = 4 if seed >= N4_SEED_BASE else rnd.choice((2, 3))
    return {
        "seed": seed,
        "n": n,
        "d": rnd.choice((1, 2, 3)),
        # Larger joins get fewer rows, keeping the sweep in its time
        # budget.
        "size": rnd.randint(8, {2: 60, 3: 36, 4: 16}[n]),
        "k": rnd.randint(1, 6),
        "pull_block": rnd.choice((1, 2, 4, 8)),
        "bound_period": rnd.choice((1, 2, 3)),
        "kind": rnd.choice((AccessKind.DISTANCE, AccessKind.SCORE)),
        "algorithm": rnd.choice(("TBPA", "TBRR")),
        "dominance_period": rnd.choice((None, 1, 2, 3, 5, 8)),
        "ties": rnd.random() < 0.5,
    }


def make_problem(cfg):
    rnd = random.Random(cfg["seed"] + 1)
    n, d, size = cfg["n"], cfg["d"], cfg["size"]
    relations = []
    for i in range(n):
        if cfg["ties"]:
            scores = [rnd.choice((0.25, 0.5, 1.0)) for _ in range(size)]
            vectors = [
                [rnd.choice((-1.0, 0.0, 1.0)) for _ in range(d)]
                for _ in range(size)
            ]
        else:
            scores = [rnd.uniform(0.05, 1.0) for _ in range(size)]
            vectors = [
                [rnd.uniform(-2.0, 2.0) for _ in range(d)] for _ in range(size)
            ]
        relations.append(
            Relation(f"R{i}", np.array(scores), np.array(vectors), sigma_max=1.0)
        )
    if cfg["ties"]:
        query = np.zeros(d)
    else:
        query = np.array([rnd.uniform(-1.0, 1.0) for _ in range(d)])
    return relations, query


def ranked(result):
    return (
        [(c.key, c.score) for c in result.combinations],
        list(result.depths),
        result.bound,
    )


def run(cfg, relations, query, dominance_period):
    return make_algorithm(
        cfg["algorithm"], relations, SCORING, query, cfg["k"],
        kind=cfg["kind"], pull_block=cfg["pull_block"],
        bound_period=cfg["bound_period"],
        dominance_period=dominance_period,
    ).run()


@pytest.mark.parametrize(
    "seed",
    [SEED_BASE + i for i in range(CONFIGS)]
    + [N4_SEED_BASE + i for i in range(N4_CONFIGS)],
    ids=lambda s: f"seed{s}",
)
def test_kernel_matches_enumeration(seed, kernel_spy):
    cfg = draw_config(seed)
    repro = (
        f"repro: pytest tests/core/test_kernel_differential.py -k seed{seed} "
        f"({', '.join(f'{k}={v}' for k, v in cfg.items() if k != 'seed')})"
    )
    # Shown with the failure even when a run raises instead of diverging.
    print(repro)
    relations, query = make_problem(cfg)
    period = cfg["dominance_period"]
    kernel = run(cfg, relations, query, period)
    assert kernel.completed, repro
    # Distance access reaches the kernel; score access solves no QP.
    reached = cfg["kind"] is AccessKind.DISTANCE
    assert (kernel_spy.calls > 0) == reached, repro
    if period is not None:
        off = run(cfg, relations, query, None)
        assert ranked(kernel) == ranked(off), repro

"""Golden pins of the tight bound's answers and work counters.

Each config below is a small seeded join: n in {2, 3, 4}, d in {1, 2, 3},
both access kinds, TBPA and TBRR, dominance period None / 1 / 8, uniform
and tie-heavy data.  For every config the test pins, as literals:

* the ranked combination keys and the depths;
* ``float.hex`` of the final bound and of every ranked score;
* the bound counters that measure the scheme's logical work
  (:data:`COUNTERS`).

The differential suites compare every kernel call with the enumeration
inside one commit; these literals compare the bound with the commit that
recorded them.  They were generated at commit 20c4d99 (the per-subset
bound store) by running this module as a script::

    PYTHONPATH=src python tests/core/test_bound_golden.py

which prints the ``GOLDEN`` table.  A change that moves a literal
changes the bound's answers or work: make it deliberately, regenerate
the table, and record which literals moved and why in CHANGES.md.  One
regeneration since: the ``qp_enumerated`` of the five ``scalar`` configs
whose kernel enumerates rows, which the deleted per-subset QP path
never counted (read 0).
"""

import random

import numpy as np
import pytest

from repro.core import AccessKind, EuclideanLogScoring, Relation, make_algorithm

SCORING = EuclideanLogScoring(1.0, 1.0, 1.0)

COUNTERS = (
    "updates",
    "qp_solves",
    "lp_solves",
    "entries_created",
    "entries_revalidated",
    "entries_dominated",
    "dominance_screened",
    "dominance_witness_hits",
    "qp_enumerated",
)

D, S = AccessKind.DISTANCE, AccessKind.SCORE

#: (name, n, d, size, k, kind, algorithm, dominance_period, ties,
#: pull_block, bound_period, seed).  The ``kernel``/``scalar`` in the
#: names records which of two QP paths the config ran when the table
#: was first recorded; both now run the one kernel.
CONFIGS = [
    ("n2-d1-pa-dom1-kernel-uniform", 2, 1, 40, 4, D, "TBPA", 1, False, 1, 1, 1),
    ("n2-d2-rr-dom8-scalar-ties", 2, 2, 36, 5, D, "TBRR", 8, True, 4, 1, 2),
    ("n2-d3-pa-off-kernel-ties", 2, 3, 40, 3, D, "TBPA", None, True, 8, 2, 3),
    ("n2-d2-pa-dom1-scalar-uniform", 2, 2, 30, 6, D, "TBPA", 1, False, 2, 1, 4),
    ("n2-d1-rr-score-kernel-ties", 2, 1, 40, 4, S, "TBRR", None, True, 4, 1, 5),
    ("n2-d3-pa-score-scalar-uniform", 2, 3, 32, 3, S, "TBPA", 8, False, 1, 2, 6),
    ("n2-d2-rr-dom8-kernel-uniform", 2, 2, 6, 2, D, "TBRR", 8, False, 8, 1, 7),
    ("n2-d1-pa-off-scalar-ties", 2, 1, 36, 5, D, "TBPA", None, True, 1, 1, 8),
    ("n3-d2-pa-dom8-kernel-ties", 3, 2, 28, 4, D, "TBPA", 8, True, 8, 1, 11),
    ("n3-d1-rr-dom1-scalar-uniform", 3, 1, 20, 3, D, "TBRR", 1, False, 2, 1, 12),
    ("n3-d3-pa-off-kernel-uniform", 3, 3, 24, 5, D, "TBPA", None, False, 4, 2, 13),
    ("n3-d2-rr-dom8-scalar-ties", 3, 2, 24, 2, D, "TBRR", 8, True, 8, 1, 14),
    ("n3-d1-pa-dom1-kernel-ties", 3, 1, 10, 6, D, "TBPA", 1, True, 1, 1, 15),
    ("n3-d3-rr-score-scalar-ties", 3, 3, 24, 3, S, "TBRR", 1, True, 4, 1, 16),
    ("n3-d2-pa-score-kernel-uniform", 3, 2, 26, 4, S, "TBPA", None, False, 2, 2, 17),
    ("n3-d2-pa-dom1-scalar-uniform", 3, 2, 5, 5, D, "TBPA", 1, False, 4, 1, 18),
    ("n4-d2-pa-dom8-kernel-ties", 4, 2, 14, 3, D, "TBPA", 8, True, 8, 1, 21),
    ("n4-d1-rr-off-scalar-uniform", 4, 1, 12, 2, D, "TBRR", None, False, 2, 1, 22),
    ("n4-d3-pa-dom1-kernel-uniform", 4, 3, 12, 4, D, "TBPA", 1, False, 4, 1, 23),
    ("n4-d2-rr-dom1-scalar-ties", 4, 2, 12, 2, D, "TBRR", 1, True, 4, 2, 24),
    ("n4-d1-pa-dom8-scalar-ties", 4, 1, 8, 5, D, "TBPA", 8, True, 8, 1, 25),
    ("n4-d3-rr-off-kernel-ties", 4, 3, 12, 3, D, "TBRR", None, True, 1, 1, 26),
    ("n4-d2-pa-score-kernel-ties", 4, 2, 14, 3, S, "TBPA", 8, True, 4, 1, 27),
    ("n4-d1-rr-score-scalar-uniform", 4, 1, 12, 2, S, "TBRR", None, False, 2, 1, 28),
]


def make_problem(n, d, size, ties, seed):
    rnd = random.Random(seed)
    relations = []
    for i in range(n):
        if ties:
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
    query = (
        np.zeros(d) if ties else np.array([rnd.uniform(-1.0, 1.0) for _ in range(d)])
    )
    return relations, query


def record(config):
    """One config's run as the literal this module pins."""
    (_, n, d, size, k, kind, algorithm, period, ties, pull_block,
     bound_period, seed) = config
    relations, query = make_problem(n, d, size, ties, seed)
    result = make_algorithm(
        algorithm, relations, SCORING, query, k, kind=kind,
        pull_block=pull_block, bound_period=bound_period,
        dominance_period=period,
    ).run()
    assert result.completed
    return {
        "keys": [list(c.key) for c in result.combinations],
        "scores": [float(c.score).hex() for c in result.combinations],
        "depths": list(result.depths),
        "bound": float(result.bound).hex(),
        "counters": {name: result.counters[name] for name in COUNTERS},
    }


GOLDEN = {
    'n2-d1-pa-dom1-kernel-uniform': {
        'keys': [[22, 2], [22, 36], [22, 16], [15, 2]],
        'scores': ['-0x1.0fbf056866521p-2', '-0x1.111a6b03560f2p-2',
                   '-0x1.7ad400fa66cc5p-2', '-0x1.2565ca7ca1e43p-1'],
        'depths': [14, 12],
        'bound': '-0x1.2e0fbe0bd3d4cp-1',
        'counters': {'updates': 26,
                     'qp_solves': 220,
                     'lp_solves': 1,
                     'entries_created': 26,
                     'entries_revalidated': 194,
                     'entries_dominated': 0,
                     'dominance_screened': 0,
                     'dominance_witness_hits': 44,
                     'qp_enumerated': 0},
    },
    'n2-d2-rr-dom8-scalar-ties': {
        'keys': [[11, 19], [20, 19], [33, 19], [11, 14], [11, 30]],
        'scores': ['0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '-0x1.62e42fefa39efp-1',
                   '-0x1.62e42fefa39efp-1'],
        'depths': [8, 8],
        'bound': '-0x1.8000000000000p+0',
        'counters': {'updates': 4,
                     'qp_solves': 26,
                     'lp_solves': 0,
                     'entries_created': 16,
                     'entries_revalidated': 10,
                     'entries_dominated': 8,
                     'dominance_screened': 8,
                     'dominance_witness_hits': 1,
                     'qp_enumerated': 12},
    },
    'n2-d3-pa-off-kernel-ties': {
        'keys': [[32, 1], [32, 21], [32, 23]],
        'scores': ['-0x1.8000000000000p+0', '-0x1.8000000000000p+0',
                   '-0x1.8000000000000p+0'],
        'depths': [8, 16],
        'bound': '-0x1.0000000000000p+1',
        'counters': {'updates': 3,
                     'qp_solves': 43,
                     'lp_solves': 0,
                     'entries_created': 24,
                     'entries_revalidated': 19,
                     'entries_dominated': 0,
                     'dominance_screened': 0,
                     'dominance_witness_hits': 0,
                     'qp_enumerated': 1},
    },
    'n2-d2-pa-dom1-scalar-uniform': {
        'keys': [[6, 3], [6, 26], [6, 12], [17, 23], [2, 12], [8, 23]],
        'scores': ['-0x1.dd160770ca734p+0', '-0x1.fe53d9d061c50p+0',
                   '-0x1.67ff604a5658cp+1', '-0x1.6ff224af47a92p+1',
                   '-0x1.72a1bea1bc693p+1', '-0x1.7c465664c8306p+1'],
        'depths': [14, 12],
        'bound': '-0x1.95a82d16752f4p+1',
        'counters': {'updates': 13,
                     'qp_solves': 123,
                     'lp_solves': 0,
                     'entries_created': 26,
                     'entries_revalidated': 97,
                     'entries_dominated': 0,
                     'dominance_screened': 0,
                     'dominance_witness_hits': 22,
                     'qp_enumerated': 0},
    },
    'n2-d1-rr-score-kernel-ties': {
        'keys': [[4, 7], [4, 11], [4, 21], [4, 29]],
        'scores': ['0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'],
        'depths': [16, 12],
        'bound': '-0x1.62e42fefa39efp-1',
        'counters': {'updates': 7,
                     'qp_solves': 0,
                     'lp_solves': 0,
                     'entries_created': 28,
                     'entries_revalidated': 0,
                     'entries_dominated': 26,
                     'dominance_screened': 0,
                     'dominance_witness_hits': 0,
                     'qp_enumerated': 0},
    },
    'n2-d3-pa-score-scalar-uniform': {
        'keys': [[18, 31], [20, 31], [18, 25]],
        'scores': ['-0x1.5d940249effb6p+0', '-0x1.e9aee9e6ae4d4p+0',
                   '-0x1.564074174dccep+1'],
        'depths': [32, 32],
        'bound': '-inf',
        'counters': {'updates': 32,
                     'qp_solves': 0,
                     'lp_solves': 0,
                     'entries_created': 62,
                     'entries_revalidated': 0,
                     'entries_dominated': 60,
                     'dominance_screened': 0,
                     'dominance_witness_hits': 0,
                     'qp_enumerated': 0},
    },
    'n2-d2-rr-dom8-kernel-uniform': {
        'keys': [[3, 2], [0, 2]],
        'scores': ['-0x1.12009c8bf80b6p+3', '-0x1.15d78a86b9f1bp+3'],
        'depths': [6, 6],
        'bound': '-inf',
        'counters': {'updates': 2,
                     'qp_solves': 6,
                     'lp_solves': 0,
                     'entries_created': 6,
                     'entries_revalidated': 0,
                     'entries_dominated': 0,
                     'dominance_screened': 0,
                     'dominance_witness_hits': 0,
                     'qp_enumerated': 0},
    },
    'n2-d1-pa-off-scalar-ties': {
        'keys': [[5, 17], [5, 20], [5, 23], [13, 17], [13, 20]],
        'scores': ['0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'],
        'depths': [12, 14],
        'bound': '-0x1.8000000000000p+0',
        'counters': {'updates': 26,
                     'qp_solves': 52,
                     'lp_solves': 0,
                     'entries_created': 26,
                     'entries_revalidated': 26,
                     'entries_dominated': 0,
                     'dominance_screened': 0,
                     'dominance_witness_hits': 0,
                     'qp_enumerated': 23},
    },
    'n3-d2-pa-dom8-kernel-ties': {
        'keys': [[10, 15, 0], [10, 15, 23], [26, 15, 0], [26, 15, 23]],
        'scores': ['-0x1.62e42fefa39efp+0', '-0x1.62e42fefa39efp+0',
                   '-0x1.62e42fefa39efp+0', '-0x1.62e42fefa39efp+0'],
        'depths': [8, 8, 8],
        'bound': '-0x1.aaaaaaaaaaaabp+0',
        'counters': {'updates': 3,
                     'qp_solves': 253,
                     'lp_solves': 12,
                     'entries_created': 216,
                     'entries_revalidated': 37,
                     'entries_dominated': 138,
                     'dominance_screened': 138,
                     'dominance_witness_hits': 4,
                     'qp_enumerated': 16},
    },
    'n3-d1-rr-dom1-scalar-uniform': {
        'keys': [[11, 9, 18], [11, 9, 9], [1, 9, 18]],
        'scores': ['-0x1.9ae138a091c5ep+0', '-0x1.c438b50e6a099p+0',
                   '-0x1.c5034783595e5p+0'],
        'depths': [10, 10, 8],
        'bound': '-0x1.f6973930b53ddp+0',
        'counters': {'updates': 14,
                     'qp_solves': 830,
                     'lp_solves': 16,
                     'entries_created': 288,
                     'entries_revalidated': 542,
                     'entries_dominated': 2,
                     'dominance_screened': 0,
                     'dominance_witness_hits': 66,
                     'qp_enumerated': 0},
    },
    'n3-d3-pa-off-kernel-uniform': {
        'keys': [[19, 1, 4], [19, 1, 7], [19, 1, 23], [2, 1, 4], [8, 7, 15]],
        'scores': ['-0x1.6fc0996c7b93bp+2', '-0x1.bf86c49cc54d8p+2',
                   '-0x1.c023df236e326p+2', '-0x1.c32914cac43e2p+2',
                   '-0x1.d9d4477a628e8p+2'],
        'depths': [12, 12, 12],
        'bound': '-0x1.f6ca0f5a8d0c5p+2',
        'counters': {'updates': 9,
                     'qp_solves': 1017,
                     'lp_solves': 0,
                     'entries_created': 468,
                     'entries_revalidated': 549,
                     'entries_dominated': 0,
                     'dominance_screened': 0,
                     'dominance_witness_hits': 0,
                     'qp_enumerated': 0},
    },
    'n3-d2-rr-dom8-scalar-ties': {
        'keys': [[0, 1, 6], [0, 16, 6]],
        'scores': ['-0x1.62e42fefa39efp+0', '-0x1.62e42fefa39efp+0'],
        'depths': [8, 8, 8],
        'bound': '-0x1.aaaaaaaaaaaabp+0',
        'counters': {'updates': 3,
                     'qp_solves': 244,
                     'lp_solves': 6,
                     'entries_created': 216,
                     'entries_revalidated': 28,
                     'entries_dominated': 157,
                     'dominance_screened': 157,
                     'dominance_witness_hits': 3,
                     'qp_enumerated': 16},
    },
    'n3-d1-pa-dom1-kernel-ties': {
        'keys': [[2, 1, 9], [2, 5, 9], [2, 6, 9], [2, 8, 9], [9, 1, 9],
                 [9, 5, 9]],
        'scores': ['-0x1.62e42fefa39efp+0', '-0x1.62e42fefa39efp+0',
                   '-0x1.62e42fefa39efp+0', '-0x1.62e42fefa39efp+0',
                   '-0x1.62e42fefa39efp+0', '-0x1.62e42fefa39efp+0'],
        'depths': [6, 6, 2],
        'bound': '-0x1.2e0e61513e3d1p+1',
        'counters': {'updates': 14,
                     'qp_solves': 105,
                     'lp_solves': 0,
                     'entries_created': 74,
                     'entries_revalidated': 31,
                     'entries_dominated': 36,
                     'dominance_screened': 36,
                     'dominance_witness_hits': 39,
                     'qp_enumerated': 20},
    },
    'n3-d3-rr-score-scalar-ties': {
        'keys': [[6, 6, 4], [14, 6, 4], [13, 6, 4]],
        'scores': ['-0x1.62e42fefa39efp+0', '-0x1.0a2b23f3bab73p+1',
                   '-0x1.2e0e61513e3d2p+1'],
        'depths': [24, 24, 24],
        'bound': '-inf',
        'counters': {'updates': 18,
                     'qp_solves': 0,
                     'lp_solves': 0,
                     'entries_created': 1520,
                     'entries_revalidated': 0,
                     'entries_dominated': 1514,
                     'dominance_screened': 0,
                     'dominance_witness_hits': 0,
                     'qp_enumerated': 0},
    },
    'n3-d2-pa-score-kernel-uniform': {
        'keys': [[12, 4, 6], [12, 16, 6], [12, 4, 8], [12, 16, 8]],
        'scores': ['-0x1.efbfac0f84977p+0', '-0x1.f56062228785ap+0',
                   '-0x1.f5f184ef011ecp+0', '-0x1.09c73288a3af0p+1'],
        'depths': [24, 16, 14],
        'bound': '-0x1.0d982a906037fp+1',
        'counters': {'updates': 27,
                     'qp_solves': 0,
                     'lp_solves': 0,
                     'entries_created': 998,
                     'entries_revalidated': 0,
                     'entries_dominated': 992,
                     'dominance_screened': 0,
                     'dominance_witness_hits': 0,
                     'qp_enumerated': 0},
    },
    'n3-d2-pa-dom1-scalar-uniform': {
        'keys': [[2, 0, 4], [3, 0, 4], [1, 2, 3], [1, 2, 0], [0, 0, 4]],
        'scores': ['-0x1.c713891733e0ap+2', '-0x1.c917097b849d6p+2',
                   '-0x1.cc20dccb68ff2p+2', '-0x1.d297aca2c72b4p+2',
                   '-0x1.d2c548d7f6396p+2'],
        'depths': [5, 4, 5],
        'bound': '-0x1.26c505c42292ap+3',
        'counters': {'updates': 5,
                     'qp_solves': 105,
                     'lp_solves': 0,
                     'entries_created': 74,
                     'entries_revalidated': 31,
                     'entries_dominated': 0,
                     'dominance_screened': 0,
                     'dominance_witness_hits': 8,
                     'qp_enumerated': 0},
    },
    'n4-d2-pa-dom8-kernel-ties': {
        'keys': [[2, 13, 10, 1], [9, 13, 10, 1], [11, 13, 10, 1]],
        'scores': ['-0x1.917217f7d1cf8p+1', '-0x1.917217f7d1cf8p+1',
                   '-0x1.917217f7d1cf8p+1'],
        'depths': [14, 8, 8, 8],
        'bound': '-0x1.d8b90bfbe8e7cp+1',
        'counters': {'updates': 5,
                     'qp_solves': 3970,
                     'lp_solves': 22,
                     'entries_created': 3766,
                     'entries_revalidated': 204,
                     'entries_dominated': 2029,
                     'dominance_screened': 2029,
                     'dominance_witness_hits': 11,
                     'qp_enumerated': 47},
    },
    'n4-d1-rr-off-scalar-uniform': {
        'keys': [[0, 2, 5, 5], [0, 9, 5, 5]],
        'scores': ['-0x1.55c933a135925p+0', '-0x1.ac825b2239e78p+0'],
        'depths': [8, 8, 8, 8],
        'bound': '-0x1.ce0fb8e2b1fbdp+0',
        'counters': {'updates': 16,
                     'qp_solves': 5744,
                     'lp_solves': 0,
                     'entries_created': 2464,
                     'entries_revalidated': 3280,
                     'entries_dominated': 0,
                     'dominance_screened': 0,
                     'dominance_witness_hits': 0,
                     'qp_enumerated': 0},
    },
    'n4-d3-pa-dom1-kernel-uniform': {
        'keys': [[1, 3, 2, 1], [1, 0, 2, 1], [1, 3, 2, 6], [1, 11, 2, 1]],
        'scores': ['-0x1.be4b3a835be21p+3', '-0x1.ca0d006bc1b04p+3',
                   '-0x1.d11258facc548p+3', '-0x1.e920e5c8027f9p+3'],
        'depths': [8, 8, 8, 4],
        'bound': '-0x1.0a871b64d47f2p+4',
        'counters': {'updates': 7,
                     'qp_solves': 2507,
                     'lp_solves': 3,
                     'entries_created': 1596,
                     'entries_revalidated': 911,
                     'entries_dominated': 0,
                     'dominance_screened': 0,
                     'dominance_witness_hits': 52,
                     'qp_enumerated': 0},
    },
    'n4-d2-rr-dom1-scalar-ties': {
        'keys': [[2, 4, 6, 4], [2, 4, 6, 5]],
        'scores': ['-0x1.38b90bfbe8e7cp+1', '-0x1.38b90bfbe8e7cp+1'],
        'depths': [12, 8, 8, 8],
        'bound': '-0x1.8000000000000p+1',
        'counters': {'updates': 9,
                     'qp_solves': 3470,
                     'lp_solves': 4,
                     'entries_created': 3332,
                     'entries_revalidated': 138,
                     'entries_dominated': 2897,
                     'dominance_screened': 2897,
                     'dominance_witness_hits': 74,
                     'qp_enumerated': 12},
    },
    'n4-d1-pa-dom8-scalar-ties': {
        'keys': [[3, 0, 1, 4], [1, 0, 1, 4], [3, 0, 4, 4], [4, 0, 1, 4],
                 [1, 0, 4, 4]],
        'scores': ['-0x1.62e42fefa39efp-1', '-0x1.62e42fefa39efp+0',
                   '-0x1.62e42fefa39efp+0', '-0x1.c000000000000p+0',
                   '-0x1.0a2b23f3bab73p+1'],
        'depths': [8, 8, 8, 8],
        'bound': '-inf',
        'counters': {'updates': 4,
                     'qp_solves': 584,
                     'lp_solves': 0,
                     'entries_created': 584,
                     'entries_revalidated': 0,
                     'entries_dominated': 544,
                     'dominance_screened': 544,
                     'dominance_witness_hits': 0,
                     'qp_enumerated': 140},
    },
    'n4-d3-rr-off-kernel-ties': {
        'keys': [[2, 0, 7, 3], [2, 0, 7, 9], [6, 8, 7, 3]],
        'scores': ['-0x1.062e42fefa3a0p+3', '-0x1.0c5c85fdf473ep+3',
                   '-0x1.162e42fefa39fp+3'],
        'depths': [10, 10, 10, 10],
        'bound': '-0x1.199dc7afdb7b4p+3',
        'counters': {'updates': 40,
                     'qp_solves': 7750,
                     'lp_solves': 0,
                     'entries_created': 4640,
                     'entries_revalidated': 3110,
                     'entries_dominated': 0,
                     'dominance_screened': 0,
                     'dominance_witness_hits': 0,
                     'qp_enumerated': 0},
    },
    'n4-d2-pa-score-kernel-ties': {
        'keys': [[8, 8, 3, 3], [10, 8, 3, 3], [8, 8, 4, 3]],
        'scores': ['-0x1.62e42fefa39efp-1', '-0x1.62e42fefa39efp-1',
                   '-0x1.62e42fefa39efp+0'],
        'depths': [14, 12, 12, 12],
        'bound': '-0x1.0a2b23f3bab73p+1',
        'counters': {'updates': 13,
                     'qp_solves': 0,
                     'lp_solves': 0,
                     'entries_created': 8762,
                     'entries_revalidated': 0,
                     'entries_dominated': 8748,
                     'dominance_screened': 0,
                     'dominance_witness_hits': 0,
                     'qp_enumerated': 0},
    },
    'n4-d1-rr-score-scalar-uniform': {
        'keys': [[9, 4, 7, 9], [9, 4, 7, 7]],
        'scores': ['-0x1.f478127c04676p-1', '-0x1.99694f2762683p+0'],
        'depths': [8, 8, 8, 8],
        'bound': '-0x1.a04fbed5ab5a1p+0',
        'counters': {'updates': 16,
                     'qp_solves': 0,
                     'lp_solves': 0,
                     'entries_created': 2464,
                     'entries_revalidated': 0,
                     'entries_dominated': 2450,
                     'dominance_screened': 0,
                     'dominance_witness_hits': 0,
                     'qp_enumerated': 0},
    },
}


@pytest.mark.parametrize("config", CONFIGS, ids=[c[0] for c in CONFIGS])
def test_bound_matches_golden(config):
    assert record(config) == GOLDEN[config[0]]


if __name__ == "__main__":
    import pprint

    print("GOLDEN = {")
    for config in CONFIGS:
        print(f"    {config[0]!r}: {{")
        for field, value in record(config).items():
            prefix = f"        {field!r}: "
            text = pprint.pformat(
                value, width=79 - len(prefix), compact=True, sort_dicts=False
            )
            print(prefix + text.replace("\n", "\n" + " " * len(prefix)) + ",")
        print("    },")
    print("}")

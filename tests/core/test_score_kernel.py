"""The quadratic family's one scoring arithmetic.

Two contracts of :meth:`~repro.core.scoring.QuadraticFormScoring.
score_rows`:

* **Row stability** — a row's float does not depend on the batch it is
  scored in: alone, inside a shuffled batch and inside a strided slice
  it is the same float, compared with ``==``.
* **One path** — quadratic engine runs score every combination through
  the kernel in one call per admitted cohort, never through
  ``make_combination``/``score_combination`` (the per-row path the
  brute-force oracle takes); only non-quadratic scorings (the cosine
  extension) reach the generic per-combination path.
"""

import numpy as np
import pytest

from repro.core import (
    AccessKind,
    CosineProximityScoring,
    EuclideanLogScoring,
    LinearScoring,
    RankTuple,
    Relation,
    ShardedRelation,
    brute_force_topk,
    make_algorithm,
)
from repro.core.scoring import QuadraticFormScoring, Scoring
from repro.service import make_service_streams

SCORINGS = [EuclideanLogScoring(1.3, 0.7, 2.1), LinearScoring(1.0, 1.0, 1.0)]


def rows(rng, batch, n, d, ties):
    """``(scores (B, n), centred (B, n, d))``: uniform floats, or a tiny
    grid and a three-rung score ladder where most rows tie exactly."""
    if ties:
        scores = rng.choice([0.25, 0.5, 1.0], (batch, n))
        vectors = rng.choice([-1.0, 0.0, 1.0], (batch, n, d))
        query = np.zeros(d)
    else:
        scores = rng.uniform(0.05, 1.0, (batch, n))
        vectors = rng.uniform(-2.0, 2.0, (batch, n, d))
        query = rng.uniform(-1.0, 1.0, d)
    return scores, vectors - query


@pytest.mark.parametrize("ties", [False, True], ids=["uniform", "ties"])
@pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("scoring", SCORINGS, ids=lambda s: type(s).__name__)
def test_rows_are_batch_independent(scoring, n, d, ties):
    rng = np.random.default_rng([n, d, ties])
    scores, centred = rows(rng, 37, n, d, ties)
    batch = scoring.score_rows(scores, centred)
    assert batch.shape == (37,)
    alone = np.array(
        [scoring.score_rows(scores[r : r + 1], centred[r : r + 1])[0] for r in range(37)]
    )
    assert (batch == alone).all()
    perm = rng.permutation(37)
    assert (scoring.score_rows(scores[perm], centred[perm]) == batch[perm]).all()
    assert (scoring.score_rows(scores[1::3], centred[1::3]) == batch[1::3]).all()
    # The kernel evaluates eq. (2): the object formula agrees to rounding.
    query = np.zeros(d)
    for r in range(0, 37, 9):
        reference = Scoring.score_combination(
            scoring,
            [RankTuple("R", 0, float(scores[r, i]), centred[r, i]) for i in range(n)],
            query,
        )
        assert batch[r] == pytest.approx(reference, rel=1e-12, abs=1e-12)


class _ScoringSpy:
    """Counts calls of the per-combination scoring path while armed."""

    def __init__(self, monkeypatch):
        self.calls = 0
        self.armed = False
        for owner, name in (
            (Scoring, "make_combination"),
            (Scoring, "score_combination"),
            (QuadraticFormScoring, "score_combination"),
        ):
            monkeypatch.setattr(owner, name, self._wrap(owner.__dict__[name]))

    def _wrap(self, fn):
        def counted(*args, **kwargs):
            if self.armed:
                self.calls += 1
            return fn(*args, **kwargs)

        return counted

    def run(self, engine):
        self.armed = True
        try:
            return engine.run()
        finally:
            self.armed = False


def spy_problem(seed, shards):
    rng = np.random.default_rng(seed)
    relations = []
    for i in range(3):
        scores = rng.choice([0.25, 0.5, 1.0], 14)
        vectors = rng.choice([-1.0, 0.0, 1.0], (14, 2))
        rel = Relation(f"R{i}", scores, vectors, sigma_max=1.0)
        if shards > 1:
            rel = ShardedRelation.from_relation(rel, shards=shards)
        relations.append(rel)
    return relations, rng.uniform(-0.5, 0.5, 2)


def keyed(combos):
    return [(c.key, c.score) for c in combos]


@pytest.mark.parametrize("streams", ["local", "sharded", "service"])
@pytest.mark.parametrize("kind", [AccessKind.DISTANCE, AccessKind.SCORE], ids=["dist", "score"])
@pytest.mark.parametrize("block", [1, 4])
@pytest.mark.parametrize("algo", ["CBRR", "CBPA", "TBRR", "TBPA"])
def test_quadratic_engine_never_scores_per_row(monkeypatch, algo, block, kind, streams):
    relations, query = spy_problem(block, 3 if streams == "sharded" else 1)
    scoring = EuclideanLogScoring()
    oracle = keyed(brute_force_topk(relations, scoring, query, 4))
    options = {}
    if streams == "service":
        options["stream_factory"] = lambda: make_service_streams(
            relations, kind=kind, query=query, page_size=3
        )
    engine = make_algorithm(
        algo, relations, scoring, query, 4, kind=kind, pull_block=block, **options
    )
    spy = _ScoringSpy(monkeypatch)
    result = spy.run(engine)
    assert spy.calls == 0
    assert result.completed and result.combinations_formed > 0
    assert keyed(result.combinations) == oracle


def test_cosine_engine_takes_the_generic_path(monkeypatch):
    relations, query = spy_problem(5, 1)
    scoring = CosineProximityScoring()
    oracle = keyed(brute_force_topk(relations, scoring, query, 3))
    engine = make_algorithm("CBRR", relations, scoring, query, 3, kind=AccessKind.SCORE)
    spy = _ScoringSpy(monkeypatch)
    result = spy.run(engine)
    assert spy.calls > 0
    assert keyed(result.combinations) == oracle

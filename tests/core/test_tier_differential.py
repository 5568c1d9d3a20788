"""Seeded cross-tier differential driver.

Every shard tier reads its access orders through one window cursor
(``repro.core.access.ShardCursor``), so every tier must return exactly
what the in-memory single-shard run returns.  This driver draws random
configurations with stdlib ``random`` (relation count, dimension, k,
block size, access kind, algorithm, shard count, partition, uniform or
tie-heavy data) and runs each one on one tier:

* ``sharded`` — in-memory ``ShardedRelation``;
* ``durable_hot`` / ``durable_evicted`` — the persisted relation,
  memmap-hot or with every shard evicted and paged back (the page size
  is drawn too, so evicted shards fill over several windows);
* ``service_streams`` — ``make_service_streams`` over blocking remote
  endpoint windows;
* ``async_pipelined`` / ``async_serial`` — ``AsyncRankJoinService``
  with and without prefetch.

The first three run either on the engine directly or through
``RankJoinService``.  A completed run must equal the in-memory
single-shard run of the same algorithm and knobs with ``==`` on the
ranked ``(key, score)`` list, the depths and the bound.  Agreement with
the brute-force oracle is the other suites' job.  A failure names the
config's seed; ``pytest tests/core/test_tier_differential.py -k
seed<N>`` reruns it alone.
"""

import random

import numpy as np
import pytest

from repro.core import (
    AccessKind,
    EuclideanLogScoring,
    Relation,
    ShardedRelation,
    make_algorithm,
)
from repro.core.durable import open_relation, persist_relation
from repro.service import (
    AsyncRankJoinService,
    LatencyModel,
    RankJoinService,
    make_service_streams,
)

CONFIGS = 150
SEED_BASE = 20_000
TIERS = (
    "sharded",
    "durable_hot",
    "durable_evicted",
    "service_streams",
    "async_pipelined",
    "async_serial",
)
SCORING = EuclideanLogScoring(1.0, 1.0, 1.0)


def draw_config(seed):
    rnd = random.Random(seed)
    return {
        "seed": seed,
        "tier": TIERS[seed % len(TIERS)],
        "n": rnd.choice((2, 3)),
        "d": rnd.choice((1, 2, 3)),
        "size": rnd.randint(12, 80),
        "k": rnd.randint(1, 6),
        "pull_block": rnd.choice((1, 2, 5, 8, 16)),
        "kind": rnd.choice((AccessKind.DISTANCE, AccessKind.SCORE)),
        "algorithm": rnd.choice(("CBRR", "CBPA", "TBRR", "TBPA")),
        "shards": rnd.choice((1, 2, 3, 4, 7)),
        "partition": rnd.choice(("hash", "range")),
        "ties": rnd.random() < 0.4,
        "page_size": rnd.choice((1, 3, 4, 10, 25)),
        "via_service": rnd.random() < 0.5,
    }


def make_problem(cfg):
    """Relations and a query exactly representable after the services'
    6-decimal query canonicalisation (so every tier runs one query)."""
    rnd = random.Random(cfg["seed"] + 1)
    n, d, size = cfg["n"], cfg["d"], cfg["size"]
    relations = []
    for i in range(n):
        if cfg["ties"]:
            scores = [rnd.choice((0.5, 1.0)) for _ in range(size)]
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
        query = np.array([round(rnd.uniform(-1.0, 1.0), 3) for _ in range(d)])
    return relations, query


def ranked(result):
    return (
        [(c.key, c.score) for c in result.combinations],
        list(result.depths),
        result.bound,
    )


def engine_run(cfg, relations, query, **kwargs):
    return make_algorithm(
        cfg["algorithm"], relations, SCORING, query, cfg["k"],
        kind=cfg["kind"], pull_block=cfg["pull_block"], **kwargs,
    ).run()


def service_run(cfg, relations, query):
    with RankJoinService(
        relations, SCORING, kind=cfg["kind"], algorithm=cfg["algorithm"],
        k=cfg["k"], pull_block=cfg["pull_block"], result_cache_size=0,
    ) as service:
        return service.submit(query)


def sharded(cfg, relations):
    return [
        ShardedRelation.from_relation(
            r, shards=cfg["shards"], partition=cfg["partition"]
        )
        for r in relations
    ]


def run_tier(cfg, relations, query, tmp_path):
    tier = cfg["tier"]
    front = service_run if cfg["via_service"] else engine_run
    if tier == "sharded":
        return front(cfg, sharded(cfg, relations), query)
    if tier in ("durable_hot", "durable_evicted"):
        for r in sharded(cfg, relations):
            persist_relation(r, tmp_path)
        durable = [
            open_relation(tmp_path, r.name, page_rows=cfg["page_size"])
            for r in relations
        ]
        try:
            if tier == "durable_evicted":
                for r in durable:
                    r.storage.evict_all()
            result = front(cfg, durable, query)
            if tier == "durable_evicted":
                assert all(r.storage.counters["paged_windows"] for r in durable)
            return result
        finally:
            for r in durable:
                r.close()
    if tier == "service_streams":
        return engine_run(
            cfg, relations, query,
            stream_factory=lambda: make_service_streams(
                relations, kind=cfg["kind"], query=query,
                page_size=cfg["page_size"], seed=cfg["seed"],
            ),
        )
    service = AsyncRankJoinService(
        sharded(cfg, relations), SCORING, kind=cfg["kind"],
        algorithm=cfg["algorithm"], k=cfg["k"], pull_block=cfg["pull_block"],
        result_cache_size=0, page_size=cfg["page_size"],
        latency=LatencyModel(base=0.0, jitter=0.0),
        pipelined=tier == "async_pipelined", seed=cfg["seed"],
    )
    try:
        return service.serve([query])[0]
    finally:
        service.close()


@pytest.mark.parametrize(
    "seed", [SEED_BASE + i for i in range(CONFIGS)], ids=lambda s: f"seed{s}"
)
def test_tier_matches_single_shard(seed, tmp_path):
    cfg = draw_config(seed)
    repro = (
        f"repro: pytest tests/core/test_tier_differential.py -k seed{seed} "
        f"({', '.join(f'{k}={v}' for k, v in cfg.items() if k != 'seed')})"
    )
    # Shown with the failure even when a tier raises instead of diverging.
    print(repro)
    relations, query = make_problem(cfg)
    reference = engine_run(cfg, relations, query)
    result = run_tier(cfg, relations, query, tmp_path)
    assert reference.completed, repro
    assert result.completed, repro
    assert ranked(result) == ranked(reference), repro

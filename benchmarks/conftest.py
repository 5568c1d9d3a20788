"""Shared helpers for the figure benchmarks.

Each benchmark regenerates one cell of a figure of the paper: it builds
the Table 2 workload for that cell, runs one algorithm, records the
paper's metrics (sumDepths, combinations formed, bound share) in
``benchmark.extra_info``, and lets pytest-benchmark own the wall-clock
measurement (the paper's "total CPU time" axis).

A fresh engine is constructed inside every measured round: bounding
schemes carry per-run synchronisation state and must not be reused.

Besides the pytest-benchmark output, a pytest run with
``PROXRJ_BENCH_JSON`` set writes a machine-readable trajectory file at
that path (CI points it at ``BENCH_core.json``): one record per
benchmarked run with wall-clock, ``sum_depths`` and
``combinations_formed``, so successive PRs can diff the perf trajectory
instead of re-reading logs.  Without the variable nothing is written —
a plain ``pytest`` run (which collects ``benchmarks/``) leaves the
committed ``BENCH_core.json`` alone.  Tests add records via
:func:`record_bench`; :func:`run_and_record` does it automatically.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import AccessKind, EuclideanLogScoring, make_algorithm
from repro.data import SyntheticConfig, city_problem, generate_problem

ALGORITHMS = ("CBRR", "CBPA", "TBRR", "TBPA")

#: One dataset per cell keeps benchmark time manageable; the experiment
#: harness (python -m repro.experiments) is the multi-seed path.
BENCH_SEED = 0
N_TUPLES = 400

#: Records accumulated over the session and flushed to BENCH_core.json.
_BENCH_RECORDS: list[dict] = []


def record_bench(name: str, wall_seconds: float, **metrics) -> None:
    """Add one record to the session's ``BENCH_core.json``."""
    record = {"name": name, "wall_seconds": round(float(wall_seconds), 6)}
    for key, value in metrics.items():
        if isinstance(value, (np.integer,)):
            value = int(value)
        elif isinstance(value, (np.floating,)):
            value = float(value)
        record[key] = value
    _BENCH_RECORDS.append(record)


def pytest_sessionfinish(session, exitstatus):
    target = os.environ.get("PROXRJ_BENCH_JSON")
    if not _BENCH_RECORDS or not target:
        return
    # Merge by record name into any existing trajectory file: records this
    # session re-measured are replaced in place, everything else is kept.
    # A partial run (one benchmark file, or a CI job that only runs the
    # sharded suite) therefore *extends* BENCH_core.json instead of
    # clobbering the rest of the trajectory.  Quick-mode records are
    # tagged individually so a quick partial merge never masquerades as
    # full-workload numbers next to retained full-mode entries (the
    # top-level flags describe only the *last* session).
    quick = bool(os.environ.get("PROXRJ_BENCH_QUICK"))
    if quick:
        for record in _BENCH_RECORDS:
            record["quick"] = True
    path = Path(target)
    records: list[dict] = []
    try:
        records = json.loads(path.read_text()).get("records", [])
    except (OSError, ValueError):
        records = []
    fresh = {r["name"]: r for r in _BENCH_RECORDS}
    merged = [fresh.pop(r["name"], r) for r in records]
    merged.extend(fresh.values())
    # Stable on-disk form: records sorted by name, keys sorted inside
    # every object — partial runs merging in any order produce the same
    # file, so BENCH_core.json diffs show only values that changed.
    merged.sort(key=lambda r: r["name"])
    payload = {
        "schema": 1,
        "python": platform.python_version(),
        "platform": sys.platform,
        "quick_mode": quick,
        "records": merged,
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(
        f"\n[bench] wrote {len(_BENCH_RECORDS)} records to {path} "
        f"({len(merged)} total after merge)"
    )


def synthetic_problem(**overrides):
    config = SyntheticConfig(
        n_relations=overrides.pop("n_relations", 2),
        dims=overrides.pop("dims", 2),
        density=overrides.pop("density", 50.0),
        skew=overrides.pop("skew", 1.0),
        n_tuples=overrides.pop("n_tuples", N_TUPLES),
        seed=overrides.pop("seed", BENCH_SEED),
    )
    assert not overrides, f"unknown overrides: {overrides}"
    return generate_problem(config)


def run_and_record(benchmark, problem, algo, k=10, *, rounds=1, **algo_kwargs):
    """Benchmark ``algo`` on ``problem`` and stash the paper's metrics."""
    relations, query = problem
    scoring = EuclideanLogScoring(1.0, 1.0, 1.0)

    def once():
        engine = make_algorithm(
            algo, relations, scoring, query, k,
            kind=AccessKind.DISTANCE, **algo_kwargs,
        )
        return engine.run()

    result = benchmark.pedantic(once, rounds=rounds, iterations=1)
    benchmark.extra_info["sum_depths"] = result.sum_depths
    benchmark.extra_info["depths"] = list(result.depths)
    benchmark.extra_info["combinations_formed"] = result.combinations_formed
    benchmark.extra_info["bound_seconds"] = round(result.bound_seconds, 6)
    benchmark.extra_info["dominance_seconds"] = round(result.dominance_seconds, 6)
    benchmark.extra_info["solver_seconds"] = round(result.solver_seconds, 6)
    benchmark.extra_info["completed"] = result.completed
    record_bench(
        benchmark.name,
        result.total_seconds,
        sum_depths=result.sum_depths,
        combinations_formed=result.combinations_formed,
        completed=result.completed,
        bound_seconds=round(result.bound_seconds, 6),
        dominance_seconds=round(result.dominance_seconds, 6),
        solver_seconds=round(result.solver_seconds, 6),
    )
    return result


@pytest.fixture(scope="session")
def city_problems():
    return {code: city_problem(code) for code in ("SF", "NY", "BO", "DA", "HO")}

"""Experiment harness: run algorithm grids over generated datasets and
aggregate the paper's metrics (sumDepths, total CPU time, bound share,
dominance share), averaged over seeds as in Section 4.1."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.core import AccessKind, EuclideanLogScoring, make_algorithm
from repro.core.relation import Relation
from repro.data.synthetic import SyntheticConfig, generate_problem
from repro.experiments.config import ExperimentSettings

__all__ = ["Measurement", "CellResult", "run_cell", "run_synthetic_cell"]


@dataclass(frozen=True)
class Measurement:
    """One (algorithm, dataset) run reduced to the paper's metrics.

    ``remote_seconds`` is the *simulated* network latency the run's
    accesses would have paid against remote services (0 for local
    cells) — the latency-weighted cost the paper's sumDepths metric is
    a proxy for.  ``solver_seconds`` is the wall-clock spent inside the
    LP/QP kernels proper (a sub-share of ``bound_seconds +
    dominance_seconds``), so perf PRs can diff engine bookkeeping
    against solver time straight from ``BENCH_core.json``.
    """

    algorithm: str
    sum_depths: int
    depths: tuple[int, ...]
    total_seconds: float
    bound_seconds: float
    dominance_seconds: float
    combinations_formed: int
    completed: bool
    remote_seconds: float = 0.0
    solver_seconds: float = 0.0


@dataclass
class CellResult:
    """All runs of one parameter point, with per-algorithm averages."""

    label: str
    measurements: list[Measurement] = field(default_factory=list)

    def algorithms(self) -> list[str]:
        seen: list[str] = []
        for m in self.measurements:
            if m.algorithm not in seen:
                seen.append(m.algorithm)
        return seen

    def _per_algo(self, algo: str) -> list[Measurement]:
        return [m for m in self.measurements if m.algorithm == algo]

    def mean_sum_depths(self, algo: str) -> float:
        runs = self._per_algo(algo)
        return float(np.mean([m.sum_depths for m in runs])) if runs else float("nan")

    def mean_total_seconds(self, algo: str) -> float:
        runs = self._per_algo(algo)
        return float(np.mean([m.total_seconds for m in runs])) if runs else float("nan")

    def mean_bound_seconds(self, algo: str) -> float:
        runs = self._per_algo(algo)
        return float(np.mean([m.bound_seconds for m in runs])) if runs else float("nan")

    def mean_dominance_seconds(self, algo: str) -> float:
        runs = self._per_algo(algo)
        return (
            float(np.mean([m.dominance_seconds for m in runs])) if runs else float("nan")
        )

    def mean_combinations(self, algo: str) -> float:
        runs = self._per_algo(algo)
        return (
            float(np.mean([m.combinations_formed for m in runs]))
            if runs
            else float("nan")
        )

    def all_completed(self, algo: str) -> bool:
        return all(m.completed for m in self._per_algo(algo))

    def mean_remote_seconds(self, algo: str) -> float:
        runs = self._per_algo(algo)
        return float(np.mean([m.remote_seconds for m in runs])) if runs else float("nan")

    def mean_solver_seconds(self, algo: str) -> float:
        runs = self._per_algo(algo)
        return float(np.mean([m.solver_seconds for m in runs])) if runs else float("nan")


def run_cell(
    label: str,
    problems: Iterable[tuple[list[Relation], np.ndarray]],
    *,
    k: int,
    settings: ExperimentSettings,
    kind: AccessKind = AccessKind.DISTANCE,
    dominance_period: int | None = None,
    pull_block: int = 1,
    vectorise: bool = True,
    algorithms: tuple[str, ...] | None = None,
    remote_latency: float = 0.0,
    remote_jitter: float = 0.0,
    remote_page_size: int = 10,
) -> CellResult:
    """Run every algorithm on every problem instance of one cell.

    ``pull_block > 1`` runs every algorithm in the engine's block-pull
    mode (same ranked top-K on completed runs; amortised bound updates
    and vectorised block scoring).  ``vectorise=False`` pins the scalar
    object-per-tuple path, the ablation baseline for the columnar engine.

    ``remote_latency > 0`` serves every stream through the simulated
    remote endpoints (:func:`repro.service.make_service_streams`) with
    per-call latency ``remote_latency + U(0, remote_jitter)`` and pages
    of ``remote_page_size`` tuples; each measurement then reports the
    accumulated simulated network time as ``remote_seconds``.  Answers
    are identical to local streams — only the cost model changes.
    """
    scoring = EuclideanLogScoring(settings.w_s, settings.w_q, settings.w_mu)
    cell = CellResult(label=label)
    algos = algorithms if algorithms is not None else settings.algorithms
    latency_model = None
    if remote_latency > 0 or remote_jitter > 0:
        from repro.service.simulation import LatencyModel

        latency_model = LatencyModel(base=remote_latency, jitter=remote_jitter)
    for problem_index, (relations, query) in enumerate(problems):
        for algo in algos:
            kwargs: dict = {
                "kind": kind,
                "max_pulls": settings.max_pulls,
                "pull_block": pull_block,
                "vectorise": vectorise,
            }
            if algo.upper().startswith("TB"):
                kwargs["dominance_period"] = dominance_period
            opened: list = []
            if latency_model is not None:
                from repro.service.simulation import make_service_streams

                def factory(
                    _relations=relations, _query=query, _sink=opened
                ) -> list:
                    streams = make_service_streams(
                        _relations,
                        kind=kind,
                        query=_query,
                        page_size=remote_page_size,
                        latency=latency_model,
                        seed=problem_index,
                    )
                    _sink.extend(streams)
                    return streams

                kwargs["stream_factory"] = factory
            engine = make_algorithm(algo, relations, scoring, query, k, **kwargs)
            result = engine.run()
            cell.measurements.append(
                Measurement(
                    algorithm=algo.upper(),
                    sum_depths=result.sum_depths,
                    depths=tuple(result.depths),
                    total_seconds=result.total_seconds,
                    bound_seconds=result.bound_seconds,
                    dominance_seconds=result.dominance_seconds,
                    combinations_formed=result.combinations_formed,
                    completed=result.completed,
                    remote_seconds=float(
                        sum(
                            c.source.simulated_seconds
                            for s in opened
                            for c in s.cursors
                        )
                    ),
                    solver_seconds=result.solver_seconds,
                )
            )
    return cell


def run_synthetic_cell(
    label: str,
    *,
    k: int,
    n_relations: int,
    dims: int,
    density: float,
    skew: float,
    settings: ExperimentSettings,
    kind: AccessKind = AccessKind.DISTANCE,
    dominance_period: int | None = None,
    pull_block: int = 1,
    vectorise: bool = True,
    algorithms: tuple[str, ...] | None = None,
    shards: int = 1,
    partition: str = "hash",
    remote_latency: float = 0.0,
    remote_jitter: float = 0.0,
    remote_page_size: int = 10,
) -> CellResult:
    """One Table 2 parameter point over ``settings.seeds`` fresh datasets.

    ``shards > 1`` serves every relation through the sharded storage
    backend (same sampled tuples, per-shard sorted orders merged at
    access time) — completed runs report identical results and depths to
    ``shards=1``, so the cell isolates the storage layer's CPU cost.

    ``remote_latency > 0`` (with optional ``remote_jitter`` /
    ``remote_page_size``, matching the :class:`~repro.data.
    SyntheticConfig` knobs) serves the cell through simulated remote
    endpoints and reports the simulated network time per run.
    """
    problems = (
        generate_problem(
            SyntheticConfig(
                n_relations=n_relations,
                dims=dims,
                density=density,
                skew=skew,
                n_tuples=settings.n_tuples,
                seed=seed,
                shards=shards,
                partition=partition,
                remote_latency=remote_latency,
                remote_jitter=remote_jitter,
                remote_page_size=remote_page_size,
            )
        )
        for seed in range(settings.seeds)
    )
    return run_cell(
        label,
        problems,
        k=k,
        settings=settings,
        kind=kind,
        dominance_period=dominance_period,
        pull_block=pull_block,
        vectorise=vectorise,
        algorithms=algorithms,
        remote_latency=remote_latency,
        remote_jitter=remote_jitter,
        remote_page_size=remote_page_size,
    )

"""One experiment definition per figure of the paper's Section 4.

Each ``fig3x`` function sweeps the parameter its figure varies (all others
at Table 2 defaults) and returns the list of :class:`CellResult` points.
sumDepths figures and CPU figures share cells — Figure 3(a)/(d) are two
views of the same runs — so the sweep functions return everything and the
report layer picks the metric.
"""

from __future__ import annotations

from typing import Callable

from repro.core import AccessKind
from repro.data.cities import city_names, city_problem
from repro.experiments.config import DEFAULTS, TESTED, ExperimentSettings
from repro.experiments.harness import CellResult, run_cell, run_synthetic_cell

__all__ = [
    "sweep_k",
    "sweep_dims",
    "sweep_density",
    "sweep_skew",
    "sweep_n_relations",
    "sweep_cities",
    "sweep_dominance_period",
    "FIGURES",
    "figure_cells",
]


def sweep_k(settings: ExperimentSettings) -> list[CellResult]:
    """Figure 3(a)/(d): number of results K in {1, 10, 50}."""
    return [
        run_synthetic_cell(
            f"K={k}",
            k=k,
            n_relations=DEFAULTS["n_relations"],
            dims=DEFAULTS["dims"],
            density=DEFAULTS["density"],
            skew=DEFAULTS["skew"],
            settings=settings,
        )
        for k in TESTED["k"]
    ]


def sweep_dims(settings: ExperimentSettings) -> list[CellResult]:
    """Figure 3(b)/(e): dimensionality d in {1, 2, 4, 8, 16}."""
    return [
        run_synthetic_cell(
            f"d={d}",
            k=DEFAULTS["k"],
            n_relations=DEFAULTS["n_relations"],
            dims=d,
            density=DEFAULTS["density"],
            skew=DEFAULTS["skew"],
            settings=settings,
        )
        for d in TESTED["dims"]
    ]


def sweep_density(settings: ExperimentSettings) -> list[CellResult]:
    """Figure 3(c)/(f): density rho in {20, 50, 100, 200}."""
    return [
        run_synthetic_cell(
            f"rho={int(rho)}",
            k=DEFAULTS["k"],
            n_relations=DEFAULTS["n_relations"],
            dims=DEFAULTS["dims"],
            density=rho,
            skew=DEFAULTS["skew"],
            settings=settings,
        )
        for rho in TESTED["density"]
    ]


def sweep_skew(settings: ExperimentSettings) -> list[CellResult]:
    """Figure 3(g)/(j): skewness rho1/rho2 in {1, 2, 4, 8}."""
    return [
        run_synthetic_cell(
            f"skew={int(s)}",
            k=DEFAULTS["k"],
            n_relations=DEFAULTS["n_relations"],
            dims=DEFAULTS["dims"],
            density=DEFAULTS["density"],
            skew=s,
            settings=settings,
        )
        for s in TESTED["skew"]
    ]


def sweep_n_relations(settings: ExperimentSettings) -> list[CellResult]:
    """Figure 3(h)/(k): number of relations n in {2, 3, 4}.

    The paper reports CBPA unable to finish n = 4 within five minutes;
    ``settings.max_pulls`` reproduces that cut-off (runs are flagged
    incomplete rather than silently truncated).
    """
    return [
        run_synthetic_cell(
            f"n={n}",
            k=DEFAULTS["k"],
            n_relations=n,
            dims=DEFAULTS["dims"],
            density=DEFAULTS["density"],
            skew=DEFAULTS["skew"],
            settings=settings,
        )
        for n in TESTED["n_relations"]
    ]


def sweep_cities(settings: ExperimentSettings) -> list[CellResult]:
    """Figure 3(i)/(l): the five city datasets, K = 10 (Appendix D.2).

    City datasets are fixed snapshots, so the averaging dimension is the
    single dataset (the paper also runs one query per city).
    """
    cells = []
    for code in city_names():
        cells.append(
            run_cell(
                code,
                [city_problem(code)],
                k=10,
                settings=settings,
            )
        )
    return cells


def sweep_dominance_period(
    settings: ExperimentSettings, n_relations: int
) -> list[CellResult]:
    """Figures 3(m)/(n): dominance period for n = 2 and n = 3.

    Only the tight-bound algorithms participate (dominance is a tight-
    bound refinement); period None is the paper's "infinity" bar.

    A documented reproduction deviation: the paper's wins (~4% at n = 2,
    ~35% at n = 3 around period 8) do not reproduce.  On the benchmark
    sweep (``benchmarks/test_bench_fig3_dominance.py``, which lists the
    per-period numbers) the pass flags no row, every period solves as
    many bound QPs as dominance off, and no period runs faster than
    period None beyond the host's run-to-run spread.  The revalidation
    fast path, the closed-form QPs and the exact lazy pass leave
    dominance no re-solves to save; the paper's gain assumed re-solves
    this implementation never makes, and dominance stays off by default.
    """
    cells = []
    for period in TESTED["dominance_period"]:
        label = "inf" if period is None else str(period)
        cells.append(
            run_synthetic_cell(
                f"period={label}",
                k=DEFAULTS["k"],
                n_relations=n_relations,
                dims=DEFAULTS["dims"],
                density=DEFAULTS["density"],
                skew=DEFAULTS["skew"],
                settings=settings,
                dominance_period=period,
                algorithms=("TBRR", "TBPA"),
            )
        )
    return cells


#: Figure id -> (sweep callable, metric, description).
FIGURES: dict[str, tuple[Callable[..., list[CellResult]], str, str]] = {
    "fig3a": (sweep_k, "sumDepths", "sumDepths vs number of results K"),
    "fig3b": (sweep_dims, "sumDepths", "sumDepths vs dimensionality d"),
    "fig3c": (sweep_density, "sumDepths", "sumDepths vs density rho"),
    "fig3d": (sweep_k, "cpu", "total CPU time vs number of results K"),
    "fig3e": (sweep_dims, "cpu", "total CPU time vs dimensionality d"),
    "fig3f": (sweep_density, "cpu", "total CPU time vs density rho"),
    "fig3g": (sweep_skew, "sumDepths", "sumDepths vs skewness rho1/rho2"),
    "fig3h": (sweep_n_relations, "sumDepths", "sumDepths vs number of relations n"),
    "fig3i": (sweep_cities, "sumDepths", "sumDepths on the five city datasets"),
    "fig3j": (sweep_skew, "cpu", "total CPU time vs skewness rho1/rho2"),
    "fig3k": (sweep_n_relations, "cpu", "total CPU time vs number of relations n"),
    "fig3l": (sweep_cities, "cpu", "total CPU time on the five city datasets"),
    "fig3m": (
        lambda settings: sweep_dominance_period(settings, 2),
        "cpu_split",
        "CPU split vs dominance period, n = 2",
    ),
    "fig3n": (
        lambda settings: sweep_dominance_period(settings, 3),
        "cpu_split",
        "CPU split vs dominance period, n = 3",
    ),
}

# Sweeps shared by a sumDepths/cpu figure pair: run once, report twice.
_SHARED = {
    "fig3d": "fig3a",
    "fig3e": "fig3b",
    "fig3f": "fig3c",
    "fig3j": "fig3g",
    "fig3k": "fig3h",
    "fig3l": "fig3i",
}


def figure_cells(
    figure: str,
    settings: ExperimentSettings,
    cache: dict[str, list[CellResult]] | None = None,
) -> list[CellResult]:
    """Run (or fetch from ``cache``) the sweep behind one figure id."""
    if figure not in FIGURES:
        raise KeyError(f"unknown figure {figure!r}; known: {sorted(FIGURES)}")
    canonical = _SHARED.get(figure, figure)
    if cache is not None and canonical in cache:
        return cache[canonical]
    sweep, _, _ = FIGURES[canonical]
    cells = sweep(settings)
    if cache is not None:
        cache[canonical] = cells
    return cells

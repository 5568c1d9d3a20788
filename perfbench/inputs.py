"""Seeded input generation for the benchmark workloads.

Everything here is a pure function of the seed: relations come back as
raw arrays (building the program's ``Relation`` objects is part of the
measured set-up), queries as points plus ``k``.  Query points are
uniform over the central 85% of the data cloud on each axis, so no
query sits at the edge where streams exhaust early.
"""

from __future__ import annotations

import numpy as np

K_CHOICES = (5, 10, 20)
QUERY_SPAN = 0.85  # share of the cloud's side the query points cover


def side_for(n_tuples: int, dims: int, density: float = 50.0) -> float:
    """Side of the cube that holds ``n_tuples`` at ``density`` (the
    repository's synthetic-data convention)."""
    return (n_tuples / density) ** (1.0 / dims)


def balanced_ks(rng: np.random.Generator, count: int) -> np.ndarray:
    """``k`` drawn from :data:`K_CHOICES` in shuffled blocks of three, so
    every run sees the three sizes in equal shares."""
    blocks = -(-count // len(K_CHOICES))
    ks = np.concatenate([rng.permutation(K_CHOICES) for _ in range(blocks)])
    return ks[:count].astype(int)


def query_points(rng: np.random.Generator, count: int, side: float, dims: int = 2):
    half = QUERY_SPAN * side / 2.0
    return rng.uniform(-half, half, size=(count, dims))


def tie_heavy_arrays(rng, *, n_relations=3, n_tuples=500, dims=2, levels=6):
    """The ``tie_heavy_problem`` shape: vectors snapped to a
    ``levels``-point grid per axis, scores to a ``levels``-rung ladder.
    Returns ``[(scores, vectors), ...]`` and the cloud's side."""
    side = side_for(n_tuples, dims)
    grid = np.linspace(-side / 2, side / 2, levels)
    ladder = np.linspace(0.1, 1.0, levels)
    arrays = []
    for _ in range(n_relations):
        vectors = rng.uniform(-side / 2, side / 2, size=(n_tuples, dims))
        vectors = grid[np.abs(vectors[..., None] - grid).argmin(axis=-1)]
        scores = rng.choice(ladder, size=n_tuples)
        arrays.append((scores, vectors))
    return arrays, side


def uniform_arrays(rng, *, n_relations=2, n_tuples, dims=2):
    """Uniform vectors at density 50 and uniform scores in [0.05, 1]."""
    side = side_for(n_tuples, dims)
    arrays = [
        (
            rng.uniform(0.05, 1.0, size=n_tuples),
            rng.uniform(-side / 2, side / 2, size=(n_tuples, dims)),
        )
        for _ in range(n_relations)
    ]
    return arrays, side


def zipf_indices(rng, population: int, count: int, s: float) -> np.ndarray:
    """``count`` draws from ranks ``0..population-1`` with P(r) ∝ 1/(r+1)^s."""
    weights = 1.0 / np.arange(1, population + 1) ** s
    return rng.choice(population, size=count, p=weights / weights.sum())


def poisson_schedule(rng, rate: float, count: int) -> np.ndarray:
    """Send offsets (s) of ``count`` sends of a Poisson process at ``rate``,
    conditioned on exactly ``count`` sends in ``count / rate`` seconds
    (sorted uniform offsets), so every run offers the same load."""
    return np.sort(rng.uniform(0.0, count / rate, size=count))

"""Spatial substrate: metrics, centroids and a k-d tree with incremental
nearest-neighbour access and range queries (the offline stand-in for
the R-tree-family indexes cited in the paper's related work; the
anchor-and-probe join probes regions through it)."""

from repro.spatial.kdtree import KDNode, KDTree
from repro.spatial.metrics import (
    METRICS,
    chebyshev,
    cosine_distance,
    euclidean,
    geometric_median,
    get_metric,
    manhattan,
    mean_centroid,
    squared_euclidean,
)

__all__ = [
    "KDNode",
    "KDTree",
    "METRICS",
    "chebyshev",
    "cosine_distance",
    "euclidean",
    "geometric_median",
    "get_metric",
    "manhattan",
    "mean_centroid",
    "squared_euclidean",
]

"""Dataset persistence: save and load relations as CSV or NPZ.

A reproduction package is only usable if the exact datasets behind a
result can be checked in and reloaded.  Two formats are supported:

* **CSV** — one file per relation, human-diffable: a ``#`` header records
  the relation name and ``sigma_max``; columns are ``score, x0..x{d-1}``
  plus optional attribute columns (stringified).
* **NPZ** — one file per *problem* (all relations + the query vector),
  compact and lossless; the format the experiment harness uses for
  snapshotting.
* **Durable store** — one *directory* per problem: every relation
  persisted through :mod:`repro.core.durable` (immutable columnar shard
  files behind a shared WAL-mode catalog) plus the query vector.
  Unlike CSV/NPZ this format is also the live serving tier — relations
  loaded from it are memmap-backed :class:`~repro.core.durable.
  DurableRelation` objects with persisted access orders, not in-memory
  copies.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from repro.core.relation import Relation

__all__ = [
    "save_relation_csv",
    "load_relation_csv",
    "save_problem_npz",
    "load_problem_npz",
    "save_problem_durable",
    "load_problem_durable",
]

QUERY_FILENAME = "query.npy"


def save_relation_csv(relation: Relation, path: Path | str) -> None:
    """Write one relation to ``path`` (CSV with a ``#``-comment header)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    attr_keys = sorted({k for t in relation for k in t.attrs})
    with open(path, "w", newline="") as fh:
        fh.write(f"# relation={relation.name} sigma_max={relation.sigma_max!r}\n")
        writer = csv.writer(fh)
        writer.writerow(
            ["score"] + [f"x{i}" for i in range(relation.dim)] + attr_keys
        )
        for t in relation:
            writer.writerow(
                [repr(t.score)]
                + [repr(float(v)) for v in t.vector]
                + [json.dumps(t.attrs.get(k)) for k in attr_keys]
            )


def load_relation_csv(path: Path | str) -> Relation:
    """Load a relation written by :func:`save_relation_csv`."""
    path = Path(path)
    with open(path, newline="") as fh:
        header = fh.readline()
        if not header.startswith("# relation="):
            raise ValueError(f"{path}: missing relation header line")
        meta = dict(
            part.split("=", 1) for part in header[2:].strip().split(" ") if "=" in part
        )
        name = meta["relation"]
        sigma_max = float(meta["sigma_max"])
        reader = csv.reader(fh)
        columns = next(reader)
        dim = sum(1 for c in columns if c.startswith("x") and c[1:].isdigit())
        attr_keys = columns[1 + dim :]
        scores: list[float] = []
        vectors: list[list[float]] = []
        attrs: list[dict] = []
        for row in reader:
            if not row:
                continue
            scores.append(float(row[0]))
            vectors.append([float(v) for v in row[1 : 1 + dim]])
            attrs.append(
                {
                    k: json.loads(raw)
                    for k, raw in zip(attr_keys, row[1 + dim :])
                    if raw != "null"
                }
            )
    return Relation(
        name, scores, np.array(vectors, dtype=float),
        attrs=attrs, sigma_max=sigma_max,
    )


def save_problem_npz(
    relations: list[Relation], query: np.ndarray, path: Path | str
) -> None:
    """Write a whole join problem (relations + query) to one NPZ file.

    Attribute dictionaries are JSON-encoded per relation so round trips
    are lossless for JSON-representable values.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload: dict[str, np.ndarray] = {
        "query": np.asarray(query, dtype=float),
        "names": np.array([r.name for r in relations]),
        "sigma_max": np.array([r.sigma_max for r in relations]),
    }
    for idx, rel in enumerate(relations):
        payload[f"scores_{idx}"] = np.array([t.score for t in rel])
        payload[f"vectors_{idx}"] = np.array([t.vector for t in rel])
        payload[f"attrs_{idx}"] = np.array(
            [json.dumps(t.attrs) for t in rel]
        )
    np.savez_compressed(path, **payload)


def save_problem_durable(
    relations: list[Relation], query: np.ndarray, path: Path | str
) -> Path:
    """Persist a whole join problem into a durable store directory.

    Every relation is persisted through :func:`~repro.core.durable.
    persist_relation` (they share the directory's catalog); the query
    vector lands next to it as ``query.npy``.  Re-persisting into an
    existing store bumps each relation's generation atomically.
    """
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    from repro.core.durable import persist_relation

    for rel in relations:
        persist_relation(rel, path)
    np.save(path / QUERY_FILENAME, np.asarray(query, dtype=float))
    return path


def load_problem_durable(
    path: Path | str,
    *,
    memory_budget: int | None = None,
    verify: bool = False,
    read_only: bool = False,
) -> tuple[list[Relation], np.ndarray]:
    """Open a problem written by :func:`save_problem_durable`.

    Relations come back as memmap-backed
    :class:`~repro.core.durable.DurableRelation` objects, in the order
    they were first persisted — ready to serve queries (directly or
    through a service) without loading the columns into RAM.
    ``read_only=True`` opens every catalog connection without write
    access (the pool-worker contract: shard memmaps shared through the
    page cache, no writer lock ever taken).
    """
    path = Path(path)
    from repro.core.durable import CATALOG_FILENAME, ShardCatalog, open_relation

    with ShardCatalog(path / CATALOG_FILENAME, read_only=read_only) as catalog:
        names = catalog.relation_names()
    relations: list[Relation] = [
        open_relation(
            path, name, memory_budget=memory_budget, verify=verify,
            read_only=read_only,
        )
        for name in names
    ]
    query = np.load(path / QUERY_FILENAME)
    return relations, query


def load_problem_npz(path: Path | str) -> tuple[list[Relation], np.ndarray]:
    """Load a problem written by :func:`save_problem_npz`."""
    with np.load(Path(path), allow_pickle=False) as data:
        names = [str(n) for n in data["names"]]
        sigma_max = data["sigma_max"]
        relations = []
        for idx, name in enumerate(names):
            attrs = [json.loads(str(a)) for a in data[f"attrs_{idx}"]]
            relations.append(
                Relation(
                    name,
                    data[f"scores_{idx}"].tolist(),
                    data[f"vectors_{idx}"],
                    attrs=attrs,
                    sigma_max=float(sigma_max[idx]),
                )
            )
        query = data["query"]
    return relations, query

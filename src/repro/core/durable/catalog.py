"""WAL-mode SQLite catalog for the durable tier.

The columnar shard files hold the bytes; this catalog holds everything
about them that must be found, validated or flipped transactionally:

* ``relations`` — one row per persisted relation: current generation,
  cardinality, dimensionality, exact ``sigma_max`` (SQLite ``REAL`` is
  IEEE-754 double, so the float round-trips bit for bit), shard count
  and partition scheme;
* ``shards`` — one row per shard file per generation: filename,
  per-shard metadata, tid range and checksum;
* ``orders`` — a store of per-``(relation, shard, kind, query-bucket)``
  access orders: a sort permutation and its rank column as raw
  float64/int64 blobs, plus hit counters.  No serving path reads or
  writes it: an order's sorted head costs less to compute than a
  persisted order costs to replay.  ``get_order``/``put_order`` stay
  because perfbench's tracer patches them by name; they go with a
  change to the benchmark.

Pragma discipline (the Paper-Scanner catalog idiom): ``journal_mode=
WAL`` for concurrent readers during writes, ``synchronous=NORMAL``,
``foreign_keys=ON`` and a generous ``busy_timeout``.  Generation flips
are single transactions: a writer that dies before committing leaves
the previous generation's rows — and therefore its immutable shard
files — fully readable.

The catalog object is thread-safe: one connection opened with
``check_same_thread=False`` and every statement serialised under an
internal lock (the service submits from a thread pool).

Read-only mode (``read_only=True``) is the multi-process serving
contract: the connection is opened with the SQLite ``mode=ro`` URI (or,
where URI opens are unavailable, falls back to ``PRAGMA query_only=ON``)
so a fleet of worker processes can read the catalog concurrently under
WAL without ever taking the writer lock.  In this mode
``get_order`` never bumps hit counters, ``put_order`` is a no-op that
returns ``False``, and generation flips raise.
"""

from __future__ import annotations

import threading
from pathlib import Path

import numpy as np

try:
    import sqlite3
except ImportError as exc:  # pragma: no cover - stdlib module, absent only
    raise ImportError(
        "repro.core.durable requires the sqlite3 standard-library module "
        "(present in every normal CPython build)"
    ) from exc

__all__ = ["ShardCatalog", "CATALOG_FILENAME"]

CATALOG_FILENAME = "catalog.sqlite"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS relations (
    name        TEXT PRIMARY KEY,
    generation  INTEGER NOT NULL,
    n           INTEGER NOT NULL,
    dim         INTEGER NOT NULL,
    sigma_max   REAL NOT NULL,
    shard_count INTEGER NOT NULL,
    partition   TEXT
);
CREATE TABLE IF NOT EXISTS shards (
    relation    TEXT NOT NULL REFERENCES relations(name) ON DELETE CASCADE,
    generation  INTEGER NOT NULL,
    shard_index INTEGER NOT NULL,
    filename    TEXT NOT NULL,
    n           INTEGER NOT NULL,
    dim         INTEGER NOT NULL,
    sigma_max   REAL NOT NULL,
    tid_min     INTEGER NOT NULL,
    tid_max     INTEGER NOT NULL,
    checksum    INTEGER NOT NULL,
    PRIMARY KEY (relation, generation, shard_index)
);
CREATE TABLE IF NOT EXISTS orders (
    relation    TEXT NOT NULL REFERENCES relations(name) ON DELETE CASCADE,
    generation  INTEGER NOT NULL,
    shard_index INTEGER NOT NULL,
    kind        TEXT NOT NULL,
    bucket      BLOB NOT NULL,
    perm        BLOB NOT NULL,
    ranks       BLOB NOT NULL,
    hits        INTEGER NOT NULL DEFAULT 0,
    last_used   INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (relation, generation, shard_index, kind, bucket)
);
"""


class ShardCatalog:
    """Transactional metadata store for one durable relation directory."""

    def __init__(
        self,
        path: Path | str,
        *,
        busy_timeout_ms: int = 30_000,
        read_only: bool = False,
    ) -> None:
        self.path = Path(path)
        self.read_only = bool(read_only)
        self._lock = threading.RLock()
        if self.read_only:
            self._conn = self._connect_read_only(busy_timeout_ms)
            with self._lock:
                cur = self._conn.cursor()
                cur.execute(f"PRAGMA busy_timeout={int(busy_timeout_ms)}")
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._conn = sqlite3.connect(
            str(self.path),
            check_same_thread=False,
            timeout=busy_timeout_ms / 1000.0,
        )
        with self._lock:
            cur = self._conn.cursor()
            cur.execute("PRAGMA journal_mode=WAL")
            cur.execute("PRAGMA synchronous=NORMAL")
            cur.execute("PRAGMA foreign_keys=ON")
            cur.execute(f"PRAGMA busy_timeout={int(busy_timeout_ms)}")
            cur.executescript(_SCHEMA)
            self._conn.commit()

    def _connect_read_only(self, busy_timeout_ms: int) -> "sqlite3.Connection":
        """Open without ever acquiring the writer lock.

        Preferred path: a ``mode=ro`` URI connection — the main database
        file is opened read-only, so even a misbehaving statement cannot
        mutate catalog state.  WAL readers still need the shared-memory
        index, which SQLite creates on demand next to the database; when
        that (or URI support itself) is unavailable the fallback is a
        normal connection pinned by ``PRAGMA query_only=ON``, which
        rejects every write statement at the SQLite level.
        """
        if not self.path.exists():
            raise FileNotFoundError(
                f"cannot open catalog read-only: {self.path} does not exist"
            )
        timeout = busy_timeout_ms / 1000.0
        try:
            conn = sqlite3.connect(
                f"file:{self.path}?mode=ro",
                uri=True,
                check_same_thread=False,
                timeout=timeout,
            )
            # Force the first real page read now so an unusable ro handle
            # (e.g. a WAL side file it cannot map) fails here, not later.
            conn.execute("SELECT 1 FROM sqlite_master LIMIT 1").fetchone()
            return conn
        except sqlite3.OperationalError:
            conn = sqlite3.connect(
                str(self.path), check_same_thread=False, timeout=timeout
            )
            conn.execute("PRAGMA query_only=ON")
            return conn

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "ShardCatalog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- relations / generations -------------------------------------------

    def relation_names(self) -> list[str]:
        """Persisted relation names, in first-persist order."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT name FROM relations ORDER BY rowid"
            ).fetchall()
        return [r[0] for r in rows]

    def relation_row(self, name: str) -> dict | None:
        with self._lock:
            row = self._conn.execute(
                "SELECT name, generation, n, dim, sigma_max, shard_count, "
                "partition FROM relations WHERE name = ?",
                (name,),
            ).fetchone()
        if row is None:
            return None
        keys = ("name", "generation", "n", "dim", "sigma_max", "shard_count", "partition")
        return dict(zip(keys, row))

    def latest_generation(self, name: str) -> int:
        """Current committed generation of ``name`` (0 when absent)."""
        row = self.relation_row(name)
        return int(row["generation"]) if row else 0

    def shard_rows(self, name: str, generation: int) -> list[dict]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT shard_index, filename, n, dim, sigma_max, tid_min, "
                "tid_max, checksum FROM shards "
                "WHERE relation = ? AND generation = ? ORDER BY shard_index",
                (name, generation),
            ).fetchall()
        keys = (
            "shard_index", "filename", "n", "dim", "sigma_max",
            "tid_min", "tid_max", "checksum",
        )
        return [dict(zip(keys, r)) for r in rows]

    def commit_generation(
        self,
        *,
        name: str,
        generation: int,
        n: int,
        dim: int,
        sigma_max: float,
        partition: str | None,
        shard_rows: list[dict],
    ) -> None:
        """Flip ``name`` to ``generation`` in ONE transaction.

        Registers the new shard rows, upserts the relation row (keeping
        its rowid, so first-persist ordering survives re-persists) and
        drops stale order rows of older generations.  Readers of the
        previous generation are unaffected until the commit lands; a
        writer dying before this call leaves the catalog untouched.
        """
        if self.read_only:
            raise RuntimeError("commit_generation on a read-only catalog")
        with self._lock:
            cur = self._conn.cursor()
            try:
                cur.execute("BEGIN IMMEDIATE")
                cur.execute(
                    "INSERT INTO relations "
                    "(name, generation, n, dim, sigma_max, shard_count, partition) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?) "
                    "ON CONFLICT(name) DO UPDATE SET generation=excluded.generation, "
                    "n=excluded.n, dim=excluded.dim, sigma_max=excluded.sigma_max, "
                    "shard_count=excluded.shard_count, partition=excluded.partition",
                    (name, generation, n, dim, float(sigma_max), len(shard_rows), partition),
                )
                cur.executemany(
                    "INSERT OR REPLACE INTO shards "
                    "(relation, generation, shard_index, filename, n, dim, "
                    "sigma_max, tid_min, tid_max, checksum) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    [
                        (
                            name, generation, i, r["filename"], r["n"], r["dim"],
                            float(r["sigma_max"]), r["tid_min"], r["tid_max"],
                            r["checksum"],
                        )
                        for i, r in enumerate(shard_rows)
                    ],
                )
                cur.execute(
                    "DELETE FROM orders WHERE relation = ? AND generation != ?",
                    (name, generation),
                )
                self._conn.commit()
            except BaseException:
                self._conn.rollback()
                raise

    def prune_generations(self, name: str, keep_generation: int) -> list[str]:
        """Drop shard rows older than ``keep_generation``; returns their
        filenames so the caller can unlink the (now unreferenced) files."""
        if self.read_only:
            raise RuntimeError("prune_generations on a read-only catalog")
        with self._lock:
            cur = self._conn.cursor()
            stale = [
                r[0]
                for r in cur.execute(
                    "SELECT filename FROM shards WHERE relation = ? AND generation < ?",
                    (name, keep_generation),
                ).fetchall()
            ]
            cur.execute(
                "DELETE FROM shards WHERE relation = ? AND generation < ?",
                (name, keep_generation),
            )
            self._conn.commit()
        return stale

    # -- persisted access orders -------------------------------------------

    def put_order(
        self,
        *,
        relation: str,
        generation: int,
        shard_index: int,
        kind: str,
        bucket: bytes,
        perm: np.ndarray,
        ranks: np.ndarray,
    ) -> bool:
        """Persist one computed access order (idempotent upsert).

        The blobs are the exact little-endian int64/float64 bytes of the
        computed permutation and rank column — reloads are bit-identical
        by construction.  Returns ``True`` when the row was written;
        ``False`` on a read-only catalog (the order simply stays local to
        the worker's in-memory LRU).
        """
        if self.read_only:
            return False
        perm_blob = np.ascontiguousarray(perm, dtype=np.int64).tobytes()
        ranks_blob = np.ascontiguousarray(ranks, dtype=np.float64).tobytes()
        with self._lock:
            self._conn.execute(
                "INSERT INTO orders "
                "(relation, generation, shard_index, kind, bucket, perm, ranks, "
                " hits, last_used) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, 0, "
                "  1 + COALESCE((SELECT MAX(last_used) FROM orders), 0)) "
                "ON CONFLICT(relation, generation, shard_index, kind, bucket) "
                "DO UPDATE SET perm=excluded.perm, ranks=excluded.ranks",
                (relation, generation, shard_index, kind, bucket, perm_blob, ranks_blob),
            )
            self._conn.commit()
        return True

    def get_order(
        self,
        *,
        relation: str,
        generation: int,
        shard_index: int,
        kind: str,
        bucket: bytes,
        count_hit: bool = True,
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """``(perm, ranks)`` of one persisted order, or ``None``.

        A hit bumps the row's ``hits`` counter and recency stamp.
        Read-only catalogs skip the bump (concurrent worker readers must
        never queue on the writer lock just to count).
        """
        if self.read_only:
            count_hit = False
        with self._lock:
            row = self._conn.execute(
                "SELECT perm, ranks FROM orders WHERE relation = ? AND "
                "generation = ? AND shard_index = ? AND kind = ? AND bucket = ?",
                (relation, generation, shard_index, kind, bucket),
            ).fetchone()
            if row is None:
                return None
            if count_hit:
                self._conn.execute(
                    "UPDATE orders SET hits = hits + 1, last_used = "
                    "  1 + COALESCE((SELECT MAX(last_used) FROM orders), 0) "
                    "WHERE relation = ? AND generation = ? AND shard_index = ? "
                    "AND kind = ? AND bucket = ?",
                    (relation, generation, shard_index, kind, bucket),
                )
                self._conn.commit()
        perm = np.frombuffer(row[0], dtype=np.int64)
        ranks = np.frombuffer(row[1], dtype=np.float64)
        return perm, ranks

    def order_stats(self, relation: str | None = None) -> list[dict]:
        """Per-order hit counters."""
        query = (
            "SELECT relation, generation, shard_index, kind, hits "
            "FROM orders {} ORDER BY relation, shard_index, kind"
        )
        with self._lock:
            if relation is None:
                rows = self._conn.execute(query.format("")).fetchall()
            else:
                rows = self._conn.execute(
                    query.format("WHERE relation = ?"), (relation,)
                ).fetchall()
        keys = ("relation", "generation", "shard_index", "kind", "hits")
        return [dict(zip(keys, r)) for r in rows]

    def order_count(self, relation: str, generation: int, kind: str | None = None) -> int:
        with self._lock:
            if kind is None:
                row = self._conn.execute(
                    "SELECT COUNT(*) FROM orders WHERE relation = ? AND generation = ?",
                    (relation, generation),
                ).fetchone()
            else:
                row = self._conn.execute(
                    "SELECT COUNT(*) FROM orders WHERE relation = ? AND "
                    "generation = ? AND kind = ?",
                    (relation, generation, kind),
                ).fetchone()
        return int(row[0])

    def total_order_hits(self, relation: str | None = None) -> int:
        """Sum of every order row's hit counter."""
        with self._lock:
            if relation is None:
                row = self._conn.execute("SELECT COALESCE(SUM(hits), 0) FROM orders").fetchone()
            else:
                row = self._conn.execute(
                    "SELECT COALESCE(SUM(hits), 0) FROM orders WHERE relation = ?",
                    (relation,),
                ).fetchone()
        return int(row[0])

    def __repr__(self) -> str:
        return f"ShardCatalog({str(self.path)!r})"

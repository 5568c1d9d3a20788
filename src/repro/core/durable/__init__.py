"""Durable tiered storage beneath the storage boundary.

Columnar shard files served zero-copy through ``np.memmap``
(:mod:`~repro.core.durable.shardfile`), a WAL-mode SQLite catalog for
metadata and persisted access orders
(:mod:`~repro.core.durable.catalog`), and the tier-managing storage
backend that keeps the layers above unchanged
(:mod:`~repro.core.durable.backend`).
"""

from repro.core.durable.backend import (
    DurableRelation,
    DurableShardBackend,
    LazyTuples,
    open_relation,
    persist_relation,
)
from repro.core.durable.catalog import CATALOG_FILENAME, ShardCatalog
from repro.core.durable.shardfile import (
    FORMAT_MAGIC,
    FORMAT_VERSION,
    ShardFile,
    write_shard_file,
)

__all__ = [
    "CATALOG_FILENAME",
    "FORMAT_MAGIC",
    "FORMAT_VERSION",
    "DurableRelation",
    "DurableShardBackend",
    "LazyTuples",
    "ShardCatalog",
    "ShardFile",
    "open_relation",
    "persist_relation",
    "write_shard_file",
]

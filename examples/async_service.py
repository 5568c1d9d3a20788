"""Async serving: 100 concurrent queries with deadlines over remote shards.

The relations live behind simulated remote shard endpoints (S=4, ~4 ms
per page round-trip — I/O-dominated, as the paper's search-computing
services are).  One asyncio event loop multiplexes every
in-flight query's page fetches; per-shard feeders keep the next page
in flight while the engine scores the current block (pipelined
prefetch), so wall-clock is set by *overlapped* latency, not the serial
sum of round-trips.  Each shard is fetched about as deep as the merge
reads it, which the printed pages per query and rows fetched per row
read show.

The batch mixes three traffic classes:

* 90 normal queries over a handful of hot buckets (shared cached
  orders, generous deadline);
* 8 queries with a tight-but-serviceable deadline (the clock starts at
  submission, so queue time counts against it);
* 2 queries with a hopeless deadline — they come back as *certified
  partials*: ``completed=False``, and the leading ``certified_count``
  combinations are provably final because they score above the bound
  returned with the result.

Every completed answer is asserted bit-identical to the in-memory
sharded service.

Run:  python examples/async_service.py
"""

import asyncio
import time

import numpy as np

from repro.core import EuclideanLogScoring, ShardedRelation
from repro.data import SyntheticConfig, generate_problem
from repro.service import AsyncRankJoinService, LatencyModel, RankJoinService

K = 5
SHARDS = 4
relations, base_query = generate_problem(
    SyntheticConfig(
        n_relations=2, dims=2, density=50.0, skew=1.0, n_tuples=300, seed=7
    )
)
scoring = EuclideanLogScoring(1.0, 1.0, 1.0)
sharded = [ShardedRelation.from_relation(r, shards=SHARDS) for r in relations]

rng = np.random.default_rng(0)
hot = [base_query + rng.uniform(-0.1, 0.1, 2) for _ in range(6)]
normal = [hot[i % len(hot)] for i in range(90)]
tight = [base_query + rng.uniform(-0.3, 0.3, 2) for _ in range(8)]
hopeless = [base_query + rng.uniform(-0.5, 0.5, 2) for _ in range(2)]

reference = RankJoinService(sharded, scoring, k=K, result_cache_size=0)

service = AsyncRankJoinService(
    sharded,
    scoring,
    k=K,
    latency=LatencyModel(base=0.004, jitter=0.0008),
    page_size=8,
    max_inflight=8,
    queue_limit=128,
    result_cache_size=0,
)


async def main():
    tasks = (
        [service.submit(q, deadline=30.0) for q in normal]
        + [service.submit(q, deadline=10.0) for q in tight]
        + [service.submit(q, deadline=0.05) for q in hopeless]
    )
    start = time.perf_counter()
    results = await asyncio.gather(*tasks)
    return results, time.perf_counter() - start


results, wall = asyncio.run(main())
queries = normal + tight + hopeless
completed = [(q, r) for q, r in zip(queries, results) if r.completed]
partial = [r for r in results if not r.completed]

for q, r in completed:
    ref = reference.submit(q)
    assert [(c.key, c.score) for c in r.combinations] == [
        (c.key, c.score) for c in ref.combinations
    ], "completed async answers must be bit-identical to the sharded service"
for r in partial:
    # Certified partial: the leading combinations provably beat the bound.
    for combo in r.combinations[: r.certified_count]:
        assert combo.score > r.bound

meters = service.remote_meters()
stats = service.stats.as_dict()
print(f"{len(queries)} concurrent queries, n=2, S={SHARDS} "
      f"(~4 ms/page simulated shard latency):")
print(f"  wall-clock:               {wall * 1e3:8.1f} ms "
      f"({len(queries) / wall:.0f} queries/s)")
print(f"  serial remote latency:    {meters['simulated_seconds'] * 1e3:8.1f} ms "
      f"({meters['pages']} page round-trips over {meters['endpoints']} endpoints)")
print(f"  overlap win:              {meters['simulated_seconds'] / wall:8.1f}x "
      f"latency hidden by pipelined prefetch")
# The overlap win divides by the serial latency of the pages actually
# fetched, so it shrinks when fewer pages are fetched: read it beside
# how many pages a query costs and how much of what is fetched is read.
rows_read = sum(r.sum_depths for r in results)
print(f"  pages per query:          {meters['pages'] / len(queries):8.1f}")
print(f"  rows fetched / row read:  {meters['tuples'] / rows_read:8.2f} "
      f"({meters['tuples']} fetched, {rows_read} read by the engines)")
print(f"  completed / expired:      {len(completed)} / {stats['expired']}")
print(f"  per-shard order cache:    {stats['stream_cache_misses']} sorts for "
      f"{stats['queries']} queries")

expired = [r for r in partial]
if expired:
    r = expired[0]
    print(f"\nA deadline-expired query returned a certified partial: "
          f"{r.certified_count} of {len(r.combinations)} results certified, "
          f"bound {r.bound:.3f}")
print("\nTop combination of the last completed query:")
print(f"  {completed[-1][1].combinations[0]}")
service.close()

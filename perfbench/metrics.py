"""End-to-end and per-layer metrics, host fingerprint and calibration."""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import subprocess
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import workloads
from tracer import (
    BLOCKING,
    EXTRA,
    LAYER_OF,
    NAME,
    PARENT,
    PID,
    QID,
    SID,
    T0,
    T1,
    blocking_children,
    covered,
    self_times,
)

#: The benchmark's definition at the repository root: workloads, metric
#: names and units, bounds.
SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

#: (name, unit) of every end-to-end metric in the contract's result line.
END_TO_END = tuple((m["name"], m["unit"]) for m in SPEC["end_to_end"])

#: (name, unit) of every per-layer metric in a traced run's result line.
PER_LAYER = tuple((m["name"], m["unit"]) for m in SPEC["per_layer"])

#: Layers of the self-time breakdown; with ``trace.unattributed_ms``
#: they add up to ``trace.query_ms``.
SELF_LAYERS = ("service", "pool", "open", "engine", "bounds", "merge", "sort", "catalog", "wire")


def _ms(seconds: float) -> float:
    return 1000.0 * seconds


def _pct_ms(values, q) -> float:
    return _ms(float(np.percentile(values, q))) if len(values) else 0.0


def _ratio(num, den) -> float:
    return num / den if den else 0.0


# -- host -------------------------------------------------------------------


def calibrate(repeats: int = 7) -> float:
    """Median ms of a fixed interpreter + small-matrix loop: host drift
    shows here next to the workload numbers."""
    a = np.random.default_rng(12345).random((48, 48)) / 48.0
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc = (acc + i * i) % 1_000_003
        b = a
        for _ in range(300):
            b = np.tanh(b @ a)
        times.append(time.perf_counter() - t0)
    return _ms(statistics.median(times))


def _git(root, *args) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", *args], cwd=root, capture_output=True, text=True, timeout=20
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def fingerprint(root, seed: int, cpus: int, shape: dict) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    status = _git(root, "status", "--porcelain", "--untracked-files=no")
    return {
        "usable_cpus": cpus,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "omp_threads": os.environ.get("OMP_NUM_THREADS"),
        "git_sha": _git(root, "rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "seed": seed,
        **shape,
    }


# -- end to end -------------------------------------------------------------


def outcome_counts(phases, status) -> dict:
    """Attempted / failed accounting over every phase of a run."""
    attempted = sum(len(p.outcomes) for p in phases)
    wrong = sum(1 for s in status.values() if s == "wrong")
    raised = sum(1 for p in phases for o in p.outcomes if o.error)
    rejected = sum(1 for p in phases for o in p.outcomes if o.rejected)
    ties = sum(1 for s in status.values() if s == "tie")
    return {
        "attempted": attempted,
        "answered": len(status),
        "wrong": wrong,
        "raised": raised,
        "rejected": rejected,
        "tie_divergent": ties,
        "failed": wrong + raised + rejected,
    }


def best_latencies(rounds) -> dict:
    """Fastest latency of each answered query over the rounds, by its
    position in the query list."""
    best = {}
    for phase in rounds:
        for o in phase.outcomes:
            if o.result is not None and o.latency < best.get(o.pos, math.inf):
                best[o.pos] = o.latency
    return best


def end_to_end(w, rounds, status, setup_times, memory) -> tuple[dict, dict]:
    """Contract metrics plus the extras printed beside them: the highest
    latency percentile with at least ten queries beyond it, the peak and
    the untrimmed resident set, failure and SLO-miss shares.  ``memory`` holds
    each round's (untrimmed, trimmed, peak) resident set."""
    outs = [o for phase in rounds for o in phase.outcomes]
    best = best_latencies(rounds)
    latencies = list(best.values())
    depths = {
        o.pos: o.result.sum_depths
        for o in outs
        if o.result is not None and o.result.completed
    }
    if w.clients is None:
        # Open loop: goodput of a round, completed answers per second.
        qps = statistics.median(
            sum(1 for o in p.outcomes if o.result is not None and o.result.completed)
            / p.wall
            for p in rounds
        )
    else:
        # Closed loop (Little's law): callers over the mean latency.
        qps = _ratio(w.clients * len(latencies), sum(latencies))
    metrics = {
        "qps": qps,
        "latency_p50_ms": _pct_ms(latencies, 50),
        "sum_depths_per_query": _ratio(sum(depths.values()), len(depths)),
        "setup_s": statistics.median(setup_times),
        "rss_mb": statistics.median(m[1] for m in memory),
    }
    wrong = sum(1 for s in status.values() if s == "wrong")
    raised = sum(1 for o in outs if o.error)
    rejected = sum(1 for o in outs if o.rejected)
    extras = {
        "samples": len(outs),
        "failed_frac": _ratio(wrong + raised + rejected, len(outs)),
        "depth_missing": w.QUERIES - len(depths),
        "peak_rss_mb": max(m[2] for m in memory),
        "untrimmed_rss_mb": statistics.median(m[0] for m in memory),
        "queries": len(latencies),
        "round_qps": [
            _ratio(sum(1 for o in p.outcomes if o.result is not None), p.wall)
            for p in rounds
        ],
    }
    tail = min(99, math.floor(100 * (1 - 10 / len(latencies)))) if latencies else 0
    if tail >= 50:
        extras[f"latency_p{tail}_ms"] = _pct_ms(latencies, tail)
    deadline = getattr(w, "DEADLINE", None)
    if deadline is not None:
        unsent = sum(
            1 for o in outs if o.result is None and not o.error and not o.rejected
        )
        answered = [o for o in outs if o.result is not None]
        partial = sum(1 for o in answered if not o.result.completed)
        late = sum(1 for o in answered if o.result.completed and o.latency > deadline)
        extras["slo_miss_frac"] = _ratio(
            rejected + unsent + partial + late + wrong + raised, len(outs)
        )
        extras["generator_lag_p95_ms"] = _pct_ms([o.lag for o in outs], 95)
    return metrics, extras


# -- per layer --------------------------------------------------------------


def _decompose(spans, parent_pid) -> dict:
    """Self time per layer, summed over every traced query; the pool
    layer is the parent's submit self time minus the time its workers
    spent inside their own submit spans."""
    children = blocking_children(spans)
    st = self_times(spans, children)
    totals = defaultdict(float)
    worker_submit = parent_submit = 0.0
    for s in spans:
        if not s[BLOCKING]:
            continue
        key = (s[PID], s[SID])
        name = s[NAME]
        if name == "bench.query":
            totals["unattributed"] += st[key]
        elif name == "engine.run":
            # Before its loop starts a run opens its streams (order
            # acquisition); split the run's self time there.
            opened = 0.0
            if s[EXTRA] is not None:
                loop_start = s[T1] - s[EXTRA]
                opened = max(loop_start - s[T0], 0.0) - covered(
                    children.get(key, ()), s[T0], loop_start
                )
            totals["open"] += opened
            totals["engine"] += st[key] - opened
        elif name == "service.submit" and s[PID] != parent_pid:
            worker_submit += s[T1] - s[T0]
            totals["service"] += st[key]
        elif name == "service.submit":
            parent_submit += st[key]
        else:
            totals[LAYER_OF[name]] += st[key]
    if worker_submit:
        totals["pool"] += parent_submit - worker_submit
    else:
        totals["service"] += parent_submit
    return totals


def _trace_overhead(untraced, traced) -> float:
    """Traced over untraced latency summed over the queries both answered
    (untraced: mean over its rounds), minus one."""
    a = defaultdict(list)
    for phase in untraced:
        for o in phase.outcomes:
            if o.result is not None:
                a[o.pos].append(o.latency)
    b = {o.pos: o.latency for o in traced.outcomes if o.result is not None}
    common = a.keys() & b.keys()
    return _ratio(
        sum(b[p] for p in common), sum(statistics.fmean(a[p]) for p in common)
    ) - 1.0


def per_layer(w, untraced, traced, spans, parent_pid, status, calib_ms) -> dict:
    """Every per-layer metric; zero where the workload does not use a layer."""
    m = {name: 0.0 for name, _ in PER_LAYER}
    executed = workloads.unique_executed(traced.outcomes)
    n = len(executed) or 1

    def total(key):
        return sum(r.counters.get(key, 0) for r in executed)

    def mean(fn):
        return sum(fn(r) for r in executed) / n

    m["bounds.bound_ms"] = _ms(mean(lambda r: r.bound_seconds))
    m["bounds.dominance_ms"] = _ms(mean(lambda r: r.dominance_seconds))
    m["bounds.solver_ms"] = _ms(mean(lambda r: r.solver_seconds))
    m["bounds.qp_solves"] = total("qp_solves") / n
    m["bounds.lp_solves"] = total("lp_solves") / n
    m["bounds.dominated_frac"] = _ratio(total("entries_dominated"), total("entries_created"))
    skipped = (
        total("dominance_witness_hits")
        + total("dominance_lp_reused")
        + total("dominance_lp_deduped")
    )
    m["bounds.lp_skip_frac"] = _ratio(skipped, skipped + total("lp_solves"))
    warm = total("lp_warm_pivots")
    m["bounds.lp_warm_pivot_frac"] = _ratio(warm, warm + total("lp_cold_pivots"))
    m["engine.run_ms"] = _ms(mean(lambda r: r.total_seconds))
    m["engine.scoring_ms"] = _ms(
        mean(lambda r: r.total_seconds - r.bound_seconds - r.dominance_seconds)
    )
    m["engine.combinations_formed"] = mean(lambda r: r.combinations_formed)
    m["engine.combinations_pruned"] = total("combinations_pruned") / n

    st = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s[NAME]].append(s)

    def self_ms(*names):
        return _ms(sum(st[(s[PID], s[SID])] for nm in names for s in by_name[nm])) / n

    runs = by_name["engine.run"]
    m["access.open_ms"] = _ms(
        sum(s[T1] - s[T0] - s[EXTRA] for s in runs if s[EXTRA] is not None)
    ) / n
    m["access.merge_ms"] = self_ms("access.merge")
    m["access.merge_calls"] = len(by_name["access.merge"]) / n

    stats = traced.stats
    if w.has_service:
        lookups = stats["stream_cache_hits"] + stats["stream_cache_misses"]
        m["service.result_hit_frac"] = _ratio(stats["result_cache_hits"], stats["queries"])
        m["service.order_hit_frac"] = _ratio(stats["stream_cache_hits"], lookups)
        m["service.order_sorts"] = stats["order_sorts"] / n
        m["service.order_ms"] = self_ms("access.sort", "durable.get_order", "durable.put_order")
    m["durable.catalog_lookups"] = len(by_name["durable.get_order"]) / n
    m["durable.catalog_ms"] = self_ms("durable.get_order", "durable.put_order")

    if isinstance(w, workloads.PoolZipf):
        m["durable.persist_s"] = w.persist_seconds
        m["durable.store_bytes_per_user_byte"] = _ratio(w.store_bytes, w.user_bytes())
        rehydrated = {s[PARENT] for s in by_name["wire.rehydrate"]}
        submits = by_name["service.submit"]
        parent_exec = [
            s for s in submits if s[PID] == parent_pid and s[SID] in rehydrated
        ]
        worker = [s for s in submits if s[PID] != parent_pid]
        span_sum = lambda spans_: sum(s[T1] - s[T0] for s in spans_)  # noqa: E731
        m["pool.overhead_ms"] = _ms(
            _ratio(span_sum(parent_exec) - span_sum(worker), len(parent_exec))
        )
        m["pool.rehydrate_ms"] = _ms(
            _ratio(span_sum(by_name["wire.rehydrate"]), len(by_name["wire.rehydrate"]))
        )
        m["pool.worker_busy_frac"] = _ratio(span_sum(worker), w.workers * traced.wall)
        m["pool.affinity_hit_frac"] = _ratio(
            stats["affinity_hits"], stats["affinity_hits"] + stats["affinity_steals"]
        )
        m["pool.worker_restarts"] = stats["worker_restarts"]
        m["pool.retried_queries"] = stats["retried_queries"]

    if isinstance(w, workloads.AsyncRemote):
        outs = traced.outcomes
        due = {o.pos: o.start for o in outs}
        waits = [
            s[T0] - due[s[QID]] for s in runs if s[PID] == parent_pid and s[QID] in due
        ]
        m["async.queue_wait_p50_ms"] = _pct_ms(waits, 50)
        m["async.queue_wait_p95_ms"] = _pct_ms(waits, 95)
        m["async.rejected_frac"] = _ratio(sum(o.rejected for o in outs), len(outs))
        unsent = sum(1 for o in outs if o.result is None and not o.error and not o.rejected)
        m["async.expired_frac"] = _ratio(stats["expired"] + unsent, len(outs))
        meters = traced.extra["meters"]
        m["remote.pages"] = meters["pages"] / n
        m["remote.fetch_waste"] = _ratio(
            meters["tuples"], sum(r.sum_depths for r in executed)
        )
        m["remote.overlap"] = _ratio(
            sum(s[T1] - s[T0] for s in runs), meters["simulated_seconds"]
        )
        m["remote.endpoints_created"] = meters["endpoints"]
        lags = [o.lag for p in (*untraced, traced) for o in p.outcomes]
        m["bench.generator_lag_p95_ms"] = _pct_ms(lags, 95)

    m["bench.trace_overhead_frac"] = _trace_overhead(untraced, traced)
    m["bench.calib_ms"] = calib_ms
    m["check.tie_divergent_frac"] = _ratio(
        sum(1 for s in status.values() if s == "tie"), len(status)
    )

    roots = by_name["bench.query"]
    q = len(roots) or 1
    layers = _decompose(spans, parent_pid)
    m["trace.query_ms"] = _ms(sum(s[T1] - s[T0] for s in roots)) / q
    m["trace.unattributed_ms"] = _ms(layers["unattributed"]) / q
    m["trace.unattributed_frac"] = _ratio(m["trace.unattributed_ms"], m["trace.query_ms"])
    for layer in SELF_LAYERS:
        m[f"self.{layer}_ms"] = _ms(layers[layer]) / q
    return m

"""The repository's benchmark command.

Run from the root of a checkout::

    python3 perfbench/run.py --workload engine_tie_n3 --seed 1 --seconds 30 --trace 0

Workloads: ``engine_tie_n3``, ``pool_zipf``, ``async_remote`` (see
``perfbench/README.md``).  Each has a fixed query list made from the
seed.  A run replays it in rounds, each on a freshly set-up stack: at
least the workload's ``ROUNDS``, and more while ``--seconds`` lasts.
``--trace 0`` reports the end-to-end metrics, timed from each query's
fastest round, so a few slow seconds of host do not move them;
``--trace 1`` makes untraced
rounds for ``seconds / 2``, then one traced round, and reports the
per-layer metrics.  Every answer is checked against a reference computed
outside the timed region; a wrong answer prints ``"correct": false`` and
exits 1.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.

The program is imported from ``./src``; nothing is built or installed.
Scratch files (durable stores, worker span files) live under
``./.perfbench/`` and are removed when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

#: Seed used when none is given.
DEFAULT_SEED = 1
#: Held back: never used while tuning the benchmark or a change; later
#: claims are re-checked on it.
HELD_BACK_SEED = 7

#: BLAS / OpenMP pools pinned to one thread in every benchmark process
#: (set before numpy is imported; forked pool workers inherit it).
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

WORKLOAD_NAMES = ("engine_tie_n3", "pool_zipf", "async_remote")

#: Metrics printed beside the result line but not in it (see README.md).
SHOWN_UNITS = {
    "peak_rss_mb": "MB",
    "untrimmed_rss_mb": "MB",
    "failed_frac": "frac",
    "slo_miss_frac": "frac",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(
            "perfbench: run from the repository root (./src/repro not found)",
            file=sys.stderr,
        )
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(root / "src"))
    workdir = root / ".perfbench" / f"run-{os.getpid()}"
    scratch = workdir / "tmp"
    scratch.mkdir(parents=True)
    os.environ["TMPDIR"] = os.environ["SQLITE_TMPDIR"] = str(scratch)
    tempfile.tempdir = str(scratch)
    try:
        return run(args, root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass


def _round(w, tracer=None):
    """One round: set up a fresh stack (timed), replay the query list on
    it, read the serving processes' resident set as left and again after
    freed heap is handed back, and their peak, close the stack.  Returns
    the relations served, the replay, the set-up time and the three
    memory figures."""
    from workloads import release_free_heap, serving_memory_mb

    t0 = time.perf_counter()
    handle = w.setup()
    setup_s = time.perf_counter() - t0
    try:
        if tracer is not None:
            w.prepare_traced(handle)
        w.warm(handle)
        if tracer is not None:
            tracer.clear()
        phase = w.replay(handle, tracer)
        rss_mb = serving_memory_mb("VmRSS")
        release_free_heap()
        trimmed_mb = serving_memory_mb("VmRSS")
        peak_mb = serving_memory_mb("VmHWM")
    finally:
        w.close(handle)
    return w.relations_of(handle), phase, setup_s, (rss_mb, trimmed_mb, peak_mb)


def _rounds(w, seconds: float, fewest: int, setups: int):
    """Untraced rounds: at least ``fewest``, then more while the next one
    (taken to last as long as the previous) still ends within
    ``seconds``.  Bare set-ups (set up, close at once) come first, so
    that with the rounds' there are at least ``setups`` and none runs
    while a round's answers are held.  Returns the
    last round's relations (earlier ones are dropped, so they do not hold
    memory), each round's replay and resident sets, and the set-up
    times."""
    phases, memory, setup_times = [], [], []
    for _ in range(setups - fewest):
        t0 = time.perf_counter()
        handle = w.setup()
        setup_times.append(time.perf_counter() - t0)
        w.close(handle)
    start = time.perf_counter()
    while True:
        relations = None  # free the previous round's before this one
        t0 = time.perf_counter()
        relations, phase, setup_s, rss = _round(w)
        phases.append(phase)
        memory.append(rss)
        setup_times.append(setup_s)
        now = time.perf_counter()
        if len(phases) >= fewest and now + (now - t0) - start > seconds:
            return relations, phases, memory, setup_times


def run(args, root: Path, workdir: Path) -> int:
    import metrics
    import workloads
    from tracer import Tracer

    cpus = len(os.sched_getaffinity(0))
    calib_ms = metrics.calibrate()
    w = workloads.WORKLOADS[args.workload](args.seed, workdir, cpus)

    if args.trace:  # set-up time is not reported
        rounds = _rounds(w, args.seconds / 2, 1, 1)
    else:
        rounds = _rounds(w, args.seconds, w.ROUNDS, w.SETUPS)
    relations, untraced, memory, setup_times = rounds
    phases = list(untraced)

    spans = []
    if args.trace:
        tracer = Tracer(workdir / "trace")
        tracer.install()
        try:
            _, traced, _, _ = _round(w, tracer)
        finally:
            tracer.uninstall()
        spans = tracer.spans + tracer.load_worker_spans()
        phases.append(traced)

    status = w.check(relations, phases)
    counts = metrics.outcome_counts(phases, status)
    correct = counts["wrong"] == 0 and counts["raised"] == 0
    e2e, extras = metrics.end_to_end(
        w,
        untraced,
        {k: v for k, v in status.items() if k[0] < len(untraced)},
        setup_times,
        memory,
    )
    problems = []
    lag = extras.get("generator_lag_p95_ms")
    if lag is not None and lag > 1000 * w.MAX_LAG_P95:
        problems.append(
            f"generator lag p95 {lag:.1f} ms exceeds {1000 * w.MAX_LAG_P95:.0f} ms"
        )
    if not args.trace and extras["depth_missing"]:
        problems.append(
            f"{extras['depth_missing']} queries never completed, so "
            "sum_depths_per_query misses them"
        )

    record = {
        "workload": w.name,
        "trace": args.trace,
        "seconds": args.seconds,
        "host": metrics.fingerprint(root, args.seed, cpus, w.host_shape()),
        "calib_ms": calib_ms,
        "rounds": len(untraced),
        "round_walls_s": [p.wall for p in untraced],
        "setup_times_s": setup_times,
        "rss_mb_per_round": [m[0] for m in memory],
        "trimmed_rss_mb_per_round": [m[1] for m in memory],
        "counts": counts,
        "stats": [p.stats for p in untraced],
        "valid": not problems,
        **extras,
    }
    if args.trace:
        spec = metrics.PER_LAYER
        values = metrics.per_layer(
            w, untraced, phases[-1], spans, os.getpid(), status, calib_ms
        )
        layer_sum = values["trace.unattributed_ms"] + sum(
            values[f"self.{layer}_ms"] for layer in metrics.SELF_LAYERS
        )
        record["trace_residual_ms"] = values["trace.query_ms"] - layer_sum
    else:
        spec = metrics.END_TO_END
        values = e2e
    units = dict(spec)
    if set(values) != set(units):
        raise RuntimeError(
            f"metrics computed {sorted(values)} do not match BENCHMARK.json {sorted(units)}"
        )
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    if not args.trace:
        for name, value in extras.items():
            if name.startswith("latency_p"):
                print(f"{name} = {value:.6g} ms (of {extras['queries']} queries)")
        for name, unit in SHOWN_UNITS.items():
            if name in extras:
                print(f"{name} = {extras[name]:.6g} {unit}")
    print("record " + json.dumps(record, default=str))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": counts["attempted"],
                "failed": counts["failed"],
                "metrics": {
                    name: {"value": float(values[name]), "unit": unit}
                    for name, unit in spec
                },
            }
        )
    )
    if not correct:
        print(f"perfbench: wrong or failed answers: {counts}", file=sys.stderr)
        errors = [o.error for p in phases for o in p.outcomes if o.error]
        if errors:
            print(f"perfbench: first failed query:\n{errors[0]}", file=sys.stderr)
        return 1
    if problems:
        # Figures of such a run are unreliable, its answers are not wrong:
        # the record says so and the result stands.
        print("perfbench: run marked invalid: " + "; ".join(problems), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

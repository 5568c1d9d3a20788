"""Every example script must stay runnable end to end.

Examples are executed in-process via runpy with stdout captured; each
one carries its own assertions (oracle comparisons), so a clean exit is
a real correctness signal, not just an import check.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, argv: list[str] | None = None):
    path = EXAMPLES / name
    assert path.exists(), f"missing example {name}"
    old_argv = sys.argv
    sys.argv = [str(path)] + (argv or [])
    try:
        runpy.run_path(str(path), run_name="__main__")
    finally:
        sys.argv = old_argv


class TestExamples:
    def test_quickstart(self, capsys):
        run_example("quickstart.py")
        out = capsys.readouterr().out
        assert "-7.00" in out
        assert "sumDepths" in out

    def test_trip_planner_sf(self, capsys):
        run_example("trip_planner.py", ["SF"])
        out = capsys.readouterr().out
        assert "San Francisco" in out
        assert "TBPA" in out
        assert "service calls" in out

    def test_trip_planner_other_city(self, capsys):
        run_example("trip_planner.py", ["HO"])
        assert "Honolulu" in capsys.readouterr().out

    def test_multimedia_search(self, capsys):
        run_example("multimedia_search.py")
        out = capsys.readouterr().out
        assert "score-based access" in out
        assert "Top 5 triples" in out

    def test_skewed_services(self, capsys):
        run_example("skewed_services.py")
        out = capsys.readouterr().out
        assert "skew" in out
        assert "adaptive" in out

    def test_async_service(self, capsys):
        run_example("async_service.py")
        out = capsys.readouterr().out
        assert "concurrent queries" in out
        assert "latency hidden by pipelined prefetch" in out
        assert "completed / expired" in out

    def test_cosine_extension(self, capsys):
        pytest.importorskip("scipy")
        run_example("cosine_extension.py")
        out = capsys.readouterr().out
        assert "Matches brute-force oracle: True" in out

    def test_service_throughput(self, capsys):
        run_example("service_throughput.py")
        out = capsys.readouterr().out
        assert "identical ranked top-K" in out
        assert "queries/s" in out
        assert "result-cache hits" in out

    def test_sharded_service(self, capsys):
        run_example("sharded_service.py")
        out = capsys.readouterr().out
        assert "identical ranked top-K" in out
        assert "per-shard order cache" in out
        assert "4 shards" in out

    def test_explain_run(self, capsys):
        run_example("explain_run.py")
        out = capsys.readouterr().out
        assert "certified" in out
        assert "tight bound" in out and "corner bound" in out

    def test_durable_service(self, capsys):
        run_example("durable_service.py")
        out = capsys.readouterr().out
        assert "restarted service" in out
        assert "bit-identical" in out
        assert "paged back from disk" in out

    def test_bound_kernel(self, capsys):
        run_example("bound_kernel.py")
        out = capsys.readouterr().out
        assert "batched kernel" in out
        assert "identical top-10, depths and bound" in out
        assert "potentials memo" in out

    def test_procpool_service(self, capsys):
        run_example("procpool_service.py")
        out = capsys.readouterr().out
        assert "queries/s" in out
        assert "affinity hits" in out
        assert "order-LRU hit rate" in out
        assert "bit-identical to the threaded single-process run" in out

"""The benchmark tracer's fork-worker path, run through real pool workers.

Light checks run in-process, so the pool is forced here, on a window of two
groups of primes, since a window of one group never pools: the tracer must
reset itself in each fork-started worker, spool the worker's spans when it
exits, and merge them into the parent's trace.
"""

import importlib.util
import multiprocessing
import os
from pathlib import Path

import pytest

import fmzv.modp as modp
from fmzv.cli import main
from fmzv.modp import primes_in

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracer", Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)

pytestmark = pytest.mark.skipif(
    modp.usable_cpus() < 2 or multiprocessing.get_start_method() != "fork",
    reason="needs two usable CPUs and fork-started workers",
)


def test_worker_spans_reach_the_parent(monkeypatch, tmp_path):
    monkeypatch.setattr(modp, "POOL_MIN_MULTS", 0)
    requests = [
        ["check", "homogeneous", "--a", "3", "--r", "2", "--primes", "5:80"],
        ["check", "stuffle", "--w", "y", "--wp", "xy", "--primes", "5:80"],
    ]
    serial = []
    for i, argv in enumerate(requests):
        out = tmp_path / f"serial{i}.json"
        assert main(argv + ["--jobs", "1", "--format", "json", "--output", str(out)]) == 0
        serial.append(out.read_bytes())

    # cold residues and rows, so the workers sweep and build every row
    monkeypatch.setattr(modp, "_store", {})
    monkeypatch.setattr(modp, "_store_size", 0)
    spool = tmp_path / "spool"
    spool.mkdir()
    active = tracer.Tracer(spool)
    active.start()
    try:
        for i, argv in enumerate(requests):
            out = tmp_path / f"pooled{i}.json"
            assert main(argv + ["--jobs", "2", "--format", "json", "--output", str(out)]) == 0
            assert out.read_bytes() == serial[i]
    finally:
        active.stop()
    trace = active.collect()
    metrics = tracer.layer_metrics(trace)

    assert metrics["verify.pool_starts"] == 2
    assert not list(spool.iterdir())
    tables = [s for s in trace["spans"] if s[0] == "modp.inverse_table"]
    # each check builds the inverse row of each of its window's groups
    # once, in a worker: 20 primes, in groups of 16 and 4
    assert all(s[4] != os.getpid() for s in tables)
    assert [len(g) for g in modp._groups(primes_in(5, 80))] == [16, 4]
    assert len(tables) == metrics["modp.inverse_table.calls"] == 2 * 2

import concurrent.futures
import json
import multiprocessing
import os
import subprocess
import sys
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import pytest

import fmzv.suite
from fmzv.cli import main
from fmzv.modp import EngineFault
from fmzv.suite import _law_triples, all_indices, h1_words, run_battery

SRC = Path(__file__).resolve().parents[1] / "src"

# every step's name, verdict and detail for a small configuration, as the
# battery reported them when each numeric check still ran on its own
SMALL_BATTERY = [
    ("dual-involution", True, "1023 indices of weight <= 10, 0 failures"),
    ("eq3-symbolic", True, "93 instances, 0 failures"),
    ("ikz-truncated", True, "32 words through u^4, 0 failures"),
    ("ohno", True, "93 instances, 0 failures"),
    ("sum-formula", True, "119 instances, 0 failures"),
    ("height-one", True, "21 instances, 0 failures"),
    ("stuffle-duality", True, "258 checks, 0 failures"),
    ("homogeneous", True, "12 instances, 0 failures"),
    ("lemma-checks", True, "124 checks, 0 failures"),
    ("zeta-oracle", True, "615 evaluations, 0 mismatches"),
    ("spot-congruences", True, "residues at p=5"),
    ("algebra-laws", True, "100 random triples, 0 failures"),
]


def test_battery_details_are_frozen():
    steps = run_battery(5, 2, (2, 60))
    assert [(s.name, s.passed, s.detail) for s in steps] == SMALL_BATTERY


def test_battery_runs_on_small_windows(capsys):
    # every numeric step runs on the suite's own window, leaving out the
    # instances whose plan needs a larger prime than the window holds
    for hi in (4, 6, 8, 10):
        code = main(["suite", "--max-weight", "3", "--max-n", "1", "--primes", f"2:{hi}"])
        assert code == 0, capsys.readouterr().out
    capsys.readouterr()
    for window, sums, runs in [((2, 4), 0, 0), ((2, 10), 19, 10), ((9, 200), 119, 21)]:
        details = {s.name: s.detail for s in run_battery(3, 1, window)}
        assert details["sum-formula"] == f"{sums} instances, 0 failures", window
        assert details["height-one"] == f"{runs} instances, 0 failures", window
        assert details["stuffle-duality"] == "258 checks, 0 failures", window


def test_negative_bounds_are_refused(capsys):
    for flag in ("--max-weight", "--max-n"):
        code = main(["suite", flag, "-1", "--primes", "2:10"])
        assert code == 2 and "must be >= 0, got -1" in capsys.readouterr().err
    with pytest.raises(ValueError, match="max weight must be >= 0"):
        run_battery(-3, 1, (2, 10))
    with pytest.raises(ValueError, match="max shift must be >= 0"):
        run_battery(3, -1, (2, 10))


def _fresh(code: str) -> str:
    # run ``code`` in a new interpreter that imports the package from src
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    return proc.stdout


POOL_MODULES = "[m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules]"


def test_cli_import_loads_no_pool_module():
    assert _fresh(f"import sys, fmzv.cli; print({POOL_MODULES})") == "[]\n"


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_battery_on_one_cpu_starts_no_pool():
    # the child pins itself to one of its CPUs before running the battery
    code = (
        "import os, sys\n"
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "from fmzv.suite import run_battery\n"
        "assert all(step.passed for step in run_battery(3, 1, (2, 20)))\n"
        f"print({POOL_MODULES})\n"
    )
    assert _fresh(code) == "[]\n"


def _pinned(cpus: int, argv: list[str]) -> tuple[str, str]:
    # ``fmzv`` run with ``argv`` in a new interpreter pinned to ``cpus`` of
    # its CPUs: its output, and the pool modules it loaded
    code = (
        "import os, sys\n"
        f"os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:{cpus}])\n"
        "from fmzv.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        f"print({POOL_MODULES})\n"
    )
    out, _, modules = _fresh(code).rstrip("\n").rpartition("\n")
    return out, modules


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs CPU affinity and two CPUs",
)
def test_battery_bytes_match_on_one_and_two_cpus():
    argv = ["suite", "--max-weight", "5", "--max-n", "2", "--primes", "2:60", "--format", "json"]
    one, loaded = _pinned(1, argv)
    assert loaded == "[]"
    two, loaded = _pinned(2, argv)
    assert loaded == "['multiprocessing', 'concurrent.futures']"
    assert one == two
    steps = json.loads(one)["steps"]
    assert [(s["step"], s["pass"], s["detail"]) for s in steps] == SMALL_BATTERY


@pytest.fixture
def pool_starts(monkeypatch) -> list[int]:
    """Report two usable CPUs to the battery, and collect the worker count
    of every process pool it starts."""
    starts = []

    class Counted(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            starts.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counted)
    return starts


needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the workers see a patch made before they fork only where the pool forks",
)


def test_battery_at_width_two_starts_one_pool_and_logs_each_step_once(pool_starts):
    lines = []
    steps = run_battery(5, 2, (2, 60), log=lines.append)
    assert pool_starts == [2]
    assert [(s.name, s.passed, s.detail) for s in steps] == SMALL_BATTERY
    assert lines == [f"[PASS] {name}: {detail}" for name, _, detail in SMALL_BATTERY]
    assert multiprocessing.active_children() == []


# the real law check, kept for the patched one below; module-level, so that
# the pool can send both to a worker by name
_real_law_failures = fmzv.suite._law_failures


def _law_failures_and_last(last: tuple[str, str, str], *triple: str) -> int:
    return _real_law_failures(*triple) + (triple == last)


@needs_fork
def test_a_failure_in_each_steps_last_instance_is_counted(pool_starts, monkeypatch):
    # one failure forced in the last instance each of eq3-symbolic,
    # ikz-truncated and algebra-laws shows in that step's detail, so no
    # chunk or task goes unread
    last = {("eq3", list(all_indices(5))[-1], 2), ("ikz", list(h1_words(5))[-1], 4)}
    check = fmzv.suite.check

    def failing_last(name, *values):
        return SimpleNamespace(passed=False) if (name, *values) in last else check(name, *values)

    monkeypatch.setattr(fmzv.suite, "check", failing_last)
    law_failures = partial(_law_failures_and_last, _law_triples(5)[-1])
    monkeypatch.setattr(fmzv.suite, "_law_failures", law_failures)
    steps = run_battery(5, 2, (2, 60))
    assert pool_starts == [2]
    forced = {
        "eq3-symbolic": "93 instances, 1 failures",
        "ikz-truncated": "32 words through u^4, 1 failures",
        "algebra-laws": "100 random triples, 1 failures",
    }
    want = [(n, n not in forced, forced.get(n, d)) for n, _, d in SMALL_BATTERY]
    assert [(s.name, s.passed, s.detail) for s in steps] == want


@needs_fork
def test_engine_fault_in_a_pooled_step_fails_it_alone(pool_starts, monkeypatch, capsys):
    argv = ["suite", "--max-weight", "3", "--max-n", "1", "--primes", "2:30", "--format", "json"]
    assert main(argv) == 0
    clean = json.loads(capsys.readouterr().out)["steps"]
    check = fmzv.suite.check

    def fault_in_ikz(name, *values):
        if name == "ikz" and values == ("xyy", 4):
            raise EngineFault("forced in a worker")
        return check(name, *values)

    monkeypatch.setattr(fmzv.suite, "check", fault_in_ikz)
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert err == "fmzv: engine fault in step ikz-truncated: forced in a worker\n"
    faulted = {
        "step": "ikz-truncated", "pass": False, "detail": "engine fault",
        "error": "forced in a worker",
    }
    want = [step if step["step"] != "ikz-truncated" else faulted for step in clean]
    assert json.loads(out)["steps"] == want
    assert pool_starts == [2, 2]


def test_numeric_fault_propagates_and_leaves_no_worker(pool_starts, monkeypatch):
    def fail(*_args):
        raise ValueError("forced in a numeric step")

    monkeypatch.setattr(fmzv.suite, "_run", fail)
    with pytest.raises(ValueError, match="forced in a numeric step"):
        run_battery(5, 2, (2, 60))
    assert pool_starts == [2]
    assert multiprocessing.active_children() == []


def _traced(events: list, label: str, fn):
    # ``fn``, appending ``label`` to ``events`` before each call
    def call(*args):
        events.append(label)
        return fn(*args)
    return call


def test_on_one_cpu_the_word_tasks_run_in_battery_order(monkeypatch):
    # with no pool each task runs when its step reads it, and the steps run
    # in battery order: eq3 and ikz before the numeric steps, the law
    # triples after them
    events = []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(fmzv.suite, "_run", _traced(events, "numeric", fmzv.suite._run))
    monkeypatch.setattr(fmzv.suite, "_failures", _traced(events, "word", fmzv.suite._failures))
    law_failures = _traced(events, "word", fmzv.suite._law_failures)
    monkeypatch.setattr(fmzv.suite, "_law_failures", law_failures)
    steps = run_battery(5, 2, (2, 60))
    assert [(s.name, s.passed, s.detail) for s in steps] == SMALL_BATTERY
    assert events == ["word"] * 2 + ["numeric"] * 6 + ["word"] * 100


def test_at_width_two_each_step_logs_as_it_ends(pool_starts, monkeypatch):
    # each numeric step's line arrives after its own batch runs and before
    # the next step's batch starts
    events = []
    monkeypatch.setattr(fmzv.suite, "_run", _traced(events, "batch", fmzv.suite._run))
    run_battery(5, 2, (2, 60), log=events.append)
    assert pool_starts == [2]
    lines = [f"[PASS] {name}: {detail}" for name, _, detail in SMALL_BATTERY]
    numeric = [e for line in lines[3:9] for e in ("batch", line)]
    assert events == lines[:3] + numeric + lines[9:]

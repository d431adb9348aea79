import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fmzv.cli import main
from fmzv.suite import _fan_out, run_battery

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


def test_fan_out_gives_each_item_once_in_share_order():
    for width in (1, 2, 3, 4):
        for count in (0, 1, 3, 101):
            items = list(range(count))
            shares = _fan_out(list, items, width)
            assert len(shares) == max(1, min(width, count)), (width, count)
            order = [x for i in range(len(shares)) for x in items[i :: len(shares)]]
            assert [x for share in shares for x in share] == order, (width, count)


def _raise_on_odd(share: list) -> list:
    if any(x % 2 for x in share):
        raise ValueError(f"odd item in {share}")
    return share


def test_fan_out_raises_a_worker_fault_and_leaves_no_process():
    # share 0 of range(4) at width 2 is [0, 2], which passes here; the
    # worker's share [1, 3] raises
    with pytest.raises(ValueError, match=r"odd item in \[1, 3\]"):
        _fan_out(_raise_on_odd, list(range(4)), 2)
    assert multiprocessing.active_children() == []


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

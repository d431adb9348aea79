from fmzv.cli import main
from fmzv.suite import run_battery

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

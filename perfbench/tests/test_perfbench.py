"""Tests of the benchmark's own code.

    python3 -m pytest perfbench/tests -q
"""

import json
import re
import signal
import time
from pathlib import Path

import pytest

import run
import speed
import tracer
import workloads
from fmzv.cli import build_parser

BENCHMARK = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.mark.parametrize("make", [workloads.small_p_requests, workloads.large_p_requests])
def test_generator_is_deterministic(make):
    first = make(11)
    assert make(11) == first
    assert workloads.digest(make(11)) == workloads.digest(first)
    assert make(12) != first


def test_request_counts_and_balance():
    small = workloads.small_p_requests(3)
    large = workloads.large_p_requests(3)
    assert len(small) == 240 and len(large) == 70
    commands = [r[0] if r[0] in workloads.VALUE_COMMANDS else r[1] for r in small]
    assert {commands.count(c) for c in workloads.SMALL_P_COMMANDS} == {20}


@pytest.mark.parametrize("seed", [1, 2])
def test_every_request_parses(seed):
    parser = build_parser()
    for argv in workloads.small_p_requests(seed) + workloads.large_p_requests(seed):
        args = parser.parse_args(argv + ["--output", "out.json"])
        assert args.format == "json"
        if getattr(args, "jobs", None) is not None and args.command == "check":
            assert args.jobs == 2


def test_large_p_windows_hold_four_primes():
    for argv in workloads.large_p_requests(5):
        lo, hi = map(int, argv[argv.index("--primes") + 1].split(":"))
        primes = [p for p in range(lo, hi + 1) if workloads.is_prime(p)]
        assert len(primes) == 4 and primes[0] == lo and primes[-1] == hi
        assert 10**4 <= lo and hi < 2 * 10**5


def test_metric_names_and_units_match_benchmark_json():
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert e2e == run.END_TO_END
    assert layers == run.per_layer_units()
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    for name in list(e2e) + list(layers) + list(run.WORKLOADS):
        assert NAME.fullmatch(name) and len(name) <= 64


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 50) == 50
    assert run.percentile(values, 95) == 95
    assert run.percentile([3.0], 75) == 3.0


def test_smoke_traced_checks(tmp_path):
    """One request per command, traced, with pool workers reporting back."""
    seen, requests = set(), []
    for argv in workloads.small_p_requests(4):
        command = argv[0] if argv[0] in workloads.VALUE_COMMANDS else argv[1]
        if command not in seen:
            seen.add(command)
            lo, hi = argv[argv.index("--primes") + 1].split(":") if "--primes" in argv else (0, 0)
            if "--primes" in argv:
                argv[argv.index("--primes") + 1] = f"{lo}:{min(int(hi), 150)}"
            requests.append(argv)
    run.drop_package()
    cli, _suite = run.fresh_import()
    spool = tmp_path / "spool"
    spool.mkdir()
    active = tracer.Tracer(spool)
    active.start()
    try:
        result = run.run_checks_pass(cli, requests, tmp_path)
    finally:
        active.stop()
    assert result.errors == [] and result.failed == 0
    assert result.attempted == len(requests) == 12
    metrics = tracer.layer_metrics(active.collect())
    assert metrics["verify.pool_starts"] == 8
    assert metrics["modp.zeta_mod_p.sweeps"] > 0
    assert metrics["cli.main.calls"] == 12
    assert not list(spool.iterdir())
    run.drop_package()
    cli, _suite = run.fresh_import()
    again = run.run_checks_pass(cli, requests, tmp_path)
    assert again.outputs.hexdigest() == result.outputs.hexdigest()
    oracles = run.load_oracles()
    rows = [r for r in result.value_rows if r[2] < 120]
    assert rows and run.oracle_check(rows, 4, oracles) == []


def test_oracle_check_catches_a_wrong_row():
    run.drop_package()
    run.fresh_import()
    oracles = run.load_oracles()
    rows = [("zeta", (2,), 101, 5), ("bernoulli", (3,), 7, 4)]
    assert len(run.oracle_check(rows, 0, oracles)) >= 1


def test_refuses_to_run_without_the_package(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "checks-small-p", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


class _FakeCli:
    """Raises the engine's RuntimeError on one request, like a fault that
    cli.main does not catch."""

    def __init__(self, real):
        self.real = real

    def main(self, argv):
        if argv[1] == "ohno":
            raise RuntimeError("evaluator disagrees with brute-force oracle")
        return self.real.main(argv)


def test_exceptions_are_counted_not_fatal(tmp_path):
    run.drop_package()
    cli, _suite = run.fresh_import()
    requests = [
        ["check", "ohno", "--index", "2,1", "--n", "1", "--primes", "5:50", "--jobs", "2", "--format", "json"],
        ["check", "eq3", "--index", "2,1", "--n", "1", "--format", "json"],
    ]
    result = run.run_checks_pass(_FakeCli(cli), requests, tmp_path)
    assert result.attempted == 2 and result.failed == 1
    assert len(result.latencies) == 2
    assert "RuntimeError" in result.errors[0]


def test_suite_steps_are_timed_from_the_log_callback():
    class Step:
        def __init__(self, name, passed):
            self.name, self.passed, self.detail = name, passed, ""

    class Suite:
        @staticmethod
        def run_battery(log, **kwargs):
            steps = [Step("ohno", True), Step("algebra-laws", False)]
            for step in steps:
                log(f"[PASS] {step.name}: ")
            return steps

    result = run.run_suite_pass(Suite)
    assert set(result.step_times) == {"ohno", "algebra-laws"}
    assert result.attempted == 2 and result.failed == 1


def test_a_battery_that_raises_is_counted_not_fatal():
    class Suite:
        @staticmethod
        def run_battery(log, **kwargs):
            raise RuntimeError("term-level disagreement")

    result = run.run_suite_pass(Suite)
    assert result.failed == result.attempted == len(run.SUITE_STEPS)
    assert len(result.latencies) == 1 and "RuntimeError" in result.errors[0]


def test_layer_metrics_cover_every_layer_unit():
    trace = {
        "spans": [
            ["verify.check_ohno", 0.0, 4.0, -1, 1],
            ["modp.zeta_mod_p", 1.0, 2.0, 0, 1],
            ["modp.zeta_mod_p", 5.0, 6.5, -1, 2],
        ],
        "sweep_mults": 7,
        "hits": 2,
    }
    metrics = tracer.layer_metrics(trace)
    assert set(metrics) == set(tracer.layer_units())
    assert metrics["modp.zeta_mod_p.calls"] == 4 and metrics["modp.zeta_mod_p.sweeps"] == 2
    assert metrics["modp.zeta_mod_p.s"] == 2.5 and metrics["verify.check.self_s"] == 3.0


def test_setup_time_starts_fresh_interpreters():
    median, raw = run.setup_time("checks-large-p", 1)
    assert 0.005 < median < 30
    assert len(raw) == run.SETUP_ROUNDS and min(raw) > 0.005


def test_scaling_cancels_host_speed():
    ref = speed.REF_SECONDS
    # a host at half speed: the work and both bursts take twice as long
    assert speed.scaled(2.0, 2 * ref, 2 * ref) == pytest.approx(1.0)
    assert speed.scaled(1.0, ref, ref) == pytest.approx(1.0)


def test_ticker_scales_each_stretch_by_its_bursts():
    ticker = speed.Ticker(1.0)
    ticker.bursts = [(0.0, 1.0), (3.0, 4.0), (6.0, 8.0)]
    ref = speed.REF_SECONDS
    # stretches 1..3 between bursts of 1 s and 1 s, 4..6 between 1 s and 2 s
    assert ticker.scaled_between(0.0, 8.0) == pytest.approx(2 * ref + 2 * 2 * ref / 3)
    assert ticker.scaled_between(2.0, 5.0) == pytest.approx(ref + 2 * ref / 3)


def test_ticker_fires_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.Ticker(0.02) as ticker:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert len(ticker.bursts) >= 5
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def _windows(requests, command):
    """(parameters, window LO, window HI) of one command's requests."""
    out = []
    for r in requests:
        if command in r[:2] and "--primes" in r:
            lo, hi = map(int, r[r.index("--primes") + 1].split(":"))
            out.append((tuple(r[:r.index("--primes")]), lo, hi))
    return out


@pytest.mark.parametrize("make, commands, lo, hi, k, key", [
    (workloads.small_p_requests, workloads.SMALL_P_COMMANDS, 100, 500,
     workloads.SMALL_P_SPREAD, lambda lo, hi: hi),
    (workloads.large_p_requests, workloads.LARGE_P_COMMANDS, 10**4, 10**5,
     workloads.LARGE_P_SPREAD, lambda lo, hi: lo),
])
def test_each_pick_meets_one_window_per_stratum(make, commands, lo, hi, k, key):
    width = (hi - lo) / k
    # next_prime moves a point up by less than this
    gap = 20 if hi < 1000 else 100
    seen = {}
    for seed in range(1, 11):
        for command in commands:
            by_params = {}
            for params, wlo, whi in _windows(make(seed), command):
                by_params.setdefault(params, []).append(key(wlo, whi))
            for params, points in by_params.items():
                assert len(points) == k
                for j, x in enumerate(sorted(points)):
                    assert lo + j * width <= x < lo + (j + 1) * width + gap, (command, points)
                seen.setdefault(params, set()).update(points)
    # the seed moves every pick's windows
    assert min(len(points) for points in seen.values()) >= 2 * k


def test_second_pick_meets_the_mirror_images():
    for seed in (1, 2, 3):
        for command in workloads.LARGE_P_COMMANDS:
            starts = {}
            for params, wlo, _ in _windows(workloads.large_p_requests(seed), command):
                starts.setdefault(params, []).append(wlo)
            first, second = (sorted(v) for v in starts.values())
            for a, b in zip(first, reversed(second)):
                # next_prime moves each start up by less than 100
                assert 10**4 + 10**5 <= a + b < 10**4 + 10**5 + 200

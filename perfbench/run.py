"""End-to-end benchmark of the fmzv verifier.

    python3 perfbench/run.py --workload checks-small-p --seed 1 --seconds 10 --trace 0

All three workloads, stopping at the first failed output check:

    for w in suite-default checks-small-p checks-large-p; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 10 --trace 0 || break
    done

Run from anywhere; the package is imported from ``src/`` next to this
directory, and scratch files go to ``.perfbench-out/`` at the repository
root.  One process drives the package as a closed loop with one client:
each request waits for the previous one.  The only other processes are the
pool workers the package itself starts for ``--jobs 2``, and, after the
measured passes, the short-lived set-up probes.

Workloads (see BENCHMARK.json for why each was chosen):

* ``suite-default``  -- ``fmzv.suite.run_battery(7, 3, (2, 200), jobs=1)``,
  what ``fmzv suite`` runs by default.  Its inputs do not depend on the seed.
* ``checks-small-p`` -- 240 seeded ``fmzv.cli.main`` requests over 12
  commands with windows up to p = 500.
* ``checks-large-p`` -- 70 seeded requests over 7 commands, each on 4
  consecutive primes between 10^4 and 10^5.

A pass runs the workload's request list (or the battery) once, starting from
a fresh import of the package so that no cache survives from the pass
before.  With ``--trace 0`` passes repeat until ``--seconds`` have elapsed
(at least one) and the end-to-end metrics are reported: the median pass
time, and request latency percentiles over every request of every pass.
These times are scaled to a nominal host speed by the speed probe of
:mod:`speed`, whose short reference task runs between requests and every
TICK_SECONDS during the battery; the wall-clock values go to the run's
record.
Every pass must produce the same output bytes.  On a 2-vCPU machine a pass
of any workload takes longer than 10 s, so ``--seconds 10`` makes one pass
and the cross-pass check has nothing to compare; output determinism is then
checked by ``--trace 1``, whose untraced and traced passes must agree, and by
the ``outputs_sha256`` each run records.  ``setup_s`` is timed in fresh
processes after the passes (:func:`setup_time`).  With ``--trace 1`` one pass
runs untraced and one traced, and the per-layer metrics are reported.
Outputs are checked either way; a failed check makes ``correct`` false and
the exit code 1.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import importlib.util
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import speed
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

WORKLOADS = ("suite-default", "checks-small-p", "checks-large-p")
SUITE_ARGS = {"max_weight": 7, "max_n": 3, "window": (2, 200), "jobs": 1}
SUITE_STEPS = (
    "dual-involution", "eq3-symbolic", "ikz-truncated", "ohno", "sum-formula",
    "height-one", "stuffle-duality", "homogeneous", "lemma-checks", "zeta-oracle",
    "spot-congruences", "algebra-laws",
)
# the tail each workload reports: the highest percentile with at least ten
# requests of one pass beyond it (240 and 70 per pass); the battery is
# suite-default's only request
TAIL_PERCENTILE = {"suite-default": 50, "checks-small-p": 95, "checks-large-p": 85}
SETUP_ROUNDS = 9
ORACLE_SAMPLES = 12
# seconds between the speed probe's bursts during the battery
TICK_SECONDS = 0.25

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "request_ms_p50": "ms",
    "request_ms_tail": "ms",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    units = tracer.layer_units()
    for step in SUITE_STEPS:
        units[f"suite.step.{step}.s"] = "s"
        units[f"suite.step.{step}.rss_mb"] = "MB"
    units["trace.overhead_ratio"] = "ratio"
    return units


def peak_rss_mb() -> float:
    """The larger high-water RSS of this process and of its waited-for
    children (the pool workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024


def drop_package() -> None:
    """Forget every fmzv module, and with them every cache they hold."""
    for name in [m for m in sys.modules if m == "fmzv" or m.startswith("fmzv.")]:
        del sys.modules[name]
    gc.collect()


def fresh_import():
    """Import fmzv from ``src/`` anew; call :func:`drop_package` first so no
    cache survives from an earlier pass.  Returns (cli, suite)."""
    cli = importlib.import_module("fmzv.cli")
    suite = importlib.import_module("fmzv.suite")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"fmzv was imported from {cli.__file__}, not from {SRC}")
    return cli, suite


def request_list(workload: str, seed: int) -> list[list[str]]:
    if workload == "checks-small-p":
        return workloads.small_p_requests(seed)
    if workload == "checks-large-p":
        return workloads.large_p_requests(seed)
    return []


@dataclass
class Pass:
    """One pass: timings, failures and the evidence for the output checks.
    With the speed probe on, ``wall`` and ``latencies`` are scaled to the
    nominal host speed (see :mod:`speed`) and the ``raw_`` fields hold the
    wall-clock values; otherwise both hold the wall-clock values."""

    wall: float = 0.0
    latencies: list[float] = field(default_factory=list)
    raw_wall: float = 0.0
    raw_latencies: list[float] = field(default_factory=list)
    # duration of every burst of the speed probe
    bursts: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    # (command, index or (k,), p, value) of every zeta and bernoulli row
    value_rows: list[tuple[str, tuple, int, int]] = field(default_factory=list)
    outputs: Any = field(default_factory=hashlib.sha256)  # sha256 of every output byte
    # battery step name -> (seconds, peak RSS in MiB at its end)
    step_times: dict[str, tuple[float, float]] = field(default_factory=dict)


def run_suite_pass(suite, probe: bool = False) -> Pass:
    """One battery run.  With ``probe``, the speed probe's bursts run from a
    timer every TICK_SECONDS while the battery runs."""
    result = Pass()
    marks: list[tuple[float, float]] = []

    def log(_msg: str) -> None:
        marks.append((time.perf_counter(), peak_rss_mb()))

    ticker = speed.Ticker(TICK_SECONDS) if probe else None
    with ticker or contextlib.nullcontext():
        start = time.perf_counter()
        try:
            steps = suite.run_battery(log=log, **SUITE_ARGS)
        except Exception:
            steps = None
            result.errors.append(traceback.format_exc())
        end = time.perf_counter()
    result.raw_wall = end - start
    result.wall = result.raw_wall
    if ticker is not None:
        result.bursts = [b - a for a, b in ticker.bursts]
        result.wall = ticker.scaled_between(start, end)
    result.latencies.append(result.wall)
    result.raw_latencies.append(result.raw_wall)
    if steps is None:
        result.attempted = result.failed = len(SUITE_STEPS)
        return result
    result.attempted = len(steps)
    for step in steps:
        result.outputs.update(json.dumps([step.name, step.passed, step.detail]).encode())
        if not step.passed:
            result.failed += 1
            result.errors.append(f"battery step {step.name} failed: {step.detail}")
    if len(marks) == len(steps):
        prev = start
        for step, (when, rss) in zip(steps, marks):
            result.step_times[step.name] = (when - prev, rss)
            prev = when
    return result


def run_checks_pass(cli, requests: list[list[str]], outdir: Path, probe: bool = False) -> Pass:
    """One pass over ``requests``; its wall time is the sum of the request
    latencies.  With ``probe``, a speed-probe burst runs before the first
    request and after each one, when no pool worker is alive, and each
    latency is scaled by the bursts on either side of it."""
    result = Pass()
    raw: list[tuple[list[str], int | str, bytes]] = []
    if probe:
        result.bursts.append(speed.duration())
    for i, argv in enumerate(requests):
        path = outdir / f"{i}.json"
        t0 = time.perf_counter()
        try:
            code: int | str = cli.main(argv + ["--output", str(path)])
        except Exception:
            # cli.main lets engine faults (RuntimeError) escape; count them
            code = traceback.format_exc()
        latency = time.perf_counter() - t0
        result.raw_latencies.append(latency)
        if probe:
            result.bursts.append(speed.duration())
            latency = speed.scaled(latency, *result.bursts[-2:])
        result.latencies.append(latency)
        raw.append((argv, code, path.read_bytes() if path.exists() else b""))
    result.raw_wall = sum(result.raw_latencies)
    result.wall = sum(result.latencies)
    result.attempted = len(requests)
    for argv, code, body in raw:
        result.outputs.update(json.dumps([argv, code]).encode() + body)
        problem = check_output(argv, code, body, result.value_rows)
        if problem:
            result.failed += 1
            result.errors.append(f"{argv}: {problem}")
    return result


def check_output(argv: list[str], code: int | str, body: bytes, rows: list) -> str | None:
    """Why one request's output is wrong, or None.  ``code`` is the exit
    code, or the traceback of an exception.  Collects zeta and Bernoulli
    rows for the oracle sample."""
    if isinstance(code, str):
        return f"raised {code}"
    if code != 0:
        return f"exit code {code}"
    try:
        doc = json.loads(body)
    except ValueError:
        return "output is not JSON"
    command = argv[0] if argv[0] in workloads.VALUE_COMMANDS else argv[1]
    if command in workloads.VALUE_COMMANDS:
        if not doc.get("results"):
            return "no rows"
        params = doc["params"]
        key = tuple(params["index"]) if command == "zeta" else (params["k"],)
        rows.extend((command, key, r["p"], r["value"]) for r in doc["results"])
        return None
    if doc.get("summary", {}).get("pass") is not True:
        return f"summary.pass is not true: {doc.get('summary')}"
    return None


def oracle_check(rows: list, seed: int, oracles) -> list[str]:
    """Re-derive a seeded sample of zeta and Bernoulli rows with the
    independent oracles, keeping to rows they finish quickly."""
    from fmzv.modp import zeta_mod_p_naive

    cheap = [
        r for r in rows
        if (r[0] == "zeta" and (len(r[1]) == 1 or (len(r[1]) == 2 and r[2] < 600)))
        or (r[0] == "bernoulli" and r[2] - r[1][0] <= 160)
    ]
    rng = random.Random(f"oracle/{seed}")
    sample = rng.sample(cheap, min(ORACLE_SAMPLES, len(cheap)))
    bad = []
    for command, key, p, value in sample:
        if command == "zeta":
            expect = zeta_mod_p_naive(key, p)
        else:
            expect = oracles.bernoulli_exact_mod(p - key[0], p)
        if expect != value:
            bad.append(f"oracle disagrees: {command} {key} at p={p}: {value} vs {expect}")
    return bad


def load_oracles():
    path = ROOT / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_pass(requests: list[list[str]], spool: Path | None = None, probe: bool = False):
    """Fresh import, then one pass over ``requests`` (the battery when
    empty), with the speed probe if ``probe``; returns (pass, traced data or
    None)."""
    drop_package()
    cli, suite = fresh_import()
    outdir = OUT / "requests"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    active = None
    if spool is not None:
        active = tracer.Tracer(spool)
        active.start()
    try:
        if not requests:
            result = run_suite_pass(suite, probe)
        else:
            result = run_checks_pass(cli, requests, outdir, probe)
    finally:
        if active is not None:
            active.stop()
    return result, active.collect() if active is not None else None


def setup_probe(workload: str, seed: int) -> None:
    """The child side of :func:`setup_time`: import the package, generate
    the request list and print the monotonic clock."""
    fresh_import()
    request_list(workload, seed)
    print(repr(time.monotonic()))


def setup_time(workload: str, seed: int) -> tuple[float, list[float]]:
    """Median over fresh processes of the time from process start until
    fmzv is imported and the request list is generated, and every such
    time.  This counts the interpreter's start and every module it imports
    on the way.  Both processes read CLOCK_MONOTONIC, which is system-wide on
    Linux.  These times are not scaled by the speed probe: they follow the
    bursts far less closely than the passes do, so scaling would only add
    the bursts' own noise."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--seconds", "0", "--setup-probe"]
    times = []
    for _ in range(SETUP_ROUNDS):
        start = time.monotonic()
        child = subprocess.run(argv, capture_output=True, text=True, timeout=60, check=True)
        done = float(child.stdout.split()[-1])
        if not start < done <= time.monotonic():
            raise RuntimeError(f"setup probe read the clock outside its own lifetime: {done}")
        times.append(done - start)
    return statistics.median(times), times


def percentile(values: list[float], q: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-q * len(ordered) // 100))
    return ordered[rank - 1]


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, list[Pass], list[float]]:
    requests = request_list(workload, seed)
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(requests, probe=True)[0])
    if len({p.outputs.hexdigest() for p in passes}) > 1:
        passes[-1].errors.append("passes over the same requests produced different outputs")
    latencies = [t for p in passes for t in p.latencies]
    metrics = {
        "wall_s": statistics.median(p.wall for p in passes),
        "peak_rss_mb": peak_rss_mb(),
        "request_ms_p50": 1000 * percentile(latencies, 50),
        "request_ms_tail": 1000 * percentile(latencies, TAIL_PERCENTILE[workload]),
    }
    # after peak_rss_mb: the probes are children, and would count in it
    metrics["setup_s"], setup_times = setup_time(workload, seed)
    return metrics, passes, setup_times


def trace_layers(workload: str, seed: int) -> tuple[dict, list[Pass], dict]:
    spool = OUT / "spool"
    shutil.rmtree(spool, ignore_errors=True)
    spool.mkdir(parents=True)
    requests = request_list(workload, seed)
    plain, _ = run_pass(requests)
    traced, data = run_pass(requests, spool=spool)
    metrics = tracer.layer_metrics(data)
    for step in SUITE_STEPS:
        busy, rss = plain.step_times.get(step, (0.0, 0.0))
        metrics[f"suite.step.{step}.s"] = busy
        metrics[f"suite.step.{step}.rss_mb"] = rss
    metrics["trace.overhead_ratio"] = traced.wall / plain.wall
    if plain.outputs.hexdigest() != traced.outputs.hexdigest():
        traced.errors.append("traced and untraced passes produced different outputs")
    return metrics, [plain, traced], data


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "fmzv" / "__init__.py").is_file():
        print(f"perfbench: no package at {SRC / 'fmzv'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    OUT.mkdir(exist_ok=True)
    try:
        oracles = load_oracles()
        setup_times = None
        if args.trace:
            metrics, passes, data = trace_layers(args.workload, args.seed)
            units = per_layer_units()
        else:
            metrics, passes, setup_times = measure(args.workload, args.seed, args.seconds)
            units = END_TO_END
    except Exception:
        traceback.print_exc()
        return 2

    errors = [e for p in passes for e in p.errors]
    rows = passes[0].value_rows
    errors += oracle_check(rows, args.seed, oracles)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    requests_sha = workloads.digest(request_list(args.workload, args.seed))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "requests_sha256": requests_sha,
        "outputs_sha256": passes[0].outputs.hexdigest(),
        "pass_walls": [p.wall for p in passes],
        "request_ms": [1000 * t for p in passes for t in p.latencies],
        "raw_pass_walls": [p.raw_wall for p in passes],
        "raw_request_ms": [1000 * t for p in passes for t in p.raw_latencies],
        "setup_probe_s": setup_times,
        "burst_ms": [1000 * t for p in passes for t in p.bursts],
        "raw_step_s": [{k: v[0] for k, v in p.step_times.items()} for p in passes],
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "errors": errors,
        "metrics": metrics,
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version()},
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=2) + "\n")
    if args.trace:
        tracer.write_spans(OUT / f"spans-{tag}.jsonl", data)

    for message in errors:
        print(f"perfbench: {message}", file=sys.stderr)
    print(f"requests_sha256 {requests_sha}")
    print(f"outputs_sha256 {record['outputs_sha256']}")
    print(f"passes {len(passes)}  attempted {attempted}  failed {failed}")
    print(f"failed_ratio {record['failed_ratio']:.6g} ratio")
    for name, unit in units.items():
        print(f"{name} {metrics.get(name, 0):.6g} {unit}")
    correct = not errors and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics.get(n, 0), "unit": u} for n, u in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Run a catalogue of named mutants against the tests expected to kill them.

Each mutant names a file of the tree, an exact snippet that occurs once in
it, the snippet's replacement and the tests that should fail once it is
applied.  The tree's ``src`` and ``tests`` are copied to a temporary
directory, where each set of tests named is first run unmutated and must
pass; then each mutant in turn is applied there, its tests are run with
``pytest -x``, and the file is restored.  A mutant is killed when pytest
reports a failing test (exit 1); it survives when its tests pass, and any
other pytest exit (a collection or usage error) is reported as an error.

    python3 tools/mutants.py              # every mutant
    python3 tools/mutants.py NAME ...     # the named mutants only
    python3 tools/mutants.py --list       # names, files and tests

Exits 0 when every mutant run is killed, 1 when one survives or errs or
the unmutated tests fail, and 2 for an unknown name or a snippet that does
not occur exactly once.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # pytest node ids or paths, relative to the root


INV = "tests/test_modp.py::test_inv_and_pow"

MUTANTS = [
    # row 1 (modp.inverse_table): halving and the odd entries' recurrence
    Mutant(
        "halving-without-odd-correction",
        "src/fmzv/modp.py",
        "(x + odd if x & 1 else x) >> 1",
        "x >> 1",
        (INV,),
    ),
    Mutant(
        "halving-source-one-entry-late",
        "src/fmzv/modp.py",
        "inv[half : (hi + 1) // 2]",
        "inv[half + 1 : (hi + 1) // 2 + 1]",
        (INV,),
    ),
    Mutant(
        "first-odd-entry-of-each-range-skipped",
        "src/fmzv/modp.py",
        "range(lo | 1, hi, 2)",
        "range((lo | 1) + 2, hi, 2)",
        (INV,),
    ),
    Mutant(
        "every-range-taken-to-start-even",
        "src/fmzv/modp.py",
        "inv[2 * half : hi : 2]",
        "inv[lo:hi:2]",
        (INV,),
    ),
    Mutant(
        "halving-modulo-an-even-product",
        "src/fmzv/modp.py",
        "odd = math.prod(q for q in group if q % 2)",
        "odd = math.prod(group)",
        (INV,),
    ),
    # the walk, its trie and its groups
    Mutant(
        "sign-parity-dropped",
        "src/fmzv/modp.py",
        "self._signs.append(-self._signs[parent] if part % 2 else self._signs[parent])",
        "self._signs.append(self._signs[parent])",
        ("tests/test_modp.py::test_zeta_spot_values",),
    ),
    Mutant(
        "leaf-read-one-entry-early",
        "src/fmzv/modp.py",
        "reads = [stop - lo for stop in stops[first:last]]",
        "reads = [stop - lo - 1 for stop in stops[first:last]]",
        ("tests/test_modp.py",),
    ),
    Mutant(
        "groups-drop-last-short-run",
        "src/fmzv/modp.py",
        "for i in range(0, len(primes), GROUP_PRIMES)]",
        "for i in range(0, len(primes) - len(primes) % GROUP_PRIMES, GROUP_PRIMES)]",
        ("tests/test_modp.py",),
    ),
    # reports and the battery
    Mutant(
        "above-floor-strict",
        "src/fmzv/verify.py",
        "return [r for r in self.results if r.p >= self.floor]",
        "return [r for r in self.results if r.p > self.floor]",
        ("tests/test_verify.py",),
    ),
    Mutant(
        "algebra-laws-before-ohno",
        "src/fmzv/suite.py",
        "        for name, body in battery:\n",
        "        for name, body in [*battery[:3], battery[-1], *battery[3:-1]]:\n",
        ("tests/test_suite.py::test_on_one_cpu_the_word_tasks_run_in_battery_order",),
    ),
]


def occurrences(mutant: Mutant, root: Path = ROOT) -> int:
    """How often the mutant's snippet occurs in its file under ``root``."""
    return (root / mutant.file).read_text(encoding="utf-8").count(mutant.snippet)


def pytest(tree: Path, tests: tuple[str, ...]) -> int:
    """pytest's exit code for ``tests`` run with ``-x`` in ``tree``."""
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
        cwd=tree,
        env={**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"},
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    ).returncode


def run(mutant: Mutant, tree: Path) -> str:
    """Apply one mutant in ``tree``, run its tests, restore the file and
    return "killed", "survived" or "error"."""
    path = tree / mutant.file
    source = path.read_text(encoding="utf-8")
    path.write_text(source.replace(mutant.snippet, mutant.replacement), encoding="utf-8")
    try:
        code = pytest(tree, mutant.tests)
    finally:
        path.write_text(source, encoding="utf-8")
    return {0: "survived", 1: "killed"}.get(code, "error")


def main(argv: list[str]) -> int:
    if argv == ["--list"]:
        for m in MUTANTS:
            print(f"{m.name}  {m.file}  {' '.join(m.tests)}")
        return 0
    by_name = {m.name: m for m in MUTANTS}
    unknown = [name for name in argv if name not in by_name]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [by_name[name] for name in argv] if argv else MUTANTS
    stale = [m.name for m in chosen if occurrences(m) != 1]
    if stale:
        print(f"snippets not found exactly once: {', '.join(stale)}", file=sys.stderr)
        return 2
    outcomes = []
    with tempfile.TemporaryDirectory(prefix="fmzv-mutants-") as scratch:
        tree = Path(scratch)
        ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", tree)
        # a test that fails on the tree as it is would kill every mutant
        broken = [tests for tests in dict.fromkeys(m.tests for m in chosen) if pytest(tree, tests)]
        if broken:
            print(f"tests that fail unmutated: {broken}", file=sys.stderr)
            return 1
        for m in chosen:
            start = time.perf_counter()
            outcome = run(m, tree)
            outcomes.append(outcome)
            print(f"{outcome:<8}  {time.perf_counter() - start:6.1f} s  {m.name}", flush=True)
    killed = outcomes.count("killed")
    print(f"{killed} of {len(outcomes)} killed")
    return 0 if killed == len(outcomes) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

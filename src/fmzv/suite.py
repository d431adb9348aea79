"""The full verification battery: every checker family swept over
configurable weight/shift bounds and a prime window.

Each step returns a structured result; the battery is deterministic for a
given configuration.  Random triples for the algebra laws use a fixed seed.

The three word-algebra steps, eq3-symbolic, ikz-truncated and algebra-laws,
share no state between their instances.  A battery submits all their work
to one pool of worker processes, one per CPU this process may run on, before
any step runs.  The steps then run in battery order, each logged as it
ends: the word-algebra steps read their workers' results at their own
turn, and the other steps, which share the per-prime store, run in this
process while the workers go on.  On one CPU no pool starts.
"""

from __future__ import annotations

import os
import random
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import partial
from math import comb

from .indices import Index, hoffman_dual, weak_compositions
from .modp import EngineFault, bernoulli_mod_p, primes_in, residues, zeta_mod_p, zeta_mod_p_naive
from .verify import _run, check, instance
from .words import NCPolynomial, harmonic, shuffle, word_of_index


@dataclass(frozen=True)
class SuiteStep:
    name: str
    passed: bool
    detail: str
    error: str | None = None  # the engine fault that failed the step, if one did


def all_indices(max_weight: int, max_depth: int | None = None) -> Iterator[Index]:
    """Every index of weight 1..max_weight, by weight then depth then
    enumerator order."""
    for w in range(1, max_weight + 1):
        for r in range(1, w + 1):
            if max_depth is not None and r > max_depth:
                break
            for e in weak_compositions(w - r, r):
                yield Index(x + 1 for x in e)


def h1_words(max_weight: int) -> Iterator[str]:
    """The empty word plus every word of length <= max_weight ending in y."""
    yield ""
    for k in all_indices(max_weight):
        yield word_of_index(k)


def _quiet(_msg: str) -> None:
    pass


def _chunks(items: list, count: int) -> list[list]:
    """``items`` cut into at most ``count`` contiguous runs, none empty,
    the last one no longer than the others."""
    size = max(1, -(-len(items) // count))
    return [items[i : i + size] for i in range(0, len(items), size)]


def _failures(name: str, instances: list[tuple]) -> int:
    """How many of the symbolic checks ``name`` fail, one per tuple of
    values in ``instances``."""
    return sum(not check(name, *values).passed for values in instances)


def _law_triples(max_weight: int) -> list[tuple[str, str, str]]:
    """The algebra-laws step's 100 seeded random triples of nonempty words
    of ``h1_words(min(max_weight, 6))``, or none where that has no word."""
    rng = random.Random(20240607)
    pool = [w for w in h1_words(min(max_weight, 6)) if w]
    count = 100 if pool else 0
    return [(rng.choice(pool), rng.choice(pool), rng.choice(pool)) for _ in range(count)]


def _law_failures(wa: str, wb: str, wc: str) -> int:
    """How many algebra-law comparisons fail for the words (a, b, c):
    commutativity of both products, their associativity, and the number of
    shuffles of a and b."""
    fails = 0
    a, b, c = map(NCPolynomial.from_word, (wa, wb, wc))
    # each pair product once; the swapped operands still test commutativity
    ha, sh = harmonic(a, b), shuffle(a, b)
    if ha != harmonic(b, a) or sh != shuffle(b, a):
        fails += 1
    if harmonic(ha, c) != harmonic(a, harmonic(b, c)):
        fails += 1
    if shuffle(sh, c) != shuffle(a, shuffle(b, c)):
        fails += 1
    if sh.term_count() != comb(len(wa) + len(wb), len(wa)):
        fails += 1
    return fails


def run_battery(
    max_weight: int = 7,
    max_n: int = 3,
    window: tuple[int, int] = (2, 200),
    jobs: int = 1,
    log: Callable[[str], None] = _quiet,
) -> list[SuiteStep]:
    """Run every step of the battery over ``window`` in battery order,
    logging each step's line as the step ends, and return the steps in that
    order.  A negative ``max_weight`` or ``max_n`` is refused.

    One pool of as many worker processes as this process has usable CPUs
    (``os.sched_getaffinity``, else ``os.cpu_count``) gets all the work of
    eq3-symbolic, ikz-truncated and algebra-laws before any step runs:
    contiguous chunks of the eq3 and ikz instances, one chunk per CPU each,
    then one task per algebra-laws triple.  Each of these three steps reads
    its tasks' results at its own turn; while the workers go on to the law
    triples, the numeric steps run in this process, and algebra-laws, the
    last step, is collected last.  On one CPU no pool starts, and each task
    runs in this process when its step reads it.  No worker outlives the
    call, whether it returns or raises.  ``jobs`` is accepted and ignored."""
    if max_weight < 0:
        raise ValueError(f"max weight must be >= 0, got {max_weight}")
    if max_n < 0:
        raise ValueError(f"max shift must be >= 0, got {max_n}")
    lo, hi = window
    primes = primes_in(lo, hi)
    if not primes:
        raise ValueError(f"no primes in window [{lo}, {hi}]")
    affinity = getattr(os, "sched_getaffinity", None)
    width = len(affinity(0)) if affinity else os.cpu_count() or 1

    # 1. dual involution, depth identity, and the worked example
    def duals() -> tuple[bool, str]:
        bad = 0
        count = 0
        for k in all_indices(10):
            count += 1
            kd = hoffman_dual(k)
            if hoffman_dual(kd) != k or k.depth + kd.depth != k.weight + 1:
                bad += 1
        example_ok = hoffman_dual(Index((2, 3, 1, 2))) == (1, 2, 1, 3, 1)
        return bad == 0 and example_ok, f"{count} indices of weight <= 10, {bad} failures"

    # Steps 2, 3 and 12 each sum the failures their tasks give, read in order.
    def collect(noun: str, count: int, tasks: list[Callable[[], int]]) -> tuple[bool, str]:
        fails = sum(task() for task in tasks)
        return fails == 0, f"{count} {noun}, {fails} failures"

    # 2. exact word identity behind the shifted harmonic product
    symbolic = [(k, n) for k in all_indices(min(max_weight, 6)) for n in range(min(max_n, 3) + 1)]
    # 3. truncated series identity through u^4
    series = [(w, 4) for w in h1_words(5)]
    # 12. algebra laws on seeded random words, drawn here in one sequence
    triples = _law_triples(max_weight)

    # Steps 4-9 each count the reports that fail ``ok``.
    def tally(noun: str, reports, ok=lambda rep: rep.passed) -> tuple[bool, str]:
        reports = list(reports)
        fails = sum(1 for rep in reports if not ok(rep))
        return fails == 0, f"{len(reports)} {noun}, {fails} failures"

    # Steps 4-9 each build every instance first and run them as one batch
    # over the window, leaving out those whose plan needs a larger prime.
    def batch(names, values):
        instances = (instance(name, v, window) for v in values for name in names)
        return _run([inst for inst in instances if inst.plan.minimum <= primes[-1]], window)

    # 4. shifted-sum relation over the window
    ohno = [(k, n) for k in all_indices(max_weight) for n in range(max_n + 1)]

    # 5. sum formula, including forced vanishing for even weights
    def vanishes_if_even(rep) -> bool:
        return rep.passed and (rep.params["k"] % 2 or all(row.rhs == 0 for row in rep.above_floor))

    sums = [(k, r, i) for k in range(3, 10) for r in range(1, k) for i in range(1, r + 1)]
    # 6. height-one closed form
    runs = [(a, b) for a in range(0, 6) for b in range(0, 6 - a)]
    # 7. product-to-value homomorphism and shuffle duality
    words = [w for w in h1_words(5) if w]
    pairs = [(w, wp) for w in words for wp in words if len(w) + len(wp) <= 6]
    # 8. homogeneous vanishing
    constants = [(a, r) for a in range(1, 4) for r in range(1, 5)]
    # 9. the lemma value at every prime; key-lemma first compares the index
    # and word readings exactly, layer by layer
    lemmas = [(k, n) for k in all_indices(min(max_weight, 5)) for n in range(1, max_n + 1)]

    # 10. fast evaluator against the independent loop oracle, one batch
    # over the primes up to 50
    def oracle() -> tuple[bool, str]:
        indices = list(all_indices(6, max_depth=3))
        memos = residues(indices, primes_in(2, min(50, hi)))
        checked = [memo[k] == zeta_mod_p_naive(k, p) for p, memo in memos for k in indices]
        fails = checked.count(False)
        return fails == 0, f"{len(checked)} evaluations, {fails} mismatches"

    # 11. frozen spot congruences
    def spot() -> tuple[bool, str]:
        ok = (
            zeta_mod_p(Index((2, 1)), 5) == 1
            and bernoulli_mod_p(3, 5) == 1
            and zeta_mod_p(Index((1, 2)), 5) == 4
        )
        return ok, "residues at p=5"

    pool = None
    if width > 1:
        # imported here, so that a run on one CPU never loads it
        from concurrent.futures import ProcessPoolExecutor

        # Where the platform forks, the pool forks every worker at the first
        # submit, before it starts its own thread and before the numeric
        # steps grow this process's heap.
        pool = ProcessPoolExecutor(width)

    def submit(fn: Callable[..., int], *args) -> Callable[[], int]:
        # what reading the task's result calls: the pool's future, or, with
        # no pool, the task itself
        return pool.submit(fn, *args).result if pool else partial(fn, *args)

    try:
        eq3 = [submit(_failures, "eq3", chunk) for chunk in _chunks(symbolic, width)]
        ikz = [submit(_failures, "ikz", chunk) for chunk in _chunks(series, width)]
        laws = [submit(_law_failures, *triple) for triple in triples]
        battery = [
            ("dual-involution", duals),
            ("eq3-symbolic", lambda: collect("instances", len(symbolic), eq3)),
            ("ikz-truncated", lambda: collect("words through u^4", len(series), ikz)),
            ("ohno", lambda: tally("instances", batch(["ohno"], ohno))),
            ("sum-formula",
             lambda: tally("instances", batch(["sum-formula"], sums), vanishes_if_even)),
            ("height-one", lambda: tally("instances", batch(["height-one"], runs))),
            ("stuffle-duality", lambda: tally("checks", batch(["stuffle", "duality"], pairs))),
            ("homogeneous", lambda: tally("instances", batch(["homogeneous"], constants))),
            ("lemma-checks", lambda: tally("checks", batch(["lemma2", "key-lemma"], lemmas))),
            ("zeta-oracle", oracle),
            ("spot-congruences", spot),
            ("algebra-laws", lambda: collect("random triples", len(triples), laws)),
        ]
        steps: list[SuiteStep] = []
        for name, body in battery:
            # An engine fault fails this step alone, with the fault as its
            # error, and the battery goes on.
            try:
                passed, detail = body()
                error = None
            except EngineFault as exc:
                passed, detail, error = False, "engine fault", str(exc)
            steps.append(SuiteStep(name, passed, detail, error))
            log(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
        return steps
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)

"""The full verification battery: every checker family swept over
configurable weight/shift bounds and a prime window.

Each step returns a structured result; the battery is deterministic for a
given configuration.  Random pairs for the algebra laws use a fixed seed.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterator
from dataclasses import dataclass
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


def run_battery(
    max_weight: int = 7,
    max_n: int = 3,
    window: tuple[int, int] = (2, 200),
    jobs: int = 1,
    log: Callable[[str], None] = _quiet,
) -> list[SuiteStep]:
    """Run every step of the battery over ``window`` in order, logging one
    line per step, and return the steps.  ``jobs`` is accepted and ignored:
    every check runs in this process."""
    steps = []

    def run(name: str, body: Callable[[], tuple[bool, str]]) -> None:
        # Record the step's (passed, detail), which body() gives.  An engine
        # fault fails this step alone, with the fault as its error, and the
        # battery goes on.
        try:
            passed, detail = body()
            error = None
        except EngineFault as exc:
            passed, detail, error = False, "engine fault", str(exc)
        steps.append(SuiteStep(name, passed, detail, error))
        log(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")

    lo, hi = window
    primes = primes_in(lo, hi)
    if not primes:
        raise ValueError(f"no primes in window [{lo}, {hi}]")

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

    run("dual-involution", duals)

    # Steps 2-9 each count the reports that fail ``ok``.
    def tally(noun: str, reports, ok=lambda rep: rep.passed) -> tuple[bool, str]:
        reports = list(reports)
        fails = sum(1 for rep in reports if not ok(rep))
        return fails == 0, f"{len(reports)} {noun}, {fails} failures"

    # Steps 4-9 each build every instance first and run them as one batch
    # over the window, leaving out those whose plan needs a larger prime.
    def batch(names, values):
        instances = (instance(name, v, window) for v in values for name in names)
        return _run([inst for inst in instances if inst.plan.minimum <= primes[-1]], window)

    # 2. exact word identity behind the shifted harmonic product
    symbolic = [(k, n) for k in all_indices(min(max_weight, 6)) for n in range(min(max_n, 3) + 1)]
    run("eq3-symbolic", lambda: tally("instances", (check("eq3", k, n) for k, n in symbolic)))

    # 3. truncated series identity through u^4
    series = list(h1_words(5))
    run("ikz-truncated", lambda: tally("words through u^4", (check("ikz", w, 4) for w in series)))

    # 4. shifted-sum relation over the window
    ohno = [(k, n) for k in all_indices(max_weight) for n in range(max_n + 1)]
    run("ohno", lambda: tally("instances", batch(["ohno"], ohno)))

    # 5. sum formula, including forced vanishing for even weights
    def vanishes_if_even(rep) -> bool:
        return rep.passed and (rep.params["k"] % 2 or all(row.rhs == 0 for row in rep.above_floor))

    sums = [(k, r, i) for k in range(3, 10) for r in range(1, k) for i in range(1, r + 1)]
    run("sum-formula", lambda: tally("instances", batch(["sum-formula"], sums), vanishes_if_even))

    # 6. height-one closed form
    runs = [(a, b) for a in range(0, 6) for b in range(0, 6 - a)]
    run("height-one", lambda: tally("instances", batch(["height-one"], runs)))

    # 7. product-to-value homomorphism and shuffle duality
    words = [w for w in h1_words(5) if w]
    pairs = [(w, wp) for w in words for wp in words if len(w) + len(wp) <= 6]
    run("stuffle-duality", lambda: tally("checks", batch(["stuffle", "duality"], pairs)))

    # 8. homogeneous vanishing
    constants = [(a, r) for a in range(1, 4) for r in range(1, 5)]
    run("homogeneous", lambda: tally("instances", batch(["homogeneous"], constants)))

    # 9. the lemma value at every prime; key-lemma first compares the index
    # and word readings exactly, layer by layer
    lemmas = [(k, n) for k in all_indices(min(max_weight, 5)) for n in range(1, max_n + 1)]
    run("lemma-checks", lambda: tally("checks", batch(["lemma2", "key-lemma"], lemmas)))

    # 10. fast evaluator against the independent loop oracle, one batch
    # over the primes up to 50
    def oracle() -> tuple[bool, str]:
        indices = list(all_indices(6, max_depth=3))
        memos = residues(indices, primes_in(2, min(50, hi)))
        checked = [memo[k] == zeta_mod_p_naive(k, p) for p, memo in memos for k in indices]
        fails = checked.count(False)
        return fails == 0, f"{len(checked)} evaluations, {fails} mismatches"

    run("zeta-oracle", oracle)

    # 11. frozen spot congruences
    def spot() -> tuple[bool, str]:
        ok = (
            zeta_mod_p(Index((2, 1)), 5) == 1
            and bernoulli_mod_p(3, 5) == 1
            and zeta_mod_p(Index((1, 2)), 5) == 4
        )
        return ok, "residues at p=5"

    run("spot-congruences", spot)

    # 12. algebra laws on seeded random words
    def laws() -> tuple[bool, str]:
        rng = random.Random(20240607)
        pool = [w for w in h1_words(min(max_weight, 6)) if w]
        triples = 100 if pool else 0  # max_weight < 1 leaves no word to draw
        fails = 0
        for _ in range(triples):
            a = NCPolynomial.from_word(rng.choice(pool))
            b = NCPolynomial.from_word(rng.choice(pool))
            c = NCPolynomial.from_word(rng.choice(pool))
            # each pair product once; the swapped operands still test commutativity
            ha, sh = harmonic(a, b), shuffle(a, b)
            if ha != harmonic(b, a) or sh != shuffle(b, a):
                fails += 1
            if harmonic(ha, c) != harmonic(a, harmonic(b, c)):
                fails += 1
            if shuffle(sh, c) != shuffle(a, shuffle(b, c)):
                fails += 1
            wa = next(iter(a.terms))
            wb = next(iter(b.terms))
            if sh.term_count() != comb(len(wa) + len(wb), len(wa)):
                fails += 1
        return fails == 0, f"{triples} random triples, {fails} failures"

    run("algebra-laws", laws)

    return steps

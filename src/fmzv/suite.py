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
from .modp import bernoulli_mod_p, primes_in, zeta_mod_p, zeta_mod_p_naive
from .verify import CHECKS, _run, check
from .words import NCPolynomial, harmonic, shuffle, word_of_index


@dataclass(frozen=True)
class SuiteStep:
    name: str
    passed: bool
    detail: str


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
    steps = []

    def record(name: str, passed: bool, detail: str) -> None:
        steps.append(SuiteStep(name, passed, detail))
        log(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")

    lo, hi = window
    primes = primes_in(lo, hi)
    if not primes:
        raise ValueError(f"no primes in window [{lo}, {hi}]")

    # 1. dual involution, depth identity, and the worked example
    bad = 0
    count = 0
    for k in all_indices(10):
        count += 1
        kd = hoffman_dual(k)
        if hoffman_dual(kd) != k or k.depth + kd.depth != k.weight + 1:
            bad += 1
    example_ok = hoffman_dual(Index((2, 3, 1, 2))) == (1, 2, 1, 3, 1)
    record(
        "dual-involution",
        bad == 0 and example_ok,
        f"{count} indices of weight <= 10, {bad} failures",
    )

    # Steps 2-9 each count the reports that fail ``ok``.
    def tally(name: str, noun: str, reports, ok=lambda rep: rep.passed) -> None:
        reports = list(reports)
        fails = sum(1 for rep in reports if not ok(rep))
        record(name, fails == 0, f"{len(reports)} {noun}, {fails} failures")

    # Steps 4-9 each build every instance first and run them as one batch
    # over the window, leaving out those whose plan needs a larger prime.
    def batch(names, values):
        instances = (CHECKS[name].build(*v, window) for v in values for name in names)
        return _run([inst for inst in instances if inst.plan.minimum <= primes[-1]], window, jobs)

    # 2. exact word identity behind the shifted harmonic product
    symbolic = [(k, n) for k in all_indices(min(max_weight, 6)) for n in range(min(max_n, 3) + 1)]
    tally("eq3-symbolic", "instances", (check("eq3", k, n) for k, n in symbolic))

    # 3. truncated series identity through u^4
    tally("ikz-truncated", "words through u^4", (check("ikz", w, 4) for w in h1_words(5)))

    # 4. shifted-sum relation over the window
    ohno = [(k, n) for k in all_indices(max_weight) for n in range(max_n + 1)]
    tally("ohno", "instances", batch(["ohno"], ohno))

    # 5. sum formula, including forced vanishing for even weights
    def vanishes_if_even(rep) -> bool:
        checked = [row for row in rep.results if row.p >= rep.floor]
        return rep.passed and (rep.params["k"] % 2 or all(row.rhs == 0 for row in checked))

    sums = [(k, r, i) for k in range(3, 10) for r in range(1, k) for i in range(1, r + 1)]
    tally("sum-formula", "instances", batch(["sum-formula"], sums), ok=vanishes_if_even)

    # 6. height-one closed form
    runs = [(a, b) for a in range(0, 6) for b in range(0, 6 - a)]
    tally("height-one", "instances", batch(["height-one"], runs))

    # 7. product-to-value homomorphism and shuffle duality
    words = [w for w in h1_words(5) if w]
    pairs = [(w, wp) for w in words for wp in words if len(w) + len(wp) <= 6]
    tally("stuffle-duality", "checks", batch(["stuffle", "duality"], pairs))

    # 8. homogeneous vanishing
    constants = [(a, r) for a in range(1, 4) for r in range(1, 5)]
    tally("homogeneous", "instances", batch(["homogeneous"], constants))

    # 9. the lemma value at every prime; key-lemma first compares the index
    # and word readings exactly, layer by layer
    lemmas = [(k, n) for k in all_indices(min(max_weight, 5)) for n in range(1, max_n + 1)]
    tally("lemma-checks", "checks", batch(["lemma2", "key-lemma"], lemmas))

    # 10. fast evaluator against the independent loop oracle
    fails = 0
    count = 0
    for p in primes_in(2, min(50, hi)):
        for k in all_indices(6, max_depth=3):
            count += 1
            if zeta_mod_p(k, p) != zeta_mod_p_naive(k, p):
                fails += 1
    record("zeta-oracle", fails == 0, f"{count} evaluations, {fails} mismatches")

    # 11. frozen spot congruences
    spot = (
        zeta_mod_p(Index((2, 1)), 5) == 1
        and bernoulli_mod_p(3, 5) == 1
        and zeta_mod_p(Index((1, 2)), 5) == 4
    )
    record("spot-congruences", spot, "residues at p=5")

    # 12. algebra laws on seeded random words
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
    record("algebra-laws", fails == 0, f"{triples} random triples, {fails} failures")

    return steps

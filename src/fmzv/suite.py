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
from .verify import (
    _run,
    check_eq3,
    check_ikz,
    duality_instance,
    height_one_instance,
    homogeneous_instance,
    lemma_instance,
    ohno_instance,
    stuffle_instance,
    sum_formula_instance,
)
from .words import NCPolynomial, harmonic, shuffle


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
        yield "".join("x" * (p - 1) + "y" for p in k)


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

    # 2. exact word identity behind the shifted harmonic product
    fails = 0
    count = 0
    for k in all_indices(min(max_weight, 6)):
        for n in range(min(max_n, 3) + 1):
            count += 1
            if not check_eq3(k, n).passed:
                fails += 1
    record("eq3-symbolic", fails == 0, f"{count} instances, {fails} failures")

    # 3. truncated series identity through u^4
    fails = 0
    count = 0
    for w in h1_words(5):
        count += 1
        if not check_ikz(w, 4).passed:
            fails += 1
    record("ikz-truncated", fails == 0, f"{count} words through u^4, {fails} failures")

    # Steps 4-9 each build every instance first and run them as one batch.
    def failures(reports) -> int:
        return sum(1 for rep in reports if not rep.passed)

    # 4. shifted-sum relation over the window
    batch = [ohno_instance(k, n, window) for k in all_indices(max_weight) for n in range(max_n + 1)]
    fails = failures(_run(batch, window, jobs))
    record("ohno", fails == 0, f"{len(batch)} instances, {fails} failures")

    # 5. sum formula, including forced vanishing for even weights
    batch = [
        sum_formula_instance(k, r, i, window)
        for k in range(3, 10)
        if k + 2 <= hi
        for r in range(1, k)
        for i in range(1, r + 1)
    ]
    fails = 0
    for inst, rep in zip(batch, _run(batch, window, jobs)):
        k = inst.weight
        ok = rep.passed
        if k % 2 == 0:
            ok = ok and all(row.rhs == 0 for row in rep.results if row.p >= k + 3)
        if not ok:
            fails += 1
    record("sum-formula", fails == 0, f"{len(batch)} instances, {fails} failures")

    # 6. height-one closed form
    batch = [height_one_instance(a, b, window) for a in range(0, 6) for b in range(0, 6 - a)]
    fails = failures(_run(batch, window, jobs))
    record("height-one", fails == 0, f"{len(batch)} instances, {fails} failures")

    # 7. product-to-value homomorphism and shuffle duality
    pair_window = (max(lo, 9), hi)
    words = [w for w in h1_words(5) if w]
    batch = [
        make(w, wp, pair_window)
        for w in words
        for wp in words
        if len(w) + len(wp) <= 6
        for make in (stuffle_instance, duality_instance)
    ]
    fails = failures(_run(batch, pair_window, jobs))
    record("stuffle-duality", fails == 0, f"{len(batch)} checks, {fails} failures")

    # 8. homogeneous vanishing
    batch = [homogeneous_instance(a, r, window) for a in range(1, 4) for r in range(1, 5)]
    fails = failures(_run(batch, window, jobs))
    record("homogeneous", fails == 0, f"{len(batch)} instances, {fails} failures")

    # 9. the lemma value at every prime; key-lemma first compares the index
    # and word readings exactly, layer by layer
    batch = [
        lemma_instance(identity, k, n, window)
        for k in all_indices(min(max_weight, 5))
        for n in range(1, max_n + 1)
        for identity in ("lemma2", "key-lemma")
    ]
    fails = failures(_run(batch, window, jobs))
    record("lemma-checks", fails == 0, f"{len(batch)} checks, {fails} failures")

    # 10. fast evaluator against the brute-force oracle
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
        if harmonic(a, b) != harmonic(b, a) or shuffle(a, b) != shuffle(b, a):
            fails += 1
        if harmonic(harmonic(a, b), c) != harmonic(a, harmonic(b, c)):
            fails += 1
        if shuffle(shuffle(a, b), c) != shuffle(a, shuffle(b, c)):
            fails += 1
        wa = next(iter(a.terms))
        wb = next(iter(b.terms))
        if shuffle(a, b).term_count() != comb(len(wa) + len(wb), len(wa)):
            fails += 1
    record("algebra-laws", fails == 0, f"{triples} random triples, {fails} failures")

    return steps

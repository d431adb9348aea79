"""Acceptance battery: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the lines
as they print).  Every numeric tolerance here is exact residue equality;
the stated time budgets are asserted where the criterion names one.
"""

import random
import time
from math import comb

from fmzv.indices import Index, hoffman_dual
from fmzv.modp import (
    bernoulli_mod_p,
    primes_in,
    zeta_mod_p,
    zeta_mod_p_naive,
)
from fmzv.suite import all_indices, h1_words, run_battery
from fmzv.verify import (
    check,
    check_eq3,
    check_ikz,
    lemma_index_layers,
    lemma_word_layers,
)
from fmzv.words import NCPolynomial, harmonic, shuffle

from oracles import bernoulli_exact_mod, dual_by_runs, zeta_brute, zeta_poly_mod_p


def report(num, ok, detail):
    label = f"{num:02d}" if isinstance(num, int) else str(num)
    print(f"[criterion {label}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {label} failed: {detail}"


def test_c01_hoffman_dual_involution():
    start = time.time()
    ok = hoffman_dual(Index((2, 3, 1, 2))) == (1, 2, 1, 3, 1)
    count = 0
    for k in all_indices(10):
        count += 1
        kd = hoffman_dual(k)
        ok = ok and hoffman_dual(kd) == k
        ok = ok and k.depth + kd.depth == k.weight + 1
        ok = ok and kd == dual_by_runs(k)
    elapsed = time.time() - start
    ok = ok and elapsed < 5.0
    report(1, ok, f"dual example, involution and depth identity on {count} indices "
                  f"of weight <= 10 in {elapsed:.2f}s (< 5s)")


def test_c02_symbolic_ones_expansion():
    start = time.time()
    fails = []
    count = 0
    for k in all_indices(6):
        for n in range(4):
            count += 1
            if not check_eq3(k, n).passed:
                fails.append((tuple(k), n))
    elapsed = time.time() - start
    ok = not fails and elapsed < 60.0
    report(2, ok, f"exact equality on {count} instances (weight <= 6, n <= 3) "
                  f"in {elapsed:.2f}s (< 60s); failures: {fails}")


def test_c03_truncated_series_identity():
    start = time.time()
    fails = []
    count = 0
    for w in h1_words(5):
        count += 1
        if not check_ikz(w, 4).passed:
            fails.append(w)
    elapsed = time.time() - start
    ok = not fails and elapsed < 60.0
    report(3, ok, f"series equality through u^4 for {count} words of weight <= 5 "
                  f"in {elapsed:.2f}s (< 60s); failures: {fails}")


def test_c04_ohno_relation():
    start = time.time()
    fails = []
    count = 0
    for k in all_indices(7):
        for n in range(4):
            count += 1
            rep = check("ohno", k, n, window=(k.weight + n + 3, 200))
            if not rep.passed:
                fails.append((tuple(k), n))
    elapsed = time.time() - start
    ok = not fails and elapsed < 300.0
    report(4, ok, f"zero failures across {count} instances (weight <= 7, n <= 3, "
                  f"primes above weight+n+2 up to 200) in {elapsed:.1f}s (< 5min); "
                  f"failures: {fails}")


def test_c05_sum_formula():
    fails = []
    count = 0
    for k in range(3, 10):
        for r in range(1, k):
            for i in range(1, r + 1):
                count += 1
                rep = check("sum-formula", k, r, i, window=(k + 3, 300))
                ok = rep.passed
                if k % 2 == 0:
                    ok = ok and all(
                        row.lhs == 0 for row in rep.results if row.p >= k + 3
                    )
                if not ok:
                    fails.append((k, r, i))
    report(5, not fails, f"{count} (k, r, i) instances over primes in (k+2, 300], "
                         f"with forced vanishing for even k; failures: {fails}")


def test_c06_spot_congruences():
    z21 = zeta_brute((2, 1), 5)
    z12 = zeta_brute((1, 2), 5)
    b = bernoulli_exact_mod(2, 5)
    ok = (
        z21 == 1
        and zeta_mod_p(Index((2, 1)), 5) == 1
        and b == 1
        and bernoulli_mod_p(3, 5) == 1
        and z21 == b
        and z12 == 4
        and zeta_mod_p(Index((1, 2)), 5) == 4
    )
    report(6, ok, f"zeta(2,1) mod 5 = {z21} agrees with B_2 mod 5 = {b}; "
                  f"zeta(1,2) mod 5 = {z12}")


def test_c07_homogeneous_vanishing():
    fails = []
    for a in range(1, 4):
        for r in range(1, 5):
            rep = check("homogeneous", a, r, window=(2, 200))
            if not rep.passed:
                fails.append((a, r))
    report(7, not fails, f"constant indices (a <= 3, r <= 4) vanish at every prime "
                         f"at or above the floor, window up to 200; failures: {fails}")


def test_c08_algebra_laws():
    rng = random.Random(90210)
    h1_pool = [w for w in h1_words(6) if w]
    free_pool = ["".join(rng.choice("xy") for _ in range(rng.randint(1, 6)))
                 for _ in range(60)]
    fails = 0
    for _ in range(100):
        a, b, c = (NCPolynomial.from_word(rng.choice(h1_pool)) for _ in range(3))
        if harmonic(a, b) != harmonic(b, a):
            fails += 1
        if harmonic(harmonic(a, b), c) != harmonic(a, harmonic(b, c)):
            fails += 1
        fa, fb, fc = (NCPolynomial.from_word(rng.choice(free_pool)) for _ in range(3))
        if shuffle(fa, fb) != shuffle(fb, fa):
            fails += 1
        if shuffle(shuffle(fa, fb), fc) != shuffle(fa, shuffle(fb, fc)):
            fails += 1
        wa, wb = next(iter(fa.terms)), next(iter(fb.terms))
        if shuffle(fa, fb).term_count() != comb(len(wa) + len(wb), len(wa)):
            fails += 1
    report(8, fails == 0, f"commutativity/associativity and shuffle term counts on "
                          f"100 random pair/triple draws, {fails} failures")


def test_c09_product_value_relations():
    words = [w for w in h1_words(5) if w]
    fails = []
    count = 0
    for w in words:
        for wp in words:
            if len(w) + len(wp) > 6:
                continue
            count += 2
            if not check("stuffle", w, wp, window=(9, 200)).passed:
                fails.append(("stuffle", w, wp))
            if not check("duality", w, wp, window=(9, 200)).passed:
                fails.append(("duality", w, wp))
    report(9, not fails, f"{count} product/value checks over word pairs with total "
                         f"weight <= 6, primes in (8, 200]; failures: {fails}")


def test_c10_oracle_equivalence():
    fails = []
    count = 0
    for p in primes_in(2, 50):
        for k in all_indices(6, max_depth=3):
            count += 1
            if zeta_mod_p(k, p) != zeta_mod_p_naive(k, p):
                fails.append((tuple(k), p))
    report(10, not fails, f"sweep evaluator matches the brute-force oracle on "
                          f"{count} (index, prime) pairs; failures: {fails}")


def test_c11_lemma_checks():
    fails = []
    count = 0
    for k in all_indices(5):
        for n in (1, 2, 3):
            window = (k.weight + n + 3, 200)
            count += 2
            r2 = check("lemma2", k, n, window=window)
            rk = check("key-lemma", k, n, window=window)
            if not (r2.passed and rk.passed):
                fails.append((tuple(k), n))
                continue
            if [(x.p, x.lhs) for x in r2.results] != [(x.p, x.lhs) for x in rk.results]:
                fails.append((tuple(k), n, "values differ"))
    # explicit term-for-term agreement at the first prime of each window
    for k in all_indices(5):
        for n in (1, 2, 3):
            p = primes_in(k.weight + n + 3, 200)[0]
            polys = lemma_word_layers(k, n)
            layers = lemma_index_layers(k, n)
            for poly, layer in zip(polys, layers):
                if zeta_poly_mod_p(poly, p) != sum(zeta_mod_p(kk, p) for kk in layer) % p:
                    fails.append((tuple(k), n, p, "layer mismatch"))
    report(11, not fails, f"{count} lemma checks (weight <= 5, n <= 3) vanish above "
                          f"the floor and the two readings agree term-for-term; "
                          f"failures: {fails}")


def test_full_battery_under_ten_minutes():
    start = time.time()
    steps = run_battery(max_weight=7, max_n=3, window=(2, 200))
    elapsed = time.time() - start
    bad = [s.name for s in steps if not s.passed]
    ok = not bad and elapsed < 600.0
    report("suite", ok,
           f"full battery: {len(steps)} steps in {elapsed:.1f}s (< 10min); "
           f"failing steps: {bad}")

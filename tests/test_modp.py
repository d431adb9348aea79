import random
import tracemalloc
from itertools import accumulate, repeat
from math import comb
from operator import mod, mul

import pytest

import fmzv.modp
from fmzv.indices import Index
from fmzv.modp import (
    MAX_MODULUS,
    SuffixTrie,
    bernoulli_mod_p,
    harmonic_sums,
    inv_mod,
    inverse_table,
    is_prime,
    primes_in,
    zeta_mod_p,
    zeta_mod_p_naive,
)
from fmzv.suite import all_indices, h1_words
from fmzv.words import NCPolynomial, harmonic

from oracles import (
    bernoulli_exact_mod,
    bernoulli_table_by_recurrence,
    zeta_brute,
    zeta_by_loop,
    zeta_poly_mod_p,
)


def _trial_division(n):
    if n < 2:
        return False
    return all(n % d for d in range(2, int(n**0.5) + 1))


def test_is_prime():
    for n in range(-3, 500):
        assert is_prime(n) == _trial_division(n), n
    assert is_prime(2**31 - 1)
    assert not is_prime(2**31)
    assert not is_prime(561)  # Carmichael


def test_primes_in():
    assert primes_in(2, 10) == [2, 3, 5, 7]
    assert primes_in(14, 16) == []
    assert primes_in(97, 97) == [97]
    assert primes_in(2, 50) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    assert primes_in(1000, 1100)[0] == 1009
    for lo, hi in [(1, 10), (10, 5), (2, MAX_MODULUS + 1)]:
        with pytest.raises(ValueError):
            primes_in(lo, hi)


def test_primes_in_matches_trial_division():
    windows = [
        (2, 2), (2, 3), (2, 1000),            # lo = 2
        (97, 97), (121, 121), (4, 4),         # lo = hi
        (24, 30), (120, 130), (9999, 10010),  # lo just below a square
        (114, 126), (1328, 1360),             # no primes at all
        (99_000, 100_500),
    ]
    for lo, hi in windows:
        expect = [n for n in range(lo, hi + 1) if _trial_division(n)]
        assert primes_in(lo, hi) == expect, (lo, hi)


def test_inv_and_pow():
    assert inv_mod(3, 7) == 5
    assert inv_mod(1, 97) == 1
    with pytest.raises(ZeroDivisionError):
        inv_mod(0, 7)
    with pytest.raises(ZeroDivisionError):
        inv_mod(14, 7)
    table = inverse_table(13)
    assert all(m * table[m] % 13 == 1 for m in range(1, 13))


def test_zeta_spot_values():
    assert zeta_mod_p(Index((2, 1)), 5) == zeta_brute((2, 1), 5) == 1
    assert zeta_mod_p(Index((1, 2)), 5) == zeta_brute((1, 2), 5) == 4
    assert zeta_mod_p(Index((1,)), 5) == 0
    # depth >= p: empty summation range
    assert zeta_mod_p(Index((1,) * 7), 5) == 0
    assert zeta_mod_p(Index((2, 3, 1)), 3) == 0
    with pytest.raises(ValueError):
        zeta_mod_p((2, 1), 6)
    with pytest.raises(ValueError):
        zeta_mod_p((0,), 5)


def test_zeta_large_exponent_reduction():
    # exponents reduce mod p-1; multiples of p-1 act like exponent 0
    for p in (5, 7, 11):
        for k in (1, 2, 3):
            assert zeta_mod_p(Index((k + (p - 1) * 3,)), p) == zeta_brute((k + (p - 1) * 3,), p)
        assert zeta_mod_p(Index((p - 1,)), p) == (p - 1)


def test_zeta_dp_matches_brute_force():
    for p in primes_in(2, 31):
        for k in all_indices(6, max_depth=3):
            assert zeta_mod_p(k, p) == zeta_brute(k, p), (k, p)
        # depth >= p: empty summation range
        for r in (p, p + 1):
            assert zeta_mod_p(Index((1,) * r), p) == 0, (r, p)


def test_zeta_matches_loop_reference_at_large_primes():
    for p in (10007, 65537):
        indices = [
            (1,), (3,), (2, 1), (1, 2, 1), (3, 1, 2, 1),
            (p - 1,), (2, p - 1), (p - 1, 1, 2),        # exponent 0 rows
            (34,), (1, 40), (2, 35, 1, 1),              # the e > 32 row path
            (p - 1, 33, 2, p),                          # both, and p = exponent 1
        ]
        for k in indices:
            assert zeta_mod_p(Index(k), p) == zeta_by_loop(k, p), (k, p)


def test_zeta_naive_matches_brute_force_and_engine():
    for p in (2, 3, 5, 11, 13):
        # depth >= p, and a part that is 0 mod p - 1
        for k in [(1, 2), (2, 1, 1), (3,), (1,) * p, (2, p - 1, 1)]:
            assert zeta_mod_p_naive(k, p) == zeta_brute(k, p), (k, p)
    deep = Index((1,) * 9 + (2,))
    assert zeta_mod_p_naive(deep, 199) == zeta_mod_p(deep, 199)


def test_single_part_vanishing():
    for p in primes_in(2, 200):
        for k in range(1, p - 1):
            assert zeta_mod_p(Index((k,)), p) == 0, (k, p)


def test_zeta_poly():
    stuffle = harmonic(NCPolynomial.from_word("y"), NCPolynomial.from_word("xy"))
    assert zeta_poly_mod_p(stuffle, 7) == zeta_mod_p(Index((1,)), 7) * zeta_mod_p(Index((2,)), 7) % 7
    assert zeta_poly_mod_p(NCPolynomial.one(), 11) == 1
    assert zeta_poly_mod_p(NCPolynomial.zero(), 11) == 0
    with pytest.raises(ValueError):
        zeta_poly_mod_p(NCPolynomial.from_word("yx"), 7)


def test_stuffle_homomorphism_at_primes():
    rng = random.Random(407)
    pool = [w for w in h1_words(5) if w]
    for _ in range(10):
        w1, w2 = rng.choice(pool), rng.choice(pool)
        prod = harmonic(NCPolynomial.from_word(w1), NCPolynomial.from_word(w2))
        for p in primes_in(len(w1) + len(w2) + 1, 200):
            lhs = zeta_poly_mod_p(prod, p)
            rhs = (
                zeta_poly_mod_p(NCPolynomial.from_word(w1), p)
                * zeta_poly_mod_p(NCPolynomial.from_word(w2), p)
                % p
            )
            assert lhs == rhs


def test_bernoulli_against_exact_oracle():
    for p in primes_in(5, 50):
        for k in range(2, p - 1):
            assert bernoulli_mod_p(k, p) == bernoulli_exact_mod(p - k, p), (k, p)


def test_bernoulli_spot_values():
    assert bernoulli_mod_p(3, 5) == 1  # B_2 = 1/6 and 6 = 1 mod 5
    assert bernoulli_mod_p(3, 7) == 3  # B_4 = -1/30 and -inv(2) = 3 mod 7
    for k in (2, 4, 6, 8):
        for p in primes_in(k + 3, 100):
            assert bernoulli_mod_p(k, p) == 0


def test_bernoulli_range_errors():
    for k, p in [(1, 7), (6, 7), (0, 5), (10, 5)]:
        with pytest.raises(ValueError):
            bernoulli_mod_p(k, p)


def test_bernoulli_memo_is_read_before_validating(monkeypatch):
    monkeypatch.setattr(fmzv.modp, "_store", {})
    monkeypatch.setattr(fmzv.modp, "_store_size", 0)
    first = bernoulli_mod_p(3, 7)
    # a miss still validates: 9 is not prime, and k = 1 is out of range at 7
    for k, p in [(3, 9), (1, 7)]:
        with pytest.raises(ValueError):
            bernoulli_mod_p(k, p)

    def refuse(n):
        raise AssertionError(f"primality of {n} tested again")

    monkeypatch.setattr(fmzv.modp, "is_prime", refuse)
    assert bernoulli_mod_p(3, 7) == first == 3


def test_bernoulli_table_satisfies_recurrence():
    for p in (5, 13, 31):
        table = bernoulli_table_by_recurrence(p)
        for m in range(1, p - 1):
            total = sum(comb(m + 1, j) * table[j] for j in range(m + 1)) % p
            assert total == 0, (p, m)


def test_bernoulli_matches_recurrence_oracle():
    for p in primes_in(5, 400):
        table = bernoulli_table_by_recurrence(p)
        for k in range(2, p - 1):
            assert bernoulli_mod_p(k, p) == table[p - k], (k, p)


def test_row_store_stays_within_budget(monkeypatch):
    import fmzv.modp as modp

    def units(entry):
        rows, residues, bernoulli = entry
        return sum(map(len, rows.values())) + len(residues) + len(bernoulli)

    monkeypatch.setattr(modp, "_store", {})
    monkeypatch.setattr(modp, "_store_size", 0)
    primes = primes_in(99_990, 100_100)[:5]
    for p in primes:
        zeta_mod_p(Index((3, 1, 2)), p)
        bernoulli_mod_p(p - 4, p)  # B_4
        assert modp._store_size == sum(map(units, modp._store.values()))
        assert modp._store_size <= modp.TABLE_BUDGET + units(modp._store[p]), p
    # three rows of about 10^5 residues per prime: the first primes are gone
    assert primes[0] not in modp._store
    assert list(modp._store)[-1] == primes[-1]
    # rebuilt rows give the same sums as the loop oracle, and the evicted
    # prime's residue and Bernoulli value left with its rows
    p = primes[0]
    value = zeta_mod_p(Index((2, 3, 1)), p)
    assert value == zeta_by_loop((2, 3, 1), p)
    assert modp._store[p][1:] == ({(2, 3, 1): value}, {})
    assert zeta_mod_p(Index((1, 1, 3)), p) == zeta_by_loop((1, 1, 3), p)
    assert bernoulli_mod_p(p - 4, p) == bernoulli_exact_mod(4, p)
    assert modp._store_size == sum(map(units, modp._store.values()))


def _shared_suffix_indices(rng, p, count, max_depth):
    # each new index puts one to three parts in front of an earlier index
    # (or of nothing), so the set shares suffixes at every depth; parts
    # above 32, and at or near multiples of p - 1, take every row path
    parts = [1, 2, 3, 33, 40, p - 1, p, 2 * (p - 1), 2 * (p - 1) + 3]
    indices = [()]
    while len(indices) <= count:
        base = rng.choice(indices)
        head = tuple(rng.choice(parts) for _ in range(rng.randint(1, 3)))
        if len(head + base) <= max_depth:
            indices.append(head + base)
    indices = indices[1:]
    return indices + rng.sample(indices, 5)  # duplicates


def test_trie_matches_loop_oracle():
    rng = random.Random(6)
    for p, count, max_depth in [(2, 40, 6), (3, 40, 7), (5, 60, 9), (10007, 12, 4)]:
        indices = _shared_suffix_indices(rng, p, count, max_depth)
        if p < 10:
            indices += [(1,) * p, (2,) * (p + 2)]  # depth >= p
        trie = SuffixTrie(indices)
        assert len(trie.indices) < len(indices)
        swept = trie.sweep(p)
        assert sorted(swept) == sorted(set(indices))
        for k in trie.indices:
            assert swept[k] == zeta_by_loop(k, p), (k, p)
        values = harmonic_sums(trie, p)
        assert {k: values[k] for k in trie.indices} == swept


def test_memoized_indices_are_not_swept(monkeypatch):
    import fmzv.modp as modp

    monkeypatch.setattr(modp, "_store", {})
    monkeypatch.setattr(modp, "_store_size", 0)
    swept = []
    sweep = SuffixTrie.sweep
    monkeypatch.setattr(SuffixTrie, "sweep", lambda self, p: swept.append(self.indices) or sweep(self, p))
    harmonic_sums(SuffixTrie([(2, 1), (3,)]), 11)
    values = harmonic_sums(SuffixTrie([(3,), (2, 1)]), 11)
    assert (values[3,], values[2, 1]) == (0, zeta_brute((2, 1), 11))
    harmonic_sums(SuffixTrie([(2, 1), (1, 2, 1)]), 11)
    assert zeta_mod_p((1, 2, 1), 11) == zeta_brute((1, 2, 1), 11)
    # one sweep of both indices, none for the repeat, one of the new index
    assert swept == [[(2, 1), (3,)], [(1, 2, 1)]]


def test_closed_forms_at_large_primes():
    # depth 1: the sum of m^(-a) vanishes unless (p-1) | a, when it is p-1.
    # depth 2 (m_1 > m_2, a on the outer sum), for 2 <= a+b <= p-2:
    # zeta_p(a, b) = (-1)^a C(a+b, a) B_(p-a-b) / (a+b)  (Hoffman; Zhao)
    for p in (10007, 65537):
        singles = [1, 2, 3, 37, p - 2, p - 1, 2 * (p - 1), 3 * (p - 1) + 5]
        pairs = [(1, 1), (1, 2), (2, 1), (3, 4), (5, 2), (2, 6), (10, 11), (100, 37), (1, p - 4)]
        swept = SuffixTrie([(a,) for a in singles] + pairs).sweep(p)
        for a in singles:
            expect = p - 1 if a % (p - 1) == 0 else 0
            assert swept[(a,)] == zeta_mod_p((a,), p) == expect, (a, p)
        for a, b in pairs:
            w = a + b
            expect = (-1) ** a * comb(w, a) * bernoulli_mod_p(w, p) * inv_mod(w, p) % p
            assert swept[(a, b)] == zeta_mod_p((a, b), p) == expect, (a, b, p)


def test_trie_keeps_one_tail_per_depth():
    p = 65537
    # depth 4, eleven proper suffixes: (1), (2), (3), (1,1), (2,2), ...
    indices = [(1, 1, 1, 1), (1, 2, 2, 2), (1, 3, 3, 3), (1, 1, 2, 3), (2, 2, 2, 2)]
    trie = SuffixTrie(indices)
    trie.sweep(p)  # rows into the store, and the walk built
    # one pass per part an op extends by, one op (and dot product) per index
    passes = sum(len(parts) for _, parts, _ in trie._ops)
    assert [k for _, _, k in trie._ops] == sorted(indices, key=lambda k: k[:0:-1])
    tracemalloc.start()
    try:
        tail = list(map(mod, accumulate(map(mul, inverse_table(p), repeat(1)), initial=0), repeat(p)))
        one_tail = tracemalloc.get_traced_memory()[0]
        del tail
        tracemalloc.reset_peak()
        trie.sweep(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert passes == 11
    assert peak < (4 + 2) * one_tail, (peak / one_tail, passes)

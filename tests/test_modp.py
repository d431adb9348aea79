import math
import random
import tracemalloc
from itertools import accumulate, islice, product, repeat
from math import comb
from operator import mod

import pytest

import fmzv.modp
from fmzv.indices import Index
from fmzv.modp import (
    MAX_MODULUS,
    SuffixTrie,
    bernoulli_mod_p,
    inv_mod,
    inverse_table,
    is_prime,
    primes_in,
    residues,
    zeta_mod_p,
    zeta_mod_p_naive,
)
from fmzv.suite import all_indices, h1_words
from fmzv.words import NCPolynomial, harmonic, index_of_word

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
    # strong pseudoprimes to the bases 2 and 3, 2 .. 5 and 2 .. 7, with no
    # factor among the bases, which Miller-Rabin alone rejects
    for n in (1373653, 25326001, 3215031751):
        assert not is_prime(n), n
    assert [n for n in range(200_001) if is_prime(n)] == primes_in(2, 200_000)
    # the least prime above the bound
    assert is_prime(2147483659)
    with pytest.raises(ValueError, match="modulus 2147483659 exceeds the supported bound"):
        zeta_mod_p((1,), 2147483659)


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


def test_inv_and_pow(monkeypatch):
    assert inv_mod(3, 7) == 5
    assert inv_mod(1, 97) == 1
    with pytest.raises(ZeroDivisionError):
        inv_mod(0, 7)
    with pytest.raises(ZeroDivisionError):
        inv_mod(14, 7)
    # row 1 covers the lower half, m <= (p - 1) / 2, of one prime or of the
    # largest prime of a group, exact in each lane whose lower half holds m
    # and below the product of the group's primes; (2, 3, 5, 7) has an even
    # product, which halving must not use, and 16 primes from 101 and from
    # 99991 span many ranges and prime halves; a BLOCK of 5 caps the ranges
    # at odd lengths, so that ranges start at odd m too
    table = inverse_table(13)
    assert len(table) == 7 and table[0] == 0
    assert all(m * table[m] % 13 == 1 for m in range(1, 7))
    assert inverse_table(2) == [0] and inverse_table(3) == [0, 1]
    groups = [
        (2, 3, 5, 7),
        (3, 5, 7, 11, 13),
        tuple(primes_in(10007, 10100)[:4]),
        tuple(primes_in(101, 300)[:16]),
        tuple(primes_in(99991, 100400)[:16]),
    ]
    for block, group in product((fmzv.modp.BLOCK, 5), groups):
        monkeypatch.setattr(fmzv.modp, "BLOCK", block)
        table = inverse_table(*group)
        assert len(table) == (group[-1] + 1) // 2 and table[0] == 0, group
        assert max(table) < math.prod(group), group
        for q in group:
            assert all(m * table[m] % q == 1 for m in range(1, (q + 1) // 2)), (block, group, q)


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
            (p - 1,), (2, p - 1), (p - 1, 1, 2),        # rows of m^(p-1) = 1
            (34,), (1, 40), (2, 35, 1, 1),              # rows powered from row 1
            (p - 1, 33, 2, p),                          # both, and m^(-p) = m^(-1)
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


def test_bernoulli_validates_every_call_and_a_warm_run_computes_nothing(monkeypatch):
    from fmzv.verify import _run, instance

    monkeypatch.setattr(fmzv.modp, "_store", {})
    monkeypatch.setattr(fmzv.modp, "_store_size", 0)
    first = bernoulli_mod_p(3, 7)
    # bernoulli_mod_p memoizes nothing and validates on every call: 9 is not
    # prime, and k = 1 is out of range at 7
    for k, p in [(3, 9), (1, 7)]:
        with pytest.raises(ValueError):
            bernoulli_mod_p(k, p)
    tested = []
    is_prime = fmzv.modp.is_prime
    monkeypatch.setattr(fmzv.modp, "is_prime", lambda n: tested.append(n) or is_prime(n))
    assert bernoulli_mod_p(3, 7) == first == 3 and tested == [7]
    assert fmzv.modp._store == {}
    # a run reads the memos residues fills: warm, it neither validates a
    # prime nor computes a Bernoulli value
    batch = [instance("height-one", (1, 0), (5, 60)), instance("sum-formula", (5, 2, 1), (5, 60))]
    cold = _run(batch, (5, 60))

    def refuse(*args):
        raise AssertionError(f"called again with {args}")

    monkeypatch.setattr(fmzv.modp, "ensure_prime", refuse)
    monkeypatch.setattr(fmzv.modp, "bernoulli_mod_p", refuse)
    monkeypatch.setattr(fmzv.verify, "bernoulli_mod_p", refuse)
    assert _run(batch, (5, 60)) == cold and all(rep.passed for rep in cold)


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

    def bernoulli_4(p):
        # B_4 at p, read from the memo residues fills
        ((_, memo),) = residues((), [p], [p - 4])
        return memo[4]

    monkeypatch.setattr(modp, "_store", {})
    monkeypatch.setattr(modp, "_store_size", 0)
    # rows live for one sweep, so the store holds residues and Bernoulli
    # values only: two units a prime here
    monkeypatch.setattr(modp, "TABLE_BUDGET", 4)
    primes = primes_in(99_990, 100_100)[:5]
    for p in primes:
        zeta_mod_p(Index((3, 1, 2)), p)
        assert bernoulli_4(p) == bernoulli_mod_p(p - 4, p)
        assert modp._store_size == sum(map(len, modp._store.values()))
        assert modp._store_size <= modp.TABLE_BUDGET + len(modp._store[p]), p
    # two primes' units at most: the first primes are gone
    assert list(modp._store) == primes[3:]
    # a swept-again prime gives the same sums as the loop oracle, and the
    # evicted prime's residue and Bernoulli value left together
    p = primes[0]
    value = zeta_mod_p(Index((2, 3, 1)), p)
    assert value == zeta_by_loop((2, 3, 1), p)
    assert modp._store[p] == {(2, 3, 1): value}
    assert zeta_mod_p(Index((1, 1, 3)), p) == zeta_by_loop((1, 1, 3), p)
    assert bernoulli_4(p) == bernoulli_exact_mod(4, p)
    assert modp._store_size == sum(map(len, modp._store.values()))


def test_group_memos_stay_complete_when_the_store_drops_them(monkeypatch):
    # A budget below one prime's residues: the group's primes are written in
    # order, and each write drops the primes written before it, but never
    # one still to be written, so every memo yielded holds every index, the
    # one stored at the last prime before the walk included.
    import fmzv.modp as modp

    monkeypatch.setattr(modp, "_store", {})
    monkeypatch.setattr(modp, "_store_size", 0)
    monkeypatch.setattr(modp, "TABLE_BUDGET", 1)
    primes = primes_in(11, 40)
    assert modp._groups(primes) == [tuple(primes)]
    indices = [(1,), (2, 1), (3, 1, 2)]
    zeta_mod_p((2, 1), primes[-1])
    got = [(p, dict(memo)) for p, memo in residues(indices, primes)]
    assert [p for p, _ in got] == primes
    for p, memo in got:
        assert memo == {k: zeta_by_loop(k, p) for k in indices}, p
    assert list(modp._store) == [primes[-1]] and modp._store_size == 3


def test_rows_are_exact_with_and_without_row_e_minus_1():
    import fmzv.modp as modp

    for p in (2, 3, 5, 7, 11, 13, 10007):
        # a lone prime is a group of one: parts at and past multiples of
        # p - 1 are powered as they are, not reduced mod p - 1
        inv = inverse_table(p)
        # a block of the lower half that starts past m = 0
        lo, hi = len(inv) // 3, 2 * len(inv) // 3
        for e in {1, 2, 3, 4, 5, 33, 40, p - 1, p - 2, 2 * (p - 1), 3 * (p - 1) + 1} - {0}:
            # the lower half, m <= (p - 1) / 2, which is all a walk reads, as
            # one block
            row = modp._rows([e], inv, p)[e]
            assert len(row) == (p + 1) // 2 and row[0] == 0, (p, e)
            assert all(row[m] == pow(m, -e, p) for m in range(1, (p + 1) // 2)), (p, e)
            # a block's rows are the whole rows' entries of that block
            assert modp._rows([e], inv[lo:hi], p)[e] == row[lo:hi], (p, e)
            if e > 1:
                # built from row e - 1 instead of by powering row 1
                assert modp._rows([e - 1, e], inv, p)[e] == row, (p, e)
                assert modp._rows([e - 1, e], inv[lo:hi], p)[e] == row[lo:hi], (p, e)
    # the same parts through a lone prime's whole sweep, both orders
    for p in (5, 7, 11, 13):
        k = (p - 1, 2 * (p - 1), 3 * (p - 1) + 1)
        for index in (k, k[::-1]):
            assert zeta_mod_p(Index(index), p) == zeta_by_loop(index, p), (p, index)


def test_group_rows_are_exact_in_every_lane():
    # a group's rows cover the lower half of its largest prime and hold
    # m^(-e) modulo each prime q of the group whose lower half holds m,
    # m <= (q - 1) / 2, whatever they hold above it; parts are not reduced,
    # so p - 1 and 2(p - 1) + 3 differ from lane to lane
    import fmzv.modp as modp

    for group in [(2, 3), (2, 3, 5, 7), (3, 5, 7, 11, 13), tuple(primes_in(10007, 10200)[:4])]:
        p = group[0]
        inv = inverse_table(*group)
        parts = [e for e in (1, 2, 3, 4, 5, 33, 40, p - 1, p, 2 * (p - 1) + 3) if e >= 1]
        for held in (parts, parts[-3:]):
            rows = modp._rows(held, inv, math.prod(group))
            # the same rows, block by block from row 1's slices
            lo = len(inv) // 2
            blocks = [modp._rows(held, half, math.prod(group)) for half in (inv[:lo], inv[lo:])]
            for e in held:
                assert len(rows[e]) == (group[-1] + 1) // 2 and rows[e][0] == 0, (group, e)
                assert blocks[0][e] + blocks[1][e] == rows[e], (group, e)
                for q in group:
                    half = range(1, (q + 1) // 2)
                    assert all(rows[e][m] % q == pow(m, -e, q) for m in half), (group, q, e)


def test_cold_sweep_builds_only_the_rows_it_reads(monkeypatch):
    import fmzv.modp as modp

    monkeypatch.setattr(modp, "_store", {})
    monkeypatch.setattr(modp, "_store_size", 0)
    # row 5 is one power pass over the half of row 1, with no rows 2 to 4
    # built on the way; inverse_table powers nothing, and leaves p, which
    # comes from the sieve, unchecked
    powers = []
    monkeypatch.setattr(modp, "pow", lambda *a: powers.append(a[1]) or pow(*a), raising=False)
    p = 10007
    ((_, values),) = residues([(5, 1)], [p])
    assert values == {(5, 1): zeta_by_loop((5, 1), p)}
    assert set(powers) == {5} and powers.count(5) == p // 2 + 1
    # the rows left with the sweep: the store holds the residue alone
    assert modp._store == {p: values}
    assert modp._store_size == 1


def test_deep_indices_match_loop_oracle():
    # tails of odd depth are left unreduced, so deep walks chain several of
    # them through passes
    p = 10007
    rng = random.Random(13)
    parts = [1, 2, 33, p - 1, 2 * (p - 1) + 3]
    indices = []
    for depth in (8, 9, 10):
        k = tuple(rng.choice(parts) for _ in range(depth))
        indices += [k, (rng.choice(parts),) + k[1:]]
    (swept,) = SuffixTrie(indices).sweep((p,))
    for k in indices:
        assert swept[k] == zeta_by_loop(k, p), k


def test_deep_indices_build_in_memory_linear_in_j():
    # The 301 indices of harmonic(y^300, y), of depths 300 and 301, have a J
    # of 45,451 elements.  A node of J costs the same at any depth, so the
    # build peaks near 20 MB under tracemalloc, where a tuple per element
    # took over 160 MB; at 307, above every depth, the walk matches the loop.
    harm = harmonic(NCPolynomial.from_word("y" * 300), NCPolynomial.from_word("y"))
    indices = sorted(map(index_of_word, harm.terms))
    assert len(indices) == 301 and {len(k) for k in indices} == {300, 301}
    tracemalloc.start()
    try:
        trie = SuffixTrie(indices)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(trie._ops) == 45_451
    assert peak < 40_000_000, peak
    p = 307
    (swept,) = trie.sweep((p,))
    for k in indices[::50]:
        assert swept[k] == zeta_by_loop(k, p), k


def _shared_suffix_indices(rng, p, count, max_depth):
    # each new index puts one to three parts in front of an earlier index
    # (or of nothing), so the set shares suffixes at every depth; parts with
    # and without row e - 1 in the store, and at or near multiples of p - 1,
    # take every row path
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
        (swept,) = trie.sweep((p,))
        assert sorted(swept) == sorted(set(indices))
        for k in trie.indices:
            assert swept[k] == zeta_by_loop(k, p), (k, p)
        ((_, values),) = residues(indices, [p])
        assert {k: values[k] for k in trie.indices} == swept


def _lane_parts(group):
    # parts that take every row path in some lane: small ones, ones beyond
    # 32, and p - 1, p and 2(p - 1) + 3 of each prime of the group
    parts = {1, 2, 3, 33, 40}
    for q in group:
        parts |= {q - 1, q, 2 * (q - 1) + 3}
    return sorted(parts)


def test_group_sweeps_match_loop_and_naive_oracles():
    # one walk modulo the product of the group: groups of 1, 2, 3, 4 and 16
    # primes, from p = 2 and from p = 3, against both oracles lane by lane
    rng = random.Random(14)
    small = primes_in(2, 100)
    groups = [tuple(small[:n]) for n in (1, 2, 3, 4, 16)]
    groups += [tuple(small[1 : n + 1]) for n in (1, 2, 3, 4, 16)]
    for group in groups:
        parts = _lane_parts(group)
        indices = [tuple(rng.choice(parts) for _ in range(rng.randint(1, 5))) for _ in range(25)]
        # shared suffixes, and depth >= p in some lanes or in all of them
        indices += [(2,) + k for k in indices[:5]]
        indices += [(1,) * group[0], (2,) * (group[0] + 1), (1,) * (group[-1] - 1), (3,) * group[-1]]
        swept = SuffixTrie(indices).sweep(group)
        assert len(swept) == len(group)
        for q, values in zip(group, swept):
            assert sorted(values) == sorted(set(indices))
            for k in set(indices):
                assert values[k] == zeta_by_loop(k, q), (group, q, k)
            for k in indices[:8]:
                assert values[k] == zeta_mod_p_naive(k, q), (group, q, k)


def test_deep_group_sweeps_match_loop_oracle():
    # depth 8 to 10 at p = 10007, where tails of odd depth are left
    # unreduced modulo a product of 2 and of 3 primes
    rng = random.Random(15)
    for group in (tuple(primes_in(10007, 10040)[:2]), tuple(primes_in(10007, 10040)[:3])):
        parts = _lane_parts(group)
        indices = [tuple(rng.choice(parts) for _ in range(depth)) for depth in (8, 9, 10)]
        indices.append((1,) + indices[0][1:])
        swept = SuffixTrie(indices).sweep(group)
        for q, values in zip(group, swept):
            for k in indices:
                assert values[k] == zeta_by_loop(k, q), (group, q, k)


def test_half_range_walk_matches_loop_and_naive_oracles():
    # H_q(k) comes from H_L of suffixes and reversed prefixes over the lower
    # half L = {1, ..., (q - 1) / 2}: one-prime groups at every prime <= 60
    # and at 10007, and groups from 2 and from 3, at every depth 1 to q - 1
    # of the largest prime (1 to 12 at 10007), so that parts sit in both
    # halves and some indices are deeper than some lanes, with parts q - 1,
    # q and 2(q - 1) + 3 of each lane
    rng = random.Random(16)
    small = primes_in(2, 60)
    groups = [(q,) for q in small] + [(10007,)]
    groups += [tuple(small[:n]) for n in (2, 5, len(small))]
    groups += [tuple(small[1:n]) for n in (2, 5, len(small))]
    for group in groups:
        parts = _lane_parts(group)
        depths = range(1, group[-1] if group[-1] < 100 else 13)
        indices = [tuple(rng.choice(parts) for _ in range(depth)) for depth in depths]
        indices += [k[::-1] for k in indices[:4]]
        swept = SuffixTrie(indices).sweep(group)
        for q, values in zip(group, swept):
            assert sorted(values) == sorted(set(indices))
            for k in indices:
                assert values[k] == zeta_by_loop(k, q), (group, q, k)
            for k in indices[:: max(1, len(indices) // 6)]:
                assert values[k] == zeta_mod_p_naive(k, q), (group, q, k)


def _closure(indices):
    # J by its definition, one tuple per element: every nonempty suffix and
    # every reversed prefix of the indices
    return {s for k in indices for i in range(len(k)) for s in (k[i:], k[i::-1])}


def _elements(trie):
    # each node's element of J, spelled out from the node table: node 0 is
    # the empty index, and the node keyed (part, parent) is part followed by
    # its parent's element; a parent is numbered below its child
    elements = [()]
    for part, parent in trie._nodes:
        assert parent < len(elements), (part, parent)
        elements.append((part, *elements[parent]))
    return elements


def _assert_walk_plan(trie, closure):
    # The table holds one node per element of J, the closure, each below its
    # suffix one part shorter, and the signs and recipes read the nodes of
    # the right elements.  Replaying the ops as the walk does, with a stack of
    # the nodes whose tails are alive, by depth: every node is visited once,
    # after its parent, whose tail is on top of the stack, and its one op is
    # a pass, which pushes its tail, so every value is written once.  The
    # tails some pass reads are the empty index's and those of the proper
    # suffixes of other elements, the only ones a pass may reduce.
    elements = _elements(trie)
    assert len(elements) == len(closure) + 1 and set(elements[1:]) == closure
    assert trie._signs == [(-1) ** sum(s) for s in elements]
    ks = trie.indices
    assert [elements[j] for j in trie._prefixes] == [k[:i][::-1] for k in ks for i in range(len(k) + 1)]
    assert [elements[j] for j in trie._suffixes] == [k[i:] for k in ks for i in range(len(k) + 1)]
    proper = {s[1:] for s in closure if len(s) > 1}
    stack, passed, read = [0], [], set()
    for depth, part, node in trie._ops:
        s = elements[node]
        del stack[depth:]
        assert len(stack) == depth == len(s) and part == s[0], s
        assert elements[stack[-1]] == s[1:], s
        read.add(stack[-1])
        stack.append(node)
        passed.append(node)
    assert sorted(passed) == list(range(1, len(elements)))
    assert {elements[j] for j in read} == proper | {()}


def test_walk_passes_each_element_of_j_once():
    # J is every nonempty suffix and every reversed prefix of the indices;
    # the walk reads each element's value off its own pass, one per node.
    # Every lane of groups of 1, 2 and 16 primes matches the loop oracle;
    # near 10^4 the two lanes of a pair check a sample of the indices.
    rng = random.Random(17)
    large = tuple(primes_in(10007, 10100)[:2])
    for p, count, max_depth, groups in [
        (3, 30, 6, [(3,), (3, 5), tuple(primes_in(3, 60))]),
        (10007, 40, 7, [large[:1], large]),
    ]:
        indices = _shared_suffix_indices(rng, p, count, max_depth)
        trie = SuffixTrie(indices)
        closure = _closure(indices)
        for group in groups:
            swept = trie.sweep(group)
            _assert_walk_plan(trie, closure)
            for q, values in zip(group, swept):
                checked = trie.indices if q < 100 or len(group) == 1 else trie.indices[::8]
                for k in checked:
                    assert values[k] == zeta_by_loop(k, q), (group, q, k)


def test_key_lemma_walks_its_suffixes_only():
    # key-lemma (2), n = 2 reads an index set closed under reversal, so its
    # reversed prefixes are suffixes already and J is its 12 suffixes, whose
    # values the walk reads off its passes, one per suffix, in every
    # lane of groups of 1, 2, 4 and 16 primes
    from fmzv.verify import CHECKS

    group = tuple(primes_in(10007, 10100)[:4])
    _, plan = CHECKS["key-lemma"].build(Index((2,)), 2, (group[0], group[-1]))
    indices = plan.indices()
    assert {k[::-1] for k in indices} == set(indices)
    trie = SuffixTrie(indices)
    swept = trie.sweep(group)
    suffixes = {k[i:] for k in indices for i in range(len(k))}
    assert len(suffixes) == 12 and len(trie._ops) == 12
    elements = _elements(trie)
    assert {elements[node] for _, _, node in trie._ops} == suffixes
    _assert_walk_plan(trie, suffixes)
    for q, values in zip(group, swept):
        for k in indices:
            assert values[k] == zeta_by_loop(k, q), (q, k)
    small = tuple(primes_in(11, 100)[:16])
    for lanes in (small[:1], small[:2], small):
        for q, values in zip(lanes, trie.sweep(lanes)):
            for k in indices:
                assert values[k] == zeta_by_loop(k, q), (lanes, q, k)


@pytest.mark.parametrize("lo, hi", [(2, 100), (99991, 100411), (1000003, 1000800)])
def test_groups_are_runs_of_group_primes(lo, hi):
    # any window is cut by count alone: consecutive runs of GROUP_PRIMES,
    # the last one shorter, with no prime lost or repeated
    import fmzv.modp as modp

    primes = primes_in(lo, hi)
    groups = modp._groups(primes)
    *full, last = groups
    assert [len(g) for g in full] == [modp.GROUP_PRIMES] * len(full)
    assert 0 < len(last) < modp.GROUP_PRIMES
    assert sum(groups, ()) == tuple(primes)


def test_residues_fill_groups_in_process(monkeypatch):
    # a window swept group by group equals the one-prime sweeps, and each
    # group is walked once, for the indices missing at any of its primes
    import fmzv.modp as modp

    monkeypatch.setattr(modp, "_store", {})
    monkeypatch.setattr(modp, "_store_size", 0)
    primes = primes_in(2, 400)
    indices = [(1,), (2, 1), (3, 1, 2), (1, 1, 1, 1, 1), (2, 2, 2)]
    zeta_mod_p((2, 1), 53)  # one prime already holds one index
    walks = []
    sweep = SuffixTrie.sweep
    monkeypatch.setattr(SuffixTrie, "sweep", lambda self, g: walks.append((g, self.indices)) or sweep(self, g))
    got = {p: dict(values) for p, values in modp.residues(indices, primes)}
    assert list(got) == primes
    groups = modp._groups(primes)
    assert [len(g) for g in groups] == [16] * 4 + [14] and sum(groups, ()) == tuple(primes)
    assert walks == [(g, indices) for g in groups]
    for p in primes:
        assert got[p] == {k: zeta_by_loop(k, p) for k in indices}, p


def test_each_missing_set_builds_its_own_j_once(monkeypatch):
    # The first group's primes already hold one index and the third's all
    # of them, so the groups lack three sets in turn: group 1 walks J of
    # the two it lacks, groups 2, 4 and 5 share one J of all three, and
    # group 3 builds and walks nothing.
    import fmzv.modp as modp

    monkeypatch.setattr(modp, "_store", {})
    monkeypatch.setattr(modp, "_store_size", 0)
    primes = primes_in(2, 400)
    groups = modp._groups(primes)
    indices = [(1,), (2, 1), (3, 1, 2)]
    list(residues([(2, 1)], list(groups[0])))
    list(residues(indices, list(groups[2])))
    built, walks = [], []
    init, sweep = SuffixTrie.__init__, SuffixTrie.sweep
    monkeypatch.setattr(SuffixTrie, "__init__", lambda self, ks: init(self, ks) or built.append(self.indices))
    monkeypatch.setattr(SuffixTrie, "sweep", lambda self, g: walks.append((g, self.indices)) or sweep(self, g))
    got = {p: dict(values) for p, values in residues(indices, primes)}
    lacked = [(1,), (3, 1, 2)]
    assert built == [lacked, indices]
    assert walks == [(groups[0], lacked)] + [(g, indices) for g in (groups[1], *groups[3:])]
    for p in primes:
        assert got[p] == {k: zeta_by_loop(k, p) for k in indices}, p


@pytest.mark.parametrize("count", [4, 8])
def test_consecutive_primes_near_1e5_are_one_walk(count):
    # a window of 4 or 8 consecutive primes below 10^5 is one group, walked
    # modulo their product, and each lane of that walk is the one-prime walk
    # of its prime
    from fmzv.verify import CHECKS

    group = tuple(primes_in(95191, 96000)[:count])
    assert fmzv.modp._groups(list(group)) == [group]
    _, plan = CHECKS["ohno"].build(Index((3,)), 2, (group[0], group[-1]))
    indices = plan.indices()
    swept = SuffixTrie(indices).sweep(group)
    assert swept == [SuffixTrie(indices).sweep((q,))[0] for q in group]
    # the lowest lane, which stops furthest below the walk's end, against
    # the independent loop
    assert swept[0][2, 2, 1] == zeta_mod_p_naive((2, 2, 1), group[0])


def test_memoized_indices_are_not_swept(monkeypatch):
    import fmzv.modp as modp

    monkeypatch.setattr(modp, "_store", {})
    monkeypatch.setattr(modp, "_store_size", 0)
    swept = []
    sweep = SuffixTrie.sweep
    monkeypatch.setattr(SuffixTrie, "sweep", lambda self, p: swept.append(self.indices) or sweep(self, p))
    list(residues([(2, 1), (3,)], [11]))
    ((_, values),) = residues([(3,), (2, 1)], [11])
    assert (values[3,], values[2, 1]) == (0, zeta_brute((2, 1), 11))
    list(residues([(2, 1), (1, 2, 1)], [11]))
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
        (swept,) = SuffixTrie([(a,) for a in singles] + pairs).sweep((p,))
        for a in singles:
            expect = p - 1 if a % (p - 1) == 0 else 0
            assert swept[(a,)] == zeta_mod_p((a,), p) == expect, (a, p)
        for a, b in pairs:
            w = a + b
            expect = (-1) ** a * comb(w, a) * bernoulli_mod_p(w, p) * inv_mod(w, p) % p
            assert swept[(a, b)] == zeta_mod_p((a, b), p) == expect, (a, b, p)


def test_trie_keeps_one_tail_per_depth(monkeypatch):
    import fmzv.modp as modp

    p = 10007
    # depth 4; the walk covers J, their 24 suffixes and reversed prefixes,
    # whose 16 distinct proper suffixes are (1), (2), (3), (1,1), (2,1),
    # (2,2), (2,3), (3,1), (3,3), (1,1,1), (1,2,3), (2,1,1), (2,2,1),
    # (2,2,2), (3,3,1) and (3,3,3)
    indices = [(1, 1, 1, 1), (1, 2, 2, 2), (1, 3, 3, 3), (1, 1, 2, 3), (2, 2, 2, 2)]
    trie = SuffixTrie(indices)
    # one block over the whole lower half, so that every tail spans it, and
    # its rows, row 1 included, built before memory is traced
    monkeypatch.setattr(modp, "BLOCK", p)
    inv = inverse_table(p)
    rows = modp._rows(trie._parts, inv, p)
    monkeypatch.setattr(modp, "inverse_table", lambda *group: inv)
    monkeypatch.setattr(modp, "_rows", lambda parts, block, *args: rows)
    # one pass per element of J, each after its parent; the 16 proper
    # suffixes have a child, whose pass reads their tails
    parents = {parent for _, parent in trie._nodes} - {0}
    closure = _closure(indices)
    assert len(trie._ops) == len(closure)
    _assert_walk_plan(trie, closure)
    one_tail = _one_tail((p,))
    tracemalloc.start()
    try:
        trie.sweep((p,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(closure) == 24 and len(parents) == 16
    assert peak < (4 + 2) * one_tail, peak / one_tail


def _one_tail(group):
    # the traced size of one tail over the lower half of q_G, modulo the
    # product of ``group``
    tracemalloc.start()
    tail = list(map(mod, accumulate(inverse_table(*group), initial=0), repeat(math.prod(group))))
    size = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    assert len(tail) == (group[-1] + 3) // 2
    return size


def test_walk_holds_tails_for_one_block(monkeypatch):
    # the 7 indices of ohno (3), n = 2 over the 4 primes 10007 .. 10039, one
    # group, in blocks of 256: the walk keeps row 1 over the whole lower
    # half, 5020 entries, but its other rows and its tails for one block
    import fmzv.modp as modp

    group = tuple(primes_in(10007, 10039))
    assert len(group) == 4
    monkeypatch.setattr(modp, "BLOCK", 256)
    indices = [(5,), (1, 1, 3), (1, 2, 2), (1, 3, 1), (2, 1, 2), (2, 2, 1), (3, 1, 1)]
    trie = SuffixTrie(indices)
    one_tail = _one_tail(group)
    tracemalloc.start()
    try:
        trie.sweep(group)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a walk that keeps full-length rows and tails peaks at about 7 tails
    assert peak < 2 * one_tail, peak / one_tail


@pytest.mark.parametrize("block", [5, 7])
def test_walk_carries_across_blocks(monkeypatch, block):
    # Blocks of 5 or 7 entries cut the lower half of q_G into several.  Each
    # pass continues its prefix sum from its tail's last entry in the block
    # before, and a lane is read in the block that holds its stop (q + 1) / 2.
    import fmzv.modp as modp

    monkeypatch.setattr(modp, "BLOCK", block)
    sizes = []
    rows = modp._rows

    def block_rows(parts, inv, *args):
        sizes.append(len(inv))
        return rows(parts, inv, *args)

    monkeypatch.setattr(modp, "_rows", block_rows)
    indices = [(1,), (3,), (2, 1), (1, 2), (1, 1, 2), (2, 3, 1), (3, 1, 2, 1), (1, 2, 1, 1, 1)]
    trie = SuffixTrie(indices)
    groups = [(31,), (11, 23), (29, 31), (3, 5, 7, 11), (53, 59, 61, 67), tuple(primes_in(3, 59))]
    assert sorted(map(len, groups)) == [1, 2, 2, 4, 4, 16]
    on_end = in_first = walks = 0
    for group in groups:
        sizes.clear()
        swept = trie.sweep(group)
        assert max(sizes) <= block and sum(sizes) == (group[-1] + 1) // 2, (group, sizes)
        ends = list(accumulate(sizes))
        stops = [(q + 1) // 2 for q in group]
        walks += len(sizes) > 1
        # a lane read at the last entry of a block that is not the last, and
        # one whose whole half lies in the first of several blocks
        on_end += len(set(stops) & set(ends[:-1]))
        in_first += len(sizes) > 1 and stops[0] <= ends[0]
        for q, values in zip(group, swept):
            for k in indices:
                assert values[k] == zeta_by_loop(k, q), (block, group, q, k)
    assert walks >= 5 and on_end and in_first, (walks, on_end, in_first)
    # leaves, whose tails no pass reads, at depth 2 and deeper carry too
    parents = {parent for _, parent in trie._nodes}
    assert any(depth > 1 and node not in parents for depth, _, node in trie._ops)


def _tail_reads(trie):
    # the tail that each pass past the innermost multiplies by its row, its
    # parent's, as the parts of the parent's element read innermost part
    # first, in the order of one block of the walk
    elements = _elements(trie)
    return [elements[node][:0:-1] for depth, _, node in trie._ops if depth > 1]


def _widths(group):
    # the rule of SuffixTrie._walk, restated: (bits(P), bits(N), limit, and
    # the width of row e, e * bits(P) where a pass over it from a tail
    # reduced mod P stays within the limit, else bits(P))
    import fmzv.modp as modp

    bits = math.prod(group).bit_length()
    size = ((group[-1] + 1) // 2).bit_length()
    limit = 2 * bits + size if bits <= 30 else max(modp.TAIL_BITS, 2 * bits + size)
    return bits, size, limit, lambda e: e * bits if (e + 1) * bits + size <= limit else bits


@pytest.mark.parametrize(
    "size, first",
    [(1, 10007), (4, 10007), (4, 95191), (11, 1009), (16, 1009)],
    ids=["1", "4", "4-95191", "11", "16"],
)
def test_tails_are_reduced_past_a_bit_bound(monkeypatch, size, first):
    # A pass adds the width of its row, e * bits(P) for a row e left
    # unreduced and bits(P) for a reduced one, and bits(N) for its N
    # summands to the width of the tail it reads, and reduces its own tail
    # mod P only where another pass reads it and that bound would pass the
    # limit: TAIL_BITS, or bits(P) + grow where that is larger, so that a
    # pass past a reduced tail never reduces; a walk whose P fits one 30-bit
    # digit takes bits(P) + grow alone, leaves no row unreduced and reduces
    # exactly the tails of even depth that a pass reads.  Either way each
    # lane reads the same values, reduced mod its prime.  Groups of 1 and 4 primes from 10007, of 4 from 95191 and of
    # 11 and 16 from 1009 span 1, 2, 3, 4 and 6 digits, over 4 blocks, at
    # depths up to 10; rows 2 and 3 stay unreduced products on 4 primes, and
    # 16 primes take the larger limit.
    import fmzv.modp as modp

    group = tuple(primes_in(first, first + 200)[:size])
    bits, sizes, limit, width = _widths(group)
    entries = (group[-1] + 1) // 2
    monkeypatch.setattr(modp, "BLOCK", entries // 4 + 1)
    blocks = [entries * b // 4 - entries * (b - 1) // 4 for b in range(1, 5)]
    rng = random.Random(20 + size)
    parts = [1, 2, 3, 5, 33, *group, *(2 * (q - 1) + 3 for q in group)]
    indices = [tuple(rng.choice(parts) for _ in range(depth)) for depth in range(1, 11) for _ in range(2)]
    if first == 95191:
        # one index of small parts: powers to large exponents, and the spy,
        # are slow over 47.6k entries
        indices = [tuple(rng.choice(parts[:5]) for _ in range(10))]
    trie = SuffixTrie(indices)
    # a spy on modp.mul sees every entry of a tail that a pass multiplies,
    # and none of the row products of _rows or of row 1's building
    seen, building = [], []

    def builder(build):
        def spied(*args):
            building.append(True)
            try:
                return build(*args)
            finally:
                building.pop()

        return spied

    def mul(row, entry):
        if not building:
            seen.append(entry)
        return row * entry

    with monkeypatch.context() as m:
        m.setattr(modp, "_rows", builder(modp._rows))
        m.setattr(modp, "inverse_table", builder(modp.inverse_table))
        m.setattr(modp, "mul", mul)
        lanes = trie._walk(group)
    reads = _tail_reads(trie)
    assert len(seen) == entries * len(reads) and max(map(len, reads)) >= 8
    entry = iter(seen)
    tops = [0] * len(reads)  # the most bits of each tail read
    for block in blocks:
        for i in range(len(reads)):
            tops[i] = max(tops[i], max(islice(entry, block)).bit_length())
    assert (limit > modp.TAIL_BITS) == (size == 16)
    assert {e for e in parts if width(e) > bits} == ({2, 3} if size == 4 else set())
    bounds, reduced = [], []
    for tail in reads:
        bound, reduces = 0, False
        for part in tail:
            bound += width(part) + sizes
            reduces = bound > limit
            bound = bits if reduces else bound
        bounds.append(bound)
        reduced.append(reduces)
    assert any(reduced) and not all(reduced)
    assert bits > 30 or all(r == (len(t) % 2 == 0) for t, r in zip(reads, reduced))
    for tail, top, bound, reduces in zip(reads, tops, bounds, reduced):
        # no entry wider than its bound, or than the limit, and a tail below
        # P exactly where its pass reduced it
        assert top <= bound <= limit, (group, tail, top, bound)
        assert (top <= bits) == reduces, (group, tail, top, reduces)
    # the every-second-depth schedule over reduced rows, forced at any width
    monkeypatch.setattr(modp, "TAIL_BITS", 2 * bits + sizes)
    assert trie._walk(group) == lanes
    for q, values in zip(group, lanes):
        assert all(0 <= v < q for v in values), q


@pytest.mark.parametrize("first", [10007, 95191])
def test_walk_leaves_narrow_rows_unreduced(monkeypatch, first):
    # On 4 primes from 10007 or 95191, P of 54 or 67 bits, a pass over row 2
    # or 3 from a tail reduced mod P stays within TAIL_BITS, so the walk
    # leaves those rows unreduced: their entries pass P but stay below
    # 2^(e * bits(P)), and they are m^(-e) in every lane; row 5, a product
    # of rows 2 and 3, is reduced, as row 1 is.
    import fmzv.modp as modp

    group = tuple(primes_in(first, first + 200)[:4])
    modulus = math.prod(group)
    bits, _, _, width = _widths(group)
    assert [width(e) > bits for e in (1, 2, 3, 5)] == [False, True, True, False]
    indices = [(2, 3, 5), (5, 3, 2, 1), (1, 2)]
    lone = [SuffixTrie(indices).sweep((q,))[0] for q in group]
    built = []
    rows = modp._rows
    monkeypatch.setattr(modp, "_rows", lambda *args: built.append(rows(*args)) or built[-1])
    assert SuffixTrie(indices).sweep(group) == lone
    assert len(built) == -(-((group[-1] + 1) // 2) // modp.BLOCK)
    lo = 0
    for held in built:
        assert sorted(held) == [1, 2, 3, 5]
        for e, row in held.items():
            top = max(row)
            if width(e) > bits:
                assert modulus <= top < 2 ** (e * bits), (group, e, lo)
            else:
                assert top < modulus, (group, e, lo)
            for q in group:
                # the entries of this block in q's lower half, m >= 1
                ms = range(max(lo, 1), min(lo + len(row), (q + 1) // 2))
                got = [row[m - lo] % q for m in ms]
                assert got == list(map(pow, ms, repeat(-e), repeat(q))), (group, q, e, lo)
        lo += len(held[1])

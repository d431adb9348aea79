"""Independent reference implementations used only by the tests.

Everything here deliberately avoids the production code paths: duals are
built by run-length bookkeeping instead of the word transform, shuffles by
position enumeration instead of recursion, harmonic sums by direct nested
summation with builtin modular inverses (the definitional oracle, for small
primes) or by a per-m running-sum loop (at any prime), and Bernoulli
numbers by the Akiyama-Tanigawa scheme over exact rationals or by their
defining recurrence mod p.  The one exception is :func:`zeta_poly_mod_p`, the linear
extension of a harmonic-sum function over a word polynomial, which the
tests use as the word-side reference and which defaults to the package's
own ``zeta_mod_p``.
"""

import itertools
from collections import Counter
from fractions import Fraction

from fmzv.modp import zeta_mod_p
from fmzv.words import in_h1, index_of_word


def dual_by_runs(k):
    """Hoffman dual via the plus/comma-swapped all-ones expansion."""
    seps = []  # one separator between consecutive ones: "+" inside a part, "," between parts
    for pos, part in enumerate(k):
        seps.extend("+" * (part - 1))
        if pos < len(k) - 1:
            seps.append(",")
    parts = []
    current = 1
    for sep in seps:
        if sep == "+":  # swapped: "+" now splits parts
            parts.append(current)
            current = 1
        else:
            current += 1
    parts.append(current)
    return tuple(parts)


def shuffle_by_positions(w1, w2):
    """Multiset of interleavings, one per choice of positions for w1."""
    n1, n2 = len(w1), len(w2)
    out = Counter()
    for pos in itertools.combinations(range(n1 + n2), n1):
        chosen = set(pos)
        it1 = iter(w1)
        it2 = iter(w2)
        word = "".join(
            next(it1) if i in chosen else next(it2) for i in range(n1 + n2)
        )
        out[word] += 1
    return out


def stuffle_by_indices(k1, k2):
    """Quasi-shuffle of two index tuples as a multiset of index tuples."""
    if not k1:
        return Counter({tuple(k2): 1})
    if not k2:
        return Counter({tuple(k1): 1})
    a, rest1 = k1[0], k1[1:]
    b, rest2 = k2[0], k2[1:]
    out = Counter()
    for head, tails in (
        (a, stuffle_by_indices(rest1, k2)),
        (b, stuffle_by_indices(k1, rest2)),
        (a + b, stuffle_by_indices(rest1, rest2)),
    ):
        for t, c in tails.items():
            out[(head,) + t] += c
    return out


def zeta_brute(k, p):
    """Nested harmonic sum by direct enumeration of decreasing tuples: the
    definition itself, C(p-1, depth) terms, so only for small primes."""
    r = len(k)
    total = 0
    for combo in itertools.combinations(range(1, p), r):
        term = 1
        for m, e in zip(reversed(combo), k):
            term = term * pow(m, -e, p) % p
        total = (total + term) % p
    return total


def zeta_by_loop(k, p):
    """Nested harmonic sum by one left-to-right loop over m, O(p * depth).

    g[j] holds the sum over upper > m_(j+1) > ... > m_r > 0 with the current
    upper bound; g[r] is the empty product 1.  Powers come from builtin
    modular exponentiation, so no exponent is reduced mod p-1.  It is the
    same loop as the package's own oracle ``zeta_mod_p_naive``, written
    out here so that the tests do not rest on package code.
    """
    r = len(k)
    if r >= p:
        return 0
    g = [0] * r + [1]
    for m in range(1, p):
        for j in range(r):
            g[j] = (g[j] + pow(m, -k[j], p) * g[j + 1]) % p
    return g[0]


def bernoulli_exact(n):
    """Exact rational Bernoulli number by Akiyama-Tanigawa.

    Uses the B_1 = +1/2 convention, which agrees with the B_1 = -1/2 one
    everywhere except n = 1; the tests only consume n >= 2.
    """
    row = [Fraction(1, m + 1) for m in range(n + 1)]
    for m in range(1, n + 1):
        for j in range(n + 1 - m):
            row[j] = (j + 1) * (row[j] - row[j + 1])
    return row[0]


def bernoulli_exact_mod(n, p):
    b = bernoulli_exact(n)
    return b.numerator * pow(b.denominator, -1, p) % p


def bernoulli_table_by_recurrence(p):
    """B_0 .. B_(p-2) mod p (B_1 = -1/2) by the defining recurrence
    B_m = -(m+1)^(-1) * sum_{j<m} binom(m+1, j) B_j, all arithmetic mod p."""
    fact = [1] * p
    for i in range(1, p):
        fact[i] = fact[i - 1] * i % p
    inv_fact = [1] * p
    inv_fact[p - 1] = pow(fact[p - 1], p - 2, p)
    for i in range(p - 1, 0, -1):
        inv_fact[i - 1] = inv_fact[i] * i % p

    def binom(a, b):
        return fact[a] * inv_fact[b] % p * inv_fact[a - b] % p

    table = [0] * max(p - 1, 1)
    table[0] = 1 % p
    for m in range(1, p - 1):
        s = 0
        for j in range(m):
            if table[j]:
                s = (s + binom(m + 1, j) * table[j]) % p
        table[m] = -pow(m + 1, -1, p) * s % p
    return table


def zeta_poly_mod_p(P, p, zeta=zeta_mod_p):
    """Linear extension over a word polynomial: each word contributes its
    index's harmonic sum, the empty word contributes 1."""
    total = 0
    for w, c in P.terms.items():
        if not in_h1(w):
            raise ValueError(f"word {w!r} does not encode an index (must end in 'y')")
        value = 1 if w == "" else zeta(index_of_word(w), p)
        total = (total + c * value) % p
    return total

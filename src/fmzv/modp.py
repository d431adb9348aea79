"""Prime windows, modular arithmetic, truncated multiple harmonic sums mod p,
and Bernoulli numbers mod p.

Moduli are restricted below 2^31 so that products of two residues always fit
in native 64-bit intermediates; windows in day-to-day use stay far smaller.

The harmonic sum of an index of depth r at the prime p is evaluated as r
prefix-sum passes over m = 1 .. p-1, innermost part first, so it costs
O(p * r) multiplications.  Each pass, and each inverse-power row it reads, is
built from C-level iterators (``map``, ``itertools.accumulate``) rather than
an interpreted loop over m.  Bernoulli numbers B_n mod p come from the power
sum 1^n + ... + (p-1)^n mod p^2 in O(p).

Inverse-power rows live in one per-prime row store capped at
``TABLE_BUDGET`` residues: once it is over budget, the rows of the least
recently used prime are dropped, never those of the prime being evaluated,
so memory stays bounded however many large primes a process meets.  The
harmonic-sum evaluator is memoized per (index, prime) and Bernoulli values
per (n, prime); these hold one residue each, so large verification
batteries share almost all of their arithmetic.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Sequence
from itertools import accumulate, repeat
from operator import mod, mul

from .words import NCPolynomial, in_h1, index_of_word

MAX_MODULUS = 2**31
# residues the inverse-power row store may hold beyond the current prime's
# rows: about 40 MB of row entries, ten rows at p = 10^5
TABLE_BUDGET = 2**20


class EngineFault(RuntimeError):
    """The evaluator contradicted itself or an independent oracle: a bug in
    this package, as opposed to an identity failing at a prime."""


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)  # deterministic below 3.3e24


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond the supported modulus range."""
    if n < 2:
        return False
    for small in _MR_BASES:
        if n % small == 0:
            return n == small
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        v = pow(a, d, n)
        if v in (1, n - 1):
            continue
        for _ in range(s - 1):
            v = v * v % n
            if v == n - 1:
                break
        else:
            return False
    return True


def ensure_prime(p: int) -> int:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p >= MAX_MODULUS:
        raise ValueError(f"modulus {p} exceeds the supported bound {MAX_MODULUS}")
    return p


def primes_in(lo: int, hi: int) -> list[int]:
    """All primes in [lo, hi], ascending; a segmented sieve over the window."""
    if not 2 <= lo <= hi <= MAX_MODULUS:
        raise ValueError(f"window must satisfy 2 <= lo <= hi <= {MAX_MODULUS}, got [{lo}, {hi}]")
    root = math.isqrt(hi)
    base = bytearray([1]) * (root + 1)
    base[:2] = b"\x00\x00"
    for q in range(2, math.isqrt(root) + 1):
        if base[q]:
            base[q * q :: q] = b"\x00" * len(base[q * q :: q])
    small = [q for q in range(2, root + 1) if base[q]]
    seg = bytearray([1]) * (hi - lo + 1)
    for q in small:
        start = max(q * q, (lo + q - 1) // q * q) - lo
        seg[start::q] = bytes(len(range(start, len(seg), q)))
    return [lo + i for i, keep in enumerate(seg) if keep and lo + i >= 2]


def inv_mod(a: int, p: int) -> int:
    """Multiplicative inverse of a mod prime p; a must be nonzero mod p."""
    a %= p
    if a == 0:
        raise ZeroDivisionError(f"0 has no inverse mod {p}")
    return pow(a, p - 2, p)


def inverse_table(p: int) -> tuple[int, ...]:
    """inv[m] = m^(-1) mod p for 1 <= m < p, via the standard O(p) recurrence."""
    ensure_prime(p)
    inv = [0] * p
    if p > 1:
        inv[1] = 1
    for m in range(2, p):
        inv[m] = (p - p // m) * inv[p % m] % p
    return tuple(inv)


# prime -> {exponent: row}; the dict's order runs from the least to the most
# recently used prime
_rows: dict[int, dict[int, tuple[int, ...]]] = {}
_rows_size = 0  # residues held in _rows


def _store_row(p: int, e: int, row: tuple[int, ...]) -> tuple[int, ...]:
    # Keep the row, then drop whole primes, least recently used first, until
    # the store fits TABLE_BUDGET or only p's rows are left.
    global _rows_size
    _rows[p][e] = row
    _rows_size += len(row)
    while _rows_size > TABLE_BUDGET:
        oldest = next(iter(_rows))
        if oldest == p:
            break
        _rows_size -= sum(map(len, _rows.pop(oldest).values()))
    return row


def _inv_pow_row(p: int, e: int) -> tuple[int, ...]:
    # row[m] = m^(-e) mod p for 1 <= m < p, row[0] = 0; e already reduced mod p-1
    prime_rows = _rows[p] = _rows.pop(p, {})  # last: the most recently used
    row = prime_rows.get(e)
    if row is not None:
        return row
    if e == 0:
        return _store_row(p, e, (0,) + (1,) * (p - 1))
    if e == 1:
        return _store_row(p, e, inverse_table(p))
    inv = _inv_pow_row(p, 1)
    if e > 32:
        # large exponents are rare; power directly instead of materializing
        # every intermediate row
        return _store_row(p, e, tuple(map(pow, inv, repeat(e), repeat(p))))
    prev = _inv_pow_row(p, e - 1)
    return _store_row(p, e, tuple(map(mod, map(mul, prev, inv), repeat(p))))


def _reduced_exponents(k: Sequence[int], p: int) -> list[int]:
    # Fermat reduction: m^(-k) = m^(-(k mod (p-1))), and exponent 0 with k > 0
    # means the full power collapses to 1.
    out = []
    for kj in k:
        e = kj % (p - 1) if p > 2 else 0
        out.append(e)
    return out


@functools.lru_cache(maxsize=None)
def zeta_mod_p(k: tuple[int, ...], p: int) -> int:
    """The truncated nested harmonic sum for the index ``k`` at the prime p:
    sum over p > m_1 > ... > m_r > 0 of prod m_j^(-k_j), reduced mod p.

    Evaluated as r prefix-sum passes, innermost part first: after the pass
    for part j, ``tail[m]`` is the sum over m > m_j > ... > m_r > 0, and the
    next pass multiplies it by the row m^(-k_(j-1)) and takes prefix sums
    again.  The outermost pass needs only the total.  Each pass is p - 1
    multiplications run through C-level iterators, O(p * depth) in all.
    An index with depth >= p has an empty summation range and gives 0.
    """
    k = tuple(k)
    ensure_prime(p)
    if not k or any(kj < 1 for kj in k):
        raise ValueError(f"index parts must be >= 1, got {k}")
    r = len(k)
    if r >= p:
        return 0
    rows = [_inv_pow_row(p, e) for e in _reduced_exponents(k, p)]
    # rows[j][0] is 0, so the m = 0 term of every pass vanishes; the
    # innermost tail is the empty product 1.
    tail = repeat(1)
    for row in reversed(rows[1:]):
        tail = list(map(mod, accumulate(map(mul, row, tail), initial=0), repeat(p)))
    return sum(map(mul, rows[0], tail)) % p


def zeta_mod_p_naive(k: tuple[int, ...], p: int) -> int:
    """Independent brute-force evaluation of the same nested sum.

    Enumerates the decreasing tuples directly (via combinations) when that
    is affordable, falling back to a top-down memoized recursion otherwise;
    both paths use only builtin modular exponentiation and share nothing
    with the sweep in :func:`zeta_mod_p`.
    """
    k = tuple(k)
    ensure_prime(p)
    r = len(k)
    if r >= p:
        return 0
    if math.comb(p - 1, r) <= 2_000_000:
        total = 0
        # combinations are ascending; reversing gives m_1 > ... > m_r
        for combo in itertools.combinations(range(1, p), r):
            t = 1
            for m, e in zip(reversed(combo), k):
                t = t * pow(m, -e, p) % p
            total = (total + t) % p
        return total

    @functools.lru_cache(maxsize=None)
    def tail(j: int, upper: int) -> int:
        if j == r:
            return 1
        return sum(pow(m, -k[j], p) * tail(j + 1, m) for m in range(1, upper)) % p

    return tail(0, p)


def zeta_poly_mod_p(P: NCPolynomial, p: int, zeta=zeta_mod_p) -> int:
    """Linear extension over a word polynomial: each word contributes its
    index's harmonic sum, the empty word contributes 1."""
    total = 0
    for w, c in P.terms.items():
        if not in_h1(w):
            raise ValueError(f"word {w!r} does not encode an index (must end in 'y')")
        value = 1 if w == "" else zeta(index_of_word(w), p)
        total = (total + c * value) % p
    return total


@functools.lru_cache(maxsize=None)
def _bernoulli(n: int, p: int) -> int:
    # B_n mod p for 2 <= n <= p-2.  B_n vanishes for odd n >= 3; for even n
    # (then n <= p-3) the power-sum congruence 1^n + ... + (p-1)^n = p*B_n
    # mod p^2 holds (Ireland-Rosen, ch. 15), so the sum divided by p is B_n.
    if n % 2:
        return 0
    s = sum(map(pow, range(1, p), repeat(n), repeat(p * p)))
    if s % p:
        raise EngineFault(f"power sum of exponent {n} is not divisible by {p}")
    return s // p % p


def bernoulli_mod_p(k: int, p: int) -> int:
    """B_(p-k) mod p, for 2 <= k <= p-2 (which keeps the number p-integral)."""
    ensure_prime(p)
    if not 2 <= k <= p - 2:
        raise ValueError(f"need 2 <= k <= p-2, got k={k}, p={p}")
    return _bernoulli(p - k, p)

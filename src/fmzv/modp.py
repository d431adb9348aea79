"""Prime windows, modular arithmetic, truncated multiple harmonic sums mod p,
and Bernoulli numbers mod p.

Moduli are restricted below ``MAX_MODULUS`` = 2^31, which bounds the
windows the sieve accepts; Python integers are exact at any size, so no
product overflows.  Windows in day-to-day use stay far smaller.

Harmonic sums are evaluated over a :class:`SuffixTrie`, built once from a
set of indices and reused at every prime.  It sorts the indices by their
proper suffixes (k_j, ..., k_r), read innermost part first; at the prime p
a suffix's tail is the prefix sum over m = 1 .. p-1 of the row m^(-k_j)
times the tail of the suffix one part shorter.  Walking the indices in
sorted order extends the tails the previous index left, so each distinct
suffix costs one O(p) pass and each index one more dot product, and one
tail per depth, at most depth tails of length p, is alive at once, however
many indices share the walk.
Each pass, and each inverse-power row it reads, is built from C-level
iterators (``map``, ``itertools.accumulate``) rather than an interpreted
loop over m.  Bernoulli numbers B_n mod p come from the power sum
1^n + ... + (p-1)^n mod p^2 in O(p).

Everything memoized at a prime lives in one store: its inverse-power rows
by exponent, its swept residues by index and its Bernoulli values by n.
Each row entry, residue and Bernoulli value costs one unit of
``TABLE_BUDGET``; once the store is over budget, whole primes are dropped,
least recently used first and never the prime being evaluated, so memory
stays bounded however many primes a process meets, and a prime's rows,
residues and Bernoulli values always leave together.

:func:`residues` is the one way a batch of indices is evaluated over a
window: it yields each prime's residue memo once the store holds what the
batch reads there.  The trie is walked only for the indices whose residues
are missing, so large verification batteries share almost all of their
arithmetic.  When that missing work reaches ``POOL_MIN_MULTS`` the primes
are filled by pool workers instead, whose residues and Bernoulli values are
merged into the parent's store as they arrive, so they outlive the worker;
the rows a worker builds stay behind.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterable, Iterator, Mapping, Sequence
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from itertools import accumulate, filterfalse, repeat
from operator import mod, mul


MAX_MODULUS = 2**31
# units (row entries, residues, Bernoulli values) the per-prime store may
# hold beyond the current prime's: about 40 MB, ten rows at p = 10^5
TABLE_BUDGET = 2**20
# Sweep work still missing from the store, in multiplications, below which
# a window is filled in-process whatever ``jobs`` says: starting and tearing
# down a 2-worker pool costs about 20 ms on a 2-vCPU host, so lighter
# windows finish sooner without one.
POOL_MIN_MULTS = 500_000


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


# prime -> (rows by exponent, residues by index, B_n by n); the dict's order
# runs from the least to the most recently used prime.  A prime enters only
# once it has passed ensure_prime or come from the sieve, so a hit needs no
# validation.
_store: dict[int, tuple[dict, dict, dict]] = {}
_store_size = 0  # units held in _store


def _entry(p: int) -> tuple[dict, dict, dict]:
    # p's entry, moved to the most recently used end (created empty)
    entry = _store[p] = _store.pop(p, None) or ({}, {}, {})
    return entry


def _charge(p: int, units: int) -> None:
    # Count units just stored at p, then drop whole primes, least recently
    # used first, until the store fits TABLE_BUDGET or only p is left.
    global _store_size
    _store_size += units
    while _store_size > TABLE_BUDGET:
        oldest = next(iter(_store))
        if oldest == p:
            break
        rows, residues, bernoulli = _store.pop(oldest)
        _store_size -= sum(map(len, rows.values())) + len(residues) + len(bernoulli)


def _inv_pow_row(p: int, e: int) -> tuple[int, ...]:
    # row[m] = m^(-e) mod p for 1 <= m < p, row[0] = 0; e already reduced mod p-1
    rows = _entry(p)[0]
    row = rows.get(e)
    if row is not None:
        return row
    if e == 0:
        row = (0,) + (1,) * (p - 1)
    elif e == 1:
        row = inverse_table(p)
    elif e > 32:
        # large exponents are rare; power directly instead of materializing
        # every intermediate row
        row = tuple(map(pow, _inv_pow_row(p, 1), repeat(e), repeat(p)))
    else:
        row = tuple(map(mod, map(mul, _inv_pow_row(p, e - 1), _inv_pow_row(p, 1)), repeat(p)))
    rows[e] = row
    _charge(p, len(row))
    return row


class SuffixTrie:
    """The proper suffixes of a set of indices, in the order one walk
    evaluates them; it does not depend on the prime.

    A suffix (k_j, ..., k_r) has, at the prime p, the tail
    ``tail[m]`` = sum over m > m_j > ... > m_r > 0 of prod m_i^(-k_i): the
    prefix sums of the row m^(-k_j) times the tail of (k_(j+1), ..., k_r),
    the empty suffix's tail being the empty product 1.  An index
    (k_1, ..., k_r) is then the dot product of the row m^(-k_1) with the
    tail of k[1:].
    """

    def __init__(self, indices: Iterable[Sequence[int]]):
        self.indices = list(dict.fromkeys(map(tuple, indices)))
        self._ops: list | None = None  # built on the first sweep

    def _build(self) -> None:
        # Sorted by their proper suffixes read innermost part first, the
        # indices visit every suffix just after the longest one it extends,
        # as a preorder walk of the suffixes' trie would.  The op
        # (kept, parts, k) keeps the tails of the first ``kept`` inner parts
        # it shares with the previous index, extends them by ``parts`` and
        # evaluates k on the last; commonprefix compares tuples part by part.
        ops = []
        last: tuple = ()
        for inner, k in sorted((k[:0:-1], k) for k in self.indices):
            kept = len(os.path.commonprefix([last, inner]))
            ops.append((kept, inner[kept:], k))
            last = inner
        self._ops = ops
        self._parts = {part for k in self.indices for part in k}

    def sweep(self, p: int) -> dict[tuple[int, ...], int]:
        """Every index's harmonic sum at the prime p (not checked here).

        The passes need no special case for an index of depth >= p: its sum
        has an empty range, and its tails vanish to match.
        """
        if self._ops is None:
            self._build()
        # Fermat reduction: m^(-a) = m^(-(a mod (p-1))), and exponent 0 with
        # a > 0 means the full power collapses to 1
        rows = {part: _inv_pow_row(p, part % (p - 1)) for part in self._parts}
        # every row starts with row[0] = 0, so the m = 0 term of every pass
        # vanishes; one tail per depth, the empty suffix's first
        tails: list = [repeat(1)]
        ps = repeat(p)
        out = {}
        for kept, parts, k in self._ops:
            del tails[kept + 1 :]
            for part in parts:
                tails.append(list(map(mod, accumulate(map(mul, rows[part], tails[-1]), initial=0), ps)))
            out[k] = sum(map(mul, rows[k[0]], tails[-1])) % p
        return out


def harmonic_sums(trie: SuffixTrie, p: int) -> Mapping[tuple[int, ...], int]:
    """The residues at the prime p, which the caller takes from the sieve,
    of (at least) the trie's indices.  Memoized residues are read first,
    and an index of depth >= p is 0; the rest are swept in one walk, of
    ``trie`` itself when it holds no other index.  The mapping returned is
    the memo of p itself, for reading only."""
    memo = _entry(p)[1]
    missing = list(filterfalse(memo.__contains__, trie.indices))
    if missing:
        # an index of depth >= p has an empty summation range
        live = [k for k in missing if len(k) < p]
        for k in missing:
            if len(k) >= p:
                memo[k] = 0
        if live:
            memo.update((trie if len(live) == len(trie.indices) else SuffixTrie(live)).sweep(p))
        _charge(p, len(missing))
    return memo


def _pool_pays(indices: Sequence[tuple[int, ...]], primes: list[int]) -> bool:
    # Whether the sweeps of ``indices`` still missing at ``primes`` cost
    # POOL_MIN_MULTS multiplications or more: depth * (p - 1) for each index
    # whose residue at p is not memoized, an index of depth >= p costing
    # nothing.  The store is only read, so no prime moves in its order.  The
    # cold work, every index at every prime, bounds that figure, and a window
    # lighter than that is settled without reading the store, which costs
    # about a microsecond a prime.
    if sum(map(len, indices)) * (sum(primes) - len(primes)) < POOL_MIN_MULTS:
        return False
    total = 0
    for p in primes:
        missing = filterfalse(_store[p][1].__contains__, indices) if p in _store else indices
        total += (p - 1) * sum(d for d in map(len, missing) if d < p)
    return total >= POOL_MIN_MULTS


def _fill(trie: SuffixTrie, ws: list[int], p: int) -> tuple[list[int], list[tuple[int, int]]]:
    # run in a pool worker: the residue at p of each of the trie's indices in
    # order, then (p - w, B_(p-w)) for each w of ``ws`` with p >= w + 2,
    # computed into the worker's store and returned for the parent's
    values = harmonic_sums(trie, p)
    bernoulli = [(p - w, bernoulli_mod_p(w, p)) for w in ws if p >= w + 2]
    return [values[k] for k in trie.indices], bernoulli


def _merge(p: int, sums: Iterable[tuple], bernoulli: Iterable[tuple]) -> Mapping:
    # Store (index, residue) and (n, B_n) pairs computed at p in a pool
    # worker, charging only the units that are new, and return p's memo.
    _, memo, bern = _entry(p)
    held = len(memo) + len(bern)
    memo.update(sums)
    bern.update(bernoulli)
    _charge(p, len(memo) + len(bern) - held)
    return memo


def residues(
    indices: Iterable[Sequence[int]], primes: list[int], ws: Iterable[int] = (), jobs: int = 1
) -> Iterator[tuple[int, Mapping[tuple[int, ...], int]]]:
    """For each prime p of ``primes``, taken from the sieve, in order: yield
    (p, p's residue memo, for reading only) once the store holds the residue
    at p of every index of ``indices`` and B_(p-w) for each w of ``ws``
    where it is defined, p >= w + 2.

    What is missing is computed in-process, unless the sweep work still
    missing over all of ``primes`` reaches :data:`POOL_MIN_MULTS` and more
    than one worker is allowed: at most ``jobs``, and never more than the
    primes or the cores.  Then pool workers fill the primes and each one's
    results are merged into the store as they arrive.  Close the generator
    (``contextlib.closing``) to shut such a pool down early.
    """
    trie = SuffixTrie(indices)
    ws = sorted(set(ws))
    # more workers than primes or cores only add start-up cost: under the
    # fork start method every requested worker is launched at once
    workers = min(jobs, len(primes), os.cpu_count() or 1)
    if workers > 1 and _pool_pays(trie.indices, primes):
        chunk = max(1, len(primes) // (workers * 4))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            filled = pool.map(partial(_fill, trie, ws), primes, chunksize=chunk)
            for p, (got, bs) in zip(primes, filled):
                yield p, _merge(p, zip(trie.indices, got), bs)
    else:
        for p in primes:
            values = harmonic_sums(trie, p)
            for w in ws:
                if p >= w + 2:
                    bernoulli_mod_p(w, p)
            yield p, values


def zeta_mod_p(k: tuple[int, ...], p: int) -> int:
    """The truncated nested harmonic sum for the index ``k`` at the prime p:
    sum over p > m_1 > ... > m_r > 0 of prod m_j^(-k_j), reduced mod p.

    A one-index sweep of a :class:`SuffixTrie`: r prefix-sum passes,
    innermost part first, each p - 1 multiplications run through C-level
    iterators, O(p * depth) in all.  An index with depth >= p has an empty
    summation range and gives 0.
    """
    k = tuple(k)
    if p in _store:
        hit = _entry(p)[1].get(k)
        if hit is not None:
            return hit
    ensure_prime(p)
    if not k or any(kj < 1 for kj in k):
        raise ValueError(f"index parts must be >= 1, got {k}")
    return harmonic_sums(SuffixTrie([k]), p)[k]


def zeta_mod_p_naive(k: tuple[int, ...], p: int) -> int:
    """Independent evaluation of the same nested sum, sharing no code and no
    rows with :class:`SuffixTrie` or the store.

    One interpreted loop over m that keeps the running inner sums,
    O(p * depth), using only builtin modular exponentiation with no
    exponent reduced mod p - 1.  An index of depth >= p gives 0 because no
    level can fill.
    """
    k = tuple(k)
    ensure_prime(p)
    r = len(k)
    # g[j] is the sum over m > m_(j+1) > ... > m_r > 0 for the current m,
    # g[r] the empty product 1; raising m by one adds its term to each level
    g = [0] * r + [1]
    for m in range(1, p):
        for j in range(r):
            g[j] = (g[j] + pow(m, -k[j], p) * g[j + 1]) % p
    return g[0]


def bernoulli_mod_p(k: int, p: int) -> int:
    """B_(p-k) mod p, for 2 <= k <= p-2 (which keeps the number p-integral)."""
    n = p - k
    if p in _store:
        hit = _entry(p)[2].get(n)
        if hit is not None:
            return hit
    ensure_prime(p)
    if not 2 <= k <= p - 2:
        raise ValueError(f"need 2 <= k <= p-2, got k={k}, p={p}")
    # B_n vanishes for odd n >= 3; for even n (then n <= p-3) the power-sum
    # congruence 1^n + ... + (p-1)^n = p*B_n mod p^2 holds (Ireland-Rosen,
    # ch. 15), so the sum divided by p is B_n.
    value = 0
    if n % 2 == 0:
        s = sum(map(pow, range(1, p), repeat(n), repeat(p * p)))
        if s % p:
            raise EngineFault(f"power sum of exponent {n} is not divisible by {p}")
        value = s // p % p
    _entry(p)[2][n] = value
    _charge(p, 1)
    return value

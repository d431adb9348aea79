"""Prime windows, modular arithmetic, truncated multiple harmonic sums mod p,
and Bernoulli numbers mod p.

Moduli are restricted below 2^31 so that products of two residues always fit
in native 64-bit intermediates; windows in day-to-day use stay far smaller.

Harmonic sums are evaluated over a :class:`SuffixTrie`, built once from a
set of indices and reused at every prime.  Its nodes are the proper suffixes
(k_j, ..., k_r) of the indices; at the prime p a node's tail is the prefix
sum over m = 1 .. p-1 of the row m^(-k_j) times its parent's tail, so each
distinct suffix costs one O(p) pass and each index one more dot product.
The walk runs in preorder and keeps one tail per depth, so at most depth
tails of length p are alive at once, however many indices share the trie.
Each pass, and each inverse-power row it reads, is built from C-level
iterators (``map``, ``itertools.accumulate``) rather than an interpreted
loop over m.  Bernoulli numbers B_n mod p come from the power sum
1^n + ... + (p-1)^n mod p^2 in O(p).

Inverse-power rows live in one per-prime row store capped at
``TABLE_BUDGET`` residues: once it is over budget, the rows of the least
recently used prime are dropped, never those of the prime being evaluated,
so memory stays bounded however many large primes a process meets.  Swept
residues are memoized per (index, prime), and the trie is walked only for
the indices missing there; Bernoulli values are memoized per (n, prime).
These hold one residue each, so large verification batteries share almost
all of their arithmetic.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Mapping, Sequence
from itertools import accumulate, filterfalse, repeat
from operator import mod, mul


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


class SuffixTrie:
    """The proper suffixes of a set of indices, in the order one walk
    evaluates them; it does not depend on the prime.

    A node (k_j, ..., k_r) holds, at the prime p, the tail
    ``tail[m]`` = sum over m > m_j > ... > m_r > 0 of prod m_i^(-k_i): the
    prefix sums of the row m^(-k_j) times its parent (k_(j+1), ..., k_r)'s
    tail, the root () being the empty product 1.  An index (k_1, ..., k_r)
    is then the dot product of the row m^(-k_1) with the tail of k[1:].
    """

    def __init__(self, indices: Iterable[Sequence[int]]):
        self.indices = list(dict.fromkeys(map(tuple, indices)))
        self._ops: list | None = None  # built on the first sweep

    def _build(self) -> None:
        # Node 0 is the root (); a node is named by (its first part, its
        # parent's number), so no suffix is ever spelled out.  In the walk,
        # (d, part, None) builds the tail of a depth-d node from its
        # parent's at depth d - 1, and (d, part, k) evaluates k against the
        # depth-d tail of k[1:]; preorder keeps the parent's tail in place
        # while its subtree is walked.
        number: dict[tuple[int, int], int] = {}
        first, depth, children, ending = [0], [0], [[]], [[]]
        for k in self.indices:
            node = 0
            for part in reversed(k[1:]):
                child = number.get((part, node))
                if child is None:
                    child = number[part, node] = len(first)
                    first.append(part)
                    depth.append(depth[node] + 1)
                    children.append([])
                    ending.append([])
                    children[node].append(child)
                node = child
            ending[node].append(k)
        ops = []
        stack = [0]
        while stack:
            node = stack.pop()
            d = depth[node]
            if node:
                ops.append((d, first[node], None))
            ops.extend((d, k[0], k) for k in ending[node])
            stack.extend(reversed(children[node]))
        self._ops = ops
        self._parts = sorted({op[1] for op in ops})
        self._depth = max(depth)

    def sweep(self, p: int) -> dict[tuple[int, ...], int]:
        """Every index's harmonic sum at the prime p (not checked here).

        The passes need no special case for an index of depth >= p: its sum
        has an empty range, and its tails vanish to match.
        """
        if self._ops is None:
            self._build()
        parts = self._parts
        rows = dict(zip(parts, (_inv_pow_row(p, e) for e in _reduced_exponents(parts, p))))
        # every row starts with row[0] = 0, so the m = 0 term of every pass
        # vanishes; one tail slot per depth, the root's being the empty product
        tails: list = [repeat(1)] + [None] * self._depth
        ps = repeat(p)
        out = {}
        for d, part, k in self._ops:
            if k is None:
                tails[d] = list(map(mod, accumulate(map(mul, rows[part], tails[d - 1]), initial=0), ps))
            else:
                out[k] = sum(map(mul, rows[part], tails[d])) % p
        return out


# prime -> {index: residue} of every sweep so far
_residues: dict[int, dict[tuple[int, ...], int]] = {}


def harmonic_sums(trie: SuffixTrie, p: int) -> Mapping[tuple[int, ...], int]:
    """The residues at the prime p, which the caller takes from the sieve,
    of (at least) the trie's indices.  Memoized residues are read first,
    and an index of depth >= p is 0; the rest are swept in one walk, of
    ``trie`` itself when it holds no other index.  The mapping returned is
    the memo of p itself, for reading only."""
    memo = _residues.setdefault(p, {})
    missing = list(filterfalse(memo.__contains__, trie.indices))
    if missing:
        # an index of depth >= p has an empty summation range
        live = [k for k in missing if len(k) < p]
        for k in missing:
            if len(k) >= p:
                memo[k] = 0
        if live:
            memo.update((trie if len(live) == len(trie.indices) else SuffixTrie(live)).sweep(p))
    return memo


def zeta_mod_p(k: tuple[int, ...], p: int) -> int:
    """The truncated nested harmonic sum for the index ``k`` at the prime p:
    sum over p > m_1 > ... > m_r > 0 of prod m_j^(-k_j), reduced mod p.

    A one-index sweep of a :class:`SuffixTrie`: r prefix-sum passes,
    innermost part first, each p - 1 multiplications run through C-level
    iterators, O(p * depth) in all.  An index with depth >= p has an empty
    summation range and gives 0.
    """
    k = tuple(k)
    hit = _residues.get(p, {}).get(k)
    if hit is not None:
        return hit
    ensure_prime(p)
    if not k or any(kj < 1 for kj in k):
        raise ValueError(f"index parts must be >= 1, got {k}")
    return harmonic_sums(SuffixTrie([k]), p)[k]


def zeta_mod_p_naive(k: tuple[int, ...], p: int) -> int:
    """Independent evaluation of the same nested sum, sharing no code and no
    rows with :class:`SuffixTrie`.

    Enumerates the decreasing tuples directly (via combinations) when that
    is affordable, and otherwise runs one interpreted loop over m that keeps
    the running inner sums, O(p * depth).  Both use only builtin modular
    exponentiation, with no exponent reduced mod p - 1.
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
    # g[j] is the sum over m > m_(j+1) > ... > m_r > 0 for the current m,
    # g[r] the empty product 1; raising m by one adds its term to each level
    g = [0] * r + [1]
    for m in range(1, p):
        for j in range(r):
            g[j] = (g[j] + pow(m, -k[j], p) * g[j + 1]) % p
    return g[0]


# (n, p) -> B_n mod p; a key is stored only once p has passed the primality
# and range checks, so a hit needs neither
_bernoulli: dict[tuple[int, int], int] = {}


def bernoulli_mod_p(k: int, p: int) -> int:
    """B_(p-k) mod p, for 2 <= k <= p-2 (which keeps the number p-integral)."""
    n = p - k
    hit = _bernoulli.get((n, p))
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
    _bernoulli[n, p] = value
    return value

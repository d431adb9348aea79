"""Prime windows, modular arithmetic, truncated multiple harmonic sums mod p,
and Bernoulli numbers mod p.

Moduli are restricted below ``MAX_MODULUS`` = 2^31, which bounds the
windows the sieve accepts; Python integers are exact at any size, so no
product overflows.  Windows in day-to-day use stay far smaller.

Harmonic sums are evaluated over a :class:`SuffixTrie`, built once from a
set of indices and reused at every prime.  Each prime q is swept over half
its range only.  The reversal m -> q - m maps the upper half of 1 .. q-1
onto the lower half L = {1, ..., (q-1)/2}, reversing the order of the
parts, and (q - m)^(-a) = (-1)^a m^(-a) mod q; so, cutting an index where
its summation variables leave the upper half (Hoffman, arXiv:math/0401319;
the concatenation rule of iterated sums),

    H_q(k_1, ..., k_r) = sum over i = 0 .. r of (-1)^(k_1 + ... + k_i)
                         * H_L(k_i, ..., k_1) * H_L(k_(i+1), ..., k_r)  mod q,

where H_L sums over L and H_L of the empty index is 1.  The trie builds,
once per batch, the set J of every nonempty suffix and every reversed
prefix of its indices, and for each index this recipe of (sign, reversed
prefix, suffix) terms; neither depends on the prime.  J is closed under
suffixes, so one walk covers it: J is sorted by proper suffixes
(s_j, ..., s_n), read innermost part first, and a suffix's tail is the
prefix sum over m in L of the row m^(-s_j) times the tail of the suffix
one part shorter.  Walking J in sorted order extends the tails the
previous element left, so each distinct proper suffix costs one pass over
(q+1)/2 entries, whose last entry is that suffix's value, and only an
element that is no proper suffix of another, and so ends no pass, costs one
more dot product; one tail per depth is alive at once, however many
indices share the walk.  The recipes then combine the values of J into
each index's residue.  At q = 2, where m = 1 is its own mirror, H_2(k) is
1 at depth 1 and 0 deeper.

One walk serves a group of consecutive primes q_1 < ... < q_G at once: it
runs over the lower half of q_G modulo the product P of the group's odd
primes, and since Z/P is the product of the Z/q_i (the Chinese remainder
theorem), the lane of q_i is read off the entries m <= (q_i - 1)/2, where
every row and tail is exact modulo q_i; what a lane holds above that is
never read.  A pass gives the lane of q_i its entry (q_i + 1)/2, and each
dot product is one running sum, broken there for each prime of the group.
A Python integer of d 30-bit digits costs far less to handle than d
integers of one digit, so a group of G primes costs less than G walks,
and far less at small primes, where several fit one digit.
Groups hold at most ``GROUP_PRIMES`` primes and rows of at most
``GROUP_BITS`` bits, which bounds the digit width of a walk's integers; 4
consecutive primes below about 10^5 make one group.

Each pass, and each inverse-power row it reads, is built from C-level
iterators (``map``, ``itertools.accumulate``) rather than an interpreted
loop over m.  The innermost pass sums its row alone, and a pass reduces
its tail mod P only where the tail's entries could otherwise pass
``TAIL_BITS`` bits, each pass adding at most the bits of P and of the
walk's length to those of the tail it reads, and never two depths in a
row: a lane needs its residue mod q_i alone, which a reduction mod P at
any depth keeps, and each lane's value is reduced once, mod q_i.  While P
fits one 30-bit digit every second pass reduces, so that the dot products
over the reduced tails stay on ``sum``'s machine-word path.  Rows cover
the lower half of q_G only.  Row 1 comes from the recurrence of the
inverses, whose modulus drops each prime of the group once m passes its
half; row e is the product of two rows already built, and a power of row 1
only when there are none.  A lone prime is a group of one, with no case of
its own: its rows hold the true powers mod p, as a group's do mod P.  The
walk runs over m in equal blocks of at most ``BLOCK`` entries.  Only row 1
spans the range, since its recurrence reads earlier entries anywhere below
m; every other row and every tail lives for one block, each pass and dot
product carrying its running sum into the next.  So a walk holds row 1 and
about one block per row and per depth, however large q_G.  Bernoulli
numbers B_n mod p come from the power sum 1^n + ... + (p-1)^n mod p^2 in
O(p).

Everything memoized at a prime lives in one store: its swept residues by
index and its Bernoulli values by n.  Each residue and Bernoulli value
costs one unit of ``TABLE_BUDGET``; once the store is over budget, whole
primes are dropped, least recently used first and never a prime of the
group being evaluated, so memory stays bounded however many primes a process meets,
and a prime's residues and Bernoulli values always leave together.

:func:`residues` is the one way a batch of indices is evaluated over a
window: it yields each prime's residue memo once the store holds what the
batch reads there.  The trie is walked only for the indices whose residues
are missing, a group of primes at a time, so large verification batteries
share almost all of their arithmetic.  The group is also the pool's unit
of work, since one walk cannot be split: a window of one group is walked
in-process, and a window of several is filled by a pool of workers, one
group a task, when its cold work reaches ``POOL_MIN_MULTS``.  The residues
and Bernoulli values of each task are merged into the parent's store as
they arrive, so they outlive the worker.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_right
from collections.abc import Iterable, Iterator, Mapping, Sequence
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from itertools import accumulate, chain, compress, filterfalse, islice, repeat
from operator import mod, mul, sub


MAX_MODULUS = 2**31
# units (residues, Bernoulli values) the per-prime store may hold beyond
# the current prime's: each is a dict entry of tens of bytes
TABLE_BUDGET = 2**20
# A group of primes swept in one walk: at most GROUP_PRIMES of them, and
# at most GROUP_BITS bits in q_G entries of the summed bit lengths of its
# primes.  Those lengths bound the bits of P, so GROUP_BITS bounds the
# digit width of the walk's integers; BLOCK bounds its memory, but for row
# 1.  4 consecutive primes of 17 bits make one group up to
# q_G = 7e6 / 68, about 1.03e5: on a 2-vCPU host, a
# walk of the 7 indices of ohno (3), n = 2 over the last 1, 2, 3 and all 4
# of the primes 95191 .. 95219 took 101, 191, 191 and 228 ms (best of 9),
# so the groups of 3 and 1 that a bound of 5e6 cut cost about 292 ms.
GROUP_PRIMES = 16
GROUP_BITS = 7_000_000
# The most entries of a walk's block, whose rows and tails live while it is
# walked (see SuffixTrie._walk).  On a 2-vCPU host the walk of ohno (3),
# n = 2 over 95191 .. 95219 (47.6k entries) peaked under tracemalloc at
# 2.50, 2.87, 3.65 and 5.21 MB with blocks of 1024, 2048, 4096 and 8192,
# and row 1 alone takes 2.09 MB.  On the checks-large-p benchmark, whose
# walks all run in the parent, 1024 against 2048 read a peak RSS of
# 27.96-28.23 MB against 28.33-29.02 MB over 6 alternating pairs, but made
# the raw pass walls longer in 5 of them, by a median 0.18 s of 4.7 s.
BLOCK = 2048
# The most bits of a tail's entries that a walk leaves unreduced while P
# takes more than one 30-bit digit (see SuffixTrie._walk).  Reducing an
# entry mod P is a long division by every digit of P, which costs more than
# the wider products and sums it saves: on a 2-vCPU host the 69 walks of a
# seed-1 checks-large-p pass, whose groups of 4 primes give P of 56 to 68
# bits, took a median 3.71, 3.02, 2.98, 2.95 and 3.05 s over 7 interleaved
# rounds with limits of 150, 200, 300, 400 and 600 bits.  A P of more than
# about 140 bits takes 300 bits a pass past a reduced tail, and is reduced
# every second depth, not every depth: every depth made ``fmzv check ohno
# --index 1,1,1,1,1,1 --n 6 --primes 10007:10100``, a walk of 11 primes
# (154 bits), take 2.31 s against 1.95 s (medians of 4 fresh processes).
TAIL_BITS = 300
# The cold work (see _cold_work), in walk entries times passes and dot
# products, from which a window of several groups is filled by a pool,
# whatever ``jobs`` says.  On a 2-vCPU host, 32 requests of 7 checks over
# windows of 4 to 27 groups from 5:300 to 5:3000 took, with --jobs 2 and
# the pool forced, 1.1-2.7 times their --jobs 1 wall below 9e4 units and
# 0.57-0.96 times it above 1.4e5, but once (medians of 5 to 7 alternating
# fresh processes): the two cross near 1e5.  A cold request of the windows
# at p <= 500 of the small-p benchmark does at most 5.4e4.
POOL_MIN_MULTS = 100_000

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


def check_window(lo: int, hi: int) -> tuple[int, int]:
    """Validate that [lo, hi] is a window the sieve accepts and return it."""
    if not 2 <= lo <= hi <= MAX_MODULUS:
        raise ValueError(f"window must satisfy 2 <= lo <= hi <= {MAX_MODULUS}, got [{lo}, {hi}]")
    return lo, hi


def primes_in(lo: int, hi: int) -> list[int]:
    """All primes in [lo, hi], ascending: the whole window is held in one
    bytearray and crossed off by the primes up to sqrt(hi), which a second,
    smaller sieve finds."""
    check_window(lo, hi)
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
    return list(compress(range(lo, hi + 1), seg))


def inv_mod(a: int, p: int) -> int:
    """Multiplicative inverse of a mod prime p; a must be nonzero mod p."""
    a %= p
    if a == 0:
        raise ZeroDivisionError(f"0 has no inverse mod {p}")
    return pow(a, p - 2, p)


def inverse_table(*group: int) -> list[int]:
    """Row 1 of a group of ascending primes q_1 < ... < q_G over the lower
    half of the largest: inv[m] = m^(-1) modulo every prime q of the group
    with m <= (q - 1) / 2, for 1 <= m <= (q_G - 1) / 2, and inv[0] = 0.

    One recurrence fills one prime and a group alike:
    inv[m] = (M - M//m) * inv[M % m] % M, with M the product of the primes
    whose lower half holds m, so M drops each prime once m passes the half
    of it.  Every prime of M exceeds m > M % m, so M % m is a unit filled
    first, and an inverse modulo a multiple of M is one modulo M.  The
    primes are not checked here: they come from the sieve or have passed
    ensure_prime."""
    inv = [0] * ((group[-1] + 1) // 2)
    lo = 2
    if len(inv) > 1:
        inv[1] = 1
    for i, q in enumerate(group):
        M = math.prod(group[i:])
        for m in range(lo, (q + 1) // 2):
            inv[m] = (M - M // m) * inv[M % m] % M
        lo = max(lo, (q + 1) // 2)
    return inv


def _rows(parts: Iterable[int], inv: list[int], modulus: int) -> dict[int, list[int]]:
    # part -> the row m^(-part) over one block of a walk, and row 1 in any
    # case, from ``inv``, row 1's slice for that block.  Rows hold the true
    # powers modulo ``modulus``, the product P of the group's primes, a lone
    # prime being a group of one.  Row e is the product of two rows already
    # built whose exponents sum to e, and a power of row 1 only when there
    # are none.
    held = {1: inv}
    for e in sorted(set(parts) - {1}):
        a = next((a for a in held if e - a in held), None)
        if a is None:
            held[e] = list(map(pow, inv, repeat(e), repeat(modulus)))
        else:
            held[e] = list(map(mod, map(mul, held[a], held[e - a]), repeat(modulus)))
    return held


# prime -> (residues by index, B_n by n); the dict's order runs from the
# least to the most recently used prime.  A prime enters only once it has
# passed ensure_prime or come from the sieve, so a hit needs no validation.
_store: dict[int, tuple[dict, dict]] = {}
_store_size = 0  # units held in _store


def _entry(p: int) -> tuple[dict, dict]:
    # p's entry, moved to the most recently used end (created empty)
    entry = _store[p] = _store.pop(p, None) or ({}, {})
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
        residues, bernoulli = _store.pop(oldest)
        _store_size -= len(residues) + len(bernoulli)


def _closure(indices: Iterable[tuple[int, ...]]) -> set[tuple[int, ...]]:
    # J: every nonempty suffix and every reversed prefix of the indices.  The
    # suffixes of a reversed prefix are shorter reversed prefixes, so J is
    # closed under suffixes.
    return {s for k in indices for i in range(len(k)) for s in (k[i:], k[i::-1])}


class SuffixTrie:
    """The half-range walk of a set of indices: the set J of their nonempty
    suffixes and reversed prefixes, in the order one walk evaluates them,
    and each index's recipe over J; none of it depends on the primes.

    At the odd prime q, write H_L(s) for the nested sum of s over
    L = {1, ..., (q - 1) / 2}, the lower half.  The reversal m -> q - m maps
    the upper half onto L, reversing the order of the parts, and
    (q - m)^(-a) = (-1)^a m^(-a) mod q, so cutting an index k = (k_1, ..., k_r)
    where its summation variables leave the upper half gives

        H_q(k) = sum over i = 0 .. r of (-1)^(k_1 + ... + k_i)
                 * H_L(k_i, ..., k_1) * H_L(k_(i+1), ..., k_r)  mod q,

    with H_L of the empty index 1: the recipe of k.  The walk evaluates H_L
    of every element of J.  A suffix (s_j, ..., s_n) of an element has the
    tail ``tail[m]`` = sum over m > m_j > ... > m_n > 0 of prod m_i^(-s_i):
    the prefix sums of the row m^(-s_j) times the tail of (s_(j+1), ..., s_n),
    the empty suffix's tail being the empty product 1, and H_L(s) is the
    tail's entry (q + 1) / 2.  So a proper suffix of an element is read
    off the pass that builds its tail, and only an element that is none,
    and ends no pass, takes a dot product: the row m^(-s_1) with the tail
    of s[1:] over m in L.  A tail is a prefix sum, so the walk can take L
    in blocks: a pass resumes from its tail's last entry in the block
    before, and a dot product from its running sum, and only one block of
    each tail is alive at once.
    At q = 2, where m = 1 is its own mirror, H_2(k) is 1 at depth 1 and 0
    deeper.
    """

    def __init__(self, indices: Iterable[Sequence[int]]):
        self.indices = list(dict.fromkeys(map(tuple, indices)))
        self._ops: list | None = None  # built on the first sweep

    def _build(self) -> None:
        # Sorted by their proper suffixes read innermost part first, the
        # elements of J visit every suffix just after the longest one it
        # extends, as a preorder walk of the suffixes' trie would.  The op
        # (kept, parts, s, slots, dot) keeps the tails of the first ``kept``
        # inner parts it shares with the previous element and extends them
        # by ``parts``; each of those passes builds the tail of a proper
        # suffix, itself in J, and writes its value at its slot.  ``dot`` is
        # the slot of s, which a dot product evaluates, or None where s is a
        # proper suffix of another element, whose pass writes it.
        # commonprefix compares tuples part by part.
        walk = sorted((s[:0:-1], s) for s in _closure(self.indices))
        # A lane's values are H_L of the empty index, 1, then of each element
        # in walk order.
        at = {(): 0}
        at.update((s, j) for j, (_, s) in enumerate(walk, 1))
        passed = {inner for inner, _ in walk}
        ops = []
        last: tuple = ()
        for inner, s in walk:
            kept = len(os.path.commonprefix([last, inner]))
            slots = tuple(at[inner[i::-1]] for i in range(kept, len(inner)))
            ops.append((kept, inner[kept:], s, slots, None if s[::-1] in passed else at[s]))
            last = inner
        self._ops = ops
        self._parts = {part for k in self.indices for part in k}
        # An element's sign as a reversed prefix is (-1) to its weight.  The
        # recipes are flattened: term t multiplies the signed value at
        # _prefixes[t] by the value at _suffixes[t], and index j sums the
        # terms _bounds[j] .. _bounds[j + 1] - 1.
        self._signs = [1] + [-1 if sum(s) % 2 else 1 for _, s in walk]
        self._prefixes = [at[k[:i][::-1]] for k in self.indices for i in range(len(k) + 1)]
        self._suffixes = [at[k[i:]] for k in self.indices for i in range(len(k) + 1)]
        self._bounds = list(accumulate((len(k) + 1 for k in self.indices), initial=0))

    def sweep(self, group: Sequence[int]) -> list[dict[tuple[int, ...], int]]:
        """Every index's harmonic sum at each prime of ``group``, ascending
        primes (not checked here), from one walk of J over the lower half of
        the largest, modulo the product P of the odd ones.

        By the Chinese remainder theorem Z/P is the product of the Z/q, so
        the walk evaluates each odd prime q in its own lane, which reads only
        the entries m <= (q - 1) / 2: each pass gives the lane its entry
        (q + 1) / 2, and each dot product is one running sum, broken at each
        prime of the group.  The walk takes the entries in equal blocks of
        at most :data:`BLOCK`; row 1 is built once over all of them, and
        every other row and tail for one block.  The passes need no special case
        for an index of depth >= q: one of the two factors of each of its
        recipe's terms is deeper than (q - 1) / 2, and its tails vanish to
        match.
        """
        if self._ops is None:
            self._build()
        lanes = group[1:] if group[0] == 2 else group
        out = [self._recipes(values, q) for q, values in zip(lanes, self._walk(lanes))]
        if group[0] == 2:
            out.insert(0, {k: int(len(k) == 1) for k in self.indices})
        return out

    def _walk(self, lanes: Sequence[int]) -> list[tuple[int, ...]]:
        # each lane's values, H_L of the empty index then of J in walk order
        if not lanes:
            return []
        modulus = math.prod(lanes)
        inv = inverse_table(*lanes)
        # The entries m of the lower half of q_G, cut into equal blocks of
        # at most BLOCK; a block's rows and tails live while it is walked.
        # Every row starts with row[0] = 0, so the m = 0 term of every pass
        # vanishes; one tail per depth, the empty suffix's first.  The
        # innermost pass sums its row alone.  A tail's entries stay below
        # 2^b for a bound b that depends on its depth alone: 0 for the empty
        # tail, whose entries are 1, and each pass adds ``grow``, bits(P)
        # for its row, whose entries are below P, and bits(N) for its at
        # most N summands, N the entries of the walk.  reduced[d] says
        # whether the pass that builds a tail of depth d reduces it mod P,
        # which brings b back to bits(P): it does where b would pass the
        # limit, at least bits(P) + grow, the bound a pass past a reduced
        # tail gives, so that no two depths in a row are reduced.  While P
        # fits one 30-bit digit the limit is that alone, and the tails of
        # even depth are reduced; a wider P takes TAIL_BITS where that is
        # larger.  Each lane's value is reduced once, mod q.  The tail of a
        # block [lo, hi) holds the entries lo .. hi of the whole tail:
        # it starts at its carry, the entry lo its pass left in the block
        # before, and each dot product carries its running sum the same
        # way.  A tail of s holds H_L(s) in lane q at entry (q + 1) / 2,
        # read in the block whose entries lo < (q + 1) / 2 <= hi hold it,
        # and a dot product runs over the entries below it.
        bits = modulus.bit_length()
        grow = bits + len(inv).bit_length()
        limit = bits + grow if bits <= 30 else max(TAIL_BITS, bits + grow)
        reduced, bound = [False], 0
        for _ in range(max(map(len, self.indices), default=0)):
            bound += grow
            reduced.append(bound > limit)
            bound = bits if reduced[-1] else bound
        stops = [(q + 1) // 2 for q in lanes]
        count = -(-len(inv) // BLOCK)
        ps = repeat(modulus)
        # slot j: the value in each lane of the j-th element in walk order,
        # and the carry of the pass or dot product that gives it
        values: list = [[] for _ in range(len(self._ops) + 1)]
        values[0] = [1] * len(lanes)
        carries = [0] * len(values)
        lo = 0
        for block in range(1, count + 1):
            hi = len(inv) * block // count
            rows = _rows(self._parts, inv[lo:hi], modulus)
            first, last = bisect_right(stops, lo), bisect_right(stops, hi)
            moduli = lanes[first:last]
            reads = [stop - lo for stop in stops[first:last]]
            widths = list(map(sub, [*reads, hi - lo], [0, *reads]))
            tails: list = [repeat(1)]
            for kept, parts, s, slots, dot in self._ops:
                del tails[kept + 1 :]
                for part, slot in zip(parts, slots):
                    depth = len(tails)
                    if depth == 1:
                        sums = accumulate(rows[part], initial=carries[slot])
                    else:
                        sums = accumulate(map(mul, rows[part], tails[-1]), initial=carries[slot])
                    tail = list(map(mod, sums, ps)) if reduced[depth] else list(sums)
                    tails.append(tail)
                    carries[slot] = tail[-1]
                    values[slot] += map(mod, map(tail.__getitem__, reads), moduli)
                if dot is not None:
                    terms = map(mul, rows[s[0]], tails[-1])
                    sums = map(sum, map(islice, repeat(terms), widths))
                    totals = list(accumulate(sums, initial=carries[dot]))
                    carries[dot] = totals[-1]
                    values[dot] += map(mod, islice(totals, 1, None), moduli)
            lo = hi
        return list(zip(*values))

    def _recipes(self, values: list[int], q: int) -> dict[tuple[int, ...], int]:
        # every index's residue at q from the lane's values of J
        signed = list(map(mul, values, self._signs))
        terms = map(mul, map(signed.__getitem__, self._prefixes), map(values.__getitem__, self._suffixes))
        sums = list(map(list(accumulate(terms, initial=0)).__getitem__, self._bounds))
        return dict(zip(self.indices, map(mod, map(sub, islice(sums, 1, None), sums), repeat(q))))


def _fill_group(trie: SuffixTrie, group: Sequence[int]) -> list[dict]:
    # Memoize at each prime of ``group`` the residues of the trie's indices
    # missing there, and return the group's memos.  They are swept in one
    # walk over the group, of ``trie`` itself when it holds no other index,
    # and an index of depth >= q is 0 at q, whose summation range is empty.
    # The units are charged at once, at the group's least recently used
    # prime, so that no prime of the group drops another, and a group with
    # nothing missing drops nothing.
    memos = [_entry(q)[0] for q in group]
    if all(all(map(memo.__contains__, trie.indices)) for memo in memos):
        return memos
    missing = [list(filterfalse(memo.__contains__, trie.indices)) for memo in memos]
    live = [k for k in dict.fromkeys(chain.from_iterable(missing)) if len(k) < group[-1]]
    swept = repeat({})
    if live:
        swept = (trie if len(live) == len(trie.indices) else SuffixTrie(live)).sweep(group)
    for q, memo, ks, values in zip(group, memos, missing, swept):
        memo.update((k, values[k] if len(k) < q else 0) for k in ks)
    _charge(group[0], sum(map(len, missing)))
    return memos


def _groups(primes: Sequence[int]) -> list[tuple[int, ...]]:
    # ``primes`` cut, in order, into runs swept together: at most
    # GROUP_PRIMES primes, and a row of at most GROUP_BITS bits, q_G entries
    # of the summed bit lengths of the group's primes, which bound that of P.
    groups: list[tuple[int, ...]] = []
    group: list[int] = []
    bits = 0
    for p in primes:
        bits += p.bit_length()
        if group and (len(group) == GROUP_PRIMES or bits * p > GROUP_BITS):
            groups.append(tuple(group))
            group, bits = [], p.bit_length()
        group.append(p)
    if group:
        groups.append(tuple(group))
    return groups


def _cold_work(indices: Sequence[tuple[int, ...]], groups: list[tuple[int, ...]]) -> int:
    # The work of the walks that would fill what is missing from the store:
    # for each group with an index missing at one of its primes and of depth
    # below its largest, the entries of the walk, (q_G + 1) / 2, times the
    # elements of J of those indices, one pass or dot product each.  The
    # store is only read, so no prime moves in its order.
    work = 0
    for g in groups:
        memos = [_store[q][0] if q in _store else {} for q in g]
        missing = [k for k in indices if len(k) < g[-1] and any(k not in memo for memo in memos)]
        work += (g[-1] + 1) // 2 * len(_closure(missing))
    return work


def usable_cpus() -> int:
    """The CPUs this process may run on: its CPU affinity where the platform
    reports one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fill(trie: SuffixTrie, ws: list[int], group: tuple[int, ...]) -> list[tuple[list, list]]:
    # run in a pool worker: for each prime q of ``group``, the residue at q of
    # each of the trie's indices in order, then (q - w, B_(q-w)) for each w of
    # ``ws`` with q >= w + 2, computed into the worker's store and returned
    # for the parent's
    memos = _fill_group(trie, group)
    return [
        ([memo[k] for k in trie.indices], [(q - w, bernoulli_mod_p(w, q)) for w in ws if q >= w + 2])
        for q, memo in zip(group, memos)
    ]


def _merge(p: int, sums: Iterable[tuple], bernoulli: Iterable[tuple]) -> Mapping:
    # Store (index, residue) and (n, B_n) pairs computed at p in a pool
    # worker, charging only the units that are new, and return p's memo.
    memo, bern = _entry(p)
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

    What is missing is swept a group of consecutive primes in one walk.
    A window of several groups, with more than one worker allowed (at most
    ``jobs``, and never more than the groups or the usable CPUs), whose
    cold work reaches :data:`POOL_MIN_MULTS` is filled by a pool, one group
    a task, and each prime's results are merged into the store as they
    arrive; otherwise the walks run in-process.  Close the generator
    (``contextlib.closing``) to shut such a pool down early.
    """
    trie = SuffixTrie(indices)
    ws = sorted(set(ws))
    groups = _groups(primes)
    # more workers than groups or CPUs only add start-up cost: under the
    # fork start method every requested worker is launched at once
    workers = min(jobs, len(groups), usable_cpus())
    if workers > 1 and _cold_work(trie.indices, groups) >= POOL_MIN_MULTS:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for group, filled in zip(groups, pool.map(partial(_fill, trie, ws), groups)):
                for p, (got, bs) in zip(group, filled):
                    yield p, _merge(p, zip(trie.indices, got), bs)
    else:
        for group in groups:
            for p, values in zip(group, _fill_group(trie, group)):
                for w in ws:
                    if p >= w + 2:
                        bernoulli_mod_p(w, p)
                yield p, values


def zeta_mod_p(k: tuple[int, ...], p: int) -> int:
    """The truncated nested harmonic sum for the index ``k`` at the prime p:
    sum over p > m_1 > ... > m_r > 0 of prod m_j^(-k_j), reduced mod p.

    A one-index sweep of a :class:`SuffixTrie` over the lower half of the
    range, m <= (p - 1) / 2: one prefix-sum pass for each distinct proper
    suffix of k and of its reversal, which also gives that suffix's value,
    and one dot product for each of their suffixes that is no proper
    suffix of another, each about p / 2 multiplications run through C-level
    iterators, O(p * depth) in all; the reversal m -> p - m gives the upper
    half.  An index with depth >= p has an empty summation range and
    gives 0.
    """
    k = tuple(k)
    if p in _store:
        hit = _entry(p)[0].get(k)
        if hit is not None:
            return hit
    ensure_prime(p)
    if not k or any(kj < 1 for kj in k):
        raise ValueError(f"index parts must be >= 1, got {k}")
    return _fill_group(SuffixTrie([k]), (p,))[0][k]


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
        hit = _entry(p)[1].get(n)
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
    _entry(p)[1][n] = value
    _charge(p, 1)
    return value

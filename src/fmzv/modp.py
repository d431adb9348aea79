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
when it is made, the set J of every nonempty suffix and every reversed
prefix of its indices, and for each index this recipe of (sign, reversed
prefix, suffix) terms; neither depends on the prime.  J is closed under
suffixes, so it is a trie (Fredkin, "Trie memory", CACM 3(9), 1960): node
0 is the empty index, and an element s = (s_1, ..., s_n) of J is the node
keyed by its first part s_1 and the node of s[1:], its parent, so a node
costs the same at any depth.  A node's tail is the prefix sum over m in L
of the row m^(-s_1) times its parent's tail.  The walk visits the nodes
depth first, each after its parent, and extends the tails its ancestors
left, one pass per node over (q+1)/2 entries, whose last entry is its
value; one tail per depth is alive at once, however many indices share
the walk.  The recipes then combine the values of J into each index's
residue.  At q = 2, where m = 1 is its own mirror, H_2(k) is 1 at depth 1
and 0 deeper.

One walk serves a group of consecutive primes q_1 < ... < q_G at once: it
runs over the lower half of q_G modulo the product P of the group's odd
primes, and since Z/P is the product of the Z/q_i (the Chinese remainder
theorem), the lane of q_i is read off the entries m <= (q_i - 1)/2, where
every row and tail is exact modulo q_i; what a lane holds above that is
never read.  Each pass gives the lane of q_i its entry (q_i + 1)/2.  A
Python integer of d 30-bit digits costs far less to handle than d
integers of one digit, so a group of G primes costs less than G walks,
and far less at small primes, where several fit one digit.  Any window
is walked in runs of up to ``GROUP_PRIMES`` consecutive primes, cut by
count alone.

Each pass, and each inverse-power row it reads, is built from C-level
iterators (``map``, ``itertools.accumulate``) rather than an interpreted
loop over m.  The innermost pass sums its row alone.  Rows cover the lower
half of q_G only.  Row 1 is filled in ranges [lo, hi), hi <= 2 lo: each
even m halves inv[m / 2] modulo the product of the group's odd primes, a
shift with no long division, and each odd m comes from the recurrence of
the inverses, whose modulus drops each prime of the group once m passes
its half; row e is the product of two rows already built, and a power of
row 1 only when there are none.  A lane needs its residue mod q_i alone,
which a reduction mod P at any point keeps, and each lane's value is
reduced once, mod q_i; a reduction mod P is a long division, dearer than
the product it shrinks, so a walk reduces a row or tail only past one bit
bound.  Each of its arrays
has a width, the bits its entries stay below: row e has e bits(P)
unreduced and bits(P) reduced, and a pass adds the width of its row and
the bits of the walk's length to the width of the tail it reads.  Row e is
left unreduced where a pass over it from a tail reduced mod P stays within
the limit, and a pass whose tail another pass reads reduces it mod P where
it would pass the limit; a leaf's tail, read by none, is never reduced.
The limit is ``TAIL_BITS``, or what a pass over a reduced row from a
reduced tail needs where that is more, so no two depths in a row are
reduced.  While P fits one 30-bit digit the limit is the latter alone:
there a reduction divides by one digit, so every row is reduced, and so is
the tail of every second depth that a pass reads, which keeps the tails a
few digits wide where ``TAIL_BITS`` would let them grow to ten; so a lone
prime, a group of one with no case of its own, has the true powers mod p
in its rows.  The walk runs over m in equal blocks of at most ``BLOCK``
entries.  Only row 1 spans the range, since halving and the recurrence
read earlier entries anywhere below m; every other row and every tail
lives for one block, each pass carrying its running sum into the next.
So a walk holds row 1 and about one block per row and per depth, however
large q_G.  Bernoulli numbers B_n mod p come from the power sum
1^n + ... + (p-1)^n mod p^2 in O(p).

Everything memoized at a prime lives in one store, one memo per prime: its
swept residues keyed by index, a tuple, and its Bernoulli values B_n keyed
by n, an int, so the two cannot collide.  Each residue and Bernoulli value
costs one unit of ``TABLE_BUDGET``.  A write at a prime drops whole
primes, least recently used first, while the store is over budget and down
to that prime only, so memory stays bounded however many primes a process
meets.  A group's primes are written in order, so an earlier one may leave
while a later one is written; its memo is already in hand, complete.

:func:`residues` is the one way a batch is evaluated over a window, and
the only code that fills the store: it yields each prime's memo once the
store holds what the batch reads there, the residue of each of its indices
and B_(p-w) for each w it asks for.  It fills a group of primes at a time,
in the calling process, and walks only a group's missing set, the indices
whose residues are missing at any of its primes, so large verification
batteries share almost all of their arithmetic; each missing Bernoulli
value is computed with its prime's residues.  One rule decides when J is
built: for a group's missing set, when it is not empty and differs from
the set of the last J built, so consecutive groups that lack the same
indices share one J, and a batch whose values are all there builds none.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Container, Iterable, Iterator, Mapping, Sequence
from itertools import accumulate, chain, compress, filterfalse, islice, repeat
from operator import mod, mul, sub


MAX_MODULUS = 2**31
# units (residues, Bernoulli values) the per-prime store may hold beyond
# the current prime's: each is a dict entry of tens of bytes
TABLE_BUDGET = 2**20
# The primes of a group swept in one walk; a window is cut into runs of
# this many by count alone.  BLOCK bounds a walk's memory, but for row 1,
# whose entries widen with the group.  On a 2-vCPU host, walks alone (best
# of 3) in groups of 4, 8, 16 and 32 took 1.48, 0.98, 0.68 and 0.81 s for
# ohno (2, 1), n = 2 on the 32 primes 99991 .. 100391, and in groups of 4,
# 8 and 16 took 4.49, 3.38 and 2.17 s for ohno 1^6, n = 6 on the 16 primes
# 10007 .. 10141; on 64 primes from 1009 and from 101, groups of 4 .. 64
# took 11-20 ms and 3-6 ms, 16 the fastest or within 1 ms of it.
GROUP_PRIMES = 16
# The most entries of a walk's block, whose rows and tails live while it is
# walked (see SuffixTrie._walk), and of a range of row 1, whose halves live
# while it is filled (see inverse_table).  On a 2-vCPU host the walk of
# ohno (3), n = 2 over 95191 .. 95219 (47.6k entries) peaked under
# tracemalloc at 2.50, 2.87, 3.65 and 5.21 MB with blocks of 1024, 2048,
# 4096 and 8192, and row 1 alone takes 2.09 MB.  On the checks-large-p
# benchmark, whose walks all run in the benchmark's process, 1024 against
# 2048 read a peak RSS of 27.96-28.23 MB against 28.33-29.02 MB over 6
# alternating pairs, but made the raw pass walls longer in 5 of them, by a
# median 0.18 s of 4.7 s.
BLOCK = 2048
# The most bits of the entries of a walk's rows and tails that it leaves
# unreduced while P takes more than one 30-bit digit (see SuffixTrie._walk):
# row e stays an unreduced product, of e bits(P), where a pass over it from
# a tail reduced mod P stays within this limit, and a pass reduces its tail
# mod P where the tail would pass it.  Reducing an entry mod P is a long
# division by every digit of P, which costs more than the wider products
# and sums it saves: on a 2-vCPU host, while every row was reduced, the 69
# walks of a seed-1 checks-large-p pass, whose groups of 4 primes give P of
# 56 to 68 bits, took a median 3.71, 3.02, 2.98, 2.95 and 3.05 s over 7
# interleaved rounds with limits of 150, 200, 300, 400 and 600 bits.  A P
# of more than about 140 bits takes 300 bits a pass past a reduced tail,
# and is reduced every second depth, not every depth: every depth made
# ``fmzv check ohno --index 1,1,1,1,1,1 --n 6 --primes 10007:10100``, a
# walk of 11 primes (154 bits), take 2.31 s against 1.95 s (medians of 4
# fresh processes).  While P fits one digit a reduction is a division by
# that digit, and the limit is what a pass over a reduced row from a reduced
# tail needs: with TAIL_BITS as their limit, the one-prime walks of lemma2
# (2, 2, 2, 2), n = 5 and ohno 1^6, n = 6 at 10007 took 1.14 and 1.03 times
# as long, and ohno (3), n = 2 at 99991 0.92 times (medians of 16
# alternating rounds).
TAIL_BITS = 300


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
    Every entry stays below the product of the group's primes.

    The entries are filled in ranges [lo, hi), each at most as long as all
    the entries before it and at most ``BLOCK`` long, and cut where m
    passes the half of a prime, so that one M below serves the range.  Two
    rules fill a range, each reading only entries below m, which are final:

    - every even m by halving, inv[m] = x / 2 mod P' with x = inv[m / 2]
      and P' the product of the group's odd primes, that is (x + P') >> 1
      for odd x and x >> 1 for even x, with no long division;
    - every odd m by the recurrence inv[m] = (M - M//m) * inv[M % m] % M,
      with M the product of the primes whose lower half holds m, so M drops
      each prime once m passes the half of it.  Every prime of M exceeds
      m > M % m, so M % m is a unit filled first, and an inverse modulo a
      multiple of M is one modulo M.

    A prime q whose lower half holds m holds m / 2 too, and is odd, so both
    rules keep the contract, and halving an entry below P keeps it below P.
    Halving is one comprehension per range, which on a 2-vCPU host took
    about half as long as a chain of C-level ``map`` calls doing the same;
    the odd entries stay an interpreted loop.  Against the recurrence
    alone, row 1 took 0.51 to 0.68 times as long on groups of 4 to 16
    primes from 10007 to 1000003, and 0.82 to 0.85 on single primes from
    10007 to 1000003 (medians of 15 alternating rounds, 5 at 1000003); a
    table of a few hundred entries or less pays the ranges' fixed costs
    instead, 10 to 20 microseconds a call, 1.3 to 1.8 times as long.  Row 1
    still spans the whole range, as halving reads inv[m / 2] and the
    recurrence inv[M % m].  The primes are not checked here: they come
    from the sieve or have passed ensure_prime."""
    n = (group[-1] + 1) // 2
    inv = [0] * n
    if n > 1:
        inv[1] = 1
    odd = math.prod(q for q in group if q % 2)
    # an m < ends[i] lies in the lower half of every prime of group[i:],
    # whose product is Ms[i]
    ends = [(q + 1) // 2 for q in group]
    Ms = [math.prod(group[i:]) for i in range(len(group))]
    lo = 2
    while lo < n:
        i = bisect_right(ends, lo)
        hi, M = min(2 * lo, lo + BLOCK, ends[i]), Ms[i]
        half = (lo + 1) // 2  # 2 half is the range's first even m
        inv[2 * half : hi : 2] = [(x + odd if x & 1 else x) >> 1 for x in inv[half : (hi + 1) // 2]]
        for m in range(lo | 1, hi, 2):
            inv[m] = (M - M // m) * inv[M % m] % M
        lo = hi
    return inv


def _rows(
    parts: Iterable[int], inv: list[int], modulus: int, wide: Container[int] = ()
) -> dict[int, list[int]]:
    # part -> the row m^(-part) over one block of a walk, and row 1 in any
    # case, from ``inv``, row 1's slice for that block.  Row e is the
    # product of two rows already built whose exponents sum to e, and a
    # power of row 1 only when there are none.  It holds the true powers
    # modulo ``modulus``, the product P of the group's primes (a lone prime
    # being a group of one), unless e is in ``wide``: then the product or
    # power is left unreduced, a long division saved, and its entries stay
    # below P^e.  The walk makes row e wide exactly where a pass over it from
    # a tail reduced mod P stays within its limit (see SuffixTrie._walk).
    # Either way row e is m^(-e) modulo each prime of the group.
    held = {1: inv}
    for e in sorted(set(parts) - {1}):
        a = next((a for a in held if e - a in held), None)
        if a is not None:
            row = map(mul, held[a], held[e - a])
            held[e] = list(row) if e in wide else list(map(mod, row, repeat(modulus)))
        elif e in wide:
            held[e] = list(map(pow, inv, repeat(e)))
        else:
            held[e] = list(map(pow, inv, repeat(e), repeat(modulus)))
    return held


# prime -> its memo: residues keyed by index, a tuple, and B_n keyed by n,
# an int; the dict's order runs from the least to the most recently used
# prime.  A prime enters only once it has come from the sieve or passed
# ensure_prime, and only residues writes it.
_store: dict[int, dict] = {}
_store_size = 0  # units held in _store


def _entry(p: int) -> dict:
    # p's memo, moved to the most recently used end (created empty)
    _store[p] = memo = _store.pop(p, {})
    return memo


def _put(p: int, pairs: Iterable[tuple]) -> dict:
    # The one writer of the store: add the (key, value) pairs computed at p,
    # count the units that are new, then drop whole primes, least recently
    # used first, until the store fits TABLE_BUDGET or p is the least
    # recently used; return p's memo.  A memo p already has keeps its place,
    # which its reader moved; a new one is the most recent.
    global _store_size
    memo = _store.setdefault(p, {})
    held = len(memo)
    memo.update(pairs)
    _store_size += len(memo) - held
    while _store_size > TABLE_BUDGET and next(iter(_store)) != p:
        _store_size -= len(_store.pop(next(iter(_store))))
    return memo


class SuffixTrie:
    """The half-range walk of a set of indices: the set J of their nonempty
    suffixes and reversed prefixes as a trie, each element a node below the
    one of its suffix one part shorter, and each index's recipe over J;
    none of it depends on the primes.

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
    tail's entry (q + 1) / 2.  The walk visits the trie depth first, so the
    tails of a node's ancestors are alive when it is reached, and each node
    is read off the one pass that builds its tail.  A tail is a prefix sum,
    so the walk can take L in blocks: a pass resumes from its tail's last
    entry in the block before, and only one block of each tail is alive at
    once.
    At q = 2, where m = 1 is its own mirror, H_2(k) is 1 at depth 1 and 0
    deeper.
    """

    def __init__(self, indices: Iterable[Sequence[int]]):
        # J as a trie, the one place it is built.  Node 0 is the empty index,
        # and an element s of J is keyed by (s_1, the node of s[1:]) and
        # numbered as it is first met, so each node's number exceeds its
        # parent's.  An index's reversed prefixes, shortest first, chain its
        # parts in order, each part the first of the next one, and its
        # suffixes, longest first, its parts reversed.
        self.indices = list(dict.fromkeys(map(tuple, indices)))
        nodes: dict[tuple[int, int], int] = {}

        def add(node: int, part: int) -> int:
            return nodes.setdefault((part, node), len(nodes) + 1)

        self._prefixes: list[int] = []
        self._suffixes: list[int] = []
        for k in self.indices:
            self._prefixes += accumulate(k, add, initial=0)
            self._suffixes += reversed(list(accumulate(reversed(k), add, initial=0)))
        # One op (depth, part, node) per node of J, each after its parent, as
        # a depth-first walk of the trie visits them.  A lane's values are
        # H_L of the nodes in number order, node 0's being 1.
        self._nodes = list(nodes)  # (part, parent) of nodes 1, 2, ...
        self._parts = {part for part, _ in self._nodes}
        children: list[list[int]] = [[] for _ in range(len(nodes) + 1)]
        for node, (_, parent) in enumerate(self._nodes, 1):
            children[parent].append(node)
        self._ops = []
        stack = [(1, node) for node in reversed(children[0])]
        while stack:
            depth, node = stack.pop()
            self._ops.append((depth, self._nodes[node - 1][0], node))
            stack += ((depth + 1, child) for child in reversed(children[node]))
        # A reversed prefix's sign is (-1) to its weight: its parent's sign,
        # flipped by an odd part.  The recipes are flattened: term t
        # multiplies the signed value at _prefixes[t] by the value at
        # _suffixes[t], and index j sums the terms _bounds[j] ..
        # _bounds[j + 1] - 1.
        self._signs = [1]
        for part, parent in self._nodes:
            self._signs.append(-self._signs[parent] if part % 2 else self._signs[parent])
        self._bounds = list(accumulate((len(k) + 1 for k in self.indices), initial=0))

    def sweep(self, group: Sequence[int]) -> list[dict[tuple[int, ...], int]]:
        """Every index's harmonic sum at each prime of ``group``, ascending
        primes (not checked here), from one walk of J over the lower half of
        the largest, modulo the product P of the odd ones.

        By the Chinese remainder theorem Z/P is the product of the Z/q, so
        the walk evaluates each odd prime q in its own lane, which reads only
        the entries m <= (q - 1) / 2: each node's pass gives the lane its
        entry (q + 1) / 2.  The walk takes the entries in equal blocks of at
        most :data:`BLOCK`; row 1 is built once over all of them, and every
        other row and tail for one block.  The passes need no special case
        for an index of depth >= q: one of the two factors of each of its
        recipe's terms is deeper than (q - 1) / 2, and its tails vanish to
        match.
        """
        lanes = group[1:] if group[0] == 2 else group
        out = [self._recipes(values, q) for q, values in zip(lanes, self._walk(lanes))]
        if group[0] == 2:
            out.insert(0, {k: int(len(k) == 1) for k in self.indices})
        return out

    def _walk(self, lanes: Sequence[int]) -> list[tuple[int, ...]]:
        # each lane's values, H_L of the nodes in number order
        if not lanes:
            return []
        modulus = math.prod(lanes)
        inv = inverse_table(*lanes)
        # The entries m of the lower half of q_G, cut into equal blocks of
        # at most BLOCK; a block's rows and tails live while it is walked.
        # Every node takes one pass, which builds its tail: every row starts
        # with row[0] = 0, so the m = 0 term of every pass vanishes; one tail
        # per depth, the empty suffix's first.  The innermost pass sums its
        # row alone.  Each row and tail has a width, the bits its entries
        # stay below.  Row e has e * bits(P) where e * bits(P) + grow stays
        # within the limit, grow = bits(P) + bits(N), N the entries of the
        # walk, and is left unreduced there (see _rows); elsewhere it is
        # reduced mod P, to bits(P).  A pass adds the width of its row, and
        # bits(N) for its at most N summands, to the width of the tail it
        # reads (0 for the empty tail, whose entries are 1), and reduces its
        # tail mod P, back to bits(P), where the sum passes the limit and a
        # child's pass reads the tail; a leaf's tail is only read at the
        # lanes' stops, each value reduced once, mod q.  The limit is at
        # least bits(P) + grow, so no pass past a reduced tail reduces.
        # While P fits one 30-bit digit it is that alone, so every row is
        # reduced and so is every tail of even depth that a child reads; a
        # wider P takes TAIL_BITS where that is larger.  Whether each node's pass reduces is worked
        # out once per walk, from the width of its parent's tail.  The tail
        # of a block [lo, hi) holds the entries lo .. hi of the whole tail:
        # it starts at its carry, the entry lo its pass left in the block
        # before.  A tail of s holds H_L(s) in lane q at entry (q + 1) / 2,
        # read in the block whose entries lo < (q + 1) / 2 <= hi hold it.
        bits, summands = modulus.bit_length(), len(inv).bit_length()
        grow = bits + summands
        limit = bits + grow if bits <= 30 else max(TAIL_BITS, bits + grow)
        width = {e: e * bits if e * bits + grow <= limit else bits for e in self._parts}
        wide = {e for e in width if width[e] > bits}
        # by node: the width of the tail its pass builds, and whether the
        # pass reduces it; a leaf's tail is read by no child, so it is never
        # reduced
        parents = {read for _, read in self._nodes}
        bounds = [0] * (len(self._ops) + 1)
        reduces = [False] * len(bounds)
        for slot, (part, read) in enumerate(self._nodes, 1):
            bound = bounds[read] + width[part] + summands
            reduces[slot] = bound > limit and slot in parents
            bounds[slot] = bits if reduces[slot] else bound
        stops = [(q + 1) // 2 for q in lanes]
        count = -(-len(inv) // BLOCK)
        ps = repeat(modulus)
        # by node: its value in each lane, and the carry of its pass
        values: list = [[] for _ in range(len(self._ops) + 1)]
        values[0] = [1] * len(lanes)
        carries = [0] * len(values)
        lo = 0
        for block in range(1, count + 1):
            hi = len(inv) * block // count
            rows = _rows(self._parts, inv[lo:hi], modulus, wide)
            first, last = bisect_right(stops, lo), bisect_right(stops, hi)
            moduli = lanes[first:last]
            reads = [stop - lo for stop in stops[first:last]]
            # the tails of the ancestors of the node being visited, by depth
            tails: list = [repeat(1)]
            for depth, part, slot in self._ops:
                del tails[depth:]
                if depth == 1:
                    sums = accumulate(rows[part], initial=carries[slot])
                else:
                    sums = accumulate(map(mul, rows[part], tails[-1]), initial=carries[slot])
                tail = list(map(mod, sums, ps)) if reduces[slot] else list(sums)
                tails.append(tail)
                carries[slot] = tail[-1]
                values[slot] += map(mod, map(tail.__getitem__, reads), moduli)
            lo = hi
            # this block's rows and tails go before the next block's are built
            del rows, tails
        return list(zip(*values))

    def _recipes(self, values: list[int], q: int) -> dict[tuple[int, ...], int]:
        # every index's residue at q from the lane's values of J
        signed = list(map(mul, values, self._signs))
        terms = map(mul, map(signed.__getitem__, self._prefixes), map(values.__getitem__, self._suffixes))
        sums = list(map(list(accumulate(terms, initial=0)).__getitem__, self._bounds))
        return dict(zip(self.indices, map(mod, map(sub, islice(sums, 1, None), sums), repeat(q))))


def _groups(primes: Sequence[int]) -> list[tuple[int, ...]]:
    # ``primes`` cut, in order, into the runs of GROUP_PRIMES swept
    # together, the last one shorter
    return [tuple(primes[i : i + GROUP_PRIMES]) for i in range(0, len(primes), GROUP_PRIMES)]


def residues(
    indices: Iterable[Sequence[int]], primes: list[int], ws: Iterable[int] = ()
) -> Iterator[tuple[int, Mapping[tuple[int, ...] | int, int]]]:
    """For each prime p of ``primes``, taken from the sieve, in order: yield
    (p, p's memo, for reading only) once it holds the residue at p of every
    index of ``indices``, keyed by the index, and B_(p-w) for each w of
    ``ws`` where it is defined, p >= w + 2, keyed by n = p - w.  The memo
    may already have left the store (see the module docstring), but not
    what it holds.  This is the only code that fills the store.

    What is missing is filled in this process a group of consecutive
    primes at a time, as the primes are asked for.  The group's missing
    set is every index missing at one of its primes whose depth is below
    q_G.  A deeper index is 0 at every prime of the group, whose summation
    range is empty, and would only add nodes to J: about the square of
    their depth for a family such as the terms of harmonic(y^r, y).  J is
    built for a missing set that is not empty and differs from the set of
    the last J built, so consecutive groups that lack the same indices
    share one J, and a group that lacks none builds and walks nothing.  One
    walk of J gives the group's residues, and each prime is written once,
    in order (see _put), with its residues and Bernoulli values together; a
    prime with nothing missing is not written.
    """
    indices = list(dict.fromkeys(map(tuple, indices)))
    ws = sorted(set(ws))
    trie = None
    for group in _groups(primes):
        memos = [_entry(q) for q in group]
        missing = [list(filterfalse(memo.__contains__, indices)) for memo in memos]
        gaps = set().union(*missing)
        live = [k for k in indices if k in gaps and len(k) < group[-1]]
        swept = repeat({})
        if live:
            if trie is None or live != trie.indices:
                trie = SuffixTrie(live)
            swept = trie.sweep(group)
        for q, memo, ks, values in zip(group, memos, missing, swept):
            bs = [(q - w, bernoulli_mod_p(w, q)) for w in ws if q >= w + 2 and q - w not in memo]
            if ks or bs:
                _put(q, chain(((k, values[k] if len(k) < q else 0) for k in ks), bs))
        yield from zip(group, memos)


def zeta_mod_p(k: tuple[int, ...], p: int) -> int:
    """The truncated nested harmonic sum for the index ``k`` at the prime p:
    sum over p > m_1 > ... > m_r > 0 of prod m_j^(-k_j), reduced mod p.

    A one-index sweep of a :class:`SuffixTrie` over the lower half of the
    range, m <= (p - 1) / 2: one prefix-sum pass for each distinct suffix
    of k and of its reversal, whose entry (p + 1) / 2 is that suffix's
    value, each about p / 2 multiplications run through C-level iterators,
    O(p * depth) in all; the reversal m -> p - m gives the upper
    half.  An index with depth >= p has an empty summation range and
    gives 0.  The value is read from, or filled into, the store through
    :func:`residues`.
    """
    k = tuple(k)
    ensure_prime(p)
    if not k or any(kj < 1 for kj in k):
        raise ValueError(f"index parts must be >= 1, got {k}")
    ((_, memo),) = residues([k], [p])
    return memo[k]


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
    """B_(p-k) mod p, for 2 <= k <= p-2 (which keeps the number p-integral),
    computed afresh on every call; :func:`residues` memoizes the values a
    batch reads."""
    ensure_prime(p)
    if not 2 <= k <= p - 2:
        raise ValueError(f"need 2 <= k <= p-2, got k={k}, p={p}")
    # B_n vanishes for odd n >= 3; for even n (then n <= p-3) the power-sum
    # congruence 1^n + ... + (p-1)^n = p*B_n mod p^2 holds (Ireland-Rosen,
    # ch. 15), so the sum divided by p is B_n.
    n = p - k
    if n % 2:
        return 0
    s = sum(map(pow, range(1, p), repeat(n), repeat(p * p)))
    if s % p:
        raise EngineFault(f"power sum of exponent {n} is not divisible by {p}")
    return s // p % p

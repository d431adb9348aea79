"""Compositions (indices), Hoffman duals, and the combinatorial enumerators
that every identity checker iterates over.

An index is an ordered tuple of positive integers; its weight is the sum of
the parts and its depth the number of parts.  Exponent vectors (zeros
allowed) and 0/1 selection vectors are plain tuples produced by the
enumerators below, all of which yield in a documented deterministic order.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator

from .words import hoffman_dual_word, index_of_word, word_of_index


class Index(tuple):
    """Ordered tuple of parts, each >= 1; validated at construction."""

    __slots__ = ()

    def __new__(cls, parts: Iterable[int]) -> "Index":
        t = tuple.__new__(cls, parts)
        if not t:
            raise ValueError("an index needs at least one part")
        for p in t:
            if not isinstance(p, int) or p < 1:
                raise ValueError(f"index parts must be integers >= 1, got {p!r}")
        return t

    @property
    def weight(self) -> int:
        return sum(self)

    @property
    def depth(self) -> int:
        return len(self)

    def __repr__(self) -> str:
        return f"Index({format_index(self)})"


def hoffman_dual(k: Iterable[int]) -> Index:
    """The comma/plus-swapping involution, computed through the word transform."""
    return Index(index_of_word(hoffman_dual_word(word_of_index(k))))


def add_componentwise(k: Iterable[int], e: Iterable[int]) -> Index:
    """Parts k_i + e_i; the two tuples must have equal length."""
    k = tuple(k)
    e = tuple(e)
    if len(k) != len(e):
        raise ValueError(f"length mismatch: index has {len(k)} parts, vector has {len(e)}")
    return Index(a + b for a, b in zip(k, e))


def weak_compositions(n: int, r: int) -> Iterator[tuple[int, ...]]:
    """All tuples of r nonnegative integers summing to n, each exactly once.

    Order is lexicographically decreasing: (n, 0, ..., 0) first,
    (0, ..., 0, n) last.  Count is binom(n + r - 1, r - 1).
    """
    if n < 0:
        raise ValueError(f"total must be >= 0, got {n}")
    if r < 1:
        raise ValueError(f"number of slots must be >= 1, got {r}")
    parts = [n] + [0] * (r - 1)
    i = 0 if n and r > 1 else -1  # the last nonzero part before the final slot
    while True:
        yield tuple(parts)
        if i < 0:
            return
        # the next tuple: one less at i, and the rest of the sum after it
        # moved into slot i + 1
        parts[i] -= 1
        rest, parts[-1] = parts[-1] + 1, 0
        parts[i + 1] = rest
        i = min(i + 1, r - 2)
        while i >= 0 and not parts[i]:
            i -= 1


def binary_vectors(r: int, i: int) -> Iterator[tuple[int, ...]]:
    """All 0/1 tuples of length r with exactly i ones, leftmost placements first.

    Count is binom(r, i).
    """
    if r < 1:
        raise ValueError(f"length must be >= 1, got {r}")
    if i < 0 or i > r:
        raise ValueError(f"number of ones must be in [0, {r}], got {i}")
    for ones in itertools.combinations(range(r), i):
        v = [0] * r
        for pos in ones:
            v[pos] = 1
        yield tuple(v)


def parse_index(text: str) -> Index:
    """Parse the comma-separated text form, e.g. ``2,3,1,2`` (spaces tolerated)."""
    pieces = [piece.strip() for piece in text.split(",")]
    parts = []
    for piece in pieces:
        if not (piece.isascii() and piece.isdigit()):
            raise ValueError(f"bad index component {piece!r} in {text!r}")
        parts.append(int(piece))
    return Index(parts)


def format_index(k: Iterable[int]) -> str:
    """Inverse of :func:`parse_index`: comma-separated parts, no spaces."""
    return ",".join(str(p) for p in k)

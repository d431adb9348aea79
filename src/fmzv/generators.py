"""Word generators: the sums of words obtained by spreading extra y-letters
over the x-positions of a block pattern, and the two sides of the
coefficient identity that links them to the harmonic product with a run of
ones.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence

from .indices import Index, binary_vectors, weak_compositions
from .words import NCPolynomial, _combine, _raw, harmonic, shuffle, word_of_index


def insertion_words(x_runs: Sequence[int], extra: int) -> NCPolynomial:
    """Sum over all ways to distribute ``extra`` y-letters across the x-slots.

    Each entry a of ``x_runs`` contributes a block of a x-letters, each
    followed by its share of inserted y's, and every block is closed by one
    y.  The sum ranges over all weak compositions of ``extra`` into
    sum(x_runs) slots.  With no slots at all the result is the bare run of
    closing y's when extra == 0, and zero otherwise.
    """
    runs = tuple(x_runs)
    for a in runs:
        if a < 0:
            raise ValueError(f"x-run lengths must be >= 0, got {a}")
    if extra < 0:
        raise ValueError(f"extra y count must be >= 0, got {extra}")
    slots = sum(runs)
    if slots == 0:
        if extra == 0:
            return NCPolynomial.from_word("y" * len(runs))
        return NCPolynomial.zero()
    acc: Counter[str] = Counter()
    for e in weak_compositions(extra, slots):
        pieces = []
        pos = 0
        for a in runs:
            for _ in range(a):
                pieces.append("x" + "y" * e[pos])
                pos += 1
            pieces.append("y")
        acc["".join(pieces)] += 1
    return _raw(dict(acc))


def bumped_insertion_words(k: Sequence[int], extra: int, bumps: int) -> NCPolynomial:
    """Sum of :func:`insertion_words` over all ways to raise ``bumps`` of the
    parts of ``k`` by one, with x-run lengths k_j - 1 + bump_j.

    More bumps than parts leaves nothing to sum over: the result is zero.
    """
    k = Index(k)
    if bumps < 0:
        raise ValueError(f"bump count must be >= 0, got {bumps}")
    if extra < 0:
        raise ValueError(f"extra y count must be >= 0, got {extra}")
    r = k.depth
    if bumps > r:
        return NCPolynomial.zero()
    return _combine(
        (1, insertion_words(tuple(kj - 1 + lj for kj, lj in zip(k, lam)), extra))
        for lam in binary_vectors(r, bumps)
    )


def ones_expansion_sides(k: Sequence[int], n: int) -> tuple[NCPolynomial, NCPolynomial]:
    """Both sides of the word identity expanding the harmonic product of a
    run of n ones with the word of ``k``.

    The left side is the signed double sum of shuffles of y-runs with
    bumped insertion words; the right side is the harmonic product itself.
    The two are equal as exact polynomials.
    """
    k = Index(k)
    if n < 0:
        raise ValueError(f"shift must be >= 0, got {n}")
    r = k.depth
    lhs = _combine(
        (
            (-1) ** (n - i - m),
            shuffle(NCPolynomial.from_word("y" * m), bumped_insertion_words(k, n - i - m, i)),
        )
        for i in range(min(n, r) + 1)
        for m in range(n - i + 1)
    )
    rhs = harmonic(
        NCPolynomial.from_word("y" * n), NCPolynomial.from_word(word_of_index(k))
    )
    return lhs, rhs

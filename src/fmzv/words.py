"""Exact noncommutative polynomial algebra on the two-letter alphabet {x, y}.

Words are plain Python strings over ``"x"`` and ``"y"``; the empty string is
the unit word.  Polynomials are finitely supported maps word -> integer
coefficient, with exact arbitrary-precision arithmetic throughout (every
expression this package manipulates has integer coefficients, so no
rationals and no tolerances are ever needed).

The subspace spanned by the empty word together with all words ending in
``y`` is closed under the harmonic product; words ending in ``y`` decompose
uniquely into blocks ``z_k = x^(k-1) y``, which is how words encode index
tuples (k_1, ..., k_r).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Hashable, Iterable, Mapping

_LETTERS = frozenset("xy")
_SWAP = str.maketrans("xy", "yx")


def check_word(w: str) -> str:
    """Validate that ``w`` is a string over {x, y} and return it."""
    if not isinstance(w, str):
        raise TypeError(f"word must be a string, got {type(w).__name__}")
    if not _LETTERS.issuperset(w):
        bad = next(c for c in w if c not in _LETTERS)
        raise ValueError(f"word may only contain 'x' and 'y', got {bad!r} in {w!r}")
    return w


def in_h1(w: str) -> bool:
    """True if ``w`` is admissible for the harmonic product: empty or ending in y."""
    return w == "" or w.endswith("y")


def hoffman_dual_word(w: str) -> str:
    """Dual of a word ending in y: swap letters of everything before the final y.

    An involution on words ending in y.
    """
    check_word(w)
    if not w or not w.endswith("y"):
        raise ValueError(f"dual requires a nonempty word ending in 'y', got {w!r}")
    return w[:-1].translate(_SWAP) + "y"


def word_of_index(parts: Iterable[int]) -> str:
    """Encode an index (k_1, ..., k_r) as the word z_{k_1} ... z_{k_r}."""
    out = []
    for k in parts:
        if k < 1:
            raise ValueError(f"index parts must be >= 1, got {k}")
        out.append("x" * (k - 1) + "y")
    return "".join(out)


def index_of_word(w: str) -> tuple[int, ...]:
    """Decode a nonempty word ending in y back to its index tuple."""
    check_word(w)
    if not w or not w.endswith("y"):
        raise ValueError(f"only nonempty words ending in 'y' encode an index, got {w!r}")
    parts = []
    run = 0
    for c in w:
        if c == "x":
            run += 1
        else:
            parts.append(run + 1)
            run = 0
    return tuple(parts)


def reverse_word(w: str) -> str:
    """Reverse at the z-block level: z_{k_1} ... z_{k_r} -> z_{k_r} ... z_{k_1}."""
    return word_of_index(index_of_word(w)[::-1])


class NCPolynomial:
    """Finitely supported integer combination of words, kept with no zero terms.

    Instances are treated as immutable: every operation returns a new
    polynomial.  Term iteration and display are deterministic (words sorted
    by length, then lexicographically).
    """

    def __init__(self, terms: Mapping[str, int] | None = None):
        data: dict[str, int] = {}
        if terms:
            for w, c in terms.items():
                check_word(w)
                if not isinstance(c, int):
                    raise TypeError(f"coefficients must be int, got {type(c).__name__}")
                if c:
                    data[w] = c
        self.terms = data

    @classmethod
    def zero(cls) -> "NCPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "NCPolynomial":
        return cls({"": 1})

    @classmethod
    def from_word(cls, w: str, coeff: int = 1) -> "NCPolynomial":
        return cls({w: coeff})

    def items(self) -> list[tuple[str, int]]:
        """Terms in deterministic order (length, then lexicographic)."""
        return sorted(self.terms.items(), key=lambda t: (len(t[0]), t[0]))

    def support(self) -> list[str]:
        return [w for w, _ in self.items()]

    def coeff(self, w: str) -> int:
        return self.terms.get(w, 0)

    def in_h1(self) -> bool:
        return all(in_h1(w) for w in self.terms)

    def term_count(self) -> int:
        """Number of words counted with multiplicity (sum of |coefficients|)."""
        return sum(abs(c) for c in self.terms.values())

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NCPolynomial):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None  # mutable mapping inside; identity-free equality only

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for w, c in self.items():
            body = f"{abs(c)}*{w or '1'}"
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"NCPolynomial<{self}>"


def _raw(data: dict[str, int]) -> NCPolynomial:
    # internal constructor skipping validation; data must already be clean
    p = NCPolynomial.__new__(NCPolynomial)
    p.terms = data
    return p


def _combine(pairs: Iterable[tuple[int, NCPolynomial]]) -> NCPolynomial:
    acc: Counter[str] = Counter()
    for coeff, poly in pairs:
        if not coeff:
            continue
        for w, c in poly.terms.items():
            acc[w] += coeff * c
    return _raw({w: c for w, c in acc.items() if c})


def concat(a: NCPolynomial, b: NCPolynomial) -> NCPolynomial:
    """Concatenation product, extended bilinearly."""
    acc: Counter[str] = Counter()
    for w1, c1 in a.terms.items():
        for w2, c2 in b.terms.items():
            acc[w1 + w2] += c1 * c2
    return _raw({w: c for w, c in acc.items() if c})


def _quotient_trie(
    poly: NCPolynomial, labels: Callable[[str], Iterable[Hashable]]
) -> list[tuple[int, dict]]:
    # Node u stands for the left quotient u^-1 poly, kept as (its constant
    # term, {label: child node}).  Node 0 is the root and every child comes
    # after its parent; inserting the words in sorted order makes the
    # numbering a preorder, so a bottom-up walk holds few rows at once.
    consts = [0]
    children: list[dict] = [{}]
    for w in sorted(poly.terms):
        node = 0
        for label in labels(w):
            below = children[node]
            node = below.get(label)
            if node is None:
                node = below[label] = len(consts)
                consts.append(0)
                children.append({})
        consts[node] = poly.terms[w]
    return list(zip(consts, children))


def _by_quotients(
    a: NCPolynomial,
    b: NCPolynomial,
    labels: Callable[[str], Iterable[Hashable]],
    spell: Callable[[Hashable], str],
    merge_heads: bool,
) -> NCPolynomial:
    """Evaluate a bilinear product from its rule on left quotients,

        P * Q = P_e Q_e + sum_s s (s^-1 P * Q) + sum_t t (P * t^-1 Q)
                [+ sum_{s,t} (s+t) (s^-1 P * t^-1 Q)   when merge_heads],

    where P_e is the constant term, s and t run over the labels of the
    leading letter or block of a word, and ``spell`` turns a label back into
    its word.  Every pair (node of P, node of Q) is evaluated once,
    bottom-up: children come after parents in both tries, so walking both
    numberings backwards meets each pair after every pair it needs, and no
    recursion limits the word length.  The row of results for a node of P
    lives only until its parent's row is done; nothing outlives the call.
    """
    p_nodes = _quotient_trie(a, labels)
    q_nodes = _quotient_trie(b, labels)
    rows: dict[int, list[dict[str, int]]] = {}
    for i in range(len(p_nodes) - 1, -1, -1):
        cp, p_kids = p_nodes[i]
        kid_rows = [(s, rows.pop(ci)) for s, ci in p_kids.items()]
        row: list[dict[str, int]] = [{}] * len(q_nodes)
        for j in range(len(q_nodes) - 1, -1, -1):
            cq, q_kids = q_nodes[j]
            groups: dict[Hashable, list[dict[str, int]]] = {}
            for s, lower in kid_rows:
                groups.setdefault(s, []).append(lower[j])
            for t, cj in q_kids.items():
                groups.setdefault(t, []).append(row[cj])
            if merge_heads:
                for s, lower in kid_rows:
                    for t, cj in q_kids.items():
                        groups.setdefault(s + t, []).append(lower[cj])
            out = {"": cp * cq} if cp and cq else {}
            for label, parts in groups.items():
                # coefficients merge here, before the head is spelled out
                merged = parts[0]
                if len(parts) > 1:
                    merged = dict(merged)
                    for part in parts[1:]:
                        for w, c in part.items():
                            if w in merged:
                                merged[w] += c
                            else:
                                merged[w] = c
                head = spell(label)
                out.update({head + w: c for w, c in merged.items() if c})
            row[j] = out
        rows[i] = row
    return _raw(rows[0][0])


def harmonic(a: NCPolynomial, b: NCPolynomial) -> NCPolynomial:
    """Harmonic (quasi-shuffle) product; operands must be supported on words
    that are empty or end in y."""
    for p in (a, b):
        if not p.in_h1():
            bad = next(w for w in p.terms if not in_h1(w))
            raise ValueError(f"harmonic operand contains inadmissible word {bad!r}")
    # no operand reordering: commutativity must emerge from the rule, so the
    # algebra-law tests exercise it rather than bake it in
    return _by_quotients(
        a,
        b,
        lambda w: index_of_word(w) if w else (),
        lambda k: word_of_index((k,)),
        merge_heads=True,
    )


def shuffle(a: NCPolynomial, b: NCPolynomial) -> NCPolynomial:
    """Shuffle (interleaving) product, extended bilinearly."""
    return _by_quotients(a, b, iter, str, merge_heads=False)

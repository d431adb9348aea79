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

from collections import Counter, defaultdict
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


def _quotient_dag(
    poly: NCPolynomial, labels: Callable[[str], Iterable[Hashable]]
) -> list[tuple[int, dict]]:
    # One node per distinct left quotient u^-1 poly, kept as (its constant
    # term, {label: child node}).  The prefix trie is built first (node 0 the
    # root, children after their parents), then hash-consed bottom-up on
    # (constant, sorted (label, child)), so prefixes with equal quotients
    # share one node.  Children come before their parents and the root is
    # the last node: no proper quotient of a finite polynomial equals it.
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
    ids: dict[tuple, int] = {}
    dag_id = [0] * len(consts)
    nodes: list[tuple[int, dict]] = []
    for u in range(len(consts) - 1, -1, -1):
        kids = {label: dag_id[c] for label, c in children[u].items()}
        key = (consts[u], tuple(sorted(kids.items())))
        node = ids.get(key)
        if node is None:
            node = ids[key] = len(nodes)
            nodes.append((consts[u], kids))
        dag_id[u] = node
    return nodes


def _parents(nodes: list[tuple[int, dict]]) -> list[list[tuple[int, Hashable]]]:
    # the reverse edges of a quotient DAG: (parent, label) for each node
    ups: list[list[tuple[int, Hashable]]] = [[] for _ in nodes]
    for parent, (_, kids) in enumerate(nodes):
        for label, c in kids.items():
            ups[c].append((parent, label))
    return ups


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
    its word.  The result depends on the two quotients only, so each pair
    (distinct left quotient of P, distinct left quotient of Q) is evaluated
    once, bottom-up: both quotient DAGs number children before parents, so
    walking both numberings forwards meets each pair after every pair it
    needs, and no recursion limits the word length.  Results are pushed,
    not pulled: once pair (i, j) is evaluated, its result goes to the inbox
    of each pair that reads it, under that reader's label -- (parent of i,
    j) under the parent's label s, (i, parent of j) under t and, when heads
    merge, (parent of i, parent of j) under s+t.  A pair empties its inbox
    when its turn comes, so a result is held only by the inboxes of the
    pairs still to read it and is freed once the last of them has run.
    """
    p_nodes = _quotient_dag(a, labels)
    q_nodes = _quotient_dag(b, labels)
    p_ups, q_ups = _parents(p_nodes), _parents(q_nodes)

    # inboxes[i][j]: {label: parts} for pair (i, j); a row's inboxes are
    # made when its first child row starts and dropped at its own turn
    inboxes: defaultdict[int, list[dict]] = defaultdict(lambda: [{} for _ in q_nodes])
    for i, (cp, _) in enumerate(p_nodes):
        row = inboxes[i]  # a row no child row pushed to starts empty here
        del inboxes[i]
        up_rows = [(s, inboxes[pi]) for pi, s in p_ups[i]]
        for j, (cq, _) in enumerate(q_nodes):
            out = {"": cp * cq} if cp and cq else {}
            groups, row[j] = row[j], None
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
                parts.clear()
                head = spell(label)
                out.update({head + w: c for w, c in merged.items() if c})
            for qj, t in q_ups[j]:
                row[qj].setdefault(t, []).append(out)
            for s, up_row in up_rows:
                up_row[j].setdefault(s, []).append(out)
                if merge_heads:
                    for qj, t in q_ups[j]:
                        up_row[qj].setdefault(s + t, []).append(out)
    return _raw(out)  # the root pair: both roots come last


def _blocks(w: str) -> tuple[int, ...]:
    # the labels of the harmonic product: a word's z-blocks, by their k
    return index_of_word(w) if w else ()


def harmonic(a: NCPolynomial, b: NCPolynomial) -> NCPolynomial:
    """Harmonic (quasi-shuffle) product; operands must be supported on words
    that are empty or end in y."""
    for p in (a, b):
        if not p.in_h1():
            bad = next(w for w in p.terms if not in_h1(w))
            raise ValueError(f"harmonic operand contains inadmissible word {bad!r}")
    # no operand reordering: commutativity must emerge from the rule, so the
    # algebra-law tests exercise it rather than bake it in
    return _by_quotients(a, b, _blocks, lambda k: word_of_index((k,)), merge_heads=True)


def shuffle(a: NCPolynomial, b: NCPolynomial) -> NCPolynomial:
    """Shuffle (interleaving) product, extended bilinearly."""
    return _by_quotients(a, b, iter, str, merge_heads=False)

import gc
import hashlib
import random
import tracemalloc
from collections import Counter
from math import comb

import pytest

from fmzv.indices import hoffman_dual, Index
from fmzv.suite import h1_words
from fmzv.words import (
    NCPolynomial,
    _blocks,
    _quotient_dag,
    concat,
    harmonic,
    hoffman_dual_word,
    in_h1,
    index_of_word,
    reverse_word,
    shuffle,
    word_of_index,
)

from oracles import shuffle_by_positions, stuffle_by_indices


def P(w, c=1):
    return NCPolynomial.from_word(w, c)


def test_word_index_bijection():
    assert word_of_index((2, 1)) == "xyy"
    assert word_of_index((1, 1, 1)) == "yyy"
    assert index_of_word("xxy") == (3,)
    for k in [(1,), (4,), (2, 1), (1, 3, 2), (2, 2, 2)]:
        assert index_of_word(word_of_index(k)) == k
    with pytest.raises(ValueError):
        index_of_word("xy" + "x")
    with pytest.raises(ValueError):
        index_of_word("")
    with pytest.raises(ValueError):
        word_of_index((0,))


def test_hoffman_dual_word():
    assert hoffman_dual_word("xyy") == "yxy"
    assert hoffman_dual_word("y") == "y"
    for k in range(1, 6):
        assert hoffman_dual_word("y" * k) == "x" * (k - 1) + "y"
    with pytest.raises(ValueError):
        hoffman_dual_word("yx")
    with pytest.raises(ValueError):
        hoffman_dual_word("")


def test_dual_word_is_involution_and_matches_index_dual():
    for w in h1_words(7):
        if not w:
            continue
        assert hoffman_dual_word(hoffman_dual_word(w)) == w
        assert index_of_word(hoffman_dual_word(w)) == hoffman_dual(Index(index_of_word(w)))


def test_harmonic_examples():
    assert harmonic(P("y"), P("xy")) == NCPolynomial({"yxy": 1, "xyy": 1, "xxy": 1})
    assert harmonic(P("y"), P("y")) == NCPolynomial({"yy": 2, "xy": 1})
    for w in ("y", "xyy", "xxyxy"):
        assert harmonic(P(w), NCPolynomial.one()) == P(w)
        assert harmonic(NCPolynomial.one(), P(w)) == P(w)
    with pytest.raises(ValueError):
        harmonic(P("yx"), P("y"))


def test_shuffle_examples():
    assert shuffle(P("x"), P("y")) == NCPolynomial({"xy": 1, "yx": 1})
    assert shuffle(P("xy"), P("y")) == NCPolynomial({"xyy": 2, "yxy": 1})
    for w in ("x", "yx", "xxy"):
        assert shuffle(NCPolynomial.one(), P(w)) == P(w)
        assert shuffle(P(w), NCPolynomial.one()) == P(w)


def test_shuffle_matches_position_oracle():
    words = ["", "x", "y", "xy", "yx", "xyy", "xxy", "yxy"]
    for w1 in words:
        for w2 in words:
            got = Counter(shuffle(P(w1), P(w2)).terms)
            assert got == shuffle_by_positions(w1, w2)


def test_harmonic_matches_index_stuffle_oracle():
    idxs = [(), (1,), (2,), (1, 1), (2, 1), (1, 2), (3,), (1, 1, 1)]
    for k1 in idxs:
        for k2 in idxs:
            got = Counter(
                {
                    index_of_word(w): c
                    for w, c in harmonic(P(word_of_index(k1)), P(word_of_index(k2))).terms.items()
                    if w
                }
            )
            expect = stuffle_by_indices(k1, k2)
            expect.pop((), None)
            assert got == +expect


def bilinear_shuffle(a, b):
    out = Counter()
    for w1, c1 in a.terms.items():
        for w2, c2 in b.terms.items():
            for w, c in shuffle_by_positions(w1, w2).items():
                out[w] += c1 * c2 * c
    return NCPolynomial(out)


def bilinear_harmonic(a, b):
    out = Counter()
    for w1, c1 in a.terms.items():
        for w2, c2 in b.terms.items():
            k1 = index_of_word(w1) if w1 else ()
            k2 = index_of_word(w2) if w2 else ()
            for k, c in stuffle_by_indices(k1, k2).items():
                out[word_of_index(k)] += c1 * c2 * c
    return NCPolynomial(out)


def poly(*terms):
    return NCPolynomial(dict(terms))


# multi-term operands: shared prefixes, the empty word, negative coefficients
H1_OPERANDS = [
    poly(("xy", 2), ("xyy", 3), ("xyxy", -1), ("xxy", 1)),
    poly(("", 3), ("y", -2), ("yy", 1), ("yxy", 4)),
    poly(("y", 1), ("xy", -1)),
    poly(("y", 1), ("xy", 1)),
    poly(("", -1)),
    NCPolynomial.zero(),
    poly(("xxyy", 4), ("xyxy", 2)),  # xy ш xy
    poly(("xy", 1), ("yy", 1)),  # x^-1 P = y^-1 P = y
]
FREE_OPERANDS = H1_OPERANDS + [
    poly(("x", 1), ("y", -1)),
    poly(("x", 1), ("y", 1)),
    poly(("", 1), ("yx", 2), ("yxx", -3), ("xyx", 1)),
]


def distinct_left_quotients(p, labels):
    # brute force: u^-1 p for every label prefix u of every word, and the root
    split = {w: tuple(labels(w)) for w in p.terms}
    prefixes = {()} | {seq[:n] for seq in split.values() for n in range(len(seq) + 1)}
    return {
        frozenset((seq[len(u):], p.terms[w]) for w, seq in split.items() if seq[: len(u)] == u)
        for u in prefixes
    }


def test_quotient_dag_has_one_node_per_distinct_quotient():
    cases = [(p, iter) for p in FREE_OPERANDS] + [(p, _blocks) for p in H1_OPERANDS]
    for p, labels in cases:
        nodes = _quotient_dag(p, labels)
        assert len(nodes) == len(distinct_left_quotients(p, labels)), p
        assert all(c < i for i, (_, kids) in enumerate(nodes) for c in kids.values()), p
    root_kids = _quotient_dag(poly(("xy", 1), ("yy", 1)), iter)[-1][1]
    assert root_kids["x"] == root_kids["y"]


def test_shuffle_of_polynomials_matches_bilinear_oracle():
    for a in FREE_OPERANDS:
        for b in FREE_OPERANDS:
            got = shuffle(a, b)
            assert got == bilinear_shuffle(a, b), (a, b)
            assert all(got.terms.values())


def test_harmonic_of_polynomials_matches_bilinear_oracle():
    for a in H1_OPERANDS:
        for b in H1_OPERANDS:
            got = harmonic(a, b)
            assert got == bilinear_harmonic(a, b), (a, b)
            assert all(got.terms.values())


def test_cancelling_coefficients_leave_no_zero_terms():
    x_minus_y, x_plus_y = poly(("x", 1), ("y", -1)), poly(("x", 1), ("y", 1))
    assert shuffle(x_minus_y, x_plus_y).terms == {"xx": 2, "yy": -2}
    y_minus_xy, y_plus_xy = poly(("y", 1), ("xy", -1)), poly(("y", 1), ("xy", 1))
    assert harmonic(y_minus_xy, y_plus_xy).terms == {
        "yy": 2, "xy": 1, "xyxy": -2, "xxxy": -1,
    }

    def neg(q):
        return NCPolynomial({w: -c for w, c in q.terms.items()})

    p = poly(("", 2), ("yxy", 1), ("xy", -3))
    assert shuffle(p, neg(p)) == neg(shuffle(p, p))
    assert harmonic(p, NCPolynomial.zero()) == NCPolynomial.zero()


def test_polynomial_products_associate():
    rng = random.Random(3307)
    pool = [w for w in h1_words(6) if len(w) == 6]
    for _ in range(2):
        a, b, c = (
            poly(*((w, rng.choice((-2, -1, 1, 3))) for w in rng.sample(pool, 2)))
            for _ in range(3)
        )
        assert harmonic(harmonic(a, b), c) == harmonic(a, harmonic(b, c))
        assert shuffle(shuffle(a, b), c) == shuffle(a, shuffle(b, c))


def test_long_words_need_no_recursion():
    long = P("y" * 1100)
    assert shuffle(long, P("y")) == P("y" * 1101, 1101)
    assert shuffle(P("x"), long).terms.get("y" * 1100 + "x", 0) == 1
    ha = harmonic(P("y"), long)
    assert ha.terms.get("y" * 1101, 0) == 1101 and ha.terms.get("y" * 1099 + "xy", 0) == 1


def test_products_keep_no_state_between_calls():
    a, b, c = P("xyxyxy"), P("xxyyxy"), P("yxyxxy")
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = shuffle(shuffle(a, b), c)
        assert result.term_count() == comb(18, 6) * comb(12, 6)
        del result
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 5_000_000


def test_products_peak_memory():
    # each pair's result is freed once the last pair to read it has emptied
    # its inbox, which peaks at about 2.9 MB here; keeping a row of results
    # until no parent quotient still needs it peaks at about 7.2 MB, keeping
    # every result at about 10.2 MB
    a, b, c = P("xyxyxy"), P("xxyyxy"), P("yxyxxy")
    gc.collect()
    tracemalloc.start()
    try:
        result = shuffle(a, shuffle(b, c))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.term_count() == comb(18, 6) * comb(12, 6)
    assert peak < 9_000_000


def test_harmonic_peak_memory():
    # triple 96 of the algebra laws of `fmzv suite`, whose a(bc) sets the
    # step's peak: about 12.15 MB when each pair's result is freed once the
    # last pair to read it has emptied its inbox, 22.2 MB when a row of
    # results lives until its parents are done, 28.1 MB when every result
    # lives until the call returns
    a, b, c = P("yyxyyy"), P("yyxyxy"), P("yyyxxy")
    bc = harmonic(b, c)
    gc.collect()
    tracemalloc.start()
    try:
        result = harmonic(a, bc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(result.terms) == 48_600 and sum(result.terms.values()) == 2_283_841
    assert peak < 15_000_000


# For each of the first 20 algebra-laws triples of `fmzv suite` (seed
# 20240607, drawn from the nonempty words of h1_words(6)) and for triple 96,
# which sets the step's peak, keyed by 0-based number: the SHA-256 over the
# SHA-256 of repr(q.items()) for the 8 products q, harmonic then shuffle,
# each as ab, (ab)c, bc, a(bc).
TRIPLE_PRODUCT_SHA256 = {
    0: "599196902e3232bfdff7685a0c139d11664c69c65d4cb8cad5228b48f8a335fa",
    1: "35b362ab691dc09be5de5e17074dfa5e313b84330478e722c9a4bed57fd7b4f6",
    2: "8bf40dc7ab4032ad43ab3e99a47a7eb4ec43616be6c3d7b8c9bdf466ee83d2e1",
    3: "240507026f3b48df6bdd955d7607041b752c77893a1470ee0ddc9d6786bcf29c",
    4: "f1f7b2af630cccc800820d20773acdcb87ae69ca84b107ec90bf0fedb3d7b465",
    5: "9096425707eb8ae0ebda056297e4c0fa91b6f2eac48734c6ad1c9fcf4b32c4ae",
    6: "265a7f08dd0e7a5c227d37d02058053a1c6109dc3a0d5f8cd95ab359aa3cfa2e",
    7: "be6a51b7607ddcc73da4adeae7d1a640973354a7428b8074904403cc041d3022",
    8: "6bffe85eca7e140551334c44d8ebf24e3d51389dc4824fbff82488c41eec9a9a",
    9: "1fc37440ce359cd2a93df2d9201117d6dbb8efccce4c545dfc32a26f55988ead",
    10: "266fbf62bfa2d1e24a723194556acf3d0fe3bbe59975759040a73d9b1ab34b0d",
    11: "36edd53dc0a35b0bb4a9564d7f74feb7a92591f6a2d75fbd65d60fc3018bbd8e",
    12: "5e2a08703f0246bfc8f50bb847c829034a01a2e5ca017a4a6165274145e292d4",
    13: "1ccc9fd6cd43a973b8be475040003b7a0ecb980841bf784311187b5666ccdee0",
    14: "dcfef068d299511f42fa97c9f085020549834cd092fb649c0d64f3ef0ef7dd8a",
    15: "1e3887c33a23ac5b84620a70a60f4ce4b75f3daf501302fecace8b7325e5def3",
    16: "141e6ec1afd4570190866cdd69f1744ced5105bf2df474b92d8397dabe6d3c05",
    17: "1cbf49022f39ef0a99295c26b86f4b5778f043458d0ffeeaf97201b797184b7c",
    18: "e2a6e0ff47b0ced128721118c4487d88adc5e24e9a04d9eca564b09a59f8b69c",
    19: "8ce974295b41a2506d9975684b9e3d8d3079aa003f0cd748fe3d689a5b3e7ef6",
    95: "fa2c4681d63792f7b4677ffe6d3ef030965c879f10f1546ad8ae38eb23a08a6b",
}


def test_triple_products_keep_their_bytes():
    rng = random.Random(20240607)
    pool = [w for w in h1_words(6) if w]
    for n in range(max(TRIPLE_PRODUCT_SHA256) + 1):
        a, b, c = (P(rng.choice(pool)) for _ in range(3))
        if n not in TRIPLE_PRODUCT_SHA256:
            continue
        digest = hashlib.sha256()
        for product in (harmonic, shuffle):
            ab, bc = product(a, b), product(b, c)
            for q in (ab, product(ab, c), bc, product(a, bc)):
                digest.update(hashlib.sha256(repr(q.items()).encode()).digest())
        assert digest.hexdigest() == TRIPLE_PRODUCT_SHA256[n], (n, a, b, c)


def test_products_commute_and_associate():
    rng = random.Random(1105)
    pool = [w for w in h1_words(6) if w]
    free = ["".join(rng.choice("xy") for _ in range(rng.randint(1, 6))) for _ in range(20)]
    for _ in range(40):
        a, b, c = (P(rng.choice(pool)) for _ in range(3))
        assert harmonic(a, b) == harmonic(b, a)
        assert harmonic(harmonic(a, b), c) == harmonic(a, harmonic(b, c))
        fa, fb, fc = (P(rng.choice(free)) for _ in range(3))
        assert shuffle(fa, fb) == shuffle(fb, fa)
        assert shuffle(shuffle(fa, fb), fc) == shuffle(fa, shuffle(fb, fc))


def test_product_grading():
    rng = random.Random(2211)
    pool = [w for w in h1_words(6) if w]
    for _ in range(50):
        w1, w2 = rng.choice(pool), rng.choice(pool)
        sh = shuffle(P(w1), P(w2))
        assert all(len(w) == len(w1) + len(w2) for w in sh.terms)
        assert sh.term_count() == comb(len(w1) + len(w2), len(w1))
        ha = harmonic(P(w1), P(w2))
        assert ha.in_h1()
        assert all(len(w) == len(w1) + len(w2) for w in ha.terms)
        d1, d2 = w1.count("y"), w2.count("y")
        assert all(w.count("y") <= d1 + d2 for w in ha.terms)


def test_concat_and_reverse():
    assert reverse_word("xyy") == "yxy"
    assert reverse_word("y") == "y"
    assert concat(P("y"), P("xy")) == P("yxy")
    assert concat(P("y", 2), P("xy", 3)) == P("yxy", 6)
    with pytest.raises(ValueError):
        reverse_word("yx")


def test_polynomial_basics():
    zero = NCPolynomial.zero()
    one = NCPolynomial.one()
    assert not zero and one
    assert str(zero) == "0"
    assert str(one) == "1*1"
    p = NCPolynomial({"xy": 2, "y": -1, "yy": 1})
    assert str(p) == "-1*y + 2*xy + 1*yy"
    assert p.terms.get("xy", 0) == 2 and p.terms.get("xx", 0) == 0
    assert concat(p, one) == p and concat(one, p) == p
    assert concat(P("x"), P("y")) == P("xy")
    assert [w for w, _ in p.items()] == ["y", "xy", "yy"]
    assert in_h1("") and in_h1("xy") and not in_h1("yx")
    assert not NCPolynomial({"xy": 1, "yx": 1}).in_h1()


def test_polynomial_validation():
    with pytest.raises(ValueError):
        NCPolynomial({"xz": 1})
    with pytest.raises(TypeError):
        NCPolynomial({"xy": 1.5})
    assert NCPolynomial({"xy": 0}) == NCPolynomial.zero()

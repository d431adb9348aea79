import gc
import random
import tracemalloc
from collections import Counter
from math import comb

import pytest

from fmzv.indices import hoffman_dual, Index
from fmzv.suite import h1_words
from fmzv.words import (
    NCPolynomial,
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
]
FREE_OPERANDS = H1_OPERANDS + [
    poly(("x", 1), ("y", -1)),
    poly(("x", 1), ("y", 1)),
    poly(("", 1), ("yx", 2), ("yxx", -3), ("xyx", 1)),
]


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
    assert shuffle(P("x"), long).coeff("y" * 1100 + "x") == 1
    ha = harmonic(P("y"), long)
    assert ha.coeff("y" * 1101) == 1101 and ha.coeff("y" * 1099 + "xy") == 1


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
    assert p.coeff("xy") == 2 and p.coeff("xx") == 0
    assert concat(p, one) == p and concat(one, p) == p
    assert concat(P("x"), P("y")) == P("xy")
    assert p.support() == ["y", "xy", "yy"]
    assert in_h1("") and in_h1("xy") and not in_h1("yx")
    assert not NCPolynomial({"xy": 1, "yx": 1}).in_h1()


def test_polynomial_validation():
    with pytest.raises(ValueError):
        NCPolynomial({"xz": 1})
    with pytest.raises(TypeError):
        NCPolynomial({"xy": 1.5})
    assert NCPolynomial({"xy": 0}) == NCPolynomial.zero()

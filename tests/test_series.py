import pytest

from fmzv.series import (
    USeries,
    const_series,
    geometric_yu,
    one_series,
    series_concat,
    series_harmonic,
    series_shuffle,
    substitution_series,
)
from fmzv.suite import h1_words
from fmzv.words import NCPolynomial, harmonic


def P(w, c=1):
    return NCPolynomial.from_word(w, c)


def test_useries_basics():
    s = USeries((P("x"), P("y")))
    assert s.order == 1
    assert s.coeff(0) == P("x")
    with pytest.raises(ValueError):
        USeries(())


def test_geometric_series():
    assert geometric_yu(0) == USeries((NCPolynomial.one(),))
    g = geometric_yu(2)
    assert g.coeffs == (NCPolynomial.one(), P("y"), P("yy"))
    for k, c in enumerate(geometric_yu(5).coeffs):
        (w,) = c.support()
        assert w.count("y") == k and len(w) == k


def test_substitution_single_letters():
    assert substitution_series("x", 2).coeffs == (P("x"), P("xy", -1), P("xyy"))
    assert substitution_series("y", 2).coeffs == (P("y"), P("xy"), P("xyy", -1))


def test_substitution_constant_term_is_word():
    for w in h1_words(4):
        s = substitution_series(w, 3)
        assert s.coeff(0) == P(w) if w else s.coeff(0) == NCPolynomial.one()


def test_substitution_is_multiplicative():
    words = ["x", "y", "xy", "yx", "xyy", "yy"]
    for w1 in words:
        for w2 in words:
            whole = substitution_series(w1 + w2, 3)
            split = series_concat(substitution_series(w1, 3), substitution_series(w2, 3))
            assert whole == split


def test_series_harmonic_convolution():
    # u^1 coefficient of (geometric in yu) * (constant z_2) is y * xy
    s = series_harmonic(geometric_yu(1), const_series(P("xy"), 1))
    assert s.coeff(1) == harmonic(P("y"), P("xy"))
    assert s.coeff(0) == P("xy")


def test_series_shuffle_with_unit():
    for w in ("x", "xy", "yxy"):
        s = const_series(P(w), 2)
        assert series_shuffle(s, one_series(2)) == s


def test_series_shuffle_geometric_substitution():
    s = series_shuffle(geometric_yu(2), substitution_series("y", 2))
    assert s.coeff(1) == NCPolynomial({"yy": 2, "xy": 1})


def test_mixed_orders_truncate_to_min():
    a = geometric_yu(4)
    b = geometric_yu(2)
    assert series_shuffle(a, b).order == 2
    assert series_harmonic(a, b).order == 2
    assert series_concat(a, b).order == 2


def test_series_concat_matches_polynomial_products():
    a = USeries((P("x"), P("y")))
    b = USeries((P("y"), P("x", -1)))
    c = series_concat(a, b)
    assert c.coeff(0) == P("xy")
    assert c.coeff(1) == NCPolynomial({"xx": -1, "yy": 1})

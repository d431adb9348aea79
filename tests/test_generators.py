from collections import Counter

import pytest

from fmzv.generators import bumped_insertion_words, insertion_words, ones_expansion_sides
from fmzv.indices import Index
from fmzv.series import substitution_series
from fmzv.suite import all_indices
from fmzv.words import NCPolynomial, harmonic, word_of_index


def P(w, c=1):
    return NCPolynomial.from_word(w, c)


def test_insertion_words_no_extras_is_single_word():
    for runs in [(1,), (2,), (2, 1), (3, 1, 2)]:
        expected = "".join("x" * a + "y" for a in runs)
        assert insertion_words(runs, 0) == P(expected)


def test_insertion_words_examples():
    assert insertion_words((1,), 1) == P("xyy")
    assert insertion_words((2,), 1) == NCPolynomial({"xyxy": 1, "xxyy": 1})
    assert insertion_words((0,), 0) == P("y")
    assert insertion_words((0,), 3) == NCPolynomial.zero()
    assert insertion_words((0, 0), 0) == P("yy")
    with pytest.raises(ValueError):
        insertion_words((-1,), 0)
    with pytest.raises(ValueError):
        insertion_words((1,), -1)


def test_bumped_insertion_examples():
    assert bumped_insertion_words((1,), 0, 1) == P("xy")
    assert bumped_insertion_words((1,), 0, 0) == P("y")
    assert bumped_insertion_words((2, 1), 0, 1) == NCPolynomial({"xxyy": 1, "xyxy": 1})
    assert bumped_insertion_words((2,), 1, 5) == NCPolynomial.zero()
    with pytest.raises(ValueError):
        bumped_insertion_words((1,), 0, -1)


def test_substitution_coefficients_match_bumped_insertions():
    # the u^N coefficient of the substituted index word is the signed sum of
    # the bumped insertion words with extra + bumps = N
    for k in all_indices(4):
        s = substitution_series(word_of_index(k), 3)
        for order in range(4):
            expect = Counter()
            for i in range(min(order, k.depth) + 1):
                l = order - i
                for w, c in bumped_insertion_words(k, l, i).terms.items():
                    expect[w] += c if l % 2 == 0 else -c
            assert s.coeff(order) == NCPolynomial(expect), (k, order)


def test_ones_expansion_sides_examples():
    lhs, rhs = ones_expansion_sides(Index((1,)), 1)
    assert lhs == NCPolynomial({"yy": 2, "xy": 1})
    assert rhs == lhs
    for k in [(2,), (1, 1), (3, 2)]:
        lhs, rhs = ones_expansion_sides(Index(k), 0)
        assert lhs == rhs == P(word_of_index(k))
    lhs, rhs = ones_expansion_sides(Index((2,)), 1)
    assert rhs == harmonic(P("y"), P("xy"))
    assert lhs == rhs


def test_ones_expansion_sides_small_sweep():
    for k in all_indices(4):
        for n in range(3):
            lhs, rhs = ones_expansion_sides(k, n)
            assert lhs == rhs, (k, n)

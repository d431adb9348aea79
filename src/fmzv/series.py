"""Truncated formal power series in one central parameter u with word-polynomial
coefficients.

Every series carries an explicit truncation order N and stores the N+1
coefficients of u^0 ... u^N.  Products are Cauchy convolutions in u; the
coefficientwise multiplication is either concatenation, the harmonic
product, or the shuffle product.  Mixed orders truncate to the smaller one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .words import NCPolynomial, _combine, check_word, concat, harmonic, shuffle


@dataclass(frozen=True)
class USeries:
    """Coefficients of u^0 ... u^N; equality is exact and requires equal order."""

    coeffs: tuple[NCPolynomial, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("a series needs at least the u^0 coefficient")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __str__(self) -> str:
        return " | ".join(f"u^{i}: {c}" for i, c in enumerate(self.coeffs))


def const_series(poly: NCPolynomial, order: int) -> USeries:
    """The series with u^0 coefficient ``poly`` and zero elsewhere."""
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    zero = NCPolynomial.zero()
    return USeries((poly,) + (zero,) * order)


def one_series(order: int) -> USeries:
    return const_series(NCPolynomial.one(), order)


def _convolve(a: USeries, b: USeries, product) -> USeries:
    # a zero coefficient adds nothing to a term, so its products are skipped
    n = min(a.order, b.order)
    return USeries(
        tuple(
            _combine(
                (1, product(a.coeffs[i], b.coeffs[d - i]))
                for i in range(d + 1)
                if a.coeffs[i] and b.coeffs[d - i]
            )
            for d in range(n + 1)
        )
    )


def series_concat(a: USeries, b: USeries) -> USeries:
    return _convolve(a, b, concat)


def series_harmonic(a: USeries, b: USeries) -> USeries:
    return _convolve(a, b, harmonic)


def series_shuffle(a: USeries, b: USeries) -> USeries:
    return _convolve(a, b, shuffle)


def geometric_yu(order: int) -> USeries:
    """The geometric series in yu: u^k coefficient is the word y^k."""
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    return USeries(tuple(NCPolynomial.from_word("y" * k) for k in range(order + 1)))


def _image_x(order: int) -> USeries:
    # x (1 + yu)^(-1): u^j coefficient (-1)^j x y^j
    return USeries(
        tuple(NCPolynomial.from_word("x" + "y" * j, (-1) ** j) for j in range(order + 1))
    )


def _image_y(order: int) -> USeries:
    # y + x (1 + yu)^(-1) y u: u^0 is y, u^j is (-1)^(j-1) x y^j for j >= 1
    coeffs = [NCPolynomial.from_word("y")]
    for j in range(1, order + 1):
        coeffs.append(NCPolynomial.from_word("x" + "y" * j, (-1) ** (j - 1)))
    return USeries(tuple(coeffs))


def substitution_series(w: str, order: int) -> USeries:
    """Apply the letterwise substitution x -> x(1+yu)^(-1),
    y -> y + x(1+yu)^(-1)yu to a word, as a series truncated at u^order.

    The u^0 coefficient is the word itself; the substitution is
    multiplicative, so the result is the series product of the letter images.
    """
    check_word(w)
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    images = {"x": _image_x(order), "y": _image_y(order)}
    out = one_series(order)
    for letter in w:
        out = series_concat(out, images[letter])
    return out

"""Executable checkers for the identities this package verifies.

Symbolic checkers compare exact word polynomials or truncated series.
Numeric checkers evaluate both sides of a congruence at every prime of a
window and compare residues; "equal in the cofinite-equality ring" is
operationalized as "equal at every prime at or above the floor", with the
floor defaulting to weight + shift + 3.  Sub-floor primes are still
evaluated and reported, but they never fail a check.

When a numeric comparison fails at or above the floor, the prime is
re-evaluated with the independent brute-force harmonic-sum oracle before
the failure is reported, so an engine bug cannot masquerade as a genuine
exceptional prime.
"""

from __future__ import annotations

import math
import os
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial

from .generators import bumped_insertion_words, ones_expansion_sides
from .indices import Index, add_componentwise, hoffman_dual, weak_compositions, binary_vectors
from .modp import (
    EngineFault,
    bernoulli_mod_p,
    inv_mod,
    primes_in,
    zeta_mod_p,
    zeta_mod_p_naive,
    zeta_poly_mod_p,
)
from .series import const_series, geometric_yu, series_harmonic, series_shuffle, substitution_series
from .words import (
    NCPolynomial,
    _combine,
    concat,
    harmonic,
    in_h1,
    index_of_word,
    reverse_word,
    shuffle,
)


@dataclass(frozen=True)
class PrimeCheck:
    """Residues of both sides of one congruence at one prime."""

    p: int
    lhs: int
    rhs: int

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs


@dataclass
class CheckReport:
    """Verdict for one identity instance.

    Numeric reports carry one :class:`PrimeCheck` per prime of the window;
    the report passes when no prime at or above the floor disagrees.
    Symbolic reports carry a single exact verdict, with both sides rendered
    as strings on failure.
    """

    identity: str
    params: dict
    mode: str  # "numeric" | "symbolic"
    floor: int = 0
    results: list[PrimeCheck] = field(default_factory=list)
    equal: bool | None = None
    lhs: str | None = None
    rhs: str | None = None

    @property
    def passed(self) -> bool:
        if self.mode == "symbolic":
            return bool(self.equal)
        return self.failed_above_floor == 0

    @property
    def checked(self) -> int:
        return 1 if self.mode == "symbolic" else len(self.results)

    @property
    def failed_above_floor(self) -> int:
        if self.mode == "symbolic":
            return 0 if self.equal else 1
        return sum(1 for r in self.results if r.p >= self.floor and not r.ok)

    def subfloor_disagreements(self) -> list[PrimeCheck]:
        return [r for r in self.results if r.p < self.floor and not r.ok]

    def to_json_dict(self) -> dict:
        if self.mode == "symbolic":
            res: dict = {"equal": bool(self.equal)}
            if not self.equal:
                res["lhs"] = self.lhs
                res["rhs"] = self.rhs
        else:
            res = [
                {"p": r.p, "lhs": r.lhs, "rhs": r.rhs, "pass": r.ok} for r in self.results
            ]
        return {
            "identity": self.identity,
            "params": self.params,
            "floor": self.floor,
            "results": res,
            "summary": {
                "pass": self.passed,
                "checked": self.checked,
                "failed_above_floor": self.failed_above_floor,
            },
        }


def _window_primes(window: tuple[int, int], minimum: int = 2) -> list[int]:
    lo, hi = window
    ps = [p for p in primes_in(lo, hi) if p >= minimum]
    if not ps:
        raise ValueError(f"no usable primes in window [{lo}, {hi}]")
    return ps


# Cold-cache sweep work, in multiplications, below which a check runs
# serially whatever ``jobs`` says: starting and tearing down a 2-worker pool
# costs about 20 ms on a 2-vCPU host, so lighter checks finish sooner
# in-process, where their residues also stay memoized for later checks.
POOL_MIN_MULTS = 500_000


def _sweep_work(indices, primes: list[int]) -> int:
    # what evaluating every distinct index at every prime costs with cold
    # caches: (p - 1) * depth multiplications per (index, prime)
    return sum(map(len, set(indices))) * sum(p - 1 for p in primes)


def _poly_indices(*polys: NCPolynomial):
    return (index_of_word(w) for P in polys for w in P.terms if w)


def _evaluate(pair_fn, primes: list[int], jobs: int, indices) -> list[PrimeCheck]:
    # ``indices`` are the indices pair_fn evaluates at each prime.  More
    # workers than primes or cores only adds start-up cost, and under the
    # fork start method every requested worker is launched at once.
    workers = min(jobs, len(primes), os.cpu_count() or 1)
    if workers > 1 and _sweep_work(indices, primes) >= POOL_MIN_MULTS:
        chunk = max(1, len(primes) // (workers * 4))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            values = list(pool.map(pair_fn, primes, chunksize=chunk))
    else:
        values = [pair_fn(p) for p in primes]
    return [PrimeCheck(p, l % p, r % p) for p, (l, r) in zip(primes, values)]


def _confirm_failures(rows: list[PrimeCheck], floor: int, pair_fn) -> None:
    # Failures at or above the floor are re-derived with the brute-force
    # oracle; a disagreement with the fast path is an engine bug, not an
    # exceptional prime, and is raised loudly.
    for row in rows:
        if row.p >= floor and not row.ok:
            l2, r2 = pair_fn(row.p, zeta=zeta_mod_p_naive)
            if (l2 % row.p, r2 % row.p) != (row.lhs, row.rhs):
                raise EngineFault(
                    f"evaluator disagrees with brute-force oracle at p={row.p}: "
                    f"fast ({row.lhs}, {row.rhs}) vs oracle ({l2 % row.p}, {r2 % row.p})"
                )


# ---------------------------------------------------------------------------
# per-prime pair evaluators (module-level so they survive pickling)


def _pair_index_sums(lhs_groups, rhs_groups, p, zeta=zeta_mod_p):
    def side(groups):
        total = 0
        for sign, idxs in groups:
            s = 0
            for k in idxs:
                s += zeta(k, p)
            total += sign * s
        return total % p

    return side(lhs_groups), side(rhs_groups)


def _pair_lemma_value(poly_layers, p, zeta=zeta_mod_p):
    total = 0
    for i, poly in enumerate(poly_layers):
        v = zeta_poly_mod_p(poly, p, zeta=zeta)
        total += v if i % 2 == 0 else -v
    return total % p, 0


def _pair_key_lemma(index_layers, poly_layers, p, zeta=zeta_mod_p):
    total = 0
    for i, (idxs, poly) in enumerate(zip(index_layers, poly_layers)):
        s = sum(zeta(k, p) for k in idxs) % p
        bridge = zeta_poly_mod_p(poly, p, zeta=zeta)
        if s != bridge:
            raise EngineFault(
                f"term-level disagreement between the two lemma readings at "
                f"p={p}, layer {i}: {s} vs {bridge}"
            )
        total += s if i % 2 == 0 else -s
    return total % p, 0


def _pair_bridge(index_layers, poly_layers, p, zeta=zeta_mod_p):
    # n = 0 degenerate case: compare the two readings against each other.
    lhs = _pair_lemma_value(poly_layers, p, zeta=zeta)[0]
    rhs = 0
    for i, idxs in enumerate(index_layers):
        s = sum(zeta(k, p) for k in idxs) % p
        rhs += s if i % 2 == 0 else -s
    return lhs, rhs % p


def _pair_stuffle(harm_poly, k1, k2, p, zeta=zeta_mod_p):
    lhs = zeta_poly_mod_p(harm_poly, p, zeta=zeta)
    v1 = 1 if k1 is None else zeta(k1, p)
    v2 = 1 if k2 is None else zeta(k2, p)
    return lhs, v1 * v2 % p


def _pair_duality(shuf_poly, sign, ridx, p, zeta=zeta_mod_p):
    lhs = zeta_poly_mod_p(shuf_poly, p, zeta=zeta)
    return lhs, sign * zeta(ridx, p) % p


def _pair_bernoulli_formula(lhs_idxs, coef, coef_alt, weight, p, zeta=zeta_mod_p):
    lhs = sum(zeta(k, p) for k in lhs_idxs) % p
    scale = bernoulli_mod_p(weight, p) * inv_mod(weight, p) % p
    rhs = coef % p * scale % p
    rhs_alt = coef_alt % p * scale % p
    if rhs != rhs_alt:
        raise EngineFault(
            f"the two closed-form sign variants disagree at p={p}: {rhs} vs {rhs_alt}"
        )
    return lhs, rhs


# ---------------------------------------------------------------------------
# numeric checkers


def check_ohno(
    k: Sequence[int],
    n: int,
    window: tuple[int, int],
    floor: int | None = None,
    jobs: int = 1,
) -> CheckReport:
    """Shifted-sum relation: the n-shifted sum over ``k`` against the
    dualized n-shifted sum over the dual of ``k``, prime by prime."""
    k = Index(k)
    if n < 0:
        raise ValueError(f"shift must be >= 0, got {n}")
    if floor is None:
        floor = k.weight + n + 3
    kd = hoffman_dual(k)
    lhs_idx = tuple(add_componentwise(k, e) for e in weak_compositions(n, k.depth))
    rhs_idx = tuple(
        hoffman_dual(add_componentwise(kd, e)) for e in weak_compositions(n, kd.depth)
    )
    primes = _window_primes(window)
    pair = partial(_pair_index_sums, ((1, lhs_idx),), ((1, rhs_idx),))
    rows = _evaluate(pair, primes, jobs, lhs_idx + rhs_idx)
    _confirm_failures(rows, floor, pair)
    return CheckReport(
        identity="ohno",
        params={"index": list(k), "n": n, "primes": list(window)},
        mode="numeric",
        floor=floor,
        results=rows,
    )


def check_sum_formula(
    k: int,
    r: int,
    i: int,
    window: tuple[int, int],
    floor: int | None = None,
    jobs: int = 1,
) -> CheckReport:
    """Fixed weight/depth sum with one raised entry against its closed form
    in B_(p-k)/k.  Primes below k+2, where the closed form is undefined, are
    skipped."""
    if not 1 <= i <= r <= k - 1:
        raise ValueError(f"need 1 <= i <= r <= k-1, got k={k}, r={r}, i={i}")
    if floor is None:
        floor = k + 3
    base = Index([1] * (i - 1) + [2] + [1] * (r - i))
    lhs_idx = tuple(add_componentwise(base, e) for e in weak_compositions(k - r - 1, r))
    sign = -1 if (i - 1) % 2 else 1
    signr = -1 if r % 2 else 1
    signk = -1 if (k + 1) % 2 else 1
    coef = sign * (math.comb(k - 1, i - 1) + signr * math.comb(k - 1, r - i))
    coef_alt = sign * (signk * math.comb(k - 1, i - 1) + signr * math.comb(k - 1, r - i))
    primes = _window_primes(window, minimum=k + 2)
    pair = partial(_pair_bernoulli_formula, lhs_idx, coef, coef_alt, k)
    rows = _evaluate(pair, primes, jobs, lhs_idx)
    _confirm_failures(rows, floor, pair)
    return CheckReport(
        identity="sum-formula",
        params={"k": k, "r": r, "i": i, "primes": list(window)},
        mode="numeric",
        floor=floor,
        results=rows,
    )


def check_height_one(
    a: int,
    b: int,
    window: tuple[int, int],
    floor: int | None = None,
    jobs: int = 1,
) -> CheckReport:
    """Single harmonic sum over (1,...,1,2,1,...,1) with a leading and b
    trailing ones against its closed form in B_(p-w)/w, w = a+b+2."""
    if a < 0 or b < 0:
        raise ValueError(f"run lengths must be >= 0, got a={a}, b={b}")
    w = a + b + 2
    if floor is None:
        floor = w + 3
    idx = Index([1] * a + [2] + [1] * b)
    signb = -1 if (b + 1) % 2 else 1
    coef = signb * math.comb(w, b + 1)
    primes = _window_primes(window, minimum=w + 2)
    pair = partial(_pair_bernoulli_formula, (idx,), coef, coef, w)
    rows = _evaluate(pair, primes, jobs, (idx,))
    _confirm_failures(rows, floor, pair)
    return CheckReport(
        identity="height-one",
        params={"a": a, "b": b, "primes": list(window)},
        mode="numeric",
        floor=floor,
        results=rows,
    )


def check_stuffle_hom(
    w: str,
    wp: str,
    window: tuple[int, int],
    floor: int | None = None,
    jobs: int = 1,
) -> CheckReport:
    """Harmonic product maps to the product of values, prime by prime."""
    for word in (w, wp):
        if not in_h1(word):
            raise ValueError(f"word {word!r} must be empty or end in 'y'")
    if floor is None:
        floor = len(w) + len(wp) + 3
    harm = harmonic(NCPolynomial.from_word(w), NCPolynomial.from_word(wp))
    k1 = Index(index_of_word(w)) if w else None
    k2 = Index(index_of_word(wp)) if wp else None
    primes = _window_primes(window)
    pair = partial(_pair_stuffle, harm, k1, k2)
    rows = _evaluate(pair, primes, jobs, [*_poly_indices(harm), *filter(None, (k1, k2))])
    _confirm_failures(rows, floor, pair)
    return CheckReport(
        identity="stuffle",
        params={"w": w, "wp": wp, "primes": list(window)},
        mode="numeric",
        floor=floor,
        results=rows,
    )


def check_shuffle_duality(
    w: str,
    wp: str,
    window: tuple[int, int],
    floor: int | None = None,
    jobs: int = 1,
) -> CheckReport:
    """Shuffle product against the signed value of the block-reversed
    concatenation, prime by prime."""
    for word in (w, wp):
        if not word or not in_h1(word):
            raise ValueError(f"word {word!r} must be nonempty and end in 'y'")
    if floor is None:
        floor = len(w) + len(wp) + 3
    shuf = shuffle(NCPolynomial.from_word(w), NCPolynomial.from_word(wp))
    ridx = Index(index_of_word(reverse_word(w) + wp))
    sign = -1 if len(w) % 2 else 1
    primes = _window_primes(window)
    pair = partial(_pair_duality, shuf, sign, ridx)
    rows = _evaluate(pair, primes, jobs, [*_poly_indices(shuf), ridx])
    _confirm_failures(rows, floor, pair)
    return CheckReport(
        identity="duality",
        params={"w": w, "wp": wp, "primes": list(window)},
        mode="numeric",
        floor=floor,
        results=rows,
    )


def check_homogeneous_zero(
    a: int,
    r: int,
    window: tuple[int, int],
    floor: int | None = None,
    jobs: int = 1,
) -> CheckReport:
    """Vanishing of the harmonic sum over a constant index (a, ..., a)."""
    if a < 1 or r < 1:
        raise ValueError(f"need a >= 1 and r >= 1, got a={a}, r={r}")
    if floor is None:
        floor = a * r + 3
    idx = Index((a,) * r)
    primes = _window_primes(window)
    pair = partial(_pair_index_sums, ((1, (idx,)),), ())
    rows = _evaluate(pair, primes, jobs, (idx,))
    _confirm_failures(rows, floor, pair)
    return CheckReport(
        identity="homogeneous",
        params={"a": a, "r": r, "primes": list(window)},
        mode="numeric",
        floor=floor,
        results=rows,
    )


def lemma_word_layers(k: Sequence[int], n: int) -> tuple[NCPolynomial, ...]:
    """Layer i (0 <= i <= min(n, depth)) of the word-side lemma value:
    the unsigned sum over m+l = n-i of y^m times the bumped insertion words."""
    k = Index(k)
    layers = []
    for i in range(min(n, k.depth) + 1):
        terms = (
            concat(NCPolynomial.from_word("y" * m), bumped_insertion_words(k, n - i - m, i))
            for m in range(n - i + 1)
        )
        layers.append(_combine((1, t) for t in terms))
    return tuple(layers)


def lemma_index_layers(k: Sequence[int], n: int) -> tuple[tuple[Index, ...], ...]:
    """Layer i of the index-side lemma value: all ((k+bump)^dual + e)^dual
    over bumps of weight i and shift vectors e of weight n-i."""
    k = Index(k)
    layers = []
    for i in range(min(n, k.depth) + 1):
        idxs = []
        for lam in binary_vectors(k.depth, i):
            bumped_dual = hoffman_dual(add_componentwise(k, lam))
            for e in weak_compositions(n - i, bumped_dual.depth):
                idxs.append(hoffman_dual(add_componentwise(bumped_dual, e)))
        layers.append(tuple(idxs))
    return tuple(layers)


def check_lemma2(
    k: Sequence[int],
    n: int,
    window: tuple[int, int],
    floor: int | None = None,
    jobs: int = 1,
) -> CheckReport:
    """Signed word-side lemma value against zero, prime by prime.

    The stated identity needs n >= 1; n = 0 is accepted but degenerates, and
    is then checked against the index-side reading instead of zero.
    """
    k = Index(k)
    if n < 0:
        raise ValueError(f"shift must be >= 0, got {n}")
    if floor is None:
        floor = k.weight + n + 3
    params = {"index": list(k), "n": n, "primes": list(window)}
    polys = lemma_word_layers(k, n)
    indices = list(_poly_indices(*polys))
    primes = _window_primes(window)
    if n == 0:
        params["note"] = "n=0 is outside the stated range; comparing the two readings"
        idx_layers = lemma_index_layers(k, n)
        indices += [i for layer in idx_layers for i in layer]
        pair = partial(_pair_bridge, idx_layers, polys)
    else:
        pair = partial(_pair_lemma_value, polys)
    rows = _evaluate(pair, primes, jobs, indices)
    _confirm_failures(rows, floor, pair)
    return CheckReport(
        identity="lemma2",
        params=params,
        mode="numeric",
        floor=floor,
        results=rows,
    )


def check_key_lemma(
    k: Sequence[int],
    n: int,
    window: tuple[int, int],
    floor: int | None = None,
    jobs: int = 1,
) -> CheckReport:
    """Signed index-side lemma value against zero, prime by prime, asserting
    along the way that every layer agrees with the word-side reading."""
    k = Index(k)
    if n < 0:
        raise ValueError(f"shift must be >= 0, got {n}")
    if floor is None:
        floor = k.weight + n + 3
    params = {"index": list(k), "n": n, "primes": list(window)}
    idx_layers = lemma_index_layers(k, n)
    polys = lemma_word_layers(k, n)
    primes = _window_primes(window)
    if n == 0:
        params["note"] = "n=0 is outside the stated range; comparing the two readings"
        pair = partial(_pair_bridge, idx_layers, polys)
    else:
        pair = partial(_pair_key_lemma, idx_layers, polys)
    indices = [*_poly_indices(*polys), *(i for layer in idx_layers for i in layer)]
    rows = _evaluate(pair, primes, jobs, indices)
    _confirm_failures(rows, floor, pair)
    return CheckReport(
        identity="key-lemma",
        params=params,
        mode="numeric",
        floor=floor,
        results=rows,
    )


# ---------------------------------------------------------------------------
# symbolic checkers


def check_eq3(k: Sequence[int], n: int) -> CheckReport:
    """Exact polynomial equality of the two sides of the ones-expansion
    identity."""
    k = Index(k)
    lhs, rhs = ones_expansion_sides(k, n)
    equal = lhs == rhs
    return CheckReport(
        identity="eq3",
        params={"index": list(k), "n": n},
        mode="symbolic",
        floor=0,
        equal=equal,
        lhs=None if equal else str(lhs),
        rhs=None if equal else str(rhs),
    )


def check_ikz(w: str, order: int) -> CheckReport:
    """Exact equality, through the given truncation order, of the harmonic
    product of the geometric yu-series with a word against the shuffle
    product with the word's substitution series."""
    if not in_h1(w):
        raise ValueError(f"word {w!r} must be empty or end in 'y'")
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    geo = geometric_yu(order)
    lhs = series_harmonic(geo, const_series(NCPolynomial.from_word(w), order))
    rhs = series_shuffle(geo, substitution_series(w, order))
    equal = lhs == rhs
    return CheckReport(
        identity="ikz",
        params={"w": w, "order": order},
        mode="symbolic",
        floor=0,
        equal=equal,
        lhs=None if equal else str(lhs),
        rhs=None if equal else str(rhs),
    )

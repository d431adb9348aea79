"""Executable checkers for the identities this package verifies.

Symbolic checkers compare exact word polynomials or truncated series.
Numeric checkers compile their identity into a :class:`Plan` that does not
depend on the prime: two sides, each a sum of integer multiples of products
of harmonic sums, and at most one Bernoulli term on the right.  A word
polynomial becomes such a sum once, word by word, when the plan is built.
One evaluator, :func:`_pair`, computes a plan at a prime from that prime's
memo alone.

One table, :data:`CHECKS`, names every identity with its flags, its
builder and its weight, and :func:`check` runs one identity by name; the
CLI and the battery read the same table.  A numeric builder gives only its
report's params and its plan; :func:`instance` adds the identity's name and
the floor decided for it, and one runner, :func:`_run`, takes a batch of
such instances over one window; the battery passes each step's instances
as one batch.  One call of :func:`fmzv.modp.residues` fills the bounded
per-prime store with every residue and Bernoulli value the batch reads,
from the least minimum prime of its plans up, and as each prime arrives
every plan whose minimum it reaches is paired there.  Each instance is
reported on its own.

"Equal in the cofinite-equality ring" is operationalized as "equal at every
prime at or above the floor".  The floor is an option of the run, not of
the identity: :meth:`Check.floor` decides it once per instance, by default
its weight (shift included) + 3, and :func:`check` refuses a window with no
prime at or above it.  Sub-floor primes are still evaluated and reported,
but only :attr:`CheckReport.above_floor`, the rows at or above the floor,
can fail a check.  When a numeric comparison fails at or above the floor,
the prime is re-evaluated with the independent harmonic-sum oracle and a
freshly computed Bernoulli value before the failure is reported, so an
engine bug, or a wrong value in the store, cannot masquerade as a genuine
exceptional prime.

The lemma has an index reading and a word reading.  ``key-lemma`` compares
them exactly, layer by layer as multisets of indices, once per instance and
before any prime is evaluated; a difference is an engine fault.  Both lemma
checks then evaluate the word reading.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from functools import partial
from itertools import zip_longest
from typing import NamedTuple

from .generators import bumped_insertion_words, ones_expansion_sides
from .indices import (
    Index,
    add_componentwise,
    binary_vectors,
    hoffman_dual,
    parse_index,
    weak_compositions,
)
from .modp import (
    EngineFault,
    bernoulli_mod_p,
    check_window,
    inv_mod,
    is_prime,
    primes_in,
    residues,
    zeta_mod_p_naive,
)
from .series import const_series, geometric_yu, series_harmonic, series_shuffle, substitution_series
from .words import (
    NCPolynomial,
    _combine,
    check_word,
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
    def above_floor(self) -> list[PrimeCheck]:
        """The rows at or above the floor, the only ones that can fail; the
        rows ascend by prime, so the sub-floor rows are the ones before."""
        return [r for r in self.results if r.p >= self.floor]

    @property
    def failed_above_floor(self) -> int:
        if self.mode == "symbolic":
            return 0 if self.equal else 1
        return sum(1 for r in self.above_floor if not r.ok)

    def to_json_dict(self, rows: bool = True) -> dict:
        """The report as a JSON document.  Without ``rows`` a numeric
        report's "results" is None, for a renderer that formats the rows
        itself."""
        res: dict | list | None = None
        if self.mode == "symbolic":
            res = {"equal": bool(self.equal)}
            if not self.equal:
                res["lhs"] = self.lhs
                res["rhs"] = self.rhs
        elif rows:
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


Window = tuple[int, int]
# (c, indices): c times the product of the indices' harmonic sums
Term = tuple[int, tuple[tuple[int, ...], ...]]


@dataclass(frozen=True)
class Plan:
    """Both sides of one congruence, independent of the prime.

    A side is a sum of terms (c, indices), each worth c times the product
    of its indices' harmonic sums; an empty product is 1.  ``bernoulli =
    (w, c, c_alt)`` adds c * B_(p-w) / w to the right side, which is defined
    for p >= w + 2; c_alt is a sign variant of c that must give the same
    residue.
    """

    lhs: tuple[Term, ...]
    rhs: tuple[Term, ...] = ()
    bernoulli: tuple[int, int, int] | None = None

    def indices(self) -> list[tuple[int, ...]]:
        """The distinct indices the plan evaluates, in order of first use."""
        return list(dict.fromkeys(k for _, ks in self.lhs + self.rhs for k in ks))

    @property
    def minimum(self) -> int:
        """The least prime the plan is evaluated at."""
        return self.bernoulli[0] + 2 if self.bernoulli else 2


class Instance(NamedTuple):
    """One numeric identity instance, ready for :func:`_run`: its report's
    identity and params, its plan and its pass/fail floor."""

    identity: str
    params: dict
    plan: Plan
    floor: int


def _index_terms(indices: Iterable[tuple[int, ...]], sign: int = 1) -> tuple[Term, ...]:
    return tuple((sign, (k,)) for k in indices)


def _word_terms(poly: NCPolynomial, sign: int = 1) -> tuple[Term, ...]:
    # each word stands for its index's harmonic sum, the empty word for 1
    return tuple((sign * c, (index_of_word(w),) if w else ()) for w, c in poly.terms.items())


def _pair(plan: Plan, p: int, values: Mapping[tuple[int, ...] | int, int]) -> tuple[int, int]:
    """Residues of both sides of ``plan`` at p, read from ``values``, p's
    memo: the residue of each of its indices and, for a Bernoulli term of
    weight w, B_(p-w) keyed by p - w."""

    def side(terms):
        total = 0
        for c, ks in terms:
            for k in ks:
                c *= values[k]
            total += c
        return total % p

    lhs, rhs = side(plan.lhs), side(plan.rhs)
    if plan.bernoulli:
        w, c, c_alt = plan.bernoulli
        scale = values[p - w] * inv_mod(w, p) % p
        closed, closed_alt = c * scale % p, c_alt * scale % p
        if closed != closed_alt:
            raise EngineFault(
                f"the two closed-form sign variants disagree at p={p}: {closed} vs {closed_alt}"
            )
        rhs = (rhs + closed) % p
    return lhs, rhs


def _confirm_failures(plan: Plan, report: CheckReport) -> None:
    # Failures at or above the floor are re-derived with the independent
    # oracle and a Bernoulli value computed afresh, not read from the store;
    # a disagreement with the fast path is an engine bug, not an exceptional
    # prime, and is raised loudly.
    for row in report.above_floor:
        if not row.ok:
            oracle = {k: zeta_mod_p_naive(k, row.p) for k in plan.indices()}
            if plan.bernoulli:
                oracle[row.p - plan.bernoulli[0]] = bernoulli_mod_p(plan.bernoulli[0], row.p)
            l2, r2 = _pair(plan, row.p, oracle)
            if (l2, r2) != (row.lhs, row.rhs):
                raise EngineFault(
                    f"evaluator disagrees with brute-force oracle at p={row.p}: "
                    f"fast ({row.lhs}, {row.rhs}) vs oracle ({l2}, {r2})"
                )


def _run(instances: list[Instance], window: Window) -> list[CheckReport]:
    """Evaluate every instance's plan at each prime of one window from its
    minimum up and report each instance on its own, against its floor.  One
    fill of the store, from the least minimum up, serves the whole batch:
    each plan is paired at a prime as soon as the store holds it, so
    evicting an older prime never forces a sweep."""
    if not instances:
        return []
    lo, hi = window
    plans = [inst.plan for inst in instances]
    primes = primes_in(lo, hi)
    if not primes or primes[-1] < max(plan.minimum for plan in plans):
        raise ValueError(f"no usable primes in window [{lo}, {hi}]")
    start = min(plan.minimum for plan in plans)
    indices = (k for plan in plans for k in plan.indices())
    ws = (plan.bernoulli[0] for plan in plans if plan.bernoulli)
    rows_of: list[list[PrimeCheck]] = [[] for _ in plans]
    for p, values in residues(indices, [p for p in primes if p >= start], ws):
        for rows, plan in zip(rows_of, plans):
            if p >= plan.minimum:
                rows.append(PrimeCheck(p, *_pair(plan, p, values)))
    reports = []
    for inst, rows in zip(instances, rows_of):
        report = CheckReport(inst.identity, inst.params, "numeric", inst.floor, rows)
        _confirm_failures(inst.plan, report)
        reports.append(report)
    return reports


def _shifted_weight(k: Sequence[int], n: int) -> int:
    # the weight of every index of the n-shifted family over k
    return sum(k) + n


def _words_weight(w: str, wp: str) -> int:
    return len(w) + len(wp)


def _index_and_shift(k: Sequence[int], n: int) -> Index:
    k = Index(k)
    if n < 0:
        raise ValueError(f"shift must be >= 0, got {n}")
    return k


# ---------------------------------------------------------------------------
# numeric identities: each builder takes its flags' values and the window and
# gives its report's params and its plan


def ohno_plan(k: Sequence[int], n: int, window: Window) -> tuple[dict, Plan]:
    """Shifted-sum relation: the n-shifted sum over ``k`` against the
    dualized n-shifted sum over the dual of ``k``, prime by prime."""
    k = _index_and_shift(k, n)
    kd = hoffman_dual(k)
    plan = Plan(
        _index_terms(add_componentwise(k, e) for e in weak_compositions(n, k.depth)),
        _index_terms(
            hoffman_dual(add_componentwise(kd, e)) for e in weak_compositions(n, kd.depth)
        ),
    )
    return {"index": list(k), "n": n, "primes": list(window)}, plan


def sum_formula_plan(k: int, r: int, i: int, window: Window) -> tuple[dict, Plan]:
    """Fixed weight/depth sum with one raised entry against its closed form
    in B_(p-k)/k.  Primes below k+2, where the closed form is undefined, are
    skipped."""
    if not 1 <= i <= r <= k - 1:
        raise ValueError(f"need 1 <= i <= r <= k-1, got k={k}, r={r}, i={i}")
    base = Index([1] * (i - 1) + [2] + [1] * (r - i))
    sign = -1 if (i - 1) % 2 else 1
    signr = -1 if r % 2 else 1
    signk = -1 if (k + 1) % 2 else 1
    coef = sign * (math.comb(k - 1, i - 1) + signr * math.comb(k - 1, r - i))
    coef_alt = sign * (signk * math.comb(k - 1, i - 1) + signr * math.comb(k - 1, r - i))
    plan = Plan(
        _index_terms(add_componentwise(base, e) for e in weak_compositions(k - r - 1, r)),
        bernoulli=(k, coef, coef_alt),
    )
    return {"k": k, "r": r, "i": i, "primes": list(window)}, plan


def height_one_plan(a: int, b: int, window: Window) -> tuple[dict, Plan]:
    """Single harmonic sum over (1,...,1,2,1,...,1) with a leading and b
    trailing ones against its closed form in B_(p-w)/w, w = a+b+2."""
    if a < 0 or b < 0:
        raise ValueError(f"run lengths must be >= 0, got a={a}, b={b}")
    w = a + b + 2
    coef = (-1 if (b + 1) % 2 else 1) * math.comb(w, b + 1)
    plan = Plan(_index_terms([Index([1] * a + [2] + [1] * b)]), bernoulli=(w, coef, coef))
    return {"a": a, "b": b, "primes": list(window)}, plan


def stuffle_plan(w: str, wp: str, window: Window) -> tuple[dict, Plan]:
    """Harmonic product maps to the product of values, prime by prime."""
    for word in (w, wp):
        if not in_h1(word):
            raise ValueError(f"word {word!r} must be empty or end in 'y'")
    harm = harmonic(NCPolynomial.from_word(w), NCPolynomial.from_word(wp))
    values = tuple(index_of_word(word) for word in (w, wp) if word)
    return {"w": w, "wp": wp, "primes": list(window)}, Plan(_word_terms(harm), ((1, values),))


def duality_plan(w: str, wp: str, window: Window) -> tuple[dict, Plan]:
    """Shuffle product against the signed value of the block-reversed
    concatenation, prime by prime."""
    for word in (w, wp):
        if not word or not in_h1(word):
            raise ValueError(f"word {word!r} must be nonempty and end in 'y'")
    shuf = shuffle(NCPolynomial.from_word(w), NCPolynomial.from_word(wp))
    sign = -1 if len(w) % 2 else 1
    plan = Plan(_word_terms(shuf), _index_terms([index_of_word(reverse_word(w) + wp)], sign))
    return {"w": w, "wp": wp, "primes": list(window)}, plan


def homogeneous_plan(a: int, r: int, window: Window) -> tuple[dict, Plan]:
    """Vanishing of the harmonic sum over a constant index (a, ..., a)."""
    if a < 1 or r < 1:
        raise ValueError(f"need a >= 1 and r >= 1, got a={a}, r={r}")
    return {"a": a, "r": r, "primes": list(window)}, Plan(_index_terms([Index((a,) * r)]))


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


def lemma_plan(identity: str, k: Sequence[int], n: int, window: Window) -> tuple[dict, Plan]:
    """The signed lemma value against zero, prime by prime, for ``lemma2``
    (the word reading) or ``key-lemma`` (the index reading).  For key-lemma
    the index reading is first compared exactly with the word reading, layer
    by layer as multisets of indices; since they are equal, the value is
    then evaluated from the word reading, as for lemma2.

    The stated identity needs n >= 1; n = 0 is accepted but degenerates, and
    the two readings are then compared at every prime instead of against
    zero.
    """
    k = _index_and_shift(k, n)
    compare = identity == "key-lemma"
    params = {"index": list(k), "n": n, "primes": list(window)}
    polys = lemma_word_layers(k, n)
    word_side = tuple(t for i, P in enumerate(polys) for t in _word_terms(P, (-1) ** i))
    if compare or n == 0:
        idx_layers = lemma_index_layers(k, n)
    if compare:
        by_words = [Counter({index_of_word(w): c for w, c in P.terms.items()}) for P in polys]
        by_indices = [Counter(layer) for layer in idx_layers]
        for i, (a, b) in enumerate(zip_longest(by_words, by_indices)):
            if a != b:
                raise EngineFault(
                    f"the two lemma readings differ at layer {i} for k={list(k)}, n={n}"
                )
    index_side = ()
    if n == 0:
        params["note"] = "n=0 is outside the stated range; comparing the two readings"
        index_side = tuple(t for i, L in enumerate(idx_layers) for t in _index_terms(L, (-1) ** i))
    return params, Plan(word_side, index_side)


# ---------------------------------------------------------------------------
# symbolic identities: each checker takes its flags' values


def _symbolic(identity: str, params: dict, lhs: object, rhs: object) -> CheckReport:
    # the report of an exact equality check, carrying both sides if they differ
    equal = lhs == rhs
    return CheckReport(
        identity=identity,
        params=params,
        mode="symbolic",
        equal=equal,
        lhs=None if equal else str(lhs),
        rhs=None if equal else str(rhs),
    )


def check_eq3(k: Sequence[int], n: int) -> CheckReport:
    """Exact polynomial equality of the two sides of the ones-expansion
    identity."""
    k = Index(k)
    return _symbolic("eq3", {"index": list(k), "n": n}, *ones_expansion_sides(k, n))


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
    return _symbolic("ikz", {"w": w, "order": order}, lhs, rhs)


class Check(NamedTuple):
    """One identity of :data:`CHECKS`: its help line, its flags, each an
    (option, parser) pair, how it is built from the flags' values, and the
    weight of a numeric identity's instance from those values, or None for
    a symbolic identity.  A numeric identity's ``build`` also takes the
    window and gives the report's params and the :class:`Plan`; a symbolic
    one's gives the report itself."""

    help: str
    flags: tuple[tuple[str, Callable], ...]
    build: Callable
    weight: Callable | None

    @property
    def numeric(self) -> bool:
        return self.weight is not None

    def floor(self, values: Sequence, given: int | None = None) -> int:
        """The pass/fail floor of the numeric instance for ``values``:
        ``given``, or else its weight + 3."""
        return self.weight(*values) + 3 if given is None else given


_INDEX = ("--index", parse_index)
_N = ("--n", int)
_W = ("--w", check_word)
_WP = ("--wp", check_word)

# identity name -> Check; the ``fmzv check`` subcommands, :func:`check` and
# the battery all read this one table
CHECKS = {
    "ohno": Check("shifted-sum relation", (_INDEX, _N), ohno_plan, _shifted_weight),
    "sum-formula": Check(
        "fixed weight/depth sum vs closed form",
        (("--k", int), ("--r", int), ("--i", int)),
        sum_formula_plan,
        lambda k, r, i: k,
    ),
    "height-one": Check(
        "ones-padded double sum vs closed form", (("--a", int), ("--b", int)),
        height_one_plan, lambda a, b: a + b + 2,
    ),
    "stuffle": Check(
        "harmonic product vs product of values", (_W, _WP), stuffle_plan, _words_weight
    ),
    "duality": Check(
        "shuffle product vs signed reversed concatenation", (_W, _WP), duality_plan,
        _words_weight,
    ),
    "homogeneous": Check(
        "vanishing of a constant-index sum", (("--a", int), ("--r", int)),
        homogeneous_plan, lambda a, r: a * r,
    ),
    "lemma2": Check(
        "word-side lemma value vs zero", (_INDEX, _N), partial(lemma_plan, "lemma2"),
        _shifted_weight,
    ),
    "key-lemma": Check(
        "index-side lemma value vs zero", (_INDEX, _N), partial(lemma_plan, "key-lemma"),
        _shifted_weight,
    ),
    "eq3": Check("exact word identity (symbolic)", (_INDEX, _N), check_eq3, None),
    "ikz": Check("truncated series identity (symbolic)", (_W, ("--order", int)), check_ikz, None),
}


def instance(name: str, values: Sequence, window: Window, floor: int | None = None) -> Instance:
    """The instance of the numeric identity ``name`` of :data:`CHECKS` for
    ``values``, the values of its flags in order, over ``window``, carrying
    the pass/fail floor that :meth:`Check.floor` decides from ``floor``."""
    entry = CHECKS[name]
    return Instance(name, *entry.build(*values, window), entry.floor(values, floor))


def check(
    name: str, *values, window: Window | None = None, floor: int | None = None
) -> CheckReport:
    """Check the identity ``name`` of :data:`CHECKS` for ``values``, the
    values of its flags in order.  A numeric identity is evaluated in this
    process at every usable prime of ``window``, and passes when no prime
    at or above ``floor`` (default: its weight + 3) disagrees; a window
    with no prime at or above that floor is refused with ValueError before
    the identity's plan is built, as is a window that the sieve would
    refuse.  A symbolic identity ignores window and floor."""
    entry = CHECKS[name]
    if not entry.numeric:
        return entry.build(*values)
    if window is None:
        raise ValueError(f"check {name} needs a prime window")
    lo, hi = check_window(*window)
    at = entry.floor(values, floor)
    # a prime gap bounds this scan, wherever the window lies
    if not any(map(is_prime, range(max(lo, at), hi + 1))):
        raise ValueError(f"no prime of the window [{lo}, {hi}] reaches the floor {at}")
    # handed the decided floor, instance does not work it out again
    return _run([instance(name, values, window, at)], window)[0]

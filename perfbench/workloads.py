"""Seeded request lists for the benchmark's workloads.

Every request is an argv list for ``fmzv.cli.main``.  The lists depend only
on the seed, never on the package under test, so the same seed gives
byte-identical requests on every commit.

Each command appears the same number of times.  Its parameters are evenly
spaced picks from its parameter list, taken in the battery's own loop order
(weight, then depth, then shift), so they are the same for every seed.  The
seed draws the windows and the order of the requests.  A command with a
window runs each of its picks at ``k`` windows spread evenly over the range
from a random offset (systematic sampling): the pick meets one window in
each ``k``-th of the range, at a point the seed draws, and a second pick
meets the mirror images of the first one's windows.  Each window is thus
uniform and independent of its parameter, while the largest and the total
work a parameter brings vary little from seed to seed; with independent
windows the tail latency spread between seeds reached the benchmark's
bounds.
"""

from __future__ import annotations

import hashlib
import json
import random
from itertools import combinations

SMALL_P_COMMANDS = (
    "ohno", "sum-formula", "height-one", "stuffle", "duality", "homogeneous",
    "lemma2", "key-lemma", "eq3", "ikz", "zeta", "bernoulli",
)
LARGE_P_COMMANDS = (
    "ohno", "lemma2", "key-lemma", "stuffle", "duality", "homogeneous", "zeta",
)
SYMBOLIC = frozenset({"eq3", "ikz"})
# commands that are not `fmzv check` subcommands and take no --jobs
VALUE_COMMANDS = frozenset({"zeta", "bernoulli"})

# LO of each window: the value the README example uses for that command
README_LO = {
    "ohno": 5, "sum-formula": 11, "height-one": 5, "stuffle": 9, "duality": 9,
    "homogeneous": 2, "lemma2": 11, "key-lemma": 11, "zeta": 5, "bernoulli": 5,
}

SMALL_P_PER_COMMAND = 20  # 240 requests
LARGE_P_PER_COMMAND = 10  # 70 requests
# windows per parameter pick, so a windowed command has one pick, the middle
# of its list, on small-p and two on large-p.  Fewer windows per pick leave
# the tail to the draw of a heavy pick's top window: on 20 seeds small-p's
# p95 spread was 0.16 with 5 picks of 4 windows, and a latency model fitted
# to measured runs put large-p's p50 spread between seeds at 0.10 with 2
# windows per pick against 0.05 with 5.
SMALL_P_SPREAD = 20
LARGE_P_SPREAD = 5
SMALL_HI_RANGE = (100, 500)
LARGE_START_RANGE = (10**4, 10**5)
LARGE_WINDOW_PRIMES = 4


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def next_prime(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


def compositions(max_weight: int, max_depth: int | None = None) -> list[tuple[int, ...]]:
    """Every index of weight 1..max_weight, by weight, then depth, then
    lexicographic order."""
    out = []
    for w in range(1, max_weight + 1):
        for r in range(1, w + 1):
            if max_depth is not None and r > max_depth:
                break
            for cuts in combinations(range(1, w), r - 1):
                bounds = (0,) + cuts + (w,)
                out.append(tuple(b - a for a, b in zip(bounds, bounds[1:])))
    return out


def h1_words(max_weight: int) -> list[str]:
    """Nonempty words of length <= max_weight that end in y."""
    return ["".join("x" * (p - 1) + "y" for p in k) for k in compositions(max_weight)]


def _fmt(k: tuple[int, ...]) -> str:
    return ",".join(map(str, k))


def _word_pairs(max_len: int) -> list[tuple[str, str]]:
    words = h1_words(max_len - 1)
    return [(w, wp) for w in words for wp in words if len(w) + len(wp) <= max_len]


def _index_shift(max_weight: int, shifts: range) -> list[list[str]]:
    return [
        ["--index", _fmt(k), "--n", str(n)] for k in compositions(max_weight) for n in shifts
    ]


def _pairs(max_len: int) -> list[list[str]]:
    return [["--w", w, "--wp", wp] for w, wp in _word_pairs(max_len)]


def _homogeneous() -> list[list[str]]:
    return [["--a", str(a), "--r", str(r)] for a in range(1, 4) for r in range(1, 5)]


def _zeta() -> list[list[str]]:
    return [["--index", _fmt(k)] for k in compositions(6, max_depth=3)]


def _small_p_params() -> dict[str, list[list[str]]]:
    """Parameter lists over the battery's own ranges, in its loop order."""
    return {
        "ohno": _index_shift(7, range(0, 4)),
        "sum-formula": [
            ["--k", str(k), "--r", str(r), "--i", str(i)]
            for k in range(3, 10) for r in range(1, k) for i in range(1, r + 1)
        ],
        "height-one": [
            ["--a", str(a), "--b", str(b)] for a in range(0, 6) for b in range(0, 6 - a)
        ],
        "stuffle": _pairs(6),
        "duality": _pairs(6),
        "homogeneous": _homogeneous(),
        "lemma2": _index_shift(5, range(1, 4)),
        "key-lemma": _index_shift(5, range(1, 4)),
        "eq3": _index_shift(6, range(0, 4)),
        "ikz": [["--w", w, "--order", "4"] for w in h1_words(5)],
        "zeta": _zeta(),
        "bernoulli": [["--k", str(k)] for k in range(2, 10)],
    }


def _large_p_params() -> dict[str, list[list[str]]]:
    """Smaller parameter ranges: at p near 10^5 one sweep per index and
    prime costs O(p * depth), so a request stays around a second."""
    return {
        "ohno": _index_shift(4, range(0, 3)),
        "lemma2": _index_shift(3, range(1, 3)),
        "key-lemma": _index_shift(3, range(1, 3)),
        "stuffle": _pairs(4),
        "duality": _pairs(4),
        "homogeneous": _homogeneous(),
        "zeta": _zeta(),
    }


def _evenly_spaced(items: list, count: int) -> list:
    """The middle item of each of ``count`` equal slices of ``items``."""
    return [items[min(len(items) - 1, (2 * j + 1) * len(items) // (2 * count))] for j in range(count)]


def _systematic(rng: random.Random, items: list, count: int, k: int) -> list:
    """``count // k`` groups of ``k`` items: each group takes the items at
    an offset in each ``k``-th of ``items``.  Groups come in pairs whose
    offsets are u and 1 - u, u drawn uniformly, so that the positions of a
    pair sum to the same total for every seed."""
    picks = []
    for g in range(count // k):
        u = rng.random() if g % 2 == 0 else 1 - u
        picks += [items[min(len(items) - 1, int((u + j) * len(items) / k))] for j in range(k)]
    return picks


def _repeated(items: list, count: int, k: int) -> list:
    """``count // k`` evenly spaced picks from ``items``, each given ``k``
    times."""
    return [item for item in _evenly_spaced(items, count // k) for _ in range(k)]


def _argv(command: str, params: list[str], window: str | None) -> list[str]:
    argv = ([command] if command in VALUE_COMMANDS else ["check", command]) + params
    if window is not None:
        argv += ["--primes", window]
    if command not in SYMBOLIC and command not in VALUE_COMMANDS:
        argv += ["--jobs", "2"]
    return argv + ["--format", "json"]


def small_p_requests(seed: int) -> list[list[str]]:
    """`checks-small-p`: 20 requests for each of 12 commands; windows
    README-LO:HI with HI the first prime from a point in [100, 500)."""
    rng = random.Random(f"checks-small-p/{seed}")
    his = range(*SMALL_HI_RANGE)
    params = _small_p_params()
    n = SMALL_P_PER_COMMAND
    requests = []
    for command in SMALL_P_COMMANDS:
        if command in SYMBOLIC:
            requests += [_argv(command, args, None) for args in _evenly_spaced(params[command], n)]
            continue
        picks = _repeated(params[command], n, SMALL_P_SPREAD)
        for args, hi in zip(picks, _systematic(rng, his, n, SMALL_P_SPREAD)):
            requests.append(_argv(command, args, f"{README_LO[command]}:{next_prime(hi)}"))
    rng.shuffle(requests)
    return requests


def _large_p_window(start: int) -> str:
    lo = next_prime(start)
    hi = lo
    for _ in range(LARGE_WINDOW_PRIMES - 1):
        hi = next_prime(hi + 1)
    return f"{lo}:{hi}"


def large_p_requests(seed: int) -> list[list[str]]:
    """`checks-large-p`: 10 requests for each of 7 commands; each window is
    4 consecutive primes from a start point in [10^4, 10^5]."""
    rng = random.Random(f"checks-large-p/{seed}")
    params = _large_p_params()
    starts = range(LARGE_START_RANGE[0], LARGE_START_RANGE[1] + 1)
    n = LARGE_P_PER_COMMAND
    requests = []
    for command in LARGE_P_COMMANDS:
        picks = _repeated(params[command], n, LARGE_P_SPREAD)
        for args, start in zip(picks, _systematic(rng, starts, n, LARGE_P_SPREAD)):
            requests.append(_argv(command, args, _large_p_window(start)))
    rng.shuffle(requests)
    return requests


def digest(requests: list[list[str]]) -> str:
    """sha256 of the request list, as canonical JSON."""
    return hashlib.sha256(json.dumps(requests).encode()).hexdigest()

"""Span tracing around calls into the package's public functions.

A ``sys.setprofile`` hook watches a fixed set of code objects and records one
span per call: (name, start, end, parent, pid), where ``parent`` is the
position of the enclosing span of the same process, or -1.  Watching code
objects instead of rebinding module attributes also catches calls made
through references bound at import time, such as the ``zeta=zeta_mod_p``
default arguments of the pair evaluators in ``fmzv.verify``.

Calls answered by an ``lru_cache`` never enter the wrapped function and raise
no profile event, so for a cached function (``zeta_mod_p``,
``inverse_table``) only cache misses become spans.  The hits of
``zeta_mod_p`` are read from ``cache_info()`` and added to its call count.

Fork-started pool workers inherit the tracer.  A hook registered with
``multiprocessing.util.register_after_fork`` resets it in the child, and a
``multiprocessing.util.Finalize`` writes the child's spans to a file when the
worker exits; the parent merges those files after the pool has shut down.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import pool as mp_pool
from multiprocessing import util as mp_util
from pathlib import Path
from types import CodeType

# (span name, module, attribute) of every watched function.  A name given to
# several functions sums them; a missing attribute is skipped, and its
# metrics read 0.
WATCHED = (
    ("modp.zeta_mod_p", "fmzv.modp", "zeta_mod_p"),
    ("modp.bernoulli_mod_p", "fmzv.modp", "bernoulli_mod_p"),
    ("modp.primes_in", "fmzv.modp", "primes_in"),
    ("modp.inverse_table", "fmzv.modp", "inverse_table"),
    ("modp.zeta_mod_p_naive", "fmzv.modp", "zeta_mod_p_naive"),
    ("modp.zeta_poly_mod_p", "fmzv.modp", "zeta_poly_mod_p"),
    ("words.harmonic", "fmzv.words", "harmonic"),
    ("words.shuffle", "fmzv.words", "shuffle"),
    ("words.concat", "fmzv.words", "concat"),
    ("series.series_harmonic", "fmzv.series", "series_harmonic"),
    ("series.series_shuffle", "fmzv.series", "series_shuffle"),
    ("series.substitution_series", "fmzv.series", "substitution_series"),
    ("generators.ones_expansion_sides", "fmzv.generators", "ones_expansion_sides"),
    ("generators.bumped_insertion_words", "fmzv.generators", "bumped_insertion_words"),
    ("indices.hoffman_dual", "fmzv.indices", "hoffman_dual"),
    ("verify.lemma_word_layers", "fmzv.verify", "lemma_word_layers"),
    ("verify.lemma_index_layers", "fmzv.verify", "lemma_index_layers"),
    ("cli.main", "fmzv.cli", "main"),
    ("cli.build_parser", "fmzv.cli", "build_parser"),
    ("cli.render", "fmzv.cli", "render_json"),
    ("cli.render", "fmzv.cli", "render_table"),
    ("cli.render", "fmzv.cli", "render_csv"),
) + tuple(
    (f"verify.{fn}", "fmzv.verify", fn)
    for fn in (
        "check_ohno", "check_sum_formula", "check_height_one", "check_stuffle_hom",
        "check_shuffle_duality", "check_homogeneous_zero", "check_lemma2",
        "check_key_lemma", "check_eq3", "check_ikz",
    )
)
CHECKERS = tuple(name for name, _, attr in WATCHED if attr.startswith("check_"))
POOL_SPAN = "verify.pool_start"

# spans of pool constructors count the pools the package starts
_POOL_CODES = (ProcessPoolExecutor.__init__.__code__, mp_pool.Pool.__init__.__code__)


def _code_of(obj) -> CodeType | None:
    fn = inspect.unwrap(obj)
    return getattr(fn, "__code__", None)


def _zeta_hits() -> int:
    """Hits so far of the zeta_mod_p cache in this process, or 0 when the
    function has no lru_cache."""
    info = getattr(getattr(sys.modules.get("fmzv.modp"), "zeta_mod_p", None), "cache_info", None)
    return info().hits if info else 0


class Tracer:
    """Records spans for the watched functions of the currently imported
    ``fmzv`` modules.  Build one after each fresh import."""

    def __init__(self, spool: Path):
        self.spool = spool
        self.names: dict[CodeType, str] = {code: POOL_SPAN for code in _POOL_CODES}
        for name, module, attr in WATCHED:
            obj = getattr(sys.modules.get(module), attr, None)
            code = _code_of(obj) if obj is not None else None
            if code is not None:
                self.names[code] = name
        self.sweep_code = _code_of(getattr(sys.modules.get("fmzv.modp"), "zeta_mod_p", None))
        self.active = False
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: list[list] = []
        self.stack: list[tuple[object, int]] = []
        self.sweep_mults = 0
        self.hits_base = _zeta_hits()

    def _hook(self, frame, event, arg):
        code = frame.f_code
        name = self.names.get(code)
        if name is None:
            return
        if event == "call":
            parent = self.stack[-1][1] if self.stack else -1
            self.stack.append((frame, len(self.spans)))
            self.spans.append([name, time.perf_counter(), 0.0, parent, self.pid])
            if code is self.sweep_code:
                # an exact count of the sweep's inner steps: (p - 1) * depth
                local = frame.f_locals
                r, p = len(local["k"]), local["p"]
                if r < p:
                    self.sweep_mults += (p - 1) * r
        elif event == "return" and self.stack and self.stack[-1][0] is frame:
            self.spans[self.stack.pop()[1]][2] = time.perf_counter()

    def start(self) -> None:
        self.active = True
        mp_util.register_after_fork(self, Tracer._after_fork)
        sys.setprofile(self._hook)

    def stop(self) -> None:
        sys.setprofile(None)
        self.active = False

    def _after_fork(self) -> None:
        # runs in a fork-started worker: forget the parent's spans and stack
        if not self.active:
            return
        self._reset()
        sys.setprofile(self._hook)
        mp_util.Finalize(self, self._flush_worker, exitpriority=100)

    def _flush_worker(self) -> None:
        sys.setprofile(None)
        hits = _zeta_hits() - self.hits_base
        doc = {"spans": self.spans, "sweep_mults": self.sweep_mults, "hits": hits}
        tmp = self.spool / f"{self.pid}.tmp"
        tmp.write_text(json.dumps(doc))
        tmp.rename(self.spool / f"{self.pid}.json")

    def collect(self) -> dict:
        """The parent's spans plus every finished worker's, worker files
        removed."""
        spans = list(self.spans)
        sweep_mults = self.sweep_mults
        hits = _zeta_hits() - self.hits_base
        for path in sorted(self.spool.glob("*.json")):
            doc = json.loads(path.read_text())
            spans += _reparent(doc["spans"], len(spans))
            sweep_mults += doc["sweep_mults"]
            hits += doc["hits"]
            path.unlink()
        return {"spans": spans, "sweep_mults": sweep_mults, "hits": hits}


def _reparent(spans: list[list], offset: int) -> list[list]:
    return [[n, s, e, p + offset if p >= 0 else -1, pid] for n, s, e, p, pid in spans]


def layer_units() -> dict[str, str]:
    """Name and unit of every metric :func:`layer_metrics` reports."""
    units = {}
    for name in sorted({n for n, _, _ in WATCHED}):
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
    units.update({
        "modp.zeta_mod_p.sweeps": "count",
        "modp.zeta_mod_p.hit_ratio": "ratio",
        "modp.sweep_mults": "count",
        "verify.pool_starts": "count",
        "verify.check.self_s": "s",
    })
    return units


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer counts and busy times from merged spans.

    A name's busy time counts only its outermost spans, so a recursive or
    re-entrant call is not counted twice.
    """
    spans = trace["spans"]
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    child_time = [0.0] * len(spans)
    for i, (name, start, end, parent, _pid) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        if parent >= 0:
            child_time[parent] += end - start
        if not _has_ancestor(spans, parent, name):
            busy[name] = busy.get(name, 0.0) + (end - start)
    check_self = sum(
        (end - start) - child_time[i]
        for i, (name, start, end, _p, _pid) in enumerate(spans)
        if name in CHECKERS
    )
    hits = trace["hits"]
    sweeps = calls.get("modp.zeta_mod_p", 0)
    out = {}
    for name in {n for n, _, _ in WATCHED}:
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.s"] = busy.get(name, 0.0)
    out.update({
        "modp.zeta_mod_p.calls": sweeps + hits,
        "modp.zeta_mod_p.sweeps": sweeps,
        "modp.zeta_mod_p.hit_ratio": hits / (sweeps + hits) if sweeps + hits else 0.0,
        "modp.sweep_mults": trace["sweep_mults"],
        "verify.pool_starts": calls.get(POOL_SPAN, 0),
        "verify.check.self_s": check_self,
    })
    return out


def _has_ancestor(spans: list[list], parent: int, name: str) -> bool:
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def write_spans(path: Path, trace: dict) -> None:
    """One JSON array per line: name, start, end, parent, pid."""
    with path.open("w", encoding="utf-8") as fh:
        for span in trace["spans"]:
            fh.write(json.dumps(span) + "\n")

import multiprocessing
import os
from collections import Counter

import pytest

import fmzv.modp
import fmzv.verify
import fmzv.suite
from fmzv.cli import main, render_table
from fmzv.indices import Index
from fmzv.modp import EngineFault, zeta_mod_p
from fmzv.verify import (
    CheckReport,
    PrimeCheck,
    _confirm_failures,
    check,
    check_eq3,
    check_ikz,
    instance,
    lemma_index_layers,
    lemma_word_layers,
)
from fmzv.suite import all_indices
from fmzv.words import index_of_word

from oracles import zeta_brute, zeta_poly_mod_p


def test_ohno_trivial_shift():
    rep = check("ohno", Index((2, 1)), 0, window=(5, 100))
    assert rep.passed
    assert all(r.lhs == r.rhs for r in rep.results)


def test_ohno_examples():
    rep = check("ohno", Index((2,)), 1, window=(7, 200))
    assert rep.passed
    assert all(r.lhs == 0 and r.rhs == 0 for r in rep.results)
    rep = check("ohno", Index((2, 1)), 1, window=(5, 200))
    assert rep.passed
    assert rep.floor == 3 + 1 + 3


def test_ohno_subfloor_reported_not_failed():
    rep = check("ohno", Index((2,)), 1, window=(2, 50))
    assert rep.passed
    assert any(r.p == 2 for r in rep.results)
    subs = [r for r in rep.results if r.p < rep.floor and not r.ok]
    assert all(r.p < rep.floor for r in subs)


def test_sum_formula_spot():
    rep = check("sum-formula", 3, 2, 1, window=(5, 5), floor=5)
    assert rep.results == [PrimeCheck(5, 1, 1)]
    rep = check("sum-formula", 3, 2, 2, window=(5, 5), floor=5)
    assert rep.results == [PrimeCheck(5, 4, 4)]
    rep = check("sum-formula", 6, 3, 2, window=(11, 300))
    assert rep.passed
    assert all(r.rhs == 0 for r in rep.results if r.p >= 9)


def test_sum_formula_validation():
    for k, r, i in [(3, 3, 1), (3, 2, 0), (2, 2, 1), (4, 2, 3)]:
        with pytest.raises(ValueError):
            check("sum-formula", k, r, i, window=(5, 50))
    # no prime where the closed form is defined
    with pytest.raises(ValueError):
        check("sum-formula", 9, 2, 1, window=(2, 7))


def test_height_one_examples():
    rep = check("height-one", 0, 0, window=(5, 100))
    assert rep.passed
    assert all(r.lhs == 0 and r.rhs == 0 for r in rep.results)
    rep = check("height-one", 1, 0, window=(5, 5), floor=5)
    assert rep.results == [PrimeCheck(5, 4, 4)]
    rep = check("height-one", 0, 1, window=(5, 5), floor=5)
    assert rep.results == [PrimeCheck(5, 1, 1)]
    with pytest.raises(ValueError):
        check("height-one", -1, 0, window=(5, 50))


def test_height_one_matches_sum_formula_column():
    left = check("height-one", 1, 1, window=(7, 120)).results
    # a=1, b=1 is the k=4, r=3, i=2 column with no extra shift
    right = check("sum-formula", 4, 3, 2, window=(7, 120)).results
    assert left == right


def test_stuffle_examples():
    rep = check("stuffle", "y", "xy", window=(7, 7))
    assert rep.passed and rep.results[0].lhs == 0
    rep = check("stuffle", "y", "", window=(2, 60))
    assert rep.passed
    rep = check("stuffle", "y", "y", window=(3, 97))
    assert rep.passed
    with pytest.raises(ValueError):
        check("stuffle", "yx", "y", window=(2, 50))


def test_duality_examples():
    rep = check("duality", "y", "xy", window=(2, 200))
    assert rep.passed and rep.failed_above_floor == 0
    rep = check("duality", "y", "y", window=(2, 200))
    assert rep.passed
    with pytest.raises(ValueError):
        check("duality", "y", "", window=(2, 50))
    with pytest.raises(ValueError):
        check("duality", "xy", "yx", window=(2, 50))


def test_homogeneous_examples():
    rep = check("homogeneous", 1, 2, window=(5, 5))
    assert rep.results[0].lhs == 0
    rep = check("homogeneous", 2, 1, window=(5, 5))
    assert rep.results[0].lhs == 0
    rep = check("homogeneous", 1, 5, window=(2, 5), floor=2)
    assert all(r.lhs == 0 for r in rep.results if r.p <= 5)
    with pytest.raises(ValueError):
        check("homogeneous", 0, 1, window=(2, 50))


def test_lemma_checks_match_and_vanish():
    for k, n in [((1,), 1), ((2,), 1), ((1,), 2), ((2, 1), 1), ((2,), 2)]:
        window = (sum(k) + n + 3, 200)
        rep2 = check("lemma2", Index(k), n, window=window)
        repk = check("key-lemma", Index(k), n, window=window)
        assert rep2.passed and repk.passed
        assert [(r.p, r.lhs) for r in rep2.results] == [(r.p, r.lhs) for r in repk.results]


def test_lemma_layers_agree_per_prime():
    # the two readings agree exactly, layer by layer as multisets of indices,
    # so they agree at every prime
    layers = 0
    for k in all_indices(6):
        for n in range(4):
            polys = lemma_word_layers(k, n)
            idxs = lemma_index_layers(k, n)
            assert len(polys) == len(idxs) == min(n, k.depth) + 1
            for poly, layer in zip(polys, idxs):
                assert all(c > 0 for c in poly.terms.values())
                words = Counter({index_of_word(w): c for w, c in poly.terms.items()})
                assert words == Counter(layer), (k, n)
                layers += 1
    assert layers == 597


def test_lemma_first_layer_is_hand_expansion():
    # for k=(1), n=1 the value collapses to zeta(1,1) - zeta(2)
    polys = lemma_word_layers(Index((1,)), 1)
    for p in (7, 11, 13):
        value = zeta_poly_mod_p(polys[0], p) - zeta_poly_mod_p(polys[1], p)
        expect = zeta_brute((1, 1), p) - zeta_brute((2,), p)
        assert value % p == expect % p


def test_lemma_value_equals_signed_product_at_every_prime():
    # the word identity plus the exact per-prime duality and product rules
    # pin the signed lemma value to zeta(1^n) * zeta(k), even below the floor
    from fmzv.modp import primes_in

    for k, n in [((2,), 1), ((2, 1), 2), ((1, 2), 3), ((3,), 2)]:
        layers = lemma_word_layers(Index(k), n)
        for p in primes_in(2, 60):
            value = 0
            for i, poly in enumerate(layers):
                v = zeta_poly_mod_p(poly, p)
                value += v if i % 2 == 0 else -v
            lhs = (-1) ** n * value % p
            rhs = zeta_mod_p(Index((1,) * n), p) * zeta_mod_p(Index(k), p) % p
            assert lhs == rhs, (k, n, p)


def test_lemma_accepts_degenerate_shift():
    rep = check("lemma2", Index((2,)), 0, window=(7, 60))
    assert rep.passed and "note" in rep.params
    repk = check("key-lemma", Index((2,)), 0, window=(7, 60))
    assert repk.passed and "note" in repk.params
    with pytest.raises(ValueError):
        check("lemma2", Index((2,)), -1, window=(7, 60))


def test_ohno_implies_sum_formula_columns():
    # the shifted-sum relation at (1,...,2,...,1) reproduces the sum-formula
    # left side, prime by prime
    for kw, r, i in [(5, 2, 1), (6, 3, 2), (7, 3, 1)]:
        base = Index([1] * (i - 1) + [2] + [1] * (r - i))
        n = kw - r - 1
        ohno = check("ohno", base, n, window=(kw + 3, 150))
        sf = check("sum-formula", kw, r, i, window=(kw + 3, 150))
        assert [(x.p, x.lhs) for x in ohno.results] == [(x.p, x.lhs) for x in sf.results]
        # and the dual side equals the closed form, so it matches the rhs too
        assert [(x.p, x.rhs) for x in ohno.results] == [(x.p, x.rhs) for x in sf.results]


def test_symbolic_checks():
    rep = check_eq3(Index((2, 1)), 2)
    assert rep.passed and rep.mode == "symbolic" and rep.checked == 1
    rep = check_ikz("xy", 2)
    assert rep.passed
    rep = check_ikz("", 3)
    assert rep.passed
    with pytest.raises(ValueError):
        check_ikz("yx", 2)
    with pytest.raises(ValueError):
        check_ikz("y", -1)


def test_check_by_name():
    assert check("eq3", Index((2, 1)), 2) == check_eq3(Index((2, 1)), 2)
    assert check("ikz", "xy", 2) == check_ikz("xy", 2)
    with pytest.raises(ValueError):
        check("ohno", Index((2,)), 1)  # a numeric identity needs a window
    rep = check("homogeneous", 1, 1, window=(2, 30), floor=2)
    assert rep.floor == 2 and not rep.passed
    assert check("homogeneous", 1, 1, window=(2, 30)).floor == 4
    # a floor above the window would leave every prime sub-floor
    with pytest.raises(ValueError):
        check("ohno", Index((2, 1)), 1, window=(5, 20), floor=50)
    with pytest.raises(ValueError):
        check("homogeneous", 1, 1, window=(2, 30), floor=100)


def test_report_shapes():
    rep = check("ohno", Index((2,)), 1, window=(5, 30))
    doc = rep.to_json_dict()
    assert list(doc) == ["identity", "params", "floor", "results", "summary"]
    assert doc["summary"] == {
        "pass": True,
        "checked": len(rep.results),
        "failed_above_floor": 0,
    }
    assert all(list(row) == ["p", "lhs", "rhs", "pass"] for row in doc["results"])

    sym = check_eq3(Index((1,)), 1).to_json_dict()
    assert sym["results"] == {"equal": True}

    failing = CheckReport(
        identity="eq3", params={}, mode="symbolic", equal=False, lhs="1*x", rhs="1*y"
    )
    doc = failing.to_json_dict()
    assert doc["results"] == {"equal": False, "lhs": "1*x", "rhs": "1*y"}
    assert not failing.passed and failing.failed_above_floor == 1


def test_report_pass_semantics():
    rows = [PrimeCheck(3, 1, 0), PrimeCheck(7, 2, 2), PrimeCheck(11, 1, 3)]
    rep = CheckReport(identity="t", params={}, mode="numeric", floor=5, results=rows)
    assert not rep.passed
    assert rep.failed_above_floor == 1
    assert [r for r in rep.results if r.p < rep.floor and not r.ok] == [rows[0]]
    rep_ok = CheckReport(identity="t", params={}, mode="numeric", floor=5, results=rows[:2])
    assert rep_ok.passed


@pytest.mark.parametrize("p, counts", [(11, True), (7, False)], ids=["at-floor", "just-below"])
def test_a_row_counts_from_the_floor_up(monkeypatch, p, counts):
    # floor 11: a row at p = 11 counts for every reader of the report, a row
    # at 7, the prime just below it, for none
    floor = 11
    rep = CheckReport("homogeneous", {"a": 1, "r": 1}, "numeric", floor, [PrimeCheck(p, 1, 0)])
    assert (rep.above_floor != [], rep.failed_above_floor, rep.passed) == (counts, counts, not counts)
    # the failure is re-checked by the oracle, which here agrees with it
    seen = []
    monkeypatch.setattr(fmzv.verify, "zeta_mod_p_naive", lambda k, q: seen.append(q) or 1)
    _confirm_failures(fmzv.verify.homogeneous_plan(1, 1, (2, 11))[1], rep)
    assert seen == [p] * counts
    # the table lists it under "checked primes" or as sub-floor
    lines = render_table(rep).splitlines()
    assert lines[2] == ("checked primes:" if counts else "sub-floor primes (informative):")
    assert lines[4].split() == [str(p), "1", "0", "NO"]
    # the battery's sum-formula step asks an even weight's closed form to
    # vanish at the rows that count: a passing row with rhs 3 fails it there
    nonzero = CheckReport("sum-formula", {"k": 4}, "numeric", floor, [PrimeCheck(p, 3, 3)])
    run = fmzv.suite._run
    monkeypatch.setattr(
        fmzv.suite, "_run",
        lambda batch, *args: (
            [nonzero] if {inst.identity for inst in batch} == {"sum-formula"} else run(batch, *args)
        ),
    )
    steps = {step.name: step for step in fmzv.suite.run_battery(2, 0, (2, 20))}
    assert steps["sum-formula"].passed == (not counts)


def test_determinism():
    a = check("ohno", Index((2, 1)), 1, window=(5, 80)).to_json_dict()
    b = check("ohno", Index((2, 1)), 1, window=(5, 80)).to_json_dict()
    assert a == b


def test_parallel_matches_serial(monkeypatch):
    # checks this light run serially unless the pool is forced; 5:80 is two
    # groups of primes, 16 and 4, so a pool starts
    monkeypatch.setattr(fmzv.modp, "POOL_MIN_MULTS", 0)
    serial = check("ohno", Index((2, 1)), 2, window=(5, 80), jobs=1)
    parallel = check("ohno", Index((2, 1)), 2, window=(5, 80), jobs=2)
    assert serial.results == parallel.results
    assert parallel.passed
    # a polynomial-carrying evaluator must survive the worker round trip too
    s = check("stuffle", "y", "xy", window=(5, 80), jobs=1)
    p = check("stuffle", "y", "xy", window=(5, 80), jobs=2)
    assert s.results == p.results


def cold_store(monkeypatch):
    monkeypatch.setattr(fmzv.modp, "_store", {})
    monkeypatch.setattr(fmzv.modp, "_store_size", 0)


@pytest.fixture
def recorded_pools(monkeypatch):
    """Replaces the process pool by an in-process fake on 4 fake usable CPUs
    and returns the list of max_workers of the pools started."""
    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(fmzv.modp, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(fmzv.modp.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    return started


def test_pool_never_exceeds_cpus_or_groups(monkeypatch, recorded_pools):
    started = recorded_pools
    # every check is heavy enough for a pool here; only the caps apply
    monkeypatch.setattr(fmzv.modp, "POOL_MIN_MULTS", 0)
    primes = fmzv.verify.primes_in
    assert [len(g) for g in fmzv.modp._groups(primes(5, 400))] == [16, 16, 16, 16, 12]
    assert [len(g) for g in fmzv.modp._groups(primes(5, 200))] == [16, 16, 12]
    assert [len(g) for g in fmzv.modp._groups(primes(5, 60))] == [15]
    serial = check("ohno", Index((2, 1)), 1, window=(5, 400), jobs=1).results
    for jobs, window, expect in [
        (5000, (5, 400), [4]),   # capped by the CPUs
        (5000, (5, 200), [3]),   # capped by the groups
        (5000, (5, 60), []),     # one group: in-process
        (5000, (11, 11), []),    # one prime
        (3, (5, 400), [3]),
        (1, (5, 400), []),
    ]:
        started.clear()
        rep = check("ohno", Index((2, 1)), 1, window=window, jobs=jobs)
        assert started == expect, (jobs, window)
        assert rep.results == [r for r in serial if window[0] <= r.p <= window[1]]
    # the CPUs are those of the process's affinity, else the machine's count
    for affinity, count, expect in [({0}, 4, []), (None, 3, [3]), (None, None, [])]:
        if affinity is None:
            monkeypatch.delattr(fmzv.modp.os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(fmzv.modp.os, "sched_getaffinity", lambda pid: affinity)
        monkeypatch.setattr(fmzv.modp.os, "cpu_count", lambda: count)
        started.clear()
        check("ohno", Index((2, 1)), 1, window=(5, 400), jobs=5000)
        assert started == expect, (affinity, count)


def test_pool_tasks_are_the_windows_groups(monkeypatch, recorded_pools):
    # one walk cannot be split, so a window of one group is walked
    # in-process however many jobs and however low the threshold; each group
    # of a window of several is one pool task
    tasks = []
    fill = fmzv.modp._fill
    monkeypatch.setattr(
        fmzv.modp, "_fill", lambda trie, ws, group: tasks.append(group) or fill(trie, ws, group)
    )
    monkeypatch.setattr(fmzv.modp, "POOL_MIN_MULTS", 0)
    for window, expect in [((95191, 95219), []), ((5, 400), [4])]:
        cold_store(monkeypatch)
        serial = check("ohno", Index((3,)), 2, window=window, jobs=1).results
        cold_store(monkeypatch)
        recorded_pools.clear()
        tasks.clear()
        assert check("ohno", Index((3,)), 2, window=window, jobs=5000).results == serial
        assert recorded_pools == expect, window
        assert tasks == (fmzv.modp._groups(fmzv.verify.primes_in(*window)) if expect else [])


def test_pool_only_for_heavy_checks(monkeypatch, recorded_pools):
    started = recorded_pools
    light, heavy = (5, 80), (5, 3000)
    k = Index((2, 1))
    filled = []
    fill = fmzv.verify.residues

    def spy(indices, *rest):
        filled.append(list(indices))
        return fill(filled[-1], *rest)

    monkeypatch.setattr(fmzv.verify, "residues", spy)
    check("ohno", k, 1, window=light, jobs=1)
    (indices,) = filled
    # ohno (2,1) at n=1 sums over (3,1), (2,2) and the duals' shifts
    assert sorted(indices) == [(1, 2, 1), (2, 1, 1), (2, 2), (3, 1)]
    # J, every suffix and reversed prefix of the indices
    units = len({s for k in indices for i in range(len(k)) for s in (k[i:], k[: i + 1][::-1])})

    def work(window, missing=None):
        # the cold work of the window's groups that hold a prime of
        # ``missing`` (default: all of ``window``): each walks (q_G + 1) / 2
        # entries with one pass or dot product per element of J
        groups = fmzv.modp._groups(fmzv.verify.primes_in(*window))
        wanted = set(fmzv.verify.primes_in(*(missing or window)))
        return sum((g[-1] + 1) // 2 * units for g in groups if wanted & set(g))

    def warm_below(missing):
        # a store that holds every residue of the check below ``missing``
        cold_store(monkeypatch)
        if missing:
            check("ohno", k, 1, window=(5, missing[0] - 1), jobs=1)
        started.clear()

    assert work(light) < fmzv.modp.POOL_MIN_MULTS <= work(heavy)
    for window, expect in [(light, []), (heavy, [4])]:
        cold_store(monkeypatch)
        serial = check("ohno", k, 1, window=window, jobs=1).results
        warm_below(None)
        assert check("ohno", k, 1, window=window, jobs=5000).results == serial
        assert started == expect, window
    # warm: every residue of the heavy check is memoized, so nothing is left
    # to sweep and it runs in-process
    started.clear()
    assert check("ohno", k, 1, window=heavy, jobs=5000).results == serial
    assert started == []
    # the threshold itself: cold work equal to it pools, one unit less does
    # not; partly warm, only the groups with a residue missing count
    groups = fmzv.modp._groups(fmzv.verify.primes_in(*heavy))
    last_two = (groups[-2][0], heavy[1])
    assert 0 < work(heavy, last_two) < work(heavy)
    for window, missing, pool in [(light, None, [2]), (heavy, None, [4]), (heavy, last_two, [4])]:
        for limit, expect in [(work(window, missing), pool), (work(window, missing) + 1, [])]:
            monkeypatch.setattr(fmzv.modp, "POOL_MIN_MULTS", limit)
            warm_below(missing)
            check("ohno", k, 1, window=window, jobs=5000)
            assert started == expect, (window, missing, limit)


def test_pool_shuts_down_when_pairing_raises(monkeypatch, recorded_pools):
    monkeypatch.setattr(fmzv.modp, "POOL_MIN_MULTS", 0)
    pool_class = fmzv.modp.ProcessPoolExecutor
    exit_pool, exits = pool_class.__exit__, []
    monkeypatch.setattr(
        pool_class, "__exit__", lambda self, *exc: exits.append(exc[0]) or exit_pool(self, *exc)
    )

    def broken_pair(plan, p, values):
        raise EngineFault(f"pairing broke at p={p}")

    monkeypatch.setattr(fmzv.verify, "_pair", broken_pair)
    with pytest.raises(EngineFault, match="p=5"):
        check("ohno", Index((2, 1)), 1, window=(5, 80), jobs=2)
    # the pool left its block before the fault reached the caller
    assert recorded_pools == [2] and exits == [GeneratorExit]


@pytest.mark.skipif(
    fmzv.modp.usable_cpus() < 2 or multiprocessing.get_start_method() != "fork",
    reason="needs two usable CPUs and fork-started workers",
)
def test_pooled_residues_come_home(monkeypatch, tmp_path):
    modp = fmzv.modp
    window = (5, 1500)
    requests = [
        ("ohno", Index((2, 1, 3)), 2),
        ("sum-formula", 6, 3, 2),
    ]
    argvs = [
        ["check", "ohno", "--index", "2,1,3", "--n", "2", "--primes", "5:1500"],
        ["check", "sum-formula", "--k", "6", "--r", "3", "--i", "2", "--primes", "5:1500"],
    ]
    batch = [instance(name, values, window) for name, *values in requests]
    default = fmzv.modp.POOL_MIN_MULTS
    # the ohno check alone is heavy enough to pool, cold: its window's
    # groups walk (q_G + 1) / 2 entries each, with one pass or dot product
    # per element of J, every suffix and reversed prefix of its indices
    ks = batch[0].plan.indices()
    units = len({s for k in ks for i in range(len(k)) for s in (k[i:], k[i::-1])})
    groups = modp._groups(modp.primes_in(*window))
    assert len(groups) > 1 and sum((g[-1] + 1) // 2 * units for g in groups) >= default

    def cold():
        cold_store(monkeypatch)

    def run(argv, jobs):
        out = tmp_path / "out.json"
        assert main(argv + ["--jobs", str(jobs), "--format", "json", "--output", str(out)]) == 0
        return out.read_bytes()

    def held():
        # residues and Bernoulli values by prime
        return {p: dict(memo) for p, memo in modp._store.items()}

    def units():
        return sum(map(len, modp._store.values()))

    cold()
    serial = [run(argv, 1) for argv in argvs]
    serial_held = held()

    # spies that count, in this process only, pool starts, trie sweeps and
    # cold modp work: a Bernoulli power sum, like an inverse row, first
    # validates its prime
    pools, sweeps, cold_work = [], [], []
    real_pool, real_sweep, real_ensure = (
        modp.ProcessPoolExecutor, modp.SuffixTrie.sweep, modp.ensure_prime
    )
    monkeypatch.setattr(
        modp, "ProcessPoolExecutor", lambda **kw: pools.append(kw) or real_pool(**kw)
    )
    monkeypatch.setattr(
        modp.SuffixTrie, "sweep", lambda self, p: sweeps.append(p) or real_sweep(self, p)
    )
    monkeypatch.setattr(modp, "ensure_prime", lambda p: cold_work.append(p) or real_ensure(p))

    monkeypatch.setattr(modp, "POOL_MIN_MULTS", 0)
    cold()
    assert [run(argv, 2) for argv in argvs] == serial
    assert len(pools) == 2 and sweeps == [] and cold_work == []
    # the parent holds every residue and Bernoulli value the checks used,
    # each unit charged once
    assert held() == serial_held
    for inst in batch:
        for p in fmzv.verify.primes_in(max(window[0], inst.plan.minimum), window[1]):
            memo = modp._store[p]
            assert all(k in memo for k in inst.plan.indices())
            if inst.plan.bernoulli:
                assert p - inst.plan.bernoulli[0] in memo
    assert modp._store_size == units()

    # a repeat finds everything memoized: in-process, nothing swept
    monkeypatch.setattr(modp, "POOL_MIN_MULTS", default)
    assert [run(argv, 2) for argv in argvs] == serial
    assert len(pools) == 2 and sweeps == [] and cold_work == []

    # a store that holds one prime at a time: each prime is paired as it
    # arrives, so nothing is swept again in the parent
    monkeypatch.setattr(modp, "POOL_MIN_MULTS", 0)
    monkeypatch.setattr(modp, "TABLE_BUDGET", 1)
    cold()
    expected = fmzv.verify._run(batch, window, jobs=1)
    cold()
    sweeps.clear()
    cold_work.clear()
    assert fmzv.verify._run(batch, window, jobs=2) == expected
    # one pool for the whole batch, whatever its plans' minimum primes
    assert len(pools) == 3 and sweeps == [] and cold_work == []
    assert list(modp._store) == fmzv.verify.primes_in(*window)[-1:]
    assert modp._store_size == units()


@pytest.mark.skipif(
    fmzv.modp.usable_cpus() < 2 or multiprocessing.get_start_method() != "fork",
    reason="needs two usable CPUs and fork-started workers",
)
def test_pool_tasks_receive_the_batch_trie_built(monkeypatch, tmp_path):
    # A cold window of two groups, pooled: the gate builds the batch's J in
    # the parent, and each task unpickles it built, so J is built once, in
    # the parent, and in no worker, which inherits the patched build
    modp = fmzv.modp
    argv = ["check", "ohno", "--index", "2,1", "--n", "1", "--primes", "5:80", "--format", "json"]
    assert len(modp._groups(modp.primes_in(5, 80))) == 2
    builds = tmp_path / "builds"
    build = modp.SuffixTrie._build

    def recorded(self):
        with open(builds, "a") as log:
            log.write(f"{os.getpid()}\n")
        build(self)

    def run(jobs):
        cold_store(monkeypatch)
        out = tmp_path / f"jobs{jobs}.json"
        assert main(argv + ["--jobs", str(jobs), "--output", str(out)]) == 0
        return out.read_bytes()

    serial = run(1)
    pools = []
    real_pool = modp.ProcessPoolExecutor
    monkeypatch.setattr(modp, "ProcessPoolExecutor", lambda **kw: pools.append(kw) or real_pool(**kw))
    monkeypatch.setattr(modp, "POOL_MIN_MULTS", 0)
    monkeypatch.setattr(modp.SuffixTrie, "_build", recorded)
    assert run(2) == serial
    assert pools == [{"max_workers": 2}]
    assert builds.read_text().split() == [str(os.getpid())]


def test_confirm_failures_flags_engine_bugs():
    # H(1) against 0: at p = 2 the sum is 1, a genuine failure the oracle
    # reproduces, so no error; at p = 11 it is 0, so a failing row that
    # reads 1 there is the fast path's bug
    _, plan = fmzv.verify.homogeneous_plan(1, 1, (2, 11))

    def report(row, floor):
        return CheckReport("homogeneous", {}, "numeric", floor, [row])

    genuine, buggy = PrimeCheck(2, 1, 0), PrimeCheck(11, 1, 0)
    _confirm_failures(plan, report(genuine, 2))
    with pytest.raises(EngineFault, match=r"at p=11: fast \(1, 0\) vs oracle \(0, 0\)"):
        _confirm_failures(plan, report(buggy, 5))
    # below the floor nothing is re-verified
    _confirm_failures(plan, report(buggy, 13))


def test_one_power_sum_per_prime_and_a_pure_pair(monkeypatch):
    # Every sum-formula instance of k = 5 and every height-one instance of
    # a + b + 2 = 5 read B_(p-5): a cold batch computes it once per prime,
    # with the residues, and pairing only reads the memo it is handed.
    modp = fmzv.modp
    cold_store(monkeypatch)
    window = (7, 200)
    batch = [
        instance("sum-formula", (5, r, i), window) for r in range(1, 5) for i in range(1, r + 1)
    ] + [instance("height-one", (a, 3 - a), window) for a in range(4)]
    assert len(batch) == 14
    calls = []
    bernoulli = modp.bernoulli_mod_p

    def spy(w, p):
        calls.append((w, p))
        return bernoulli(w, p)

    monkeypatch.setattr(modp, "bernoulli_mod_p", spy)
    monkeypatch.setattr(fmzv.verify, "bernoulli_mod_p", spy)
    reports = fmzv.verify._run(batch, window, jobs=1)
    assert all(rep.passed for rep in reports)
    assert calls == [(5, p) for p in fmzv.verify.primes_in(*window)]
    order, size = list(modp._store), modp._store_size
    for p in (7, 101, 199):
        memo = modp._store[p]
        rows = [fmzv.verify._pair(inst.plan, p, memo) for inst in batch]
        assert all(lhs == rhs for lhs, rhs in rows), p
        assert list(modp._store) == order and modp._store_size == size, p
    # the 43 primes' power sums, and none computed while pairing
    assert len(calls) == 43


def test_batch_reports_equal_single_runs(monkeypatch):
    # one window, plans with different minimum primes, shared indices; each
    # floor applies to the whole batch, and at 2 two instances fail
    window = (2, 40)
    requests = [
        ("ohno", ((2, 1), 1)),
        ("sum-formula", (7, 3, 2)),
        ("height-one", (1, 0)),
        ("stuffle", ("xy", "y")),
        ("key-lemma", ((1, 2), 2)),
        ("homogeneous", (1, 1)),
    ]
    fills = []
    fill = fmzv.verify.residues
    monkeypatch.setattr(
        fmzv.verify, "residues", lambda *args: fills.append(args[1]) or fill(*args)
    )
    primes = fmzv.verify.primes_in(*window)
    for floor, passed, floors in [
        (None, [True] * 6, [7, 10, 6, 6, 8, 4]),
        (2, [True, True, True, True, False, False], [2] * 6),
    ]:
        batch = [instance(name, values, window, floor) for name, values in requests]
        monkeypatch.setattr(fmzv.modp, "_store", {})
        monkeypatch.setattr(fmzv.modp, "_store_size", 0)
        fills.clear()
        reports = fmzv.verify._run(batch, window)
        # one fill, from the least minimum prime, serves the whole batch
        assert fills == [primes]
        assert [rep.passed for rep in reports] == passed
        assert [rep.floor for rep in reports] == floors
        assert [rep.results[0].p for rep in reports] == [2, 11, 5, 2, 2, 2]
        for inst, rep in zip(batch, reports):
            # each plan's rows start at its own minimum prime
            assert [row.p for row in rep.results] == [p for p in primes if p >= inst.plan.minimum]
            monkeypatch.setattr(fmzv.modp, "_store", {})
            monkeypatch.setattr(fmzv.modp, "_store_size", 0)
            alone = fmzv.verify._run([inst], window)
            assert alone == [rep]
    assert fmzv.verify._run([], (2, 1)) == []


def test_empty_window_rejected():
    with pytest.raises(ValueError):
        check("ohno", Index((2,)), 1, window=(14, 16))

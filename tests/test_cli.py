import hashlib
import json
import os
import subprocess
import sys
import textwrap
import time

import pytest

import fmzv.modp
import fmzv.verify
from fmzv.cli import main, render_json
from fmzv.series import const_series, geometric_yu, series_harmonic, series_shuffle
from fmzv.words import NCPolynomial


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dual(capsys):
    code, out, err = run_cli(capsys, "dual", "2,3,1,2")
    assert code == 0 and out == "1,2,1,3,1\n" and err == ""


def test_dual_bad_token(capsys):
    code, out, err = run_cli(capsys, "dual", "2,x,1")
    assert code == 2
    assert "'x'" in err


def test_non_ascii_digits_are_bad_tokens(capsys):
    # "\u00b2" (superscript two) passes str.isdigit() but not int()
    code, _, err = run_cli(capsys, "zeta", "--index", "\u00b2,1", "--primes", "5:7")
    assert code == 2 and "bad index component" in err
    code, _, err = run_cli(capsys, "zeta", "--index", "2,1", "--primes", "\u00b2:7")
    assert code == 2 and "bad prime window" in err


def test_zeta_single_prime(capsys):
    code, out, _ = run_cli(capsys, "zeta", "--index", "2,1", "--primes", "5:5")
    assert code == 0 and out == "5,1\n"


def test_zeta_window(capsys):
    code, out, _ = run_cli(capsys, "zeta", "--index", "1,2", "--primes", "5:7")
    assert code == 0 and out == "5,4\n7,4\n"


# SHA-256 of ``fmzv zeta`` output over windows of small and large primes,
# with depth >= p and parts p - 1 among them, in both formats
ZETA_HASHES = [
    (("--index", "2,1,3", "--primes", "2:400"),
     "9304748ab9bef3d6522b2684a9c840d56b832e73d8f6e23ca4a1fc1073c1cb76",
     "0804f540e42cf1d7897ddc2c4dd669c44451363f21a15d85dfc66ba4764f6067"),
    (("--index", "1,1,1,1,1", "--primes", "2:60"),
     "98f07b0272b8721194c5c8e6d182fe4f81e1d2457840a4d54d66b294ed9b7b70",
     "9725a13b4eb34af531cad239859584eba3fae37132df029cecca4b5aa9b24145"),
    (("--index", "1,2", "--primes", "10007:10100"),
     "8526dac554a3db53a7eceb8ac4cff355c47d13cc91584556b0e950c95ddc3439",
     "c64528243e7b528caf8873d551dd1a266c2a01498e9ad610ac40e23b3f8c1804"),
    (("--index", "3,10006,1", "--primes", "9973:10039"),
     "bb0405bb66c375915d3b5052a619f6a74389436a7114a0c60a0e4b74785820ad",
     "6c4cab7d916c87d55d446881bc9e2f6f7e1e98c109410cbc5db92a35e111c937"),
]


def test_zeta_window_keeps_its_bytes(capsys, monkeypatch):
    # the window is filled by one residues call, a group of primes per walk
    fills = []
    fill = fmzv.cli.residues
    monkeypatch.setattr(fmzv.cli, "residues", lambda *args: fills.append(args[1]) or fill(*args))
    for argv, csv_hash, json_hash in ZETA_HASHES:
        for fmt, expect in (("csv", csv_hash), ("json", json_hash)):
            fills.clear()
            code, out, _ = run_cli(capsys, "zeta", *argv, "--format", fmt)
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == expect, (argv, fmt)
            assert len(fills) == 1, (argv, fmt)


def test_bernoulli(capsys):
    code, out, _ = run_cli(capsys, "bernoulli", "--k", "3", "--primes", "5:7")
    assert code == 0 and out == "5,1\n7,3\n"


def test_missing_primes_is_usage_error(capsys, monkeypatch):
    monkeypatch.delenv("FMZV_DEFAULT_PRIMES", raising=False)
    code, _, err = run_cli(capsys, "zeta", "--index", "2,1")
    assert code == 2 and "FMZV_DEFAULT_PRIMES" in err


def test_env_default_window(capsys, monkeypatch):
    monkeypatch.setenv("FMZV_DEFAULT_PRIMES", "5:5")
    code, out, _ = run_cli(capsys, "zeta", "--index", "2,1")
    assert code == 0 and out == "5,1\n"


def test_check_ohno_table(capsys):
    code, out, _ = run_cli(
        capsys, "check", "ohno", "--index", "2,1", "--n", "1", "--primes", "5:200"
    )
    assert code == 0
    assert "summary: PASS" in out
    assert "sub-floor primes" in out  # p = 5 sits below the default floor 7


def test_check_json_round_trip(capsys):
    code, out, _ = run_cli(
        capsys,
        "check", "ohno", "--index", "2,1", "--n", "1",
        "--primes", "5:60", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert json.dumps(doc, indent=2) + "\n" == out
    assert doc["identity"] == "ohno"
    assert doc["summary"]["pass"] is True


def test_check_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        "check", "sum-formula", "--k", "3", "--r", "2", "--i", "1",
        "--primes", "5:13", "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "p,lhs,rhs,pass"
    assert lines[1] == "5,1,1,true"
    # a symbolic check renders its one verdict
    code, out, _ = run_cli(capsys, "check", "eq3", "--index", "2,1", "--n", "2", "--format", "csv")
    assert (code, out) == (0, "equal\ntrue\n")


def test_check_failure_exit_code(capsys):
    # the constant-index sum is 1 at p=2 for a single one; forcing the floor
    # down to 2 turns that into a reported failure
    code, out, _ = run_cli(
        capsys,
        "check", "homogeneous", "--a", "1", "--r", "1",
        "--primes", "2:3", "--floor", "2",
    )
    assert code == 1
    assert "summary: FAIL" in out


def test_failure_at_a_large_prime_is_confirmed_quickly(capsys):
    # (10006, 10006) reduces to exponent 0 at p = 10007, where its sum is
    # C(p-1, 2) = 1; re-checking that failure enumerates no tuples
    start = time.perf_counter()
    code, out, _ = run_cli(
        capsys,
        "check", "homogeneous", "--a", "10006", "--r", "2",
        "--primes", "10007:10007", "--floor", "2", "--format", "json",
    )
    assert time.perf_counter() - start < 10
    assert code == 1
    assert json.loads(out)["results"] == [{"p": 10007, "lhs": 1, "rhs": 0, "pass": False}]


def test_check_symbolic(capsys):
    code, out, _ = run_cli(capsys, "check", "eq3", "--index", "2,1", "--n", "2")
    assert code == 0 and "result: EQUAL" in out
    code, out, _ = run_cli(
        capsys, "check", "ikz", "--w", "xy", "--order", "3", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["results"] == {"equal": True}


def test_check_symbolic_difference(capsys, monkeypatch):
    # a symbolic check whose sides differ exits 1 and shows both sides
    P = NCPolynomial.from_word
    substitution = fmzv.verify.substitution_series
    monkeypatch.setattr(fmzv.verify, "ones_expansion_sides", lambda k, n: (P("xy"), P("yy")))
    monkeypatch.setattr(fmzv.verify, "substitution_series", lambda w, order: substitution("y" + w, order))
    geo = geometric_yu(2)
    ikz_lhs = series_harmonic(geo, const_series(P("xy"), 2))
    ikz_rhs = series_shuffle(geo, substitution("yxy", 2))
    for argv, lhs, rhs in [
        (("eq3", "--index", "2,1", "--n", "2"), "1*xy", "1*yy"),
        (("ikz", "--w", "xy", "--order", "2"), str(ikz_lhs), str(ikz_rhs)),
    ]:
        code, out, _ = run_cli(capsys, "check", *argv, "--format", "table")
        assert code == 1
        assert out.splitlines()[1:4] == ["result: DIFFER", f"  lhs: {lhs}", f"  rhs: {rhs}"]
        assert run_cli(capsys, "check", *argv, "--format", "csv")[:2] == (1, "equal\nfalse\n")
    assert str(ikz_lhs).startswith("u^0: 1*xy | u^1: ")


def test_long_words_check_without_crashing():
    # Words longer than the interpreter's recursion limit.  Both checks run
    # in a child process whose address space is capped at 1 GiB, so that one
    # that outgrew memory fails here, rather than have the whole test run
    # killed.
    child = textwrap.dedent(
        """
        import resource
        from fmzv.cli import main

        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
        for command in ("duality", "stuffle"):
            argv = ["--w", "y" * 1200, "--wp", "y", "--primes", "9:20", "--floor", "9", "--jobs", "1"]
            print("exit", command, main(["check", command, *argv]), flush=True)
        """
    )
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    exits = [line for line in proc.stdout.splitlines() if line.startswith("exit ")]
    assert exits == ["exit duality 0", "exit stuffle 0"], proc.stderr
    assert proc.stdout.count("summary: PASS  checked=4") == 2
    assert "Traceback" not in proc.stderr and "RecursionError" not in proc.stderr


def test_index_deeper_than_the_recursion_limit_checks(capsys):
    # exit 1 would read as a failed check; 1200 parts outnumber the
    # interpreter's default recursion limit
    ones = ",".join(["1"] * 1200)
    code, out, err = run_cli(capsys, "check", "ohno", "--index", ones, "--n", "0",
                             "--primes", "1201:1213")
    assert code == 0, err
    assert out.endswith("summary: PASS  checked=2 failed_above_floor=0\n")


def test_out_of_memory_is_refused_with_exit_2(capsys, monkeypatch):
    # exit 1 means a check failed above its floor, so running out of memory
    # is reported like other input the CLI cannot take, with no traceback
    def exhausted(self, indices):
        raise MemoryError

    monkeypatch.setattr(fmzv.modp, "_store", {})
    monkeypatch.setattr(fmzv.modp, "_store_size", 0)
    monkeypatch.setattr(fmzv.modp.SuffixTrie, "__init__", exhausted)
    code, out, err = run_cli(
        capsys, "check", "ohno", "--index", "2,1", "--n", "1", "--primes", "11:13", "--jobs", "1"
    )
    assert code == 2 and out == ""
    assert err.startswith("fmzv: error: out of memory") and "Traceback" not in err


def test_engine_fault_exit_code(capsys, monkeypatch):
    # a walk that gives every index its depth: ohno (2,1) at n=1 then reads
    # 4 against 6, which the oracle does not reproduce
    def wrong_sweep(trie, group):
        return [{k: len(k) for k in trie.indices} for _ in group]

    monkeypatch.setattr(fmzv.modp, "_store", {})
    monkeypatch.setattr(fmzv.modp, "_store_size", 0)
    monkeypatch.setattr(fmzv.modp.SuffixTrie, "sweep", wrong_sweep)
    code, out, err = run_cli(
        capsys, "check", "ohno", "--index", "2,1", "--n", "1", "--primes", "11:13", "--jobs", "1"
    )
    assert code == 3
    assert out == ""
    assert err.startswith("fmzv: engine fault: evaluator disagrees with brute-force oracle at p=11")
    assert "Traceback" not in err


def test_wrong_memoized_bernoulli_value_is_an_engine_fault(capsys, monkeypatch):
    # A wrong B_(13-w) seeded into a cold store at 13 is read by the
    # evaluator.  Where the plan's sign variants agree (c = c_alt), its own
    # sign-variant check cannot catch the value, and a failure is re-derived
    # with a Bernoulli value computed afresh, so the check reports an engine
    # fault, not a failing prime.  Sum-formula (6, 3, 2) has c = 0 against
    # c_alt = 10: B_7 = 0 at 13, and the seeded 1 gives 0 against 6.
    oracle = "evaluator disagrees with brute-force oracle at p=13"
    for name, values, argv, agree, message in [
        ("height-one", (1, 0), ["--a", "1", "--b", "0"], True, oracle),
        ("sum-formula", (5, 2, 1), ["--k", "5", "--r", "2", "--i", "1"], True, oracle),
        ("sum-formula", (6, 3, 2), ["--k", "6", "--r", "3", "--i", "2"], False,
         "the two closed-form sign variants disagree at p=13: 0 vs 6"),
    ]:
        _, plan = fmzv.verify.CHECKS[name].build(*values, (11, 40))
        w, c, c_alt = plan.bernoulli
        assert (c == c_alt) == agree, values
        wrong = (fmzv.modp.bernoulli_mod_p(w, 13) + 1) % 13

        def seed():
            monkeypatch.setattr(fmzv.modp, "_store", {13: {13 - w: wrong}})
            monkeypatch.setattr(fmzv.modp, "_store_size", 1)

        seed()
        with pytest.raises(fmzv.modp.EngineFault, match=message):
            fmzv.verify.check(name, *values, window=(11, 40))
        seed()
        code, out, err = run_cli(capsys, "check", name, *argv, "--primes", "11:40")
        assert code == 3 and out == "", values
        assert err.startswith(f"fmzv: engine fault: {message}"), values


def test_lemma_readings_that_differ_are_an_engine_fault(capsys, monkeypatch):
    index_layers = fmzv.verify.lemma_index_layers

    def one_index_dropped(k, n):
        first, *rest = index_layers(k, n)
        return (first[1:], *rest)

    evaluated = []
    monkeypatch.setattr(fmzv.verify, "lemma_index_layers", one_index_dropped)
    monkeypatch.setattr(fmzv.verify, "residues", lambda *args: evaluated.append(args))
    code, out, err = run_cli(
        capsys, "check", "key-lemma", "--index", "2,1", "--n", "2", "--primes", "11:60"
    )
    assert code == 3 and out == "" and evaluated == []
    assert err.startswith("fmzv: engine fault: the two lemma readings differ at layer 0")


# exit code and SHA-256 of the JSON report of every check subcommand, n = 0
# of both lemma checks and a failing report included: the report bytes are
# part of the interface, whatever the checkers compute them through
REPORT_HASHES = [
    (("ohno", "--index", "2,1,3", "--n", "2", "--primes", "2:150"), 0,
     "50cbff94ae9a41cc43082af8013e43c8b3b4e44fe0acb81788d79b61d13dd8e2"),
    (("sum-formula", "--k", "7", "--r", "3", "--i", "2", "--primes", "2:150"), 0,
     "2d96f11ffdb7440393e511e2c6ae5d9a885d448781c3c7e3ea79e84c8760d638"),
    (("height-one", "--a", "2", "--b", "1", "--primes", "2:150"), 0,
     "caa49b0082fc1188b0978d07fa5374337f4b1a2a68ec2f813a90812a0a073934"),
    (("stuffle", "--w", "xyy", "--wp", "xxy", "--primes", "2:150"), 0,
     "eccb9fdf56e394d1ef1613d592754c5203dbc80cec08a189acd3c6db50dd1d24"),
    (("duality", "--w", "xyy", "--wp", "xy", "--primes", "2:150"), 0,
     "b21ba3a4d32462bd3f4d08d76e26e4f1311198c7e332148828dbf58a4569d339"),
    (("homogeneous", "--a", "2", "--r", "3", "--primes", "2:150"), 0,
     "60085b6c062fc5fb58aba3308e59afe4f491bd2c94fa8ac4d0d29ec50327b404"),
    (("homogeneous", "--a", "1", "--r", "1", "--primes", "2:30", "--floor", "2"), 1,
     "244b29a2d9a676a7a55722394c1c667b89f5e25c8673ce1bad4724c6079aea19"),
    (("lemma2", "--index", "1,2", "--n", "2", "--primes", "2:150"), 0,
     "a47b0639f2529e69aaff4d06c3daa8cd4f736a8c7da2217ff07483cc3b9c4456"),
    (("key-lemma", "--index", "1,2", "--n", "2", "--primes", "2:150"), 0,
     "197948985329d026fff7981254139e99e92c3ef784b7567af56cc89a76d3b656"),
    (("lemma2", "--index", "2,1", "--n", "0", "--primes", "2:150"), 0,
     "9776bf591b585d67f64da122873df9680f38dac2db74fd1c90aaa175d07c3fcd"),
    (("key-lemma", "--index", "2,1", "--n", "0", "--primes", "2:150"), 0,
     "f1cec28234a8db10f009fbfd02c374ece9f5090c9354db5817805e5fa8d8abd3"),
    (("eq3", "--index", "2,1", "--n", "2"), 0,
     "2c0c745d0494f9fe63708cd29bb5116b28c928d7dadc4970f0c09e9789b5d425"),
    (("ikz", "--w", "xyy", "--order", "3"), 0,
     "b471bf72daffe72faab9f02753aecf55f13a165c4de5b47fcb7d1f719cceb9b4"),
]


def test_every_check_keeps_its_report_bytes(capsys):
    from fmzv.verify import CHECKS, check

    assert {argv[0] for argv, _, _ in REPORT_HASHES} == set(CHECKS)
    for argv, expect_code, digest in REPORT_HASHES:
        code, out, _ = run_cli(capsys, "check", *argv, "--format", "json")
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (expect_code, digest), argv
        # the same check called from Python renders the same bytes
        name, given = argv[0], dict(zip(argv[1::2], argv[2::2]))
        values = [parse(given[option]) for option, parse in CHECKS[name].flags]
        options = {}
        if "--primes" in given:
            lo, hi = map(int, given["--primes"].split(":"))
            floor = given.get("--floor")
            options = {"window": (lo, hi), "floor": None if floor is None else int(floor)}
        report = check(name, *values, **options)
        assert report.passed == (expect_code == 0), argv
        assert hashlib.sha256(render_json(report).encode()).hexdigest() == digest, argv


def test_json_renders_exactly_as_json_dumps(capsys):
    # reports and value tables render their rows from a template; the bytes
    # must be those of json.dumps(doc, indent=2) + "\n"
    from fmzv.verify import CheckReport, PrimeCheck, check

    reports = [
        check("ohno", (2, 1), 1, window=(5, 60)),  # passing
        check("homogeneous", 1, 1, window=(2, 3), floor=2),  # failing at 2
        # every prime sub-floor, which check refuses up front
        CheckReport("homogeneous", {"a": 1, "r": 1}, "numeric", floor=11, results=[
            PrimeCheck(2, 1, 0), PrimeCheck(3, 0, 0), PrimeCheck(5, 0, 0), PrimeCheck(7, 0, 0),
        ]),
        check("ikz", "xy", 3),  # symbolic, equal
        CheckReport("eq3", {"index": [2, 1]}, "symbolic", equal=False, lhs="y", rhs="xy"),
        # params whose strings look like the rows' key, and no rows at all
        CheckReport("odd", {"w": '\n  "results": null', "k": []}, "numeric", floor=7),
        CheckReport(
            "odd", {"w": "\u00e9\t\"", "n": {}}, "numeric", floor=3,
            results=[PrimeCheck(2, 1, 0), PrimeCheck(3, 2, 2), PrimeCheck(5, 0, 4)],
        ),
    ]
    assert [r.passed for r in reports[:4]] == [True, False, True, True]
    for report in reports:
        assert render_json(report) == json.dumps(report.to_json_dict(), indent=2) + "\n"
    for argv in (
        ["zeta", "--index", "2,1,3", "--primes", "2:60"],
        ["zeta", "--index", "1", "--primes", "10007:10009"],
        ["bernoulli", "--k", "3", "--primes", "5:90"],
    ):
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0 and out == json.dumps(json.loads(out), indent=2) + "\n", argv


def test_check_usage_error(capsys):
    code, _, err = run_cli(
        capsys, "check", "duality", "--w", "y", "--wp", "yx", "--primes", "5:20"
    )
    assert code == 2 and "yx" in err


def test_floor_above_window_rejected(capsys, monkeypatch):
    code, _, err = run_cli(
        capsys,
        "check", "ohno", "--index", "2", "--n", "0",
        "--primes", "5:20", "--floor", "50",
    )
    assert code == 2 and "floor" in err
    # weight 8: the default floor 11 leaves every prime of 5:7 sub-floor too
    argv = ("check", "ohno", "--index", "2,1,3", "--n", "2", "--primes", "5:7")
    for extra in [(), ("--floor", "11")]:
        code, out, err = run_cli(capsys, *argv, *extra)
        assert code == 2 and out == "", extra
        assert err == "fmzv: error: no prime of the window [5, 7] reaches the floor 11\n", extra
    # refused before any prime is evaluated
    fills = []
    monkeypatch.setattr(fmzv.verify, "residues", lambda *args: fills.append(args))
    assert run_cli(capsys, *argv)[0] == 2 and fills == []
    # the primes decide, not the window's top: 10 reaches the floor 8, 7 does not
    code, _, err = run_cli(
        capsys, "check", "ohno", "--index", "2,1", "--n", "2", "--primes", "5:10"
    )
    assert code == 2 and err.endswith("reaches the floor 8\n")


def test_floor_refused_before_the_plan_is_built(capsys, monkeypatch):
    # ohno (1^10), n = 12 shifts its index into C(21, 9) indices; the floor
    # needs only the weight the flags give, so the window is refused before
    # the identity's builder runs
    from fmzv.verify import CHECKS

    built = []
    entry = CHECKS["ohno"]
    monkeypatch.setitem(
        CHECKS, "ohno", entry._replace(build=lambda *args: built.append(args) or entry.build(*args))
    )
    code, out, err = run_cli(
        capsys, "check", "ohno", "--index", ",".join("1" * 10), "--n", "12", "--primes", "2:3"
    )
    assert (code, out, built) == (2, "", [])
    assert err == "fmzv: error: no prime of the window [2, 3] reaches the floor 25\n"


def test_inverted_window_refused_as_the_sieve_refuses_it(capsys):
    # check validates the window's bounds before it looks for a prime at or
    # above the floor, so it gives the error of a command that sieves first
    expected = "fmzv: error: window must satisfy 2 <= lo <= hi <= 2147483648, got [13, 11]\n"
    for argv in (("check", "ohno", "--index", "2,1", "--n", "1"), ("zeta", "--index", "2,1")):
        assert run_cli(capsys, *argv, "--primes", "13:11") == (2, "", expected), argv


def test_window_without_a_usable_prime_is_refused(capsys):
    for argv, message in [
        (("zeta", "--index", "1", "--primes", "24:28"), "no primes in window [24, 28]"),
        (("suite", "--primes", "24:28"), "no primes in window [24, 28]"),
        (("bernoulli", "--k", "9", "--primes", "5:10"), "no primes p >= k+2 in window [5, 10]"),
        (("check", "sum-formula", "--k", "5", "--r", "2", "--i", "1", "--primes", "2:6",
          "--floor", "2"), "no usable primes in window [2, 6]"),
    ]:
        assert run_cli(capsys, *argv) == (2, "", f"fmzv: error: {message}\n"), argv


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys,
        "check", "homogeneous", "--a", "2", "--r", "2",
        "--primes", "7:40", "--format", "json", "--output", str(target),
    )
    assert code == 0 and out == ""
    doc = json.loads(target.read_text())
    assert doc["identity"] == "homogeneous"


def test_identical_config_identical_bytes(capsys):
    args = ("check", "lemma2", "--index", "2", "--n", "1", "--primes", "7:60",
            "--format", "json")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_suite_small(capsys):
    code, out, _ = run_cli(
        capsys, "suite", "--max-weight", "3", "--max-n", "1", "--primes", "2:60"
    )
    assert code == 0
    assert "suite: PASS" in out
    for name in ("dual-involution", "eq3-symbolic", "ohno", "sum-formula",
                  "lemma-checks", "zeta-oracle", "algebra-laws"):
        assert f"[PASS] {name}" in out


def test_suite_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "suite", "--max-weight", "2", "--max-n", "1", "--primes", "2:40",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert all(step["pass"] for step in doc["steps"])


def test_engine_fault_fails_its_step_alone(capsys, monkeypatch):
    # a fault forced at the battery's first walk on a cold store, in its
    # ohno step (steps 1 to 3 walk nothing), fails that step alone: every
    # other step is reported as in a clean run, and the suite exits 3
    argv = ["suite", "--max-weight", "3", "--max-n", "1", "--primes", "2:30", "--format", "json"]
    code, clean, _ = run_cli(capsys, *argv)
    assert code == 0 and '"error"' not in clean
    sweep = fmzv.modp.SuffixTrie.sweep
    walks = []

    def fault_once(trie, group):
        walks.append(group)
        if len(walks) == 1:
            raise fmzv.modp.EngineFault("forced at the first walk")
        return sweep(trie, group)

    monkeypatch.setattr(fmzv.modp, "_store", {})
    monkeypatch.setattr(fmzv.modp, "_store_size", 0)
    monkeypatch.setattr(fmzv.modp.SuffixTrie, "sweep", fault_once)
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and len(walks) > 1
    assert err == "fmzv: engine fault in step ohno: forced at the first walk\n"
    steps, want = json.loads(out)["steps"], json.loads(clean)["steps"]
    assert [step["step"] for step in steps] == [step["step"] for step in want]
    faulted = {
        "step": "ohno", "pass": False, "detail": "engine fault", "error": "forced at the first walk"
    }
    assert [step if step["step"] != "ohno" else faulted for step in want] == steps
    assert json.loads(out)["pass"] is False


def test_module_entry_point():
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env["PYTHONPATH"] = os.path.join(root, "src")
    proc = subprocess.run(
        [sys.executable, "-m", "fmzv", "dual", "2,3,1,2"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1,2,1,3,1\n"


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_parser_built_once_env_read_per_call(capsys, monkeypatch):
    from fmzv.cli import build_parser

    assert build_parser() is build_parser()
    args = build_parser().parse_args(["check", "ohno", "--index", "2", "--n", "1"])
    assert args.jobs == 1
    for window, expect in [("5:5", "5,1\n"), ("7:7", "7,3\n")]:
        monkeypatch.setenv("FMZV_DEFAULT_PRIMES", window)
        code, out, _ = run_cli(capsys, "zeta", "--index", "2,1")
        assert code == 0 and out == expect, window


def test_suite_window_fallback(capsys, monkeypatch):
    args = ("suite", "--max-weight", "0", "--max-n", "0", "--format", "json")
    for env, window in [(None, [2, 200]), ("2:30", [2, 30])]:
        if env is None:
            monkeypatch.delenv("FMZV_DEFAULT_PRIMES", raising=False)
        else:
            monkeypatch.setenv("FMZV_DEFAULT_PRIMES", env)
        code, out, _ = run_cli(capsys, *args)
        doc = json.loads(out)
        assert code == 0 and doc["suite"]["primes"] == window, env
        # weight 0 leaves no word to draw for the algebra laws
        laws = [s for s in doc["steps"] if s["step"] == "algebra-laws"]
        assert laws == [{"step": "algebra-laws", "pass": True,
                         "detail": "0 random triples, 0 failures"}]


def test_unwritable_output_is_a_usage_error(capsys, tmp_path):
    target = str(tmp_path / "missing" / "out.txt")
    for argv in [
        ("check", "ohno", "--index", "2,1", "--n", "1", "--primes", "5:50"),
        ("suite", "--max-weight", "0", "--max-n", "0", "--primes", "2:30"),
    ]:
        code, out, err = run_cli(capsys, *argv, "--output", target)
        assert code == 2 and out == "", argv
        assert err.startswith("fmzv: error: ") and "out.txt" in err, argv
        assert "Traceback" not in err, argv

import hashlib
import json
import os
import subprocess
import sys
import time

import fmzv.modp
import fmzv.verify
from fmzv.cli import main, render_json


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


def test_zeta_single_prime(capsys):
    code, out, _ = run_cli(capsys, "zeta", "--index", "2,1", "--primes", "5:5")
    assert code == 0 and out == "5,1\n"


def test_zeta_window(capsys):
    code, out, _ = run_cli(capsys, "zeta", "--index", "1,2", "--primes", "5:7")
    assert code == 0 and out == "5,4\n7,4\n"


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


def test_long_words_check_without_crashing(capsys):
    # words longer than the interpreter's recursion limit
    long = "y" * 1200
    for command in ("duality", "stuffle"):
        code, out, err = run_cli(
            capsys,
            "check", command, "--w", long, "--wp", "y", "--primes", "9:20", "--floor", "9",
            "--jobs", "1",
        )
        assert code == 0, err
        assert "summary: PASS  checked=4" in out
        assert "Traceback" not in err and "RecursionError" not in err


def test_engine_fault_exit_code(capsys, monkeypatch):
    # a fast path that gives every index its depth: ohno (2,1) at n=1 then
    # reads 4 against 6, which the oracle does not reproduce
    def wrong_sums(trie, p):
        return {k: len(k) for k in trie.indices}

    monkeypatch.setattr(fmzv.modp, "harmonic_sums", wrong_sums)
    code, out, err = run_cli(
        capsys, "check", "ohno", "--index", "2,1", "--n", "1", "--primes", "11:13", "--jobs", "1"
    )
    assert code == 3
    assert out == ""
    assert err.startswith("fmzv: engine fault: evaluator disagrees with brute-force oracle at p=11")
    assert "Traceback" not in err


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
    assert args.jobs == (os.cpu_count() or 1)
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

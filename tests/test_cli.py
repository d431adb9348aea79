import json
import os
import subprocess
import sys

import fmzv.verify
from fmzv.cli import main
from fmzv.modp import zeta_mod_p


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
            "check", command, "--w", long, "--wp", "y", "--primes", "9:20", "--jobs", "1",
        )
        assert code == 0, err
        assert "summary: PASS  checked=4" in out
        assert "Traceback" not in err and "RecursionError" not in err


def test_engine_fault_exit_code(capsys, monkeypatch):
    def disagrees_with_oracle(lhs_groups, rhs_groups, p, zeta=zeta_mod_p):
        return (1, 0) if zeta is zeta_mod_p else (0, 0)

    monkeypatch.setattr(fmzv.verify, "_pair_index_sums", disagrees_with_oracle)
    code, out, err = run_cli(
        capsys, "check", "ohno", "--index", "2,1", "--n", "1", "--primes", "11:13", "--jobs", "1"
    )
    assert code == 3
    assert out == ""
    assert err.startswith("fmzv: engine fault: evaluator disagrees with brute-force oracle at p=11")
    assert "Traceback" not in err


def test_check_usage_error(capsys):
    code, _, err = run_cli(
        capsys, "check", "duality", "--w", "y", "--wp", "yx", "--primes", "5:20"
    )
    assert code == 2 and "yx" in err


def test_floor_above_window_rejected(capsys):
    code, _, err = run_cli(
        capsys,
        "check", "ohno", "--index", "2", "--n", "0",
        "--primes", "5:20", "--floor", "50",
    )
    assert code == 2 and "floor" in err


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

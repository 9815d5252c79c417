"""Command line behaviour: exit codes, report shapes, deterministic JSON.

Everything goes through cli.run(argv) so the tests see exactly what a
shell user would, including the structured failure reports and the usage
errors. JSON output is parsed back and checked for fixed key order and
num/den rational strings.
"""

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from traceform import cli, elliptic, mde
from traceform.qseries import eta_power

SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN = Path(__file__).resolve().parent / "golden"


def run_json(capsys, argv):
    code = cli.run(["--json", "--stable-json"] + argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# data dumps
# ---------------------------------------------------------------------------

def test_eta_dump_matches_the_library_series(capsys):
    code, payload = run_json(capsys, ["eta", "--power", "1/5", "--terms", "8"])
    assert code == 0
    want = eta_power(Fraction(1, 5), 8)
    assert payload["series"]["lambda"] == "1/120"
    assert payload["series"]["coeffs"] == [f"{c.numerator}/{c.denominator}" for c in want.coeffs]


def test_dumps_print_numbers_past_the_int_digit_cap(capsys):
    # the coefficients of eta^(1/9973) reach past the 4300 digits that
    # Python converts between int and str by default
    argv = ["eta", "--power", "1/9973", "--terms", "1100"]
    cap = sys.get_int_max_str_digits()
    assert cli.run(argv) == 0
    assert capsys.readouterr().err == ""
    code = cli.run(["--json"] + argv)
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert sys.get_int_max_str_digits() == cap
    want = eta_power(Fraction(1, 9973), 1100).coeffs[-1]
    num, den = json.loads(captured.out)["series"]["coeffs"][-1].split("/")
    sys.set_int_max_str_digits(0)
    try:
        assert len(num) > cap and Fraction(int(num), int(den)) == want
    finally:
        sys.set_int_max_str_digits(cap)


def test_eisenstein_dump_has_weight_and_constant_term(capsys):
    code, payload = run_json(capsys, ["eisenstein", "--weight", "4", "--terms", "6"])
    assert code == 0
    assert payload["series"]["weight"] == "4/1"
    assert payload["series"]["coeffs"][0] == "1/720"


def test_gram_dump_shows_the_level_two_matrix(capsys):
    code, payload = run_json(capsys, ["gram", "--c", "1/2", "--h", "1/2", "--level", "2"])
    assert code == 0
    assert payload["entries"] == [["9/4", "3/1"], ["3/1", "4/1"]]
    assert payload["rank"] == 1
    assert payload["basis"] == ["2", "1,1"]


def test_zhu_dump_lists_kac_roots(capsys):
    code, payload = run_json(capsys, ["zhu", "--m", "1"])
    assert code == 0
    assert payload["singular_level"] == 6
    assert [r["root"] for r in payload["roots"]] == ["0/1", "1/16", "1/2"]
    assert payload["complete"] is True


def test_mde_derive_reports_the_weight_bound_it_reached(capsys):
    for h, tail in (("1/2", "; weight bound 5/2"), ("0", "; weight bound 8/1")):
        code, payload = run_json(capsys, ["mde", "derive", "--m", "1", "--h", h])
        assert code == 0
        assert payload["reports"][0]["actual"].endswith(tail), h


def test_negative_rationals_take_the_equals_form(capsys):
    code, payload = run_json(capsys, ["mde", "derive", "--c=-22/5", "--h=-1/5"])
    assert code == 0
    assert payload["reports"][0]["actual"].startswith("order 1; D^1 = 0; indicial roots -1/60 (x1)")
    with pytest.raises(SystemExit) as exc:
        cli.run(["mde", "derive", "--c", "-22/5", "--h", "-1/5"])
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


def test_the_verma_route_at_h_zero_stays_legal(capsys):
    code, payload = run_json(capsys, ["dims", "--c", "1/2", "--h", "0", "--max-level", "4", "--no-vacuum"])
    assert code == 0
    assert payload["graded_dims"] == [1, 0, 1, 1, 2]


def test_dims_text_output_lists_dimensions(capsys):
    code = cli.run(["dims", "--c", "1/2", "--h", "0", "--max-level", "8"])
    out = capsys.readouterr().out
    assert code == 0
    assert "1 0 1 1 2 2 3 3 5" in out


# ---------------------------------------------------------------------------
# checks and reports
# ---------------------------------------------------------------------------

def test_verify_traces_passes_and_exits_zero(capsys):
    code, payload = run_json(capsys, ["verify", "traces"])
    assert code == 0
    assert payload["summary"]["failed"] == 0
    assert payload["summary"]["total"] == 8
    names = [r["check_name"] for r in payload["reports"]]
    assert names == sorted(names)
    statuses = {r["status"] for r in payload["reports"]}
    assert statuses == {"pass"}


def test_exact_reports_have_no_tolerance_field(capsys):
    _, payload = run_json(capsys, ["verify", "traces"])
    for rep in payload["reports"]:
        assert "tolerance" not in rep
        assert rep["runtime_ms"] == 0  # zeroed by --stable-json


def test_numeric_reports_carry_their_tolerance(capsys):
    code, payload = run_json(capsys, ["modular-check", "--terms", "40"])
    assert code == 0
    for rep in payload["reports"]:
        assert rep["tolerance"] in ("1e-6", "1e-10")


def test_stable_json_is_byte_identical_across_runs(capsys):
    cli.run(["--json", "--stable-json", "verify", "traces"])
    first = capsys.readouterr().out
    cli.run(["--json", "--stable-json", "verify", "traces"])
    second = capsys.readouterr().out
    assert first == second


def test_flagged_exponent_is_reported_as_a_pass_with_a_note(capsys):
    _, payload = run_json(capsys, ["verify", "traces"])
    rep = next(r for r in payload["reports"] if r["check_name"] == "leading-exponent-m4")
    assert rep["status"] == "pass"
    assert "1/84" in rep["actual"]
    assert "1/81" in rep["actual"]


def test_a_wrong_trace_weight_fails_the_exponent_check(capsys, monkeypatch):
    # h_w - c/24 is checked against h_u/12, the leading exponent of eta^(2 h_u)
    monkeypatch.setattr(mde, "TRACE_CASES", (mde.TRACE_CASES[0]._replace(h_w=Fraction(1, 17)),))
    code, payload = run_json(capsys, ["verify", "traces"])
    assert code == 1
    rep = next(r for r in payload["reports"] if r["check_name"] == "leading-exponent-m1")
    assert rep["status"] == "fail"
    assert rep["expected"] == "1/24"


def test_truncating_too_hard_fails_the_numeric_checks(capsys):
    code, payload = run_json(capsys, ["modular-check", "--terms", "1"])
    assert code == 1
    failed = [r for r in payload["reports"] if r["status"] == "fail"]
    assert failed, "one-term series should not look modular to 1e-6"


def test_e2_inversion_checks_the_truncation_it_was_given(capsys):
    # the 3-term E2 misses the identity by about 1.5e-6, the 5-term one by about 1e-10
    residuals = {}
    for terms in (3, 5):
        _, payload = run_json(capsys, ["modular-check", "--terms", str(terms)])
        rep = next(r for r in payload["reports"] if r["check_name"] == "e2-inversion")
        residuals[terms] = (rep["status"], float(rep["actual"].removeprefix("residual ")))
    assert residuals[3][0] == "fail" and 1e-6 < residuals[3][1] < 1e-5
    assert residuals[5][0] == "pass" and residuals[5][1] < 1e-9


@pytest.mark.parametrize("name,argv", [
    ("verify_all.json", ["verify", "all"]),
    ("mde_derive_c7-10_h0_b12.json", ["mde", "derive", "--c", "7/10", "--h", "0", "--weight-bound", "12"]),
    ("mde_derive_c4-5_h2-3_b38-3.json", ["mde", "derive", "--c", "4/5", "--h", "2/3", "--weight-bound", "38/3"]),
    ("mde_derive_c4-5_h7-5_b67-5.json", ["mde", "derive", "--c", "4/5", "--h", "7/5", "--weight-bound", "67/5"]),
    ("mde_solve_c1-2_h0_t40.json", ["mde", "solve", "--c", "1/2", "--h", "0", "--terms", "40"]),
    ("mde_solve_c7-10_h0_b12_t20.json",
     ["mde", "solve", "--c", "7/10", "--h", "0", "--weight-bound", "12", "--terms", "20"]),
])
def test_stable_json_equals_the_golden_output(capsys, name, argv):
    # byte for byte; a change that means to alter one of these outputs
    # rewrites its file under tests/golden and says why
    code = cli.run(["--json", "--stable-json"] + argv)
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# failure and usage paths
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("function,suite,size", [
    ("verify_p_wp_relations", "weierstrass-expansion", 5),
    ("verify_wp_structure", "wp-structure", 9),
    ("verify_residue_identities", "residue-identities", 36),
    ("verify_expansion_identity", "binomial-mode-expansion", 5),
])
def test_an_elliptic_suite_that_raises_gives_one_error_report(capsys, monkeypatch, function, suite, size):
    # the other three suites still report, all 55 - size of their checks
    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(elliptic, function, boom)
    code, payload = run_json(capsys, ["elliptic-identities"])
    assert code == 1
    assert [r for r in payload["reports"] if r["status"] != "pass"] == [
        {"actual": "RuntimeError: boom", "check_name": suite, "expected": "", "runtime_ms": 0, "status": "error"}]
    assert payload["summary"] == {"total": 56 - size, "passed": 55 - size, "failed": 1}

def test_underivable_weight_gives_a_structured_error_report(capsys):
    code, payload = run_json(capsys, ["mde", "derive", "--m", "1", "--h", "1/3"])
    assert code == 1
    rep = payload["reports"][0]
    assert rep["status"] == "error"
    assert "no recursion" in rep["actual"]


def test_missing_central_charge_is_a_usage_error(capsys):
    code = cli.run(["mde", "derive", "--h", "1/2"])
    assert code == 2
    assert "one of --m or --c" in capsys.readouterr().err


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        cli.run(["no-such-command"])
    assert exc.value.code == 2


def test_bad_tau_is_rejected():
    with pytest.raises(SystemExit) as exc:
        cli.run(["modular-check", "--tau", "0.3,-1.0"])
    assert exc.value.code == 2


def test_solving_at_a_non_root_reports_an_error(capsys):
    code, payload = run_json(capsys, ["mde", "solve", "--m", "1", "--h", "1/2",
                                      "--exponent", "1/3"])
    assert code == 1
    assert payload["reports"][0]["status"] == "error"
    assert "not an indicial root" in payload["reports"][0]["actual"]


@pytest.mark.parametrize("argv,message", [
    (["zhu", "--m", "0"], "m must be a positive integer"),
    (["mde", "derive", "--m", "0", "--h", "0"], "m must be a positive integer"),
    (["eta", "--terms", "0"], "terms must be positive"),
    (["eisenstein", "--weight", "3"], "even integer >= 2, got 3"),
    (["cofinite", "--c", "1/2", "--h", "0", "--max-level", "-2"], "--max-level must be >= 0"),
    (["dims", "--c", "1/2", "--h", "0", "--max-level", "-2"], "--max-level must be >= 0"),
    (["gram", "--c", "1/2", "--h", "0", "--level", "-1"], "--level must be >= 0"),
    (["singular", "--c", "1/2", "--h", "0", "--level", "-3"], "--level must be >= 0"),
    (["modular-check", "--terms", "0"], "--terms must be >= 1, got 0"),
    (["modular-check", "--terms", "-3"], "--terms must be >= 1, got -3"),
    (["verify", "traces", "--terms", "0"], "--terms must be >= 1, got 0"),
    (["elliptic-identities", "--terms", "0"], "--terms must be >= 1, got 0"),
    (["mde", "solve", "--m", "1", "--h", "1/2", "--terms", "0"], "--terms must be >= 1, got 0"),
    (["mde", "derive", "--m", "1", "--h", "1/2", "--weight-bound", "1"],
     "--weight-bound must be >= h + 2 = 5/2, got 1"),
    (["mde", "solve", "--m", "1", "--h", "1/2", "--weight-bound", "2"],
     "--weight-bound must be >= h + 2 = 5/2, got 2"),
    (["gram", "--c", "1/2", "--h", "1/2", "--level", "4", "--vacuum"], "only at h = 0, got h = 1/2"),
    (["singular", "--c", "1/2", "--h", "1/2", "--level", "4", "--vacuum"], "only at h = 0, got h = 1/2"),
    (["dims", "--c", "1/2", "--h", "1/2", "--max-level", "4", "--vacuum"], "only at h = 0, got h = 1/2"),
    (["modular-check", "--tau", "0.3,1.1"], "--tau needs at least two distinct sample points, got 1"),
    (["modular-check", "--tau", "0.3,1.1", "--tau", "0.3,1.1"], "at least two distinct sample points, got 1"),
])
def test_bad_values_exit_two_with_one_line(capsys, argv, message):
    code = cli.run(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: ") and message in captured.err


@pytest.mark.parametrize("argv,message", [
    (["zhu", "--m", "1", "--bogus", "3"], "unrecognized arguments: --bogus 3"),
    (["zhu", "--m", "1", "--trunc", "3"], "unrecognized arguments: --trunc 3"),
    (["modular-check", "--tau", "0.3,-1"], "tau must lie in the upper half plane"),
    (["mde", "derive", "--c", "-22/5", "--h", "0"], "argument --c: expected one argument"),
    (["no-such-command"], "invalid choice: 'no-such-command'"),
    (["mde"], "required: action"),
    (["modular-check", "--tau=nan,1", "--tau=0.3,1.1"], "tau parts must be finite, got 'nan,1'"),
    (["modular-check", "--tau=0,inf", "--tau=0.3,1.1"], "tau parts must be finite, got '0,inf'"),
    (["modular-check", "--tau=inf,1", "--tau=0.3,1.1"], "tau parts must be finite, got 'inf,1'"),
    (["modular-check", "--tau=0.3,1e400", "--tau=0.3,1.1"], "tau parts must be finite, got '0.3,1e400'"),
    (["--text", "verify", "traces"], "unrecognized arguments: --text"),
    (["--cache-dir=D", "eta"], "unrecognized arguments: --cache-dir=D"),
    (["mde", "derive", "--m", "1", "--c", "7/10", "--h", "0"], "argument --c: not allowed with argument --m"),
    (["modular-check", "--tau", "1e308,1", "--tau", "0,1"], "-1/tau underflows onto the real axis, got '1e308,1'"),
    (["modular-check", "--tau", "0,1e300", "--tau", "0,1"], "q = exp(2 pi i tau) underflows to 0 at tau or -1/tau"),
    (["modular-check", "--tau", "0,1e-300", "--tau", "0,1"], "q = exp(2 pi i tau) underflows to 0 at tau or -1/tau"),
])
def test_parse_errors_exit_two_with_one_line(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        cli.run(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: ") and message in captured.err


def test_elliptic_reports_time_their_own_work(capsys):
    code = cli.run(["--json", "elliptic-identities"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["summary"]["total"] == 55
    assert sum(r["runtime_ms"] for r in payload["reports"]) > 0


# ---------------------------------------------------------------------------
# the parser
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [["--help"], ["mde", "solve", "--help"]])
def test_help_does_not_depend_on_the_terminal_width(argv):
    outputs = []
    for columns in ("40", "200", None):
        env = {"PYTHONPATH": str(SRC)} | ({"COLUMNS": columns} if columns else {})
        proc = subprocess.run([sys.executable, "-m", "traceform.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")
        outputs.append(proc.stdout)
    assert outputs[0].startswith("usage: traceform")
    assert outputs[0] == outputs[1] == outputs[2]


def _outcome(capsys, argv):
    try:
        code = cli.run(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("first,second", [
    (["--json", "--stable-json", "modular-check", "--tau=0.1,1.1", "--tau=-0.2,0.9"],
     ["--json", "--stable-json", "modular-check"]),
    (["--json", "--stable-json", "mde", "derive", "--m", "1", "--h", "1/2"],
     ["--json", "--stable-json", "mde", "derive", "--c", "7/10", "--h", "1/10"]),
    (["modular-check", "--tau", "0.3,-1"], ["--json", "--stable-json", "verify", "traces"]),
    (["--json", "--stable-json", "verify", "traces"], ["--stable-json", "verify", "traces"]),
])
def test_the_cached_parser_carries_nothing_from_one_run_to_the_next(capsys, first, second):
    cli._build_parser.cache_clear()
    reused = [_outcome(capsys, first), _outcome(capsys, second)]
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    fresh = []
    for argv in (first, second):
        cli._build_parser.cache_clear()
        fresh.append(_outcome(capsys, argv))
    assert reused == fresh
    assert [code for code, _, _ in fresh] == ([2, 0] if first[0] == "modular-check" else [0, 0])

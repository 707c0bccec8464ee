import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from iciroot import basins, cli, mpscalar
from iciroot.cli import main
from iciroot.solve import METHODS, SolveConfig, solve_expr, write_trace_csv

from oracles import wilkinson_text


def test_missing_function_flag_is_usage_error(capsys):
    assert main(["solve", "--x0", "1"]) == 1
    err = capsys.readouterr().err
    assert "--f" in err


def test_unknown_flag_is_usage_error(capsys):
    assert main(["solve", "--nope", "1"]) == 1


def test_bad_function_text_exits_one(capsys):
    assert main(["solve", "--f", "x ++* 2", "--x0", "1"]) == 1
    assert "offset" in capsys.readouterr().err


def test_two_variable_function_exits_one(capsys):
    assert main(["solve", "--f", "x*y", "--x0", "1"]) == 1
    assert "'y'" in capsys.readouterr().err


def test_explicit_zero_max_iter_is_not_replaced_by_the_default(capsys):
    assert main(["solve", "--f", "x^2-2", "--x0", "1", "--max-iter", "0"]) == 1
    assert "max_iter must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["solve", "--f", "x-1", "--x0", "5", "--complex"], "unrecognized arguments: --complex"),
    (["basin", "--f", "z^3-1", "--size", "4", "--overflow-exp", "10"],
     "unrecognized arguments: --overflow-exp 10"),
    (["solve", "--f", "x-1", "--x0", "5", "--method", "ici_averaged"],
     "argument --method: invalid choice: 'ici_averaged'"),
    (["solve", "--f", "x-1", "--x0", "5", "--out", "t.txt", "--format", "text"],
     "unrecognized arguments: --format text"),
    (["order", "--f", "x-1", "--x0", "5", "--out", "r.csv", "--format", "csv"],
     "unrecognized arguments: --format csv"),
    (["scan", "--f", "z^3-1", "--from", "0.9+0i", "--to", "1.1+0i", "--out", "s.csv",
      "--size", "4"], "unrecognized arguments: --size 4")],
    ids=["complex", "overflow-exp", "ici_averaged", "solve-format", "order-format", "scan-size"])
def test_retired_flags_and_method_are_usage_errors(tmp_path, monkeypatch, capsys, argv, message):
    # a complex x0 is written with its imaginary part; the overflow cap is fixed;
    # each --out has one format; a scan has no window or pixel grid
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_flag_prefixes_are_usage_errors(capsys):
    assert main(["solve", "--f", "x^2-2", "--x0", "1", "--digit", "20", "--max", "3"]) == 1
    assert "unrecognized arguments: --digit 20 --max 3" in capsys.readouterr().err
    parser, commands = cli._build_parser()
    assert not any(p.allow_abbrev for p in [parser, *commands.values()])


def test_more_than_two_size_values_is_usage_error(tmp_path, capsys):
    code = main(["basin", "--f", "z^3-1", "--size", "4", "3", "9",
                 "--out", str(tmp_path / "b.ppm")])
    assert code == 1
    assert "--size" in capsys.readouterr().err
    assert not (tmp_path / "b.ppm").exists()


@pytest.mark.parametrize("ftext", ["(" * 200 + "x" + ")" * 200 + "-1", "+".join(["x"] * 500) + "-1"],
                         ids=["200-deep", "500-terms"])
@pytest.mark.parametrize("command", [["solve", "--x0", "1"], ["basin", "--size", "1"]],
                         ids=["solve", "basin"])
def test_an_expression_too_deep_for_the_stack_exits_one(tmp_path, capsys, ftext, command):
    out_file = tmp_path / "out"
    assert main([*command, "--f", ftext, "--out", str(out_file)]) == 1
    assert capsys.readouterr().err == "error: expression is nested too deeply\n"
    assert not out_file.exists()


_BAD_TOLERANCE_OR_WINDOW = [("tol-0", ["--tol", "0"], "tol must be positive"),
                            ("tol-negative", ["--tol=-1"], "tol must be positive"),
                            ("re-inf", ["--re", "0", "inf"], "finite, non-degenerate"),
                            ("im-empty", ["--im", "1", "1"], "non-degenerate"),
                            ("re-text", ["--re", "1", "one"], "invalid real literal 'one'")]


# only basin has a window; scan iterates along its --from/--to segment
@pytest.mark.parametrize("command, flags, message", [
    pytest.param(command, flags, message, id=f"{name}-{command}")
    for name, flags, message in _BAD_TOLERANCE_OR_WINDOW
    for command in (("basin", "scan") if flags[0].startswith("--tol") else ("basin",))])
def test_a_bad_tolerance_or_window_exits_one(tmp_path, capsys, command, flags, message):
    out_file = tmp_path / "out"
    argv = [command, "--f", "z^3-1", "--out", str(out_file), *flags]
    argv += ["--size", "4"] if command == "basin" else ["--from", "0.9+0i", "--to", "1.1+0i"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out_file.exists()


def test_a_deep_zoom_window_on_the_re_flag_reaches_the_spec(tmp_path, capsys, monkeypatch):
    # the two ends are one double apart from nothing: read as text at 34 digits
    # they give four distinct column centres
    specs = []
    real = basins.render
    monkeypatch.setattr(basins, "render", lambda spec: specs.append(spec) or real(spec))
    assert main(["basin", "--f", "z^3-1", "--re", "1.00000000000000000001",
                 "1.00000000000000000002", "--size", "4", "1",
                 "--out", str(tmp_path / "b.ppm")]) == 0
    assert capsys.readouterr().out.endswith("converged 4/4, nan 0\n")
    assert specs[0].re_range == ("1.00000000000000000001", "1.00000000000000000002")
    res, _ = specs[0].grid()
    assert len(set(res)) == 4


@pytest.mark.parametrize("argv, text", [
    (["solve", "--f", "exp(x)-1", "--x0=-40", "--max-iter", "4", "--out", "t.csv"],
     ",6.545829279730056713091794744333112161171e+102226522508642260,"),
    (["order", "--f", "exp(x)-1", "--x0=-40", "--max-iter", "4"],
     "predicted_next: 4.4526347e+102226522508642257\n"),
    (["solve", "--f", "x^2-2", "--x0", "1e400000000"], "root: 1.0e+400000000\n"),
    (["solve", "--f", "exp(exp(z))", "--x0", "800+1i", "--digits", "20", "--max-iter", "2",
      "--out", "t.csv"], ",-5.4329920305528525769e+63974463851724924204638664")],
    ids=["solve-csv", "order", "huge-x0", "binary-exponent-past-2**60"])
def test_values_with_huge_decimal_exponents_print_quickly(tmp_path, monkeypatch, capsys,
                                                           argv, text):
    # the residuals of the exp problem reach e**(2.35e17), those of exp(exp(z))
    # at 800+i about 2**(2**1154)
    monkeypatch.chdir(tmp_path)
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 10
    shown = capsys.readouterr().out
    if "--out" in argv:
        shown += (tmp_path / "t.csv").read_text()
    assert text in shown


def test_order_reads_back_a_trace_with_a_complex_nan(tmp_path, capsys):
    trace_file = tmp_path / "t.txt"
    assert main(["solve", "--f", "log(z-1)*(z-1)", "--x0", "1+0i", "--digits", "20",
                 "--out", str(trace_file)]) == 2
    assert ",nan+nani," in trace_file.read_text()
    capsys.readouterr()
    assert main(["order", "--trace", str(trace_file)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "" and "fitted_constant: nan" in captured.out
    assert captured.out.startswith("status: nan (0 iterations)\n")


# each value is led by a single '-'; the flag is checked on each subcommand that has it
_DASH_LED_VALUES = [(["--x0", "-1e-3"], {"x0": "-1e-3"}),
                    (["--x0", "-0.5+0.5i"], {"x0": "-0.5+0.5i"}),
                    (["--x0", "-inf"], {"x0": "-inf"}),
                    (["--f", "-x^3+2*x+5"], {"f": "-x^3+2*x+5"}),
                    (["--re", "-1e-3", "1e-3"], {"re": ["-1e-3", "1e-3"]}),
                    (["--from", "-1.45+0i", "--to", "-1.05+0i"],
                     {"seg_from": "-1.45+0i", "seg_to": "-1.05+0i"})]


@pytest.mark.parametrize("command", ["solve", "order", "compare", "basin", "scan"])
def test_values_led_by_a_dash_are_values_on_every_subcommand(command):
    _, commands = cli._build_parser()
    flags = {opt for action in commands[command]._actions for opt in action.option_strings}
    checked = 0
    for argv, expected in _DASH_LED_VALUES:
        if argv[0] in flags:
            args = cli._parse_args([command, *argv])
            assert {dest: getattr(args, dest) for dest in expected} == expected
            checked += 1
    assert checked == {"solve": 4, "order": 4, "compare": 4, "basin": 2, "scan": 2}[command]


@pytest.mark.parametrize("argv, code, root", [
    (["--f", "x^3-2*x-5", "--x0", "-1e-3"], 0, "root: 2.0945514815423265914823865405793"),
    (["--f", "z^3-1", "--x0", "-0.5+0.5i"], 0, "root: -0.5+0.866025403784438646763723170752936"),
    (["--f", "x^3-2*x-5", "--x0", "-inf"], 2, "root: -inf"),
    (["--f", "-x^3+2*x+5", "--x0", "2"], 0, "root: 2.0945514815423265914823865405793")],
    ids=["exponent", "complex", "inf", "function"])
def test_solve_reads_values_led_by_a_dash(capsys, argv, code, root):
    assert main(["solve", *argv, "--digits", "40"]) == code
    captured = capsys.readouterr()
    assert captured.err == "" and root in captured.out


def test_solve_dash_h_still_prints_help(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: iciroot solve")


def test_solve_linear_converges_with_exit_zero(capsys):
    code = main(["solve", "--f", "x", "--x0", "5", "--digits", "20"])
    out = capsys.readouterr().out
    assert code == 0
    assert "status: converged (1 iterations)" in out
    assert "root: 0.0" in out


def test_solve_nonconvergence_exits_two(capsys):
    code = main(["solve", "--f", "x^2+1", "--x0", "3", "--digits", "20",
                 "--max-iter", "8"])
    assert code == 2


def test_solve_classic_preset(capsys):
    code = main(["solve", "--preset", "newton-classic"])
    out = capsys.readouterr().out
    assert code == 0
    assert "root: 2.09455148154232659148238654057930" in out


def test_double_root_prints_slow_convergence_warning(capsys):
    code = main(["solve", "--f", "(x-2)^2", "--x0", "0.5", "--digits", "30",
                 "--max-iter", "40"])
    out = capsys.readouterr().out
    assert code == 0
    assert "warning" in out
    assert "multiple-root" in out


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("ftext, x0", [("x^3-2*x-5", "2"), ("(x^2+x)*exp(-x)-1/3", "2.0"),
                                       ("x - 0.083*sin(x) - 1", "1")])
def test_simple_roots_print_no_warning_under_any_method(ftext, x0, method, capsys):
    assert main(["solve", "--f", ftext, "--x0", x0, "--digits", "60", "--method", method]) == 0
    assert "warning" not in capsys.readouterr().out


# x^2*(x-1) from 0.5 lands on the root 0 in one step, so it starts from -0.4
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("ftext, x0, m", [
    ("(x-1)^2*(x+2)", "3", 2), ("(x-1)^3*(x+2)", "3", 3), ("(x-1)^4", "3", 4),
    ("x^2*(x-1)", "-0.4", 2), ("(exp(x)-2)^2", "1", 2), ("(x^2-2)^2*(x-5)", "1", 2),
    ("(x-2)^2", "0.5", 2), ("(z^2+1)^2*(z-3)", "0.3+1.2i", 2)])
def test_multiple_roots_print_their_multiplicity_under_every_method(ftext, x0, m, method, capsys):
    main(["solve", "--f", ftext, "--x0", x0, "--digits", "40", "--method", method])
    warnings = [line for line in capsys.readouterr().out.splitlines() if "warning" in line]
    assert warnings == [f"warning: multiple-root of multiplicity ~{m}; convergence is linear"]


@pytest.mark.parametrize("digits", ["40", "100"])
@pytest.mark.parametrize("method", METHODS)
def test_the_wilkinson_floor_gets_no_multiplicity_claim(digits, method, capsys):
    # near 19 the expanded form's rounding keeps |y| noisy far above tol: the
    # estimates scatter there, and no three of them agree on an integer
    main(["solve", "--f", wilkinson_text(), "--x0", "19.4", "--digits", digits,
          "--method", method])
    assert "warning" not in capsys.readouterr().out


def test_solve_writes_csv(tmp_path, capsys):
    # the one --out format of solve: the run's key: value lines, then the CSV table
    out_file = tmp_path / "trace.txt"
    code = main(["solve", "--f", "x^2-2", "--x0", "1.5", "--digits", "30",
                 "--out", str(out_file)])
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[:6] == ["function: x^2-2", "x0: 1.5", "digits: 30", "tol: 1.0e-20",
                         "method: ici", "status: converged"]
    assert lines[6] == "n,x,y,yp,step_kind,log10_abs_y"
    assert len(lines) > 9


def test_solve_writes_text_and_order_reads_it_back(tmp_path, capsys):
    out_file = tmp_path / "trace.txt"
    assert main(["solve", "--f", "x^2-2", "--x0", "1.5", "--digits", "120",
                 "--max-iter", "4", "--out", str(out_file)]) == 2
    text = out_file.read_text()
    assert text.startswith("function: x^2-2\n")
    assert "status: max_iter" in text
    capsys.readouterr()
    code = main(["order", "--trace", str(out_file)])
    out = capsys.readouterr().out
    assert code == 2
    assert out.startswith("status: max_iter (4 iterations)\n")
    assert "fitted_constant:" in out
    assert "k,digits,ratio" in out


def test_order_rejects_a_trace_table_with_no_records(tmp_path, capsys):
    # every written trace holds at least its seed record
    trace_file = tmp_path / "empty.txt"
    trace_file.write_text("function: x^2-2\ndigits: 40\nstatus: nan\n"
                          "n,x,y,yp,step_kind,log10_abs_y\n")
    assert main(["order", "--trace", str(trace_file)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "no records" in captured.err
    assert captured.out == ""


def test_order_rejects_a_trace_row_with_too_few_fields(tmp_path, capsys):
    trace_file = tmp_path / "short.txt"
    trace_file.write_text("function: x^2-2\ndigits: 40\nstatus: max_iter\n"
                          "n,x,y,yp,step_kind,log10_abs_y\n0,1.5,0.25\n")
    assert main(["order", "--trace", str(trace_file)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "0,1.5,0.25" in captured.err
    assert captured.out == ""


def test_order_of_a_missing_trace_file_is_an_error(tmp_path, capsys):
    assert main(["order", "--trace", str(tmp_path / "missing.txt")]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "missing.txt" in captured.err
    assert captured.out == ""


def test_order_rejects_a_bare_trace_table(tmp_path, capsys):
    # a table with no digits: or status: line, as solve --out wrote it when a
    # bare CSV table was its default, says neither its precision nor its outcome
    p = mpscalar.Precision(200)
    trace = solve_expr("(x^2+x)*exp(-x)-1/3", p.real("2.0"), SolveConfig(precision=p))
    assert trace.converged
    write_trace_csv(trace, tmp_path / "e.csv", digits=200)
    assert main(["order", "--trace", str(tmp_path / "e.csv")]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: trace text has no 'digits:' line\n" and captured.out == ""


@pytest.mark.parametrize("flags", [["--f", "x^2-2"], ["--x0", "1"], ["--digits", "30"],
                                   ["--tol", "1e-10"], ["--max-iter", "3"],
                                   ["--method", "newton"], ["--preset", "newton-classic"]],
                         ids=lambda flags: flags[0])
def test_order_from_a_trace_refuses_the_solve_flags(tmp_path, capsys, flags):
    # the trace file fixes the run; a solve flag given with it would be
    # silently ignored
    trace_file = tmp_path / "t.txt"
    assert main(["solve", "--f", "x^2-2", "--x0", "1.5", "--out", str(trace_file)]) == 0
    capsys.readouterr()
    assert main(["order", "--trace", str(trace_file), *flags]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: --trace reads a saved trace; {flags[0]} does not apply\n"
    assert captured.out == ""
    assert main(["order", "--trace", str(trace_file)]) == 0


@pytest.mark.parametrize("flags", [["--digits", "40"], ["--digits=40"], ["--max-iter", "100"],
                                   ["--method", "ici"]], ids=lambda flags: flags[0])
def test_order_from_a_trace_refuses_a_solve_flag_at_its_default_value(tmp_path, capsys, flags):
    # a flag that repeats its default is given all the same, and ignored
    # all the same; the flags with no default are refused by the test above
    trace_file = tmp_path / "t.txt"
    assert main(["solve", "--f", "x^2-2", "--x0", "1.5", "--out", str(trace_file)]) == 0
    capsys.readouterr()
    assert main(["order", "--trace", str(trace_file), *flags]) == 1
    captured = capsys.readouterr()
    name = flags[0].split("=")[0]
    assert captured.err == f"error: --trace reads a saved trace; {name} does not apply\n"
    assert captured.out == ""


@pytest.mark.parametrize("args", [
    ["solve", "--f", "x^2-2", "--x0", "1.5", "--digits", "20", "--out", "{bad}"],
    ["order", "--f", "x^2-2", "--x0", "1.5", "--digits", "20", "--out", "{bad}"],
    ["basin", "--f", "z^3-1", "--size", "1", "--out", "{bad}"],
    ["basin", "--f", "z^3-1", "--size", "1", "--out", "{ok}", "--csv", "{bad}"],
    ["scan", "--f", "z^3-1", "--from=-1+0i", "--to=1+0i", "--samples", "2", "--out", "{bad}"],
], ids=["solve-text", "order", "basin", "basin-csv", "scan"])
def test_an_unwritable_output_path_is_an_error(tmp_path, capsys, args):
    # the results are printed first; the failed write then exits 1 without a traceback
    paths = {"bad": str(tmp_path / "no" / "such" / "dir" / "x.out"), "ok": str(tmp_path / "b.ppm")}
    assert main([a.format(**paths) for a in args]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "x.out" in err


def test_order_runs_a_solve_and_reports(tmp_path, capsys):
    report_file = tmp_path / "report.csv"
    code = main(["order", "--f", "x^2-2", "--x0", "1.5", "--digits", "120",
                 "--max-iter", "4", "--out", str(report_file)])
    out = capsys.readouterr().out
    assert code == 2  # max_iter budget: not converged, report still emitted
    assert "fitted_constant:" in out
    header = report_file.read_text().splitlines()[0]
    assert header.startswith("k,digits,ratio")


def test_order_writes_the_report_in_the_requested_format(tmp_path, capsys):
    # the one --out format of order: the report's per-step table as CSV; the
    # report text is what order prints
    assert main(["order", "--f", "x^2-2", "--x0", "1", "--digits", "20",
                 "--out", str(tmp_path / "r.csv")]) == 0
    out = capsys.readouterr().out
    table = (tmp_path / "r.csv").read_text()
    assert table.startswith("k,digits,ratio") and "fitted_constant:" not in table
    assert out.splitlines()[1].startswith("fitted_constant:")


def test_solve_reads_a_literal_with_a_bare_leading_dot(capsys):
    assert main(["solve", "--f", "x-.0-1", "--x0", "3", "--digits", "20"]) == 0
    assert "root: 1.0" in capsys.readouterr().out


@pytest.mark.parametrize("x0", [".0", "-.5", ".0e5"])
def test_solve_reads_an_x0_with_a_bare_leading_dot(capsys, x0):
    assert main(["solve", "--f", "x-1", f"--x0={x0}", "--digits", "20"]) == 0
    assert "root: 1.0" in capsys.readouterr().out


@pytest.mark.parametrize("ftext", ["x-{lit}", "x-2*{int}"], ids=["decimal", "integer"])
def test_a_literal_past_4300_digits_in_the_function_solves(capsys, ftext):
    # Python refuses int <-> text past 4300 digits; the literal is read in parts
    digits = "".join(str(k * k % 10) for k in range(4400))
    lit, integer = "1." + digits[1:], "7" * 4400
    assert main(["solve", "--f", ftext.format(lit=lit, int=integer), "--x0", "1",
                 "--digits", "4500", "--max-iter", "3"]) == 0
    p = mpscalar.Precision(4500)
    want = p.real(lit) if "lit" in ftext else 2 * p.real(integer)
    root = capsys.readouterr().out.splitlines()[-1].removeprefix("root: ")
    assert abs(p.real(root) - want) <= abs(want) * p.eps


@pytest.mark.parametrize("tol, message", [
    ("inf", "tol must be positive and finite"), ("nan", "tol must be positive and finite"),
    ("0", "tol must be positive and finite"), ("-1", "tol must be positive and finite"),
    ("abc", "invalid real literal 'abc'"), ("1/3", "invalid real literal '1/3'")])
def test_a_bad_solve_tolerance_exits_one(capsys, tol, message):
    # x = 1 is no root of x-2: an infinite tolerance must not call it one
    assert main(["solve", "--f", "x-2", "--x0", "1", f"--tol={tol}"]) == 1
    out, err = capsys.readouterr()
    assert err == f"error: {message}\n" and "converged" not in out


@pytest.mark.parametrize("x0", ["1_0", "1/3", "-x"])
def test_an_x0_outside_the_decimal_grammar_exits_one(capsys, x0):
    # mpmath's reader takes the first two; the one decimal grammar, as in --f,
    # does not; '-x' reaches it as a value, not as a flag
    assert main(["solve", "--f", "x-1", "--x0", x0]) == 1
    out, err = capsys.readouterr()
    assert err == f"error: invalid real literal {x0!r}\n" and out == ""


def test_order_preset_expands(capsys):
    # the 1000-digit preset itself is exercised in the acceptance suite;
    # here only the flag expansion is checked, with overriding flags
    code = main(["order", "--preset", "exp-1000", "--digits", "60", "--max-iter", "5"])
    out = capsys.readouterr().out
    assert code == 2
    assert "fitted_constant:" in out


def test_compare_table(capsys):
    code = main(["compare", "--f", "x^3-2*x-5", "--x0", "2", "--digits", "40",
                 "--tol", "1e-30"])
    out = capsys.readouterr().out
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert lines[0].startswith("method")
    methods = [l.split()[0] for l in lines[1:4]]
    assert methods == ["newton", "ici", "secant"]
    for l in lines[1:4]:
        assert "converged" in l


def test_compare_exits_two_on_a_degenerate_problem(capsys):
    assert main(["compare", "--f", "x*0+1", "--x0", "1"]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert [l.split()[1] for l in lines[1:4]] == ["degenerate"] * 3


def test_compare_tie_on_linear_function(capsys):
    code = main(["compare", "--f", "x", "--x0", "5", "--digits", "20"])
    out = capsys.readouterr().out
    assert code == 0
    for l in out.splitlines()[1:4]:
        assert l.split()[2] == "1"


@pytest.mark.parametrize("flags", [["--method", "newton"], ["--out", "cmp.csv"],
                                   ["--format", "text"]], ids=["method", "out", "format"])
def test_compare_rejects_the_flags_it_cannot_honour(tmp_path, capsys, flags):
    # compare runs every method and writes no file
    if "--out" in flags:
        flags = ["--out", str(tmp_path / "cmp.csv")]
    assert main(["compare", "--f", "x^2-2", "--x0", "1", "--digits", "20", *flags]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_compare_exits_zero_when_methods_stop_at_max_iter(capsys):
    # a max_iter row is a comparison outcome; only degenerate or nan exits 2
    assert main(["compare", "--f", "x^2-2", "--x0", "1", "--max-iter", "3"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split()[:2] for row in rows] == [["newton", "max_iter"], ["ici", "max_iter"],
                                                 ["secant", "max_iter"]]


def test_basin_one_pixel_is_valid_ppm(tmp_path, capsys):
    out_file = tmp_path / "b.ppm"
    code = main(["basin", "--f", "z^3-1", "--re", "-2", "2", "--im", "-2", "2",
                 "--size", "1", "--out", str(out_file)])
    assert code == 0
    data = out_file.read_bytes()
    assert data.startswith(b"P6\n1 1\n255\n")
    assert len(data) == 11 + 3


@pytest.mark.parametrize("command, entry", [("basin", "render")])
def test_window_ends_in_negative_exponent_form_are_values(tmp_path, capsys, monkeypatch,
                                                          command, entry):
    specs = []
    real = getattr(basins, entry)
    monkeypatch.setattr(basins, entry, lambda spec, *args: specs.append(spec) or real(spec, *args))
    argv = [command, "--f", "z^3-1", "--re", "-1E-3", "1e-3", "--im", "-1e-20", "1e-20",
            "--size", "4", "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    assert specs[0].re_range == ("-1E-3", "1e-3") and specs[0].im_range == ("-1e-20", "1e-20")


def test_solve_above_4300_digits_prints_its_root(capsys):
    assert main(["solve", "--f", "x^2-2", "--x0", "1", "--digits", "5000"]) == 0
    root = capsys.readouterr().out.split("root: ")[1].strip()
    assert len(root) == 5001 and root.startswith("1.41421356237309504880168872")


def test_basin_preset_with_overrides(tmp_path, capsys):
    out_file = tmp_path / "cube.ppm"
    code = main(["basin", "--preset", "cube-roots", "--size", "8",
                 "--out", str(out_file)])
    assert code == 0
    data = out_file.read_bytes()
    assert data.startswith(b"P6\n8 8\n255\n")
    out = capsys.readouterr().out
    assert "converged" in out


def test_basin_csv_dump(tmp_path, capsys):
    out_file = tmp_path / "b.ppm"
    csv_file = tmp_path / "b.csv"
    code = main(["basin", "--f", "z^3-1", "--re", "-2", "2", "--im", "-2", "2",
                 "--size", "4", "--out", str(out_file), "--csv", str(csv_file)])
    assert code == 0
    assert csv_file.read_text().splitlines()[0] == "i,j,re_z0,im_z0,converged,iterations,phase"


def test_scan_constant_segment(tmp_path, capsys):
    out_file = tmp_path / "scan.csv"
    code = main(["scan", "--f", "z^3-1", "--from", "0.9+0i", "--to", "1.1+0i", "--samples", "9",
                 "--out", str(out_file)])
    out = capsys.readouterr().out
    assert code == 0
    assert "assignment changes: 0" in out
    assert len(out_file.read_text().splitlines()) == 10


def test_scan_requires_segment(capsys):
    assert main(["scan", "--f", "z^3-1"]) == 1
    assert "--from" in capsys.readouterr().err


def test_complex_mode_inferred_from_x0(capsys):
    code = main(["solve", "--f", "z^3-1", "--x0", "0.5+0.5i", "--digits", "30",
                 "--tol", "1e-18", "--max-iter", "40"])
    out = capsys.readouterr().out
    assert code == 0
    assert "i" in out.splitlines()[-1]


def test_wrong_preset_for_subcommand(capsys):
    # each subcommand offers only its own presets
    assert main(["basin", "--preset", "newton-classic"]) == 1
    assert "argument --preset: invalid choice: 'newton-classic'" in capsys.readouterr().err


def test_readme_scan_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    line = next(l for l in readme.splitlines() if l.startswith("iciroot scan "))
    argv = shlex.split(line)[1:]
    assert main(argv) == 0
    out = capsys.readouterr().out
    changes = int(re.search(r"assignment changes: (\d+)", out).group(1))
    assert changes > 2


def _readme_commands():
    """(argv, documented exit code) of each ``iciroot`` line in README's sh blocks.

    A line continued with ``\\`` is joined; the code is 0 unless the line, or
    the comment lines right above it, say "exits N".
    """
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", readme, re.S):
        comment = ""
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("#"):
                comment += line
                continue
            if line.startswith("iciroot "):
                code = re.search(r"exits (\d)", comment + line)
                commands.append((shlex.split(line, comments=True)[1:], int(code[1]) if code else 0))
            comment = ""
    return commands


@pytest.mark.parametrize("argv, code", _readme_commands(), ids=lambda v: shlex.join(v)
                         if isinstance(v, list) else f"exit{v}")
def test_readme_command_lines_run_as_documented(tmp_path, monkeypatch, capsys, argv, code):
    # outputs land in tmp_path; basin lines get --size 4 last, which wins over
    # the line's own --size and over a preset
    monkeypatch.chdir(tmp_path)
    if argv[0] == "basin":
        argv = [*argv, "--size", "4"]
    assert main(argv) == code
    assert capsys.readouterr().err == ""


def test_x0_inf_stays_real(capsys):
    assert main(["solve", "--f", "x-1", "--x0", "inf"]) == 2
    out = capsys.readouterr().out
    assert out.endswith("root: inf\n")
    assert "+0.0i" not in out


def test_complex_flag_forces_complex_mode(capsys):
    # the imaginary unit on x0 is the one complex flag; a zero part still counts
    assert main(["solve", "--f", "x-1", "--x0", "5+0i"]) == 0
    assert "root: 1.0+0.0i" in capsys.readouterr().out


def test_explicit_flags_beat_the_preset(capsys):
    # preset x^3-2*x-5 from 1 at 40 digits; the flags move x0 and max_iter
    assert main(["solve", "--preset", "newton-classic", "--x0", "3", "--max-iter", "2"]) == 2
    out = capsys.readouterr().out
    assert "   0  seed             3.0 " in out
    assert "status: max_iter (2 iterations)" in out
    assert main(["solve", "--preset", "newton-classic", "--x0", "3", "--max-iter", "40"]) == 0
    out = capsys.readouterr().out
    assert "   0  seed             3.0 " in out
    assert "root: 2.09455148154232659148238654057930" in out


def test_config_file_flag_is_a_usage_error(tmp_path, capsys):
    # flag values come from the command line and presets only
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"f": "x", "x0": "5", "digits": 20}))
    assert main(["solve", "--config", str(cfg)]) == 1
    assert "unrecognized arguments: --config" in capsys.readouterr().err


def test_every_flag_is_documented_in_the_readme():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    parser, commands = cli._build_parser()
    flags = {opt for p in [parser, *commands.values()] for action in p._actions
             for opt in action.option_strings if opt.startswith("--")}
    assert "--x0" in flags and "--workers" in flags
    assert sorted(f for f in flags if not re.search(re.escape(f) + r"(?![\w-])", readme)) == []


# each subcommand's flags, in the order --help lists them, and its presets
_CLI_SURFACE = {
    "solve": (["--f", "--digits", "--tol", "--max-iter", "--preset", "--x0", "--method", "--out"],
              ["exp-1000", "newton-classic"]),
    "order": (["--f", "--digits", "--tol", "--max-iter", "--preset", "--x0", "--method", "--out",
               "--trace"], ["exp-1000", "newton-classic"]),
    "compare": (["--f", "--digits", "--tol", "--max-iter", "--preset", "--x0"],
                ["exp-1000", "newton-classic"]),
    "basin": (["--f", "--digits", "--tol", "--max-iter", "--preset", "--out", "--re", "--im",
               "--size", "--workers", "--csv"], ["cube-roots", "kepler-basin"]),
    "scan": (["--f", "--digits", "--tol", "--max-iter", "--preset", "--out", "--from", "--to",
              "--samples"], ["cube-roots", "kepler-basin"]),
}


def test_the_cli_surface_is_the_documented_one():
    # 43 flag slots, 17 distinct flags; every subcommand's --preset offers its own two
    _, commands = cli._build_parser()
    surface = {}
    for name, p in commands.items():
        flags = [opt for action in p._actions for opt in action.option_strings
                 if opt.startswith("--") and opt != "--help"]
        presets = next(a.choices for a in p._actions if "--preset" in a.option_strings)
        surface[name] = (flags, list(presets))
    assert surface == _CLI_SURFACE
    assert sum(len(flags) for flags, _ in surface.values()) == 43
    assert len({flag for flags, _ in surface.values() for flag in flags}) == 17


def test_python_dash_m_runs_the_cli():
    done = subprocess.run([sys.executable, "-m", "iciroot", "--help"], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: iciroot")


def test_every_exported_name_resolves_once():
    import iciroot
    assert len(iciroot.__all__) == len(set(iciroot.__all__))
    assert [name for name in iciroot.__all__ if not hasattr(iciroot, name)] == []
    assert "root_multiplicity" in iciroot.__all__
    assert not hasattr(iciroot, "ratio_growth_flag")
    # trees evaluate through compile_fn; the canonical renderer is tests/oracles.py's
    for name in ("evaluate", "render_expr"):
        assert name not in iciroot.__all__ and not hasattr(iciroot, name)


def test_import_loads_neither_the_renderer_its_pool_nor_the_report():
    # a fresh interpreter: this one has loaded them all
    code = ("import sys, types\n"
            "import iciroot, iciroot.cli\n"
            "loaded = [m for m in ('iciroot.basins', 'iciroot.diagnostics',\n"
            "                      'concurrent.futures.process', 'multiprocessing',\n"
            "                      'fractions', 'decimal')\n"
            "          if m in sys.modules]\n"
            "assert loaded == [], loaded\n"
            # the parser takes the grid defaults from BasinSpec only when a grid command runs
            "import contextlib, io\n"
            "iciroot.cli._build_parser()\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert iciroot.cli.main(['solve', '--preset', 'newton-classic']) == 0\n"
            "assert 'iciroot.basins' not in sys.modules\n"
            "import iciroot.solve\n"
            "assert isinstance(iciroot.solve, types.FunctionType), iciroot.solve\n"
            "from iciroot import basins, diagnostics\n"
            "assert iciroot.render is basins.render\n"
            "assert iciroot.build_report is diagnostics.build_report\n"
            "assert iciroot.solve is iciroot.solve_expr.__globals__['solve']\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("ftext, x0, iterations, root", [
    ("sin(x)", "3", 7, "3.14159265358979323846264338327950288419716939937510"),
    ("exp(x)-2", "1e-400", 9, "0.693147180559945309417232121458176568075500134360255")])
def test_transcendental_solves_at_1000_digits_keep_their_traces(tmp_path, capsys, monkeypatch,
                                                               ftext, x0, iterations, root):
    def solve(name):
        out = tmp_path / name
        assert main(["solve", "--f", ftext, "--x0", x0, "--digits", "1000",
                     "--out", str(out)]) == 0
        return capsys.readouterr().out, out.read_text()
    printed, trace = solve("kernels.txt")
    assert f"status: converged ({iterations} iterations)" in printed
    assert f"root: {root}" in printed
    # with mpmath's exp and cos/sin throughout, the same text to the last digit
    monkeypatch.setattr(mpscalar, "_in_band", lambda prec, man, mag: False)
    assert solve("mpmath.txt") == (printed, trace)


def _run_iciroot(argv, cwd):
    """``python -m iciroot`` in a fresh interpreter, so a traceback reaches stderr."""
    return subprocess.run([sys.executable, "-m", "iciroot", *argv], capture_output=True, text=True,
                          cwd=cwd, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})


# exp of exp(exp(exp(10))) = exp(10**9565): mpmath raises OverflowError
_OVERFLOWING_F = "exp(exp(exp(exp(x))))-1"


def test_an_overflowing_solve_ends_nan_without_a_traceback(tmp_path):
    done = _run_iciroot(["solve", "--f", _OVERFLOWING_F, "--x0", "10", "--digits", "40"], tmp_path)
    assert done.returncode == 2, done.stderr
    assert "status: nan" in done.stdout
    assert "Traceback" not in done.stderr


def test_an_overflowing_basin_writes_its_nan_pixels_without_a_traceback(tmp_path):
    out = tmp_path / "overflow.ppm"
    done = _run_iciroot(["basin", "--f", _OVERFLOWING_F, "--size", "4", "--re", "9", "11",
                         "--im", "-1", "1", "--out", str(out)], tmp_path)
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
    assert int(re.search(r"nan (\d+)", done.stdout).group(1)) > 0
    assert out.read_bytes().startswith(b"P6\n4 4\n")

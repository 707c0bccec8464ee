import csv
import io

import pytest
from mpmath import ctx_mp_python
from mpmath.libmp import mpf_abs, mpf_log, round_nearest

from iciroot import diagnostics, mpscalar
from iciroot.diagnostics import (MultipleRootError, build_report, error_constant_oracle,
                                 report_to_text, residual_ratio_limit, root_multiplicity,
                                 write_report_csv)
from iciroot.mpscalar import Precision, log10_abs_text
from iciroot.solve import (IterationRecord, IterationTrace, SolveConfig, solve_expr,
                           write_trace_csv, write_trace_text)
from oracles import make_ctx, reference_report
from test_solve import _count_calls

P = Precision(60)


def _trace_from_residuals(ys, status="max_iter"):
    recs = [IterationRecord(n, P.real(n), y, P.real(1), "ici" if n > 1 else "seed")
            for n, y in enumerate(ys)]
    return IterationTrace(recs, status)


def _law_trace(c_text, steps):
    # exact decay law y_k = C**(rho**k) with rho = 1 + sqrt(3)
    rho = 1 + P.ctx.sqrt(P.real(3))
    C = P.real(c_text)
    return _trace_from_residuals([C ** (rho ** k) for k in range(steps + 1)])


def test_ratio_sequence_of_exact_law_is_constant():
    trace = _law_trace("0.6437", 8)
    ratios = build_report(trace).ratios
    assert len(ratios) == 7
    spread = max(ratios) - min(ratios)
    assert spread <= max(ratios) * P.real("1e-45")


def test_ratio_sequence_requires_three_records():
    assert build_report(_trace_from_residuals([P.real("0.5")])).ratios == []
    assert build_report(_trace_from_residuals([P.real("0.5"), P.real("0.1")])).ratios == []


def test_ratio_sequence_truncates_at_zero_denominator():
    ys = [P.real("0.5"), P.real("0.1"), P.real("0.01"), P.real(0), P.real("1e-10"),
          P.real("1e-30")]
    ratios = build_report(_trace_from_residuals(ys)).ratios
    # k = 4 and 5 both need the zero y_3 in the denominator
    assert len(ratios) == 2


def test_fit_constant_inverts_the_law():
    for c_text in ("0.6437", "0.9", "0.123"):
        trace = _law_trace(c_text, 7)
        c = build_report(trace).fitted_constant
        assert abs(c - P.real(c_text)) <= P.real(c_text) * P.real("1e-50")


def test_fit_constant_single_point_identity():
    rho = 1 + P.ctx.sqrt(P.real(3))
    y1 = P.real("0.6437") ** rho
    trace = _trace_from_residuals([P.real("0.9"), y1])
    assert abs(build_report(trace).fitted_constant - P.real("0.6437")) <= P.real("1e-55")


def test_predict_next_reproduces_exact_law():
    rho = 1 + P.ctx.sqrt(P.real(3))
    ys = [P.real(10) ** (-(rho ** k)) for k in range(9)]
    trace = _trace_from_residuals(ys)
    predicted = build_report(trace).predicted_next
    actual_next = P.real(10) ** (-(rho ** 9))
    assert abs(predicted - actual_next) <= actual_next * P.real("1e-40")


def test_order_estimate_on_synthetic_orders():
    for rho_val in ("2", "3"):
        rho = P.real(rho_val)
        ys = [P.real(10) ** (-2 * rho ** k) for k in range(7)]
        est = build_report(_trace_from_residuals(ys)).order_estimates
        assert len(est) == 6
        for e in est:
            assert abs(e - rho) <= P.real("1e-40")
    rho = 1 + P.ctx.sqrt(P.real(3))
    ys = [P.real(10) ** (-2 * rho ** k) for k in range(7)]
    est = build_report(_trace_from_residuals(ys)).order_estimates
    assert abs(est[-1] - rho) <= P.real("1e-40")


def test_order_estimate_skips_nonmonotone_and_large_residuals():
    ys = [P.real(3), P.real("0.5"), P.real("0.6"), P.real("0.01"), P.real("1e-6")]
    est = build_report(_trace_from_residuals(ys)).order_estimates
    # only (0.6 -> 0.01) and (0.01 -> 1e-6) qualify
    assert len(est) == 2


def test_error_constant_oracle_closed_forms():
    # vanishing higher derivatives: superconvergence
    assert error_constant_oracle(P.real(1), P.real(0), P.real(0), P.real(0)) == 0
    # f = x^2 - 2 at sqrt(2): K = 15*f2^3 / (24*f1^3) with f1 = 2*sqrt(2), f2 = 2
    f1 = 2 * P.ctx.sqrt(P.real(2))
    K = error_constant_oracle(f1, P.real(2), P.real(0), P.real(0))
    want = P.real(5) / (16 * P.ctx.sqrt(P.real(2)))
    assert abs(K - want) <= want * 4 * P.ctx.eps
    with pytest.raises(MultipleRootError):
        error_constant_oracle(P.real(0), P.real(1), P.real(1), P.real(1))


def test_residual_ratio_limit_matches_observed_tail_for_sqrt2():
    # independent check: solve x^2 - 2 and compare the observed ratio tail;
    # max_iter keeps the last residual far above the evaluation noise floor
    p = Precision(220)
    trace = solve_expr("x^2-2", p.real("1.5"), SolveConfig(precision=p, max_iter=5))
    assert trace.status == "max_iter"
    ratios = build_report(trace).ratios
    f1 = 2 * p.ctx.sqrt(p.real(2))
    limit = residual_ratio_limit(f1, p.real(2), p.real(0), p.real(0))
    # exact value 5/512
    assert abs(limit - p.real(5) / 512) <= p.real("1e-200")
    assert abs(ratios[-1] - limit) <= limit * p.real("1e-3")


def test_root_multiplicity_separates_multiple_roots_from_simple_ones():
    p = Precision(30)
    double = solve_expr("(x-2)^2", p.real("0.5"), SolveConfig(precision=p))
    simple = solve_expr("x^3-2*x-5", p.real(1), SolveConfig(precision=p))
    assert root_multiplicity(double) == 2
    assert root_multiplicity(simple) is None


def test_root_multiplicity_needs_four_records_with_a_finite_nonzero_derivative():
    # (x-2)^2 at x = 2 - 2**-k: y = 4**-k and y' = -2 * 2**-k, so every m_k is exactly 2
    def record(k, x, y, yp):
        return IterationRecord(k, P.real(x), P.real(y), P.real(yp), "ici")
    double = [record(k, 2 - 2.0 ** -k, 4.0 ** -k, -2 * 2.0 ** -k) for k in range(5)]
    assert root_multiplicity(IterationTrace(double, "max_iter")) == 2
    assert root_multiplicity(IterationTrace(double[:3], "max_iter")) is None
    for last in (record(4, 2, 0, 0), record(4, "nan", "nan", "nan"), record(4, 2, 0, "inf"),
                 double[3]):         # a repeated record: N_k = N_{k-1}
        assert root_multiplicity(IterationTrace(double[:4] + [last], "nan")) is None


def test_build_report_fields_on_real_solve():
    p = Precision(120)
    trace = solve_expr("x^2-2", p.real("1.5"), SolveConfig(precision=p, max_iter=4))
    assert trace.status == "max_iter"
    report = build_report(trace)
    assert len(report.digits_per_step) == len(trace)
    assert report.fitted_constant is not None
    assert 0 < report.fitted_constant < 1
    assert report.predicted_next is not None
    assert report.fit_misfit_log10 is not None
    assert len(report.order_estimates) >= 2


def test_misfit_flags_a_newton_trace_as_off_law():
    # budgets keep both runs above the noise floor (status max_iter)
    p = Precision(300)
    ici = solve_expr("x^2-2", p.real("1.5"),
                     SolveConfig(precision=p, max_iter=5, method="ici"))
    newton = solve_expr("x^2-2", p.real("1.5"),
                        SolveConfig(precision=p, max_iter=7, method="newton"))
    assert ici.status == newton.status == "max_iter"
    r_ici = build_report(ici)
    r_newton = build_report(newton)
    # the 1+sqrt(3) decay law fits the blended iteration, not Newton
    assert r_ici.fit_misfit_log10 < 2 < r_newton.fit_misfit_log10


def test_report_serialization_smoke():
    p = Precision(60)
    trace = solve_expr("x^2-2", p.real("1.5"), SolveConfig(precision=p, max_iter=8))
    report = build_report(trace)
    text = report_to_text(report)
    assert "fitted_constant:" in text
    assert "k,digits,ratio" in text
    buf = io.StringIO()
    write_report_csv(report, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0].startswith("k,digits,ratio,")
    assert len(lines) == len(trace) + 1
    trace_buf = io.StringIO()
    write_trace_csv(trace, trace_buf)
    rows = list(csv.DictReader(io.StringIO(trace_buf.getvalue())))
    assert [(r["n"], r["log10_abs_y"]) for r in rows] == [
        (str(rec.n), log10_abs_text(rec.y, 12)) for rec in trace.records]


def test_report_writers_accept_pathlib_paths(tmp_path):
    p = Precision(60)
    trace = solve_expr("x^2-2", p.real("1.5"), SolveConfig(precision=p, max_iter=8))
    report = build_report(trace)
    report_buf = io.StringIO()
    write_report_csv(report, report_buf)
    write_report_csv(report, tmp_path / "report.csv")
    assert (tmp_path / "report.csv").read_bytes() == report_buf.getvalue().encode()


# ---------------------------------------------------------------------------
# build_report against the definitions (tests/oracles.py), and its log budget

_SOLVES = {"real": ("(x^2+x)*exp(-x)-1/3", lambda p: p.real("2.0")),
           "complex": ("z^3-1", lambda p: p.cplx("-0.4", "0.7"))}


@pytest.mark.parametrize("digits", [60, 1000])
@pytest.mark.parametrize("kind", sorted(_SOLVES))
def test_build_report_matches_the_definitions(kind, digits):
    # Stated bounds, in ulp = 2**(1 - working bits): digits per step and
    # order estimates 2 ulp relative; C 4*(1 + |ln C|) ulp relative (its log
    # is L_K * rho**-K); the misfit, a difference of two logs of size up to
    # |log10 y|, 4 ulp of |log10 y_{K-1}| + |log10 y_K| absolute.
    p = Precision(digits)
    ftext, x0 = _SOLVES[kind]
    trace = solve_expr(ftext, x0(p), SolveConfig(precision=p))
    assert trace.converged
    report = build_report(trace)
    ref = reference_report(trace.residuals(), digits)
    ctx = make_ctx(digits + 20)
    ulp = ctx.mpf(2) ** (1 - p.ctx.prec)

    def rel(value, want):
        return abs(ctx.mpf(value) - want) / abs(want)

    assert len(report.digits_per_step) == len(ref["digits"]) == len(trace)
    for got, want in zip(report.digits_per_step, ref["digits"]):
        assert rel(got, want) <= 2 * ulp
    assert len(report.order_estimates) == len(ref["orders"]) >= 4
    for got, want in zip(report.order_estimates, ref["orders"]):
        assert rel(got, want) <= 2 * ulp
    c = ref["constant"]
    assert rel(report.fitted_constant, c) <= 4 * (1 + abs(ctx.ln(c))) * ulp
    scale = abs(ref["digits"][-2]) + abs(ref["digits"][-1])
    assert abs(ctx.mpf(report.fit_misfit_log10) - ref["misfit"]) <= 4 * ulp * scale


def _count_logs(monkeypatch, working_bits):
    """Count the logarithms taken at ``working_bits`` or more, and all others."""
    calls = {"working": 0, "short": 0}
    real_ln_abs = mpscalar.ln_abs

    def counting(x, prec):
        calls["working" if prec >= working_bits else "short"] += 1
        return real_ln_abs(x, prec)
    monkeypatch.setattr(mpscalar, "ln_abs", counting)
    monkeypatch.setattr(diagnostics, "ln_abs", counting)
    return calls


def test_log_budget_of_the_report_and_the_trace_writer(monkeypatch):
    # the report takes one working-precision logarithm per record; the trace
    # writer prints log10|y| at 12 digits from short ones only
    p = Precision(1000)
    trace = solve_expr("(x^2+x)*exp(-x)-1/3", p.real("2.0"), SolveConfig(precision=p))
    assert trace.converged and len(trace) >= 8
    calls = _count_logs(monkeypatch, p.ctx.prec)
    build_report(trace)
    assert calls["working"] <= len(trace)
    calls.update(working=0, short=0)
    write_trace_text(trace, {"digits": 1000}, io.StringIO())
    assert calls == {"working": 0, "short": len(trace)}


def test_modulus_budget_of_the_report(monkeypatch):
    # one complex modulus per residual, shared by the logs, ratios, order
    # admission, fit index and prediction; counted where abs() and ln_abs take it
    p = Precision(100)
    trace = solve_expr("z^3-1", p.cplx("-0.4", "0.7"), SolveConfig(precision=p))
    assert trace.converged and len(trace) >= 6
    by_abs = _count_calls(monkeypatch, ctx_mp_python, ["mpc_abs"])
    by_ln_abs = _count_calls(monkeypatch, mpscalar, ["mpc_abs"])
    report = build_report(trace)
    assert by_abs["mpc_abs"] + by_ln_abs["mpc_abs"] <= len(trace)
    assert report.predicted_next is not None and len(report.order_estimates) >= 3


def _report_values(report):
    """Every number of a report as raw mpf tuples (complex ones as pairs)."""
    def raw(v):
        return None if v is None else getattr(v, "_mpf_", None) or v._mpc_
    return ([raw(v) for v in report.digits_per_step], [raw(v) for v in report.ratios],
            [raw(v) for v in report.order_estimates], raw(report.fitted_constant),
            raw(report.predicted_next), raw(report.fit_misfit_log10))


@pytest.mark.parametrize("kind", sorted(_SOLVES))
def test_report_bits_equal_those_from_mpf_log(monkeypatch, kind):
    # the fixed-point logarithm of the residuals gives the report mpmath's
    # logarithm gives, to the bit
    p = Precision(1000)
    ftext, x0 = _SOLVES[kind]
    trace = solve_expr(ftext, x0(p), SolveConfig(precision=p))
    calls = _count_calls(monkeypatch, mpscalar, ["_ln_fixed_point"])
    report = build_report(trace)
    assert calls["_ln_fixed_point"] >= len(trace) - 2
    monkeypatch.setattr(diagnostics, "ln_abs",
                        lambda x, prec: mpf_log(mpf_abs(x._mpf_), prec, round_nearest))
    assert _report_values(report) == _report_values(build_report(trace))


# report text of traces whose residuals are degenerate, pinned to the text
# the report gave when every diagnostic took its own logarithms
_DEGENERATE = [
    (["0.5", "nan"],
     "fitted_constant: nan\npredicted_next: -\nfit_misfit_log10: nan\n"
     "order_estimates: nan\nk,digits,ratio\n0,0.30103,\n1,nan,\n"),
    (["nan"],
     "fitted_constant: nan\npredicted_next: -\nfit_misfit_log10: -\n"
     "order_estimates: \nk,digits,ratio\n0,nan,\n"),
    (["0.5", "inf"],
     "fitted_constant: -\npredicted_next: -\nfit_misfit_log10: -\n"
     "order_estimates: \nk,digits,ratio\n0,0.30103,\n1,-inf,\n"),
    (["0.5", "0"],
     "fitted_constant: -\npredicted_next: -\nfit_misfit_log10: -\n"
     "order_estimates: \nk,digits,ratio\n0,0.30103,\n1,inf,\n"),
    (["2", "1.5"],
     "fitted_constant: -\npredicted_next: -\nfit_misfit_log10: -\n"
     "order_estimates: \nk,digits,ratio\n0,-0.30103,\n1,-0.17609126,\n"),
    (["0.5", "0.1", "0.01", "0", "1e-10"],
     "fitted_constant: 0.66146684\npredicted_next: -\nfit_misfit_log10: -\n"
     "order_estimates: 3.3219281 2.0\nk,digits,ratio\n0,0.30103,\n1,1.0,\n2,2.0,4.0\n"
     "3,inf,0.0\n4,10.0,\n"),
    ([("0.5", "0.5"), ("0.01", "-0.02"), ("1e-5", "1e-6"), ("1e-15", "-3e-15"),
      ("2e-42", "1e-42")],
     "fitted_constant: 0.17881621\npredicted_next: 1.1069643e-115\n"
     "fit_misfit_log10: 0.74514657\norder_estimates: 10.965784 3.0280484 2.9012537 2.8724493\n"
     "k,digits,ratio\n0,0.150515,\n1,1.650515,\n2,4.9978393,0.040199502\n"
     "3,14.5,0.06261936\n4,41.650515,0.0022139287\n"),
    (["nan", "5"],
     "fitted_constant: -\npredicted_next: -\nfit_misfit_log10: -\n"
     "order_estimates: \nk,digits,ratio\n0,nan,\n1,-0.69897,\n"),
]


@pytest.mark.parametrize("values, text", _DEGENERATE,
                         ids=["nan-last", "nan-only", "inf-last", "zero-last", "above-one",
                              "zero-inside", "complex", "nan-then-above-one"])
def test_report_text_of_degenerate_traces(values, text):
    ys = [P.cplx(*v) if isinstance(v, tuple) else P.real(v) for v in values]
    assert report_to_text(build_report(_trace_from_residuals(ys))) == text

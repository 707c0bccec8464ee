"""Workload solve-1000: seeded 1000-digit solves, each followed by a report
and a trace round trip.

One operation is ``solve_expr`` -> ``build_report`` -> ``write_trace_text``
and ``read_trace_text`` through memory.  The run makes passes over a batch of
problems drawn from the seed.  The batch cycles through four families (real
polynomial, the paper's exp example, real Kepler, complex ``z^n - w``), and
their parameters are stratified draws, so every seed weighs families and
parameter ranges alike.  Answers are checked against roots known by
construction or found by ``findroot`` in a separate mpmath context at higher
precision.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import math
import random
import statistics
import time
from dataclasses import dataclass
from decimal import Decimal

from mpmath.ctx_mp import MPContext

from iciroot import cli, expr
from iciroot.diagnostics import build_report, report_to_text
from iciroot.mpscalar import Precision, parse_complex, parse_real, to_decimal
from iciroot.solve import (SolveConfig, read_trace_text, solve, solve_expr,
                           write_trace_text)
from kernel_replay import replay_ici_steps

DIGITS = 1000
# The paper's exp family takes two of the five slots.  Solve and operation
# times sort as poly < kepler < exp < zpow, so the median lands inside the
# exp block and p90 inside the zpow block, never in a gap between families,
# which would make the percentiles jump between runs.
FAMILIES = ("poly", "exp", "kepler", "zpow", "exp")
# 30 problems give every family whole cycles of strata
STRATA = 6
# a converged root must match its reference to this many digits, relative
MATCH_DIGITS = DIGITS - 15
CLI_PRESET_F = "(x^2+x)*exp(-x)-1/3"


@dataclass
class Problem:
    family: str
    ftext: str
    x0: object
    roots: list       # acceptable roots, in the reference context
    meta: dict        # trace metadata: function, x0 text, digits


def _ref_ctx():
    ctx = MPContext()
    ctx.prec = math.ceil(DIGITS * math.log2(10)) + 64
    return ctx


def _float_bisect(g, lo, hi):
    glo = g(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if (gm < 0) == (glo < 0):
            lo, glo = mid, gm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _poly_text(coeffs):
    """Text of sum(coeffs[k] * x^k), highest degree first."""
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        mag = abs(c)
        base = {0: "", 1: "x"}.get(k, f"x^{k}")
        if not base:
            body = str(mag)
        elif mag == 1:
            body = base
        else:
            body = f"{mag}*{base}"
        terms.append(("-" if c < 0 else "+", body))
    sign, body = terms[0]
    text = ("-" if sign == "-" else "") + body
    return text + "".join(f" {s} {b}" for s, b in terms[1:])


def _poly_mul(a, b):
    out = [Decimal(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _draws(rng, j):
    """Two stratified draws in [0, 1) for the j-th problem of a family.

    Over any STRATA consecutive problems of a family each draw falls once in
    each of STRATA equal bins (the second in a permuted bin order).  Every
    seed then covers the parameter ranges evenly, which keeps the spread of
    the run's percentiles across seeds far below that of independent draws.
    """
    s = j % STRATA
    return (s + rng.random()) / STRATA, ((5 * s) % STRATA + rng.random()) / STRATA


def _make(family, j, rng, ref):
    """(function text, x0 text, acceptable roots) of the j-th problem of a family."""
    t1, t2 = _draws(rng, j)
    if family == "poly":
        # (x - r) * two quadratics without real roots: r is the only real root
        r = Decimal(5000 + int(20000 * t1)) / 10000
        coeffs = [-r, Decimal(1)]
        for _ in range(2):
            b = rng.randint(-3, 3)
            coeffs = _poly_mul(coeffs, [Decimal(b * b // 4 + rng.randint(1, 4)), Decimal(b), Decimal(1)])
        x0 = r + rng.choice((-1, 1)) * Decimal(10 + int(20 * t2)) / 100
        return _poly_text(coeffs), str(x0), [ref.mpf(str(r))]
    if family == "exp":
        c = Decimal(2000 + int(2000 * t1)) / 10000
        cf = float(c)
        guess = _float_bisect(lambda x: (x * x + x) * math.exp(-x) - cf, 1.7, 60.0)
        root = ref.findroot(lambda x: (x * x + x) * ref.exp(-x) - ref.mpf(str(c)), guess)
        return f"(x^2+x)*exp(-x)-{c}", f"{2 + int(40 * t2) / 100:.2f}", [root]
    if family == "kepler":
        e = Decimal(50 + int(750 * t1)) / 1000
        m = Decimal(300 + int(2700 * t2)) / 1000
        ef, mf = float(e), float(m)
        guess = _float_bisect(lambda x: x - ef * math.sin(x) - mf, mf - ef - 0.1, mf + ef + 0.1)
        es, ms = ref.mpf(str(e)), ref.mpf(str(m))
        root = ref.findroot(lambda x: x - es * ref.sin(x) - ms, guess)
        return f"x - {e}*sin(x) - {m}", str(m), [root]
    # z^n - w, started near one of its n roots, all of which are known by construction.
    # n is 4 or 5, whose solves cost alike; mixing in n = 3, about half as costly,
    # would split the top block of solve times and make p90 jump between seeds.
    n = 4 + j % 2
    w = Decimal(500 + int(3500 * t1)) / 1000 * rng.choice((-1, 1))
    theta = 0 if w > 0 else math.pi
    near = rng.randrange(n)
    target = abs(float(w)) ** (1 / n) * cmath.exp(1j * (theta + 2 * math.pi * near) / n)
    z0 = target * (1 + (0.05 + 0.1 * t2) * cmath.exp(2j * math.pi * rng.random()))
    mod = ref.root(abs(ref.mpf(str(w))), n)
    roots = [mod * ref.expjpi((ref.mpf(0 if w > 0 else 1) + 2 * k) / n) for k in range(n)]
    text = f"z^{n} - {w}" if w > 0 else f"z^{n} + {-w}"
    return text, f"{z0.real:.3f}{z0.imag:+.3f}i", roots


def make_problem(seed: int, k: int, ref) -> Problem:
    """Problem k of the batch for ``seed``; its family is FAMILIES[k % 5]."""
    rng = random.Random(f"{seed}/{k}")
    family = FAMILIES[k % len(FAMILIES)]
    slots = [i for i, f in enumerate(FAMILIES) if f == family]
    j = k // len(FAMILIES) * len(slots) + slots.index(k % len(FAMILIES))
    text, x0_text, roots = _make(family, j, rng, ref)
    p = Precision(DIGITS)
    x0 = parse_complex(x0_text, p) if family == "zpow" else parse_real(x0_text, p)
    return Problem(family, text, x0, roots, {"function": text, "x0": x0_text, "digits": DIGITS})


def _round_trip(trace, meta):
    buf = io.StringIO()
    write_trace_text(trace, meta, buf)
    text = buf.getvalue()
    back, _ = read_trace_text(io.StringIO(text))
    return text, back


class SolveWorkload:
    """Closed loop, one client: operation k solves problem k % batch."""

    def __init__(self, seed: int, tiny: bool):
        self.batch = 5 if tiny else 30
        self.ref = _ref_ctx()
        self.problems = [make_problem(seed, k, self.ref) for k in range(self.batch)]
        self.cfg = SolveConfig(precision=Precision(DIGITS))
        self.match = self.ref.mpf(10) ** -MATCH_DIGITS
        self.cli_reps = 1 if tiny else 5
        self.counted = set()          # problems whose first traced solve was counted
        self.pass_records = 0
        self.pass_safeguards = 0
        self.ici_steps = 0
        self.to_decimal_calls = 0

    def setup_request(self) -> dict:
        return {"digits": DIGITS,
                "functions": [[p.ftext, p.family == "zpow"] for p in self.problems]}

    def run_op(self, k):
        prob = self.problems[k % self.batch]
        t0 = time.perf_counter()
        trace = solve_expr(prob.ftext, prob.x0, self.cfg)
        t1 = time.perf_counter()
        build_report(trace)
        text, back = _round_trip(trace, prob.meta)
        t2 = time.perf_counter()
        return t1 - t0, t2 - t0, 1, self._check(prob, trace, text, back)

    def run_op_traced(self, k, tr):
        """The same operation split at the calls into each module, one span each."""
        prob = self.problems[k % self.batch]
        p = self.cfg.precision
        with tr.span("op", k) as op_span:
            with tr.span("solve.solve_expr", k) as solve_span:
                with tr.span("expr.setup", k):
                    with tr.span("expr.parse", k):
                        tree = expr.parse(prob.ftext)
                    var = expr.free_variables(tree).pop()
                    with tr.span("expr.differentiate", k):
                        dtree = expr.differentiate(tree, var)
                    with tr.span("expr.compile_fn", k):
                        complex_mode = prob.family == "zpow"
                        f = expr.compile_fn(tree, var, p, complex_mode)
                        fp = expr.compile_fn(dtree, var, p, complex_mode)
                with tr.span("solve.solve", k):
                    trace = solve(tr.timed(f, "expr.f", k), tr.timed(fp, "expr.fp", k),
                                  prob.x0, self.cfg)
            with tr.span("diagnostics.build_report", k):
                build_report(trace)
            with tr.span("solve.trace_io", k):
                text, back = _round_trip(trace, prob.meta)
        steps, replay_ok = replay_ici_steps(trace.records, tr, k)
        self.ici_steps += steps
        ok = self._check(prob, trace, text, back) and replay_ok
        values = [v for r in trace.records for v in (r.x, r.y, r.yp)]
        with tr.span("mpscalar.to_decimal", k):
            for v in values:
                to_decimal(v, DIGITS)
        self.to_decimal_calls += len(values)
        if k % self.batch not in self.counted:
            self.counted.add(k % self.batch)
            self.pass_records += len(trace)
            self.pass_safeguards += sum(r.step_kind in ("safeguard_newton", "secant")
                                        for r in trace.records)
        return (solve_span[2] - solve_span[1], op_span[2] - op_span[1], 1, ok)

    def _check(self, prob, trace, text, back):
        if not trace.converged:
            return False
        x = self.ref.convert(trace.final.x)
        root = min(prob.roots, key=lambda r: abs(x - r))
        if abs(x - root) > self.match * max(1, abs(root)):
            return False
        buf = io.StringIO()
        write_trace_text(back, prob.meta, buf)
        return buf.getvalue() == text

    def run_checks(self):
        """No run-level checks: every operation is checked on its own."""
        return []

    def layers(self, tr):
        solve_total = tr.total("solve.solve_expr")
        fpair_total = tr.total("expr.f") + tr.total("expr.fp")
        pairs = tr.count("expr.f")
        step_total = tr.total("kernel.ici_step")
        cli_ms, cli_ok = self._cli_overhead_ms()
        out = {
            "expr.setup_ms": statistics.median(tr.durations("expr.setup")) * 1e3,
            "expr.fpair_us": fpair_total / pairs * 1e6,
            "expr.fpair_share": fpair_total / solve_total,
            "kernel.step_us": step_total / max(self.ici_steps, 1) * 1e6,
            "kernel.step_share": step_total / solve_total,
            "solve.records": self.pass_records,
            "solve.safeguard_steps": self.pass_safeguards,
            "solve.driver_us_per_record": (tr.self_time("solve.solve") - step_total) / pairs * 1e6,
            "solve.trace_io_ms": statistics.median(tr.durations("solve.trace_io")) * 1e3,
            "mpscalar.to_decimal_us": tr.total("mpscalar.to_decimal") / self.to_decimal_calls * 1e6,
            "diagnostics.report_ms": statistics.median(tr.durations("diagnostics.build_report")) * 1e3,
            "diagnostics.report_share": tr.total("diagnostics.build_report") / tr.total("op"),
            "cli.overhead_ms": cli_ms,
        }
        return out, [("cli exit status matches the direct solve", cli_ok)]

    def _cli_overhead_ms(self):
        """In-process ``iciroot order --preset exp-1000`` minus the same calls made directly."""
        via_cli, direct = [], []
        ok = True
        for _ in range(self.cli_reps):
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["order", "--preset", "exp-1000"])
            t1 = time.perf_counter()
            p = Precision(DIGITS)
            trace = solve_expr(CLI_PRESET_F, parse_real("2.0", p), SolveConfig(precision=p, max_iter=8))
            report_to_text(build_report(trace), digits=8)
            t2 = time.perf_counter()
            via_cli.append(t1 - t0)
            direct.append(t2 - t1)
            ok = ok and code == (0 if trace.converged else 2)
        return (statistics.median(via_cli) - statistics.median(direct)) * 1e3, ok

import concurrent.futures
import csv
import io
import math
import multiprocessing
import operator
import pickle
import random
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor

import pytest
from mpmath.libmp import from_man_exp

from iciroot import basins
from iciroot.basins import BasinRaster, BasinSpec, line_scan, render, write_image
from iciroot.expr import compile_tape, lower
from iciroot.kernel import PointSample, ici_blend, ici_step
from iciroot.mpscalar import GUARD_BITS, Precision, parse_real
from iciroot.solve import SolveConfig, solve_expr

from oracles import DeadPixel, FixedPairs


def _cube_spec(**kw):
    defaults = dict(ftext="z^3-1", re_range=(-2.0, 2.0), im_range=(-2.0, 2.0),
                    width=40, height=40, max_iter=13, tol="1e-8")
    defaults.update(kw)
    return BasinSpec(**defaults)


def _cube_roots(p):
    ctx = p.ctx
    return [ctx.mpc(1, 0), ctx.expjpi(ctx.mpf(2) / 3), ctx.expjpi(-ctx.mpf(2) / 3)]


def test_spec_validation():
    with pytest.raises(ValueError):
        _cube_spec(width=0)
    with pytest.raises(ValueError):
        _cube_spec(max_iter=0)
    with pytest.raises(ValueError):
        _cube_spec(re_range=(1.0, 1.0))
    with pytest.raises(ValueError):
        _cube_spec(workers=0)
    for tol in (0, "-1", float("inf"), "nan", "abc"):
        with pytest.raises(ValueError):
            _cube_spec(tol=tol)
    for window in ((0, "inf"), ("-inf", 0), (float("nan"), 1.0), ("2", "1"), ("1", "x")):
        with pytest.raises(ValueError):
            _cube_spec(re_range=window)
        with pytest.raises(ValueError):
            _cube_spec(im_range=window)


def test_a_window_narrower_than_a_double_is_read_at_the_spec_precision():
    # 1e-20 wide at 1: both ends are the same double, yet 34 digits tell them
    # apart, and the grid's four column centres are distinct
    lo, hi = "1.00000000000000000001", "1.00000000000000000002"
    assert float(lo) == float(hi)
    spec = _cube_spec(re_range=(lo, hi), width=4, height=1)
    res, _ = spec.grid()
    assert len(set(res)) == 4 and res == sorted(res)
    p = spec.precision
    assert p.real(lo) < res[0] and res[-1] < p.real(hi)
    assert render(spec).converged == [[True] * 4]


def test_pixel_center_convention():
    spec = _cube_spec(width=4, height=4)
    z00 = spec.pixel_center(0, 0)
    # row 0 is the top of the imaginary range
    assert z00.real == spec.precision.real("-1.5")
    assert z00.imag == spec.precision.real("1.5")
    z33 = spec.pixel_center(3, 3)
    assert z33.real == spec.precision.real("1.5")
    assert z33.imag == spec.precision.real("-1.5")


def test_pixel_exactly_at_a_root_converges_at_iteration_zero():
    # string ranges parse as exact decimals, putting the center exactly at 1+0i;
    # its seed meets tol, so it is its own limit, as the solver reports
    spec = _cube_spec(re_range=("0.9", "1.1"), im_range=("-0.1", "0.1"), width=1, height=1)
    assert spec.pixel_center(0, 0) == spec.precision.cplx(1, 0)
    raster = render(spec)
    assert raster.converged[0][0]
    assert raster.iterations[0][0] == 0
    assert raster.final[0][0] == spec.pixel_center(0, 0)
    assert raster.phase[0][0] == 0.0
    cfg = SolveConfig(precision=spec.precision, tol=spec.tol)
    trace = solve_expr(spec.ftext, spec.pixel_center(0, 0), cfg)
    assert trace.converged and len(trace) == 1
    assert not raster.nan_mask[0][0]


def test_equal_consecutive_residuals_take_safeguard_newton_steps():
    # z^2+3 from 1: the Newton step lands exactly on -1, where f is 4 again,
    # so the blended step of iteration 2 would divide by y_prev - y_cur = 0;
    # as in the solver, a Newton step from the current point goes back to 1,
    # and so on until max_iter
    spec = _cube_spec(ftext="z^2+3", re_range=("0.9", "1.1"), im_range=("-0.1", "0.1"),
                      width=1, height=1)
    raster = render(spec)
    trace = solve_expr(spec.ftext, spec.pixel_center(0, 0),
                       SolveConfig(precision=spec.precision, tol=spec.tol, max_iter=spec.max_iter))
    assert [r.step_kind for r in trace.records[2:]] == ["safeguard_newton"] * (spec.max_iter - 1)
    assert trace.status == "max_iter" and len(trace) - 1 == raster.iterations[0][0] == spec.max_iter
    assert not raster.nan_mask[0][0] and not raster.converged[0][0]
    assert raster.final[0][0] == trace.final.x == -1     # after an odd number of steps


def test_render_cube_roots_structure():
    spec = _cube_spec()
    raster = render(spec)
    p = spec.precision
    roots = _cube_roots(p)
    tol_dist = p.real("1e-6")
    basin_counts = [0, 0, 0]
    f = lambda z: z ** 3 - 1
    checked = 0
    for j in range(spec.height):
        for i in range(spec.width):
            if not raster.converged[j][i]:
                continue
            z = raster.final[j][i]
            dists = [abs(z - r) for r in roots]
            k = dists.index(min(dists))
            assert dists[k] <= tol_dist
            basin_counts[k] += 1
            if checked % 97 == 0:
                # convergence soundness: the recorded limit satisfies the residual bound
                assert abs(f(z)) <= p.real(str(spec.tol))
            checked += 1
    assert all(c > 0 for c in basin_counts)
    assert checked > 0.8 * spec.width * spec.height


def test_render_is_deterministic():
    spec = _cube_spec(width=16, height=16)
    a, b = render(spec), render(_cube_spec(width=16, height=16))
    assert a.phase == b.phase
    assert a.iterations == b.iterations
    assert a.converged == b.converged
    assert [[str(z) for z in row] for row in a.final] == \
           [[str(z) for z in row] for row in b.final]


def _kepler_spec(**kw):
    # the A8 Kepler window: sin/cos slots, fixed-point and mpmath, and NaN pixels
    return BasinSpec(**{**dict(ftext="z - 0.083*sin(z) - 1", re_range=(-30.5, -29.5),
                               im_range=(-17.5, -16.5), max_iter=30, tol="1e-8"), **kw})


def test_render_is_worker_count_independent():
    for make_spec in (_cube_spec, _kepler_spec):
        one = render(make_spec(width=12, height=10, workers=1))
        two = render(make_spec(width=12, height=10, workers=2))
        assert one.phase == two.phase
        assert one.iterations == two.iterations
        assert one.converged == two.converged
        assert one.nan_mask == two.nan_mask
        assert [[str(z) for z in row] for row in one.final] == \
               [[str(z) for z in row] for row in two.final]
    assert any(any(row) for row in one.nan_mask)      # the Kepler window has NaN pixels


def _outcome(raster):
    finals = [[None if z is None else z._mpc_ for z in row] for row in raster.final]
    return raster.iterations, raster.converged, raster.nan_mask, raster.phase, finals


def test_threads_rendering_different_specs_match_single_threaded_runs():
    # each render and scan owns its pixel iterator, so threads working on
    # different specs at once get what each gets alone
    p = Precision(34)
    segment = (p.cplx("-1.45", 0), p.cplx("-1.05", 0))
    jobs = {"cube": lambda: _outcome(render(_cube_spec(width=12, height=12))),
            "kepler": lambda: _outcome(render(_kepler_spec(width=10, height=10))),
            "scan": lambda: line_scan(_cube_spec(), segment, 60)}
    want = {name: job() for name, job in jobs.items()}
    got = {}

    def run(name):
        try:
            got[name] = jobs[name]()
        except Exception as exc:    # a failed render is a wrong result too
            got[name] = exc

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)     # switch threads often, so that any shared state shows
    try:
        threads = [threading.Thread(target=run, args=(name,)) for name in jobs]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == want


def _raster_1x1(phase_value, nan=False):
    spec = _cube_spec(width=1, height=1)
    return BasinRaster(1, 1,
                       final=[[None if nan else spec.precision.cplx(1, 0)]],
                       iterations=[[1]], converged=[[not nan]],
                       nan_mask=[[nan]],
                       phase=[[None if nan else phase_value]], spec=spec)


def test_ppm_single_pixel_phase_zero_is_cyan(tmp_path):
    path = tmp_path / "one.ppm"
    write_image(_raster_1x1(0.0), path)
    data = path.read_bytes()
    assert data.startswith(b"P6\n1 1\n255\n")
    assert data[-3:] == bytes((0, 255, 255))


def test_ppm_nan_pixel_is_pure_white(tmp_path):
    path = tmp_path / "nan.ppm"
    write_image(_raster_1x1(None, nan=True), path)
    assert path.read_bytes()[-3:] == bytes((255, 255, 255))


def test_ppm_distinct_phases_get_distinct_colors(tmp_path):
    spec = _cube_spec(width=2, height=1)
    raster = BasinRaster(2, 1,
                         final=[[spec.precision.cplx(1, 0)] * 2],
                         iterations=[[1, 1]], converged=[[True, True]],
                         nan_mask=[[False, False]],
                         phase=[[2 * math.pi / 3, -2 * math.pi / 3]], spec=spec)
    path = tmp_path / "two.ppm"
    write_image(raster, path)
    body = path.read_bytes()[-6:]
    px1, px2 = body[:3], body[3:]
    assert px1 != px2
    assert px1 != b"\xff\xff\xff" and px2 != b"\xff\xff\xff"


def test_ppm_to_an_open_binary_file_equals_the_file_written_by_path(tmp_path):
    raster = render(_cube_spec(width=6, height=5))
    path = tmp_path / "cube.ppm"
    write_image(raster, path)
    buf = io.BytesIO()
    write_image(raster, buf)
    assert buf.getvalue() == path.read_bytes()
    assert not buf.closed       # an open file is the caller's to close


def test_kepler_region_produces_nan_pixels():
    spec = BasinSpec(ftext="z - 0.083*sin(z) - 1",
                     re_range=(-30.5, -29.5), im_range=(-17.5, -16.5),
                     width=24, height=24, max_iter=30, tol="1e-8")
    raster = render(spec)
    _, nan_count = raster.counts()
    assert nan_count >= 1


def test_line_scan_single_sample():
    spec = _cube_spec()
    p = spec.precision
    out = line_scan(spec, (p.cplx(1, 0), p.cplx(1, 0)), 1)
    assert out == [0]


def test_line_scan_nan_sample_gets_minus_one():
    spec = _cube_spec()
    p = spec.precision
    out = line_scan(spec, (p.cplx(-1, 0), p.cplx(1, 0)), 3)     # the middle sample is z = 0
    assert out[1] == -1 and out[0] >= 0 and out[2] >= 0       # f'(0) = 0
    with pytest.raises(ValueError):
        line_scan(spec, (p.cplx(-1, 0), p.cplx(1, 0)), 0)


def test_line_scan_inside_immediate_basin_is_constant():
    spec = _cube_spec()
    p = spec.precision
    out = line_scan(spec, (p.cplx("0.9", 0), p.cplx("1.1", 0)), 50)
    assert set(out) == {0}


def test_line_scan_disconnection_window():
    spec = _cube_spec()
    p = spec.precision
    out = line_scan(spec, (p.cplx("-1.45", 0), p.cplx("-1.05", 0)), 120)
    changes = sum(1 for k in range(1, len(out)) if out[k] != out[k - 1])
    assert changes > 2


def test_raster_csv_dump():
    spec = _cube_spec(width=3, height=2)
    raster = render(spec)
    buf = io.StringIO()
    raster.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "i,j,re_z0,im_z0,converged,iterations,phase"
    assert len(lines) == 1 + 6


def test_raster_csv_writes_a_deep_zoom_window_at_the_spec_precision():
    # README's deep zoom: its columns are one double (1.0) and rows two
    # doubles apart; the CSV keeps the spec's 34 digits
    spec = _cube_spec(re_range=("1.00000000000000000001", "1.00000000000000000002"),
                      im_range=("-1e-20", "1e-20"), width=4, height=4)
    buf = io.StringIO()
    render(spec).to_csv(buf)
    rows = list(csv.DictReader(io.StringIO(buf.getvalue())))
    p = spec.precision
    res, ims = spec.grid()
    for column, axis, values in (("re_z0", "i", res), ("im_z0", "j", ims)):
        texts = {int(r[axis]): r[column] for r in rows}
        assert len(set(texts.values())) == 4
        for k, v in enumerate(values):
            assert abs(parse_real(texts[k], p) - v) <= abs(v) * p.eps


def test_render_starts_no_more_workers_than_rows(monkeypatch):
    # fork starts every worker of a pool up front, so 8 workers for 4 rows
    # would be 4 idle processes, and the calling process renders one share
    # itself; a serial stand-in records the pool size and runs each share
    # on a round trip of its pickled task
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            sent = pickle.loads(pickle.dumps((fn, *args)))
            assert sent[1:] == args
            done = concurrent.futures.Future()
            done.set_result(sent[0](*sent[1:]))
            return done

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    want = _outcome(render(_cube_spec(width=3, height=4)))
    assert sizes == []
    for workers, height, size in ((8, 4, 3), (3, 4, 2), (2, 5, 1), (8, 1, None)):
        got = render(_cube_spec(width=3, height=height, workers=workers))
        assert (sizes.pop() if sizes else None) == size
        if height == 4:
            assert _outcome(got) == want


def test_kepler_grid_writes_the_same_bytes_at_any_worker_count(tmp_path):
    # the A8 Kepler 12x12 grid, NaN pixels included: PPM and CSV at 1, 2 and 3 workers
    files = set()
    for workers in (1, 2, 3):
        raster = render(_kepler_spec(width=12, height=12, workers=workers))
        assert raster.counts()[1] > 0
        write_image(raster, tmp_path / "k.ppm")
        raster.to_csv(tmp_path / "k.csv")
        files.add(((tmp_path / "k.ppm").read_bytes(), (tmp_path / "k.csv").read_bytes()))
    assert len(files) == 1


def test_raster_csv_accepts_a_pathlib_path(tmp_path):
    raster = render(_cube_spec(width=3, height=2))
    buf = io.StringIO()
    raster.to_csv(buf)
    raster.to_csv(tmp_path / "b.csv")
    assert (tmp_path / "b.csv").read_bytes() == buf.getvalue().encode()


def test_pixel_iteration_matches_the_solver():
    # same seeding (Newton then blended steps): limits must agree
    spec = _cube_spec(width=1, height=1, re_range=(0.45, 0.55), im_range=(0.25, 0.35))
    raster = render(spec)
    assert raster.converged[0][0]
    p = spec.precision
    cfg = SolveConfig(precision=p, tol="1e-8", max_iter=13)
    trace = solve_expr("z^3-1", spec.pixel_center(0, 0), cfg)
    assert trace.converged
    assert abs(trace.final.x - raster.final[0][0]) <= p.real("1e-20")
    assert len(trace) - 1 == raster.iterations[0][0]


_MIDDLE = dict(re_range=("-0.75", "0.75"), im_range=("-0.75", "0.75"), width=3, height=3)


def _safeguard_windows():
    """Small windows where each of the solver's safeguards fires, most at a dyadic middle seed."""
    return [
        # z^2+3 from 1: Newton lands on -1, where f is 4 again (safeguard_newton)
        _cube_spec(ftext="z^2+3", re_range=("0.25", "1.75"), im_range=("-0.75", "0.75"),
                   width=3, height=3),
        # from 0 Newton lands on the critical point 1 (secant), then a dead previous f'
        _cube_spec(ftext="z^3-3*z+3", **_MIDDLE),
        # from 0 Newton lands on 1, where f is f(0) again and f' = 0 (degenerate)
        _cube_spec(ftext="z^3-2*z^2+z-1", **_MIDDLE),
        # f' = 0 at the seed (degenerate after 0 steps)
        _cube_spec(**_MIDDLE),
        # |f / f'| next to 1/guard = 1e29: dead on the left half, a Newton step on the right
        _cube_spec(ftext="z - 1e29", re_range=("-1", "1"), im_range=("-1", "1"), width=4, height=4),
        # f' about 1e-120 and f far below 1: a relative guard finds no dead derivative
        BasinSpec("z^3-1e-183", re_range=("-3e-61", "3e-61"), im_range=("-3e-61", "3e-61"),
                  width=6, height=6, tol="1e-200"),
    ]


def test_pixel_iteration_matches_the_solver_over_a_grid():
    # wherever no cap fires, every pixel agrees with the solver in flag, count
    # and limit, and is NaN exactly where the solver ends degenerate
    kepler = BasinSpec(ftext="z - 0.083*sin(z) - 1", re_range=(-30.5, -29.5),
                       im_range=(-17.5, -16.5), width=12, height=12, max_iter=30, tol="1e-8")
    kinds, capped = set(), {}
    for spec in (_cube_spec(width=12, height=12), kepler, *_safeguard_windows()):
        raster = render(spec)
        p = spec.precision
        cfg = SolveConfig(precision=p, tol=spec.tol, max_iter=spec.max_iter)
        capped[spec.ftext] = 0
        for j in range(spec.height):
            for i in range(spec.width):
                trace = solve_expr(spec.ftext, spec.pixel_center(i, j), cfg)
                kinds.update([trace.status, *(r.step_kind for r in trace.records)])
                if any(p.ctx.mag(v) > basins.OVERFLOW_BITS for r in trace.records for v in (r.x, r.y, r.yp)):
                    capped[spec.ftext] += 1     # the overflow cap, which the solver does not have
                    continue
                where = (spec.ftext, i, j)
                assert raster.nan_mask[j][i] == (trace.status == "degenerate"), where
                assert trace.converged == raster.converged[j][i], where
                assert len(trace) - 1 == raster.iterations[j][i], where
                if not raster.nan_mask[j][i]:
                    assert abs(trace.final.x - raster.final[j][i]) <= p.real("1e-20"), where
        if spec.ftext == "z^3-1e-183":
            assert raster.counts() == (34, 0)
    assert {"safeguard_newton", "secant", "degenerate"} <= kinds
    # only the Kepler window's iterates pass 2**1024, and they leave NaN pixels there
    assert capped.pop(kepler.ftext) > 0 and not any(capped.values())
    origin = _cube_spec(width=1, height=1, re_range=(-1.0, 1.0), im_range=(-1.0, 1.0))
    raster = render(origin)
    assert origin.pixel_center(0, 0) == 0 and raster.nan_mask[0][0]   # f'(0) = 0
    assert raster.iterations[0][0] == 0


def test_a_safeguard_step_keeps_only_its_own_lanes_kills():
    # one group, one iteration: from 1, z^2+3 meets f = 4 again at -1
    # (safeguard_newton) while from sqrt(3) Newton lands next to the critical
    # point 0 (secant); the secant runs over the whole group and divides the
    # first lane by its zero residual gap, a kill that lane must not keep
    spec = BasinSpec("z^2+3", max_iter=5)
    p = spec.precision
    seeds = [p.real(1), p.ctx.sqrt(3)]
    cfg = SolveConfig(precision=p, tol=spec.tol, max_iter=spec.max_iter)
    for z0, (_, it, conv, nan, _) in zip(seeds, basins._lane_iterator(spec)(seeds, [p.real(0)] * 2)):
        trace = solve_expr(spec.ftext, p.ctx.mpc(z0), cfg)
        assert {"secant", "safeguard_newton"} & {r.step_kind for r in trace.records}
        assert (trace.status, len(trace) - 1) == ("max_iter", it) and not (conv or nan)


def test_render_of_mpf_valued_spec_under_spawn(monkeypatch):
    # spawn pickles each task with its spec, which fork, the Linux default,
    # does not; a spec keeps its numbers as text, so one given mpf values pickles
    p = Precision(34)
    window = {"re_range": ("-1.5", "0.5"), "im_range": ("-0.75", "1.25"), "tol": "1e-8"}
    kinds = {"str": window,
             "float": {k: tuple(map(float, v)) if type(v) is tuple else float(v)
                       for k, v in window.items()},
             "mpf": {k: tuple(map(p.real, v)) if type(v) is tuple else p.real(v)
                     for k, v in window.items()}}
    sizes, submitted = [], []

    class SpawnPool(ProcessPoolExecutor):
        def __init__(self, **kw):
            sizes.append(kw["max_workers"])
            super().__init__(mp_context=multiprocessing.get_context("spawn"), **kw)

        def submit(self, fn, *args):
            submitted.append(args)
            return super().submit(fn, *args)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SpawnPool)
    want = render(_cube_spec(width=5, height=4, **window))
    for kind, values in kinds.items():
        for workers in (1, 2):
            spec = _cube_spec(width=5, height=4, workers=workers, **values)
            assert (spec.tol, spec.re_range, spec.im_range) == \
                (str(values["tol"]), tuple(map(str, values["re_range"])),
                 tuple(map(str, values["im_range"]))), kind
            got = render(spec)
            assert _outcome(got) == _outcome(want), (kind, workers)
    assert sizes == [1] * 3 and len(submitted) == 3
    assert all(args[0].workers == 2 and pickle.loads(pickle.dumps(args)) == args for args in submitted)


def _scale(P):
    """The lanes' scale of a render at the default guard: F = P + GUARD_BITS (177 at 34 digits)."""
    return basins._Scale(P + GUARD_BITS)


def _lanes(g, pairs):
    return basins._Lanes([r for r, _ in pairs], [i for _, i in pairs], g)


def _pairs(lanes):
    return list(zip(lanes.re, lanes.im))


def _fixed(v, F):
    """floor(v * 2**F) for an mpf v, exactly."""
    return int(v.context.floor(v.context.ldexp(v, F)))


def test_fixed_precision_complex_arithmetic_against_mpmath():
    # every lane op is off by a few units of 2**-F absolutely; for results of
    # magnitude 2**(P - F) or more that is within 8 units of 2**-P of themselves,
    # and a sum or difference is exact
    p = Precision(34)
    ref = Precision(80).ctx
    P = p.ctx.prec
    g = _scale(P)
    F = g.F
    rng = random.Random(7)
    floor = ref.ldexp(1, P - F)

    def value(t):
        return ref.mpc(ref.ldexp(t[0], -F), ref.ldexp(t[1], -F))

    def rand():
        scale = p.ctx.ldexp(1, rng.randint(-100, 100))
        z = p.ctx.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)) * scale
        return _fixed(z.real, F), _fixed(z.imag, F)

    draws = [(rand(), rand()) for _ in range(300)]
    x, y = (_lanes(g, side) for side in zip(*draws))
    for got, op in ((x * y, operator.mul), (x / y, operator.truediv),
                    (x + y, operator.add), (x - y, operator.sub)):
        for a, b, r in zip(_pairs(x), _pairs(y), _pairs(got)):
            want = op(value(a), value(b))
            slack = 0 if op in (operator.add, operator.sub) else ref.ldexp(max(abs(want), floor), 3 - P)
            assert abs(value(r) - want) <= slack
    assert not g.dead
    const = basins._lanes_lowering(p.ctx, g)["const"]
    assert const(p.nan) is None and const(p.inf) is None and const(p.cplx(0, 0)) == (0, 0)
    assert const(p.ctx.ldexp(1, g.bits)) is None and const(p.ctx.ldexp(1, g.bits - 1)) is not None
    tol = p.real("1e-8")
    T = _fixed(tol, F)
    assert p.ctx.ldexp(tol, F) == T         # the tolerance is an exact integer at scale F
    y = _lanes(g, [(T, 0), (0, T), (-T, 0), (T + 1, 0), (T, 1)])
    assert basins._within(y, T * T) == [True, True, True, False, False]


def test_lane_ops_give_the_bits_of_their_scalar_form():
    # each op over a group gives in every lane the floor of the exact result at
    # scale F, zero included, whatever its neighbours hold; operands stay as they were
    P = Precision(34).ctx.prec
    g = _scale(P)
    F = g.F
    rng = random.Random(5)

    def rand():
        re, im = rng.getrandbits(P) - (1 << P - 1), rng.getrandbits(P) - (1 << P - 1)
        re, im = rng.choice(((re, im), (re, 0), (0, im)))
        e = rng.randint(-60, 60) + F
        return re << e, im << e

    xs, ys = [], []
    for _ in range(500):
        a, b = rand(), rand()
        near = (b[0] + rng.randint(-2, 2), b[1] + rng.randint(-2, 2))    # cancels in b - near
        for x, y in ((a, b), (b, near), (a, (0, 0)), ((0, 0), a), (a, a)):
            xs.append(x)
            ys.append(y)
    x, y = _lanes(g, xs), _lanes(g, ys)
    before = (list(x.re), list(x.im), list(y.re), list(y.im))

    def mul(a, b):
        return (a[0] * b[0] - a[1] * b[1]) >> F, (a[0] * b[1] + a[1] * b[0]) >> F

    def div(a, b):
        den = b[0] * b[0] + b[1] * b[1]
        return (((a[0] * b[0] + a[1] * b[1]) << F) // den, ((a[1] * b[0] - a[0] * b[1]) << F) // den)

    assert _pairs(x + y) == [(a[0] + b[0], a[1] + b[1]) for a, b in zip(xs, ys)]
    assert _pairs(x - y) == [(a[0] - b[0], a[1] - b[1]) for a, b in zip(xs, ys)]
    assert _pairs(x * y) == [mul(a, b) for a, b in zip(xs, ys)]
    assert _pairs(-x) == [(-a[0], -a[1]) for a in xs]
    assert not g.dead
    q = _pairs(x / y)
    zero = {k for k, b in enumerate(ys) if b == (0, 0)}
    assert g.dead == zero and zero
    assert [q[k] for k in range(len(ys)) if k not in zero] == \
        [div(a, b) for a, b in zip(xs, ys) if b != (0, 0)]
    g.dead.clear()
    # ints and pairs (folded constants) on either side, as ici_blend and the tape use them
    c = ys[0]
    one, two = (1 << F, 0), (2 << F, 0)
    assert _pairs(1 + x) == _pairs(x + 1) == [(a[0] + one[0], a[1]) for a in xs]
    assert _pairs(x - 1) == [(a[0] - one[0], a[1]) for a in xs]
    assert _pairs(c - x) == [(c[0] - a[0], c[1] - a[1]) for a in xs]
    assert _pairs(2 * x) == _pairs(x * two) == [(2 * a[0], 2 * a[1]) for a in xs]
    assert _pairs(c * x) == _pairs(x * c) == [mul(a, c) for a in xs]
    assert _pairs(x / c) == [div(a, c) for a in xs]
    assert _pairs(c / y) == [div(c, b) if b != (0, 0) else (0, 0) for b in ys]
    assert (x.re, x.im, y.re, y.im) == before
    assert _pairs(x - x) == [(0, 0)] * len(xs)

    # the fast paths of mul (a square, an int, a real constant) against the
    # general four-product form, dead lanes included
    def held(pairs):
        h = g.hold
        dead = {k for k, (r, i) in enumerate(pairs) if not (-h < r < h and -h < i < h)}
        return [(0, 0) if k in dead else p for k, p in enumerate(pairs)], dead

    def same(got, want):
        assert (_pairs(got), g.dead) == held(want)
        g.dead.clear()

    g.dead.clear()                      # c / y killed the lanes of its zero divisors
    same(x * x, [mul(a, a) for a in xs])
    same(y * y, [mul(b, b) for b in ys])
    copy = _lanes(g, xs)
    assert _pairs(x * copy) == _pairs(x * x)                # the general path on equal lanes
    g.dead.clear()
    past = 1 << g.bits                                      # no pair may hold the int itself
    for n in (0, 1, -1, 2, -2, 3, -3, past):
        same(x * n, [mul(a, (n << F, 0)) for a in xs])
        same(n * x, [mul(a, (n << F, 0)) for a in xs])
        assert _pairs(x * n) == _pairs(x * _lanes(g, [(n << F, 0)] * len(xs)))
        g.dead.clear()
    assert past << F == g.hold
    for c in [(b[0], 0) for b in ys[:50:5]] + [(0, 0), (g.hold - 1, 0), (-g.hold + 1, 0)]:
        same(x * c, [mul(a, c) for a in xs])
        same(c * x, [mul(a, c) for a in xs])
    assert (x.re, x.im) == before[:2]


def test_blended_step_on_lanes_against_the_kernel():
    # the step is kernel.ici_blend itself, run on lanes; held to ici_step at 120 digits
    p = Precision(34)
    ref = Precision(120).ctx
    P = p.ctx.prec
    g = _scale(P)
    F = g.F
    rng = random.Random(11)
    floor = ref.ldexp(1, P - F)

    def value(t):
        return ref.mpc(ref.ldexp(t[0], -F), ref.ldexp(t[1], -F))

    def pair(v):
        return _fixed(p.ctx.mpf(v.real), F), _fixed(p.ctx.mpf(v.imag), F)

    def unit(real, lo=0.0, hi=1.0):
        while True:
            c = ref.mpc(rng.uniform(-1, 1), 0 if real else rng.uniform(-1, 1))
            if lo <= abs(c) <= hi:
                return c

    def scale():
        return ref.ldexp(1, rng.randint(-100, 100))

    def big(*factors):
        """The product of the factors' moduli, each and the product at least 2**(P - F)."""
        m = ref.mpf(1)
        for f in factors:
            m *= max(abs(f), floor)
        return max(m, floor)

    unrelated, cubic = [], []
    for k in range(400):
        real = k % 2 == 0
        unrelated.append([[pair(unit(real) * scale()) for _ in range(3)] for _ in range(2)])
        # samples of an inverse cubic x(y) = r + R t (a1 + a2 t + a3 t^2), t = y / Y,
        # with |y_cur| < |y_prev| / 2: the step is exact in exact arithmetic
        R, Y = scale(), scale()
        r = R * unit(real, 0.5, 1)
        a1, a2, a3 = unit(real, 0.5, 1), unit(real), unit(real)
        tp = unit(real, 0.05, 0.5)
        cubic.append((r, [[pair(r + R * t * (a1 + t * (a2 + t * a3))), pair(t * Y),
                           pair(R * t * (a1 + t * (2 * a2 + t * 3 * a3)))]     # y / f'(x) = y x'(y)
                          for t in (tp, tp * unit(real, 0.01, 0.5))]))

    def steps(samples):
        # one group: lane k holds samples[k]
        (zp, yp, np_), (zc, yc, nc) = ([_lanes(g, [s[i][c] for s in samples]) for c in range(3)]
                                       for i in range(2))
        zn = ici_blend(yp / (yp - yc), zp, np_, zc, nc)
        assert not g.dead
        for s, got in zip(samples, _pairs(zn)):
            (zp, yp, np_), (zc, yc, nc) = ([value(t) for t in side] for side in s)
            want = ici_step(PointSample(zp, yp, yp / np_), PointSample(zc, yc, yc / nc))
            yield value(got), want, (zp, yp, np_, zc, yc, nc)

    for got, want, (zp, yp, np_, zc, yc, nc) in steps(unrelated):
        # unrelated samples: each op is off by a few units of 2**-F, which each
        # product carries; the scale is the sum of the terms' moduli, every factor
        # and product of it at least 2**(P - F), within today's bound for larger ones
        u = yp / (yp - yc)
        v = u - 1
        terms = (big(zc) + big(big(u, u), nc)
                 + big(big(v, v), big(np_) + big(1 + 2 * u, zc - zp)))
        assert abs(got - want) <= ref.ldexp(terms, 5 - P)
    for (got, want, (_, yp, np_, _, yc, nc)), (r, _) in zip(steps([s for _, s in cubic]), cubic):
        assert abs(got - want) <= ref.ldexp(max(abs(want), floor), 3 - P)
        # the samples are off by 2**-F, which moves the step by |x'(y)| = |n / y| times that
        assert abs(want - r) <= ref.ldexp(max(abs(r), floor * (1 + abs(np_ / yp) + abs(nc / yc))), 5 - P)
    one = _lanes(g, [(1 << F, 0)])
    one / (one - one)
    assert g.dead == {0}                                    # equal residuals: no weight u


def test_exponent_first_cap_test_decides_as_cmag_at_its_edge(monkeypatch):
    # the cap test rules a group out from the extremes of its parts; a lane
    # near the edge is decided as ctx.mag bounds its value: mag > cap kills it
    P = Precision(34).ctx.prec
    ctx = Precision(34).ctx
    top = (1 << P) - 1
    for cap in (7, 1024):
        monkeypatch.setattr(basins, "OVERFLOW_BITS", cap)
        g = _scale(P)
        F = g.F
        c = 1 << cap + F - 1
        values = [(0, 0), (c - 1, 0), (c, 0), (2 * c - 1, 0), (2 * c, 0), (c - 1, 1), (c, 1),
                  (-c, -1), (1, -c), (-(2 * c - 1), 2 * c - 1), (0, -(2 * c))]
        for e in (cap - P - 2, cap - P - 1, cap - P):
            values += [(m0 << e + F, m1 << e + F) for m0, m1 in
                       ((top, 0), (0, -top), (1 << P - 1, 0), (top, 1), (-top, top), (1, 1 << P - 1))]
        want = {k for k, (r, i) in enumerate(values)
                if ctx.mag(ctx.make_mpc((from_man_exp(r, -F), from_man_exp(i, -F)))) > cap}
        g.over_cap(_lanes(g, values))
        assert g.dead == want and 0 < len(want) < len(values)
        for k, v in enumerate(values):             # alone, where the first test can decide
            g.dead.clear()
            g.over_cap(_lanes(g, [v]))
            assert bool(g.dead) == (k in want), (cap, v)


def _mag_cap(self, z):
    """The cap test by mpmath's mag of each lane's exact value."""
    ctx = Precision(34).ctx
    for k, (r, i) in enumerate(zip(z.re, z.im)):
        if ctx.mag(ctx.make_mpc((from_man_exp(r, -self.F), from_man_exp(i, -self.F)))) > basins.OVERFLOW_BITS:
            self.dead.add(k)


def test_low_overflow_cap_matches_the_cmag_test_over_grids(monkeypatch):
    # a cap at |a| > 2**7: the Newton step from near 0 of z^3-1 passes it, and
    # so does f' = 3000 z^2 where |f| is still small
    cap = 7
    monkeypatch.setattr(basins, "OVERFLOW_BITS", cap)
    cases = ((_cube_spec(re_range=(-0.1, 0.1), im_range=(-0.1, 0.1), width=4, height=4),
              lambda z: (z ** 3 - 1, 3 * z ** 2)),
             (_cube_spec(ftext="1000*z^3-1", re_range=(-0.5, 0.5), im_range=(-0.5, 0.5),
                         width=20, height=20),
              lambda z: (1000 * z ** 3 - 1, 3000 * z ** 2)))
    fired = []
    for spec, fd in cases:
        raster = render(spec)
        step = fprime = 0
        res, ims = spec.grid()
        for j, im in enumerate(ims):
            for i, re in enumerate(res):
                z = spec.precision.ctx.mpc(re, im)
                y, d = fd(z)
                if abs(y) > 2 ** (cap - 2):
                    continue
                if abs(d) > 2 ** (cap + 1):                 # f' fires on the seed
                    fprime += 1
                    assert raster.nan_mask[j][i] and raster.iterations[j][i] == 0
                elif abs(d) < 2 ** (cap - 2) and abs(z - y / d) > 2 ** (cap + 1):
                    step += 1                               # the Newton step fires
                    assert raster.nan_mask[j][i] and raster.iterations[j][i] == 1
        fired.append((step, fprime))
        with monkeypatch.context() as m:
            m.setattr(basins._Scale, "over_cap", _mag_cap)
            want = render(spec)
        assert raster.nan_mask == want.nan_mask and raster.iterations == want.iterations
        assert raster.converged == want.converged and raster.phase == want.phase
    assert fired[0][0] > 0 and fired[1][1] > 0


def _lane_fd(spec, F):
    """f and f' of the spec's tape on one lane, as pairs; DeadPixel where the lane dies."""
    g = basins._Scale(F)
    jet = lower(compile_tape(spec.ftext), basins._lanes_lowering(spec.precision.ctx, g))

    def fd(z):
        g.dead.clear()
        out = [v if type(v) is tuple else (v.re[0], v.im[0]) for v in jet(_lanes(g, [z]))]
        if g.dead:
            raise DeadPixel
        return out
    return fd


def test_render_equals_the_one_pixel_fixed_point_loop(monkeypatch):
    # the lanes of a group, however wide, each iterate as oracles.FixedPairs
    # iterates one pixel: same limits, iterations, flags and phases, bit for bit
    # a cap of 2**2 with tol 1000 on z^8-1: every seed, |z| ~ 0.7, meets tol,
    # so each pixel converges at iteration 0 unless f' there is past the cap
    low_cap = _cube_spec(ftext="z^8-1", re_range=("0.55", "0.85"), im_range=("-0.15", "0.15"),
                         width=6, height=6, tol="1000")
    # a cap of 2**3 with tol 0.5 on sin(10z): the first step from seeds where
    # |f| ~ 0.97 lands near -pi/10, where |f| <= tol but |f'| ~ 10 is past the
    # cap, and NaN wins
    same_sample = _cube_spec(ftext="sin(10*z)", re_range=("0.132", "0.138"),
                             im_range=("-0.003", "0.003"), width=6, height=6, tol="0.5")
    caps = {id(low_cap): 2, id(same_sample): 3}
    # the residuals of the first step's two points differ by 3e-29 and 4.2e-29
    # times |y| = 4, against the guard's 1e-29: the weight u lies next to
    # 1/guard, and the exact test decides a safeguard Newton step and a
    # blended one
    near_meet = [_cube_spec(ftext=f"z^2+3+{c}*z", re_range=("0.25", "1.75"), im_range=("-0.75", "0.75"),
                            width=3, height=3) for c in ("1e-29", "1.4e-29")]
    first = (_cube_spec(width=12, height=12), _kepler_spec(width=12, height=12), low_cap, same_sample)
    for spec in (*first, *_safeguard_windows(), *near_meet):
        monkeypatch.setattr(basins, "OVERFLOW_BITS", caps.get(id(spec), 1024))
        p = spec.precision
        ctx = p.ctx
        F = basins._scale_bits(spec)
        fp = FixedPairs(F, basins.OVERFLOW_BITS + basins.HOLD_BITS)
        if spec.ftext == "z^3-1":       # written out, independently of the tape
            def fd(z):
                z2 = fp.mul(z, z)
                return fp.sub(fp.mul(z2, z), fp.one), fp.mul((3 << F, 0), z2)
        else:
            fd = _lane_fd(spec, F)
        tol = p.real(spec.tol)
        tol2 = _fixed(tol, F) ** 2
        res, ims = spec.grid()
        want = [[fp.pixel(fd, (_fixed(re, F), _fixed(im, F)), tol2, spec.max_iter, basins.OVERFLOW_BITS,
                          p.digits) for re in res] for im in ims]
        if spec in first:
            assert any(w[3] for row in want for w in row) == (spec.ftext != "z^3-1")
        if spec is low_cap:         # every pixel ends at its seed, converged or (f' past the cap) NaN
            assert all(w[1] == 0 for row in want for w in row) and any(w[2] for row in want for w in row)
        if spec is same_sample:
            assert sum(w[1] == 1 and w[3] for row in want for w in row) > 0
        for lanes in (1, 7, spec.width * spec.height):
            monkeypatch.setattr(basins, "GROUP_LANES", lanes)
            raster = render(spec)
            for j, row in enumerate(want):
                for i, (z, it, conv, nan) in enumerate(row):
                    where = (spec.ftext, lanes, i, j)
                    assert (raster.iterations[j][i], raster.converged[j][i],
                            raster.nan_mask[j][i]) == (it, conv, nan), where
                    if nan:
                        assert raster.final[j][i] is None and raster.phase[j][i] is None
                        continue
                    final = (from_man_exp(z[0], -F), from_man_exp(z[1], -F))
                    assert raster.final[j][i]._mpc_ == final, where
                    assert raster.phase[j][i] == float(ctx.arg(ctx.make_mpc(final))), where


# ---------------------------------------------------------------------------
# phases from the lane integers: the double that mpmath's arg rounds to

def _arg(ctx, x, y, F):
    return float(ctx.arg(ctx.make_mpc((from_man_exp(x, -F), from_man_exp(y, -F)))))


def _phase_points(F, rng):
    """Lane parts at scale F: axes, origin, diagonals, a part of one unit, parts next to the hold bound."""
    one, top = 1 << F, (1 << F + basins.OVERFLOW_BITS + basins.HOLD_BITS) - 1
    signs = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    pts = [(0, 0), (one, 0), (0, one), (0, -one), (-one, 0), (top, 0), (-top, 0), (0, top), (0, -top)]
    for m in (1, one // 3, one, top):                           # |re| = |im|
        pts += [(sx * m, sy * m) for sx, sy in signs]
    for m in (one, 3 * one // 2, 1 << F + 900, top):            # one part a single unit of 2**-F
        pts += [(sx * m, sy) for sx, sy in signs] + [(sx, sy * m) for sx, sy in signs]
    for d in (1, 2, one // 5):                                  # next to the hold bound and the diagonal
        pts += [(sx * top, sy * (top - d)) for sx, sy in signs] + [(sx * (top - d), sy * top) for sx, sy in signs]
    for _ in range(1500):
        a, b = (rng.getrandbits(rng.randrange(1, F + 1088)) for _ in range(2))
        pts.append((rng.choice((a, -a)), rng.choice((b, -b, a + rng.randrange(-2, 3)))))
    return pts


@pytest.mark.parametrize("digits", [10, 34, 100])
def test_phase_from_lane_parts_is_the_double_of_mpmaths_arg(digits):
    ctx = Precision(digits).ctx
    F = ctx.prec + GUARD_BITS
    fast = unsure = 0
    for x, y in _phase_points(F, random.Random(digits)):
        got, want = basins._phase(x, y, ctx.prec), _arg(ctx, x, y, F)
        if got is None:
            unsure += abs(want) >= 2.0 ** -990     # else doubles thin out: mpmath decides
            continue
        fast += 1
        assert got.hex() == want.hex(), (x, y)
    assert fast > 1400 and unsure <= (3 if digits == 10 else 0)


def test_phase_on_the_axes_diagonals_and_single_units():
    ctx = Precision(34).ctx
    F = ctx.prec + GUARD_BITS
    one, top = 1 << F, (1 << F + basins.OVERFLOW_BITS + basins.HOLD_BITS) - 1
    want = {(0, 0): 0.0, (one, 0): 0.0, (-one, 0): math.pi, (0, one): math.pi / 2, (0, -one): -math.pi / 2,
            (one, one): math.pi / 4, (top, -top): -math.pi / 4, (-top, 0): math.pi, (0, top): math.pi / 2}
    for (x, y), phase in want.items():
        assert basins._phase(x, y, ctx.prec).hex() == phase.hex() == _arg(ctx, x, y, F).hex(), (x, y)
    assert basins._phase(one, 1, ctx.prec) == 2.0 ** -F == _arg(ctx, one, 1, F)     # atan(2**-F)
    assert basins._phase(top, 1, ctx.prec) is None                  # below 2**-1000: mpmath decides


@pytest.mark.parametrize("digits", [10, 34])
def test_phase_just_below_a_double_midpoint_is_left_to_mpmath(digits):
    # theta = m - 2**-(P + 10), m = 1 + 3 * 2**-53 the midpoint of 1 + 2**-52 and
    # 1 + 2**-51: theta rounds to the first, but mpmath's arg rounds it to m at P
    # bits and float() takes m to the even second.  Only a bound that carries
    # mpmath's error at P bits leaves this phase to mpmath
    ctx = Precision(digits).ctx
    P, F = ctx.prec, ctx.prec + GUARD_BITS
    with ctx.workprec(F + 64):
        theta = 1 + 3 * ctx.ldexp(1, -53) - ctx.ldexp(1, -P - 10)
        y = int(ctx.nint(ctx.tan(theta) * 2 ** F))
        assert float(ctx.atan2(y, 1 << F)) == 1 + 2.0 ** -52
    assert _arg(ctx, 1 << F, y, F) == 1 + 2.0 ** -51
    assert basins._phase(1 << F, y, P) is None


def _bytes(raster):
    ppm, text = io.BytesIO(), io.StringIO()
    write_image(raster, ppm)
    raster.to_csv(text)
    return ppm.getvalue(), text.getvalue()


def test_a_render_with_every_phase_from_mpmath_is_bit_identical(monkeypatch):
    for spec in (_cube_spec(width=12, height=12), _kepler_spec(width=12, height=12),
                 _cube_spec(width=12, height=12, precision=Precision(10))):
        want = render(spec)
        with monkeypatch.context() as m:
            m.setattr(basins, "_phase", lambda x, y, P: None)
            got = render(spec)
        assert [[None if v is None else v.hex() for v in row] for row in got.phase] == \
               [[None if v is None else v.hex() for v in row] for row in want.phase]
        assert _outcome(got) == _outcome(want) and _bytes(got) == _bytes(want)


def test_every_phase_of_a_10_digit_cube_grid_is_mpmaths_arg_of_its_limit():
    # at 10 digits (P = 66) mpmath's arg rounds coarsest: each phase is still its double
    spec = _cube_spec(width=12, height=12, precision=Precision(10))
    ctx = spec.precision.ctx
    assert ctx.prec == 66
    raster = render(spec)
    assert raster.counts()[1] == 0          # every pixel has a limit or a last iterate, and a phase
    for j in range(12):
        for i in range(12):
            assert raster.phase[j][i].hex() == float(ctx.arg(raster.final[j][i])).hex(), (i, j)


# ---------------------------------------------------------------------------
# degenerate inputs end in a defined state, in bounded time

def _timed_render(spec, seconds):
    t0 = time.perf_counter()
    raster = render(spec)
    assert time.perf_counter() - t0 < seconds, spec.ftext
    return raster


def _agrees_with_the_solver(spec, raster):
    cfg = SolveConfig(precision=spec.precision, tol=spec.tol, max_iter=spec.max_iter)
    res, ims = spec.grid()
    for j, im in enumerate(ims):
        for i, re in enumerate(res):
            if raster.nan_mask[j][i]:
                continue
            trace = solve_expr(spec.ftext, spec.precision.ctx.mpc(re, im), cfg)
            assert trace.converged == raster.converged[j][i], (i, j)
            assert len(trace) - 1 == raster.iterations[j][i], (i, j)


def test_a_window_1e_60_wide_and_a_tol_of_1e_100_iterate_as_the_solver():
    # F grows with -log2 of the pixel spacing and of tol: the seeds of a window
    # 1e-60 wide stay distinct, and |f| <= 1e-100 is an exact test at scale F
    spec = BasinSpec("exp(1e60*z) - 2", re_range=("0", "1e-60"), im_range=("-5e-61", "5e-61"),
                     width=6, height=6)
    F = basins._scale_bits(spec)
    res, ims = spec.grid()
    assert F >= spec.precision.ctx.prec + 199
    assert len({_fixed(v, F) for v in res}) == len({_fixed(v, F) for v in ims}) == 6
    raster = _timed_render(spec, 5)
    assert raster.counts() == (36, 0)
    assert len({z for row in raster.final for z in row}) == 36      # each pixel its own limit
    _agrees_with_the_solver(spec, raster)
    # at 120 digits, where the solver's own rounding lets it reach 1e-100
    spec = _cube_spec(width=12, height=12, tol="1e-100", precision=Precision(120))
    raster = _timed_render(spec, 5)
    assert raster.counts()[0] > 100
    _agrees_with_the_solver(spec, raster)


def test_a_seed_that_meets_tol_is_its_own_limit():
    # |f(z0)| <= tol ends a pixel converged at iteration 0, its seed the
    # limit, as solve_expr reports
    spec = BasinSpec("z^2 - 1e-122", re_range=("-5e-61", "5e-61"), im_range=("-5e-61", "5e-61"),
                     width=6, height=6)
    raster = _timed_render(spec, 5)
    assert raster.counts() == (36, 0) and raster.iterations == [[0] * 6] * 6
    _agrees_with_the_solver(spec, raster)
    ctx, F = spec.precision.ctx, basins._scale_bits(spec)
    res, ims = spec.grid()
    assert all(abs(raster.final[j][i] - ctx.mpc(re, im)) <= ctx.ldexp(1, 1 - F)
               for j, im in enumerate(ims) for i, re in enumerate(res))


def test_exp_and_cos_sin_lanes_give_the_bits_of_one_lane_groups():
    # ln 2 and pi/2 are taken once per working precision and the hold bound
    # checked once per group: a group of mixed magnitudes, past the kernels'
    # 2**10 and past the hold bound too, gives each lane what it gets alone
    assert basins._FIXED_GUARD + basins._FIXED_MAG < GUARD_BITS     # wp < F: one right shift
    p = Precision(34)
    g = _scale(p.ctx.prec)
    F = g.F
    lowering = basins._lanes_lowering(p.ctx, g)
    rng = random.Random(11)

    def part(m):
        return rng.choice((0, int(rng.uniform(-1, 1) * 2 ** 40) << F + m - 40))

    # e**800 and cosh 800 lie past the hold bound, on the kernels' side of 2**10
    past = {"exp": (800 << F, 0), "cos_sin": (0, 800 << F)}
    zs = [(part(rng.randint(-30, 12)), part(rng.randint(-30, 12))) for _ in range(300)]
    for op in ("exp", "cos_sin"):
        slot = lowering[op](None)
        x = _lanes(g, zs + [past[op]])
        group = slot(x, x)
        group = [_pairs(v) for v in (group if op == "cos_sin" else (group,))]
        dead = set(g.dead)
        g.dead.clear()
        assert len(zs) in dead and len(dead) < len(zs), op
        assert all(-g.hold < c < g.hold for v in group for p in v for c in p)
        for k, z in enumerate(zs):
            one = _lanes(g, [z])
            alone = slot(one, one)
            alone = [_pairs(v)[0] for v in (alone if op == "cos_sin" else (alone,))]
            assert (bool(g.dead), alone) == (k in dead, [v[k] for v in group] if k not in dead
                                             else [(0, 0)] * len(group)), (op, z)
            g.dead.clear()


def test_huge_powers_and_nested_squarings_end_as_nan_pixels_in_time():
    # a value no pair may hold kills its lane at the product that makes it
    nested = "z"
    for _ in range(20):
        nested = f"({nested})^2"
    edge = "5.9e270"                    # |z| up to 2**900 at the corners
    for spec in (_cube_spec(ftext="z^65535-1", re_range=("-" + edge, edge), im_range=("-" + edge, edge),
                            width=6, height=6),
                 _cube_spec(ftext=nested + " - 1", width=6, height=6)):
        raster = _timed_render(spec, 5)
        assert raster.counts() == (0, 36), spec.ftext


def test_exp_of_exp_and_sin_past_2_to_the_10_give_nan_pixels():
    # past 2**10 exp and sin go to mpmath, whose values here no pair may hold
    for ftext, re_range, im_range in (("exp(exp(z)) - 1", ("1024", "1025"), ("-1", "1")),
                                      ("sin(z)", ("-1", "1"), ("1024", "1025"))):
        raster = _timed_render(_cube_spec(ftext=ftext, re_range=re_range, im_range=im_range,
                                          width=4, height=4), 5)
        assert raster.counts() == (0, 16) and raster.iterations == [[0] * 4] * 4, ftext


def test_a_derivative_below_the_scale_renders_a_defined_raster():
    # f' = 3e-50 z^2 lies below 2**(P - F), where lanes keep fewer than P bits:
    # the limits need not match the solver's, but every pixel ends defined
    spec = _cube_spec(ftext="1e-50*(z^3-1)", width=8, height=8)
    raster = _timed_render(spec, 5)
    for j in range(spec.height):
        for i in range(spec.width):
            if raster.nan_mask[j][i]:
                assert raster.final[j][i] is None and raster.phase[j][i] is None
            else:
                assert spec.precision.ctx.isfinite(raster.final[j][i])
                assert -math.pi <= raster.phase[j][i] <= math.pi

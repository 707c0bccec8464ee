import io
import math
import multiprocessing
import pickle
import random
import sys
import threading
from concurrent.futures import ProcessPoolExecutor

import pytest

from iciroot import basins
from iciroot.basins import BasinRaster, BasinSpec, line_scan, render, write_image
from iciroot.expr import parse
from iciroot.mpscalar import Precision, phase
from iciroot.solve import SolveConfig, solve_expr


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


def test_pixel_center_convention():
    spec = _cube_spec(width=4, height=4)
    z00 = spec.pixel_center(0, 0)
    # row 0 is the top of the imaginary range
    assert z00.real == spec.precision.real("-1.5")
    assert z00.imag == spec.precision.real("1.5")
    z33 = spec.pixel_center(3, 3)
    assert z33.real == spec.precision.real("1.5")
    assert z33.imag == spec.precision.real("-1.5")


def test_pixel_exactly_at_a_root_converges_at_iteration_one():
    # string ranges parse as exact decimals, putting the center exactly at 1+0i
    spec = _cube_spec(re_range=("0.9", "1.1"), im_range=("-0.1", "0.1"), width=1, height=1)
    assert spec.pixel_center(0, 0) == spec.precision.cplx(1, 0)
    raster = render(spec)
    assert raster.converged[0][0]
    assert raster.iterations[0][0] == 1
    assert raster.phase[0][0] == 0.0
    assert not raster.nan_mask[0][0]


def test_equal_consecutive_residuals_make_a_nan_pixel():
    # z^2+3 from 1: the Newton step lands exactly on -1, where f is 4 again,
    # so the blended step of iteration 2 would divide by y_prev - y_cur = 0
    spec = _cube_spec(ftext="z^2+3", re_range=("0.9", "1.1"), im_range=("-0.1", "0.1"),
                      width=1, height=1)
    raster = render(spec)
    assert raster.nan_mask[0][0] and raster.iterations[0][0] == 2
    assert raster.final[0][0] is None and raster.phase[0][0] is None


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


def test_pixel_iteration_matches_the_solver_over_a_grid():
    # every pixel that is not NaN agrees with the solver in flag, count and limit
    kepler = BasinSpec(ftext="z - 0.083*sin(z) - 1", re_range=(-30.5, -29.5),
                       im_range=(-17.5, -16.5), width=12, height=12, max_iter=30, tol="1e-8")
    for spec in (_cube_spec(width=12, height=12), kepler):
        raster = render(spec)
        p = spec.precision
        cfg = SolveConfig(precision=p, tol=spec.tol, max_iter=spec.max_iter)
        for j in range(spec.height):
            for i in range(spec.width):
                if raster.nan_mask[j][i]:
                    continue
                trace = solve_expr(spec.ftext, spec.pixel_center(i, j), cfg)
                assert trace.converged == raster.converged[j][i]
                assert len(trace) - 1 == raster.iterations[j][i]
                assert abs(trace.final.x - raster.final[j][i]) <= p.real("1e-20")
    # the overflow cap, which the solver does not have, leaves NaN pixels here
    assert any(any(row) for row in raster.nan_mask)
    origin = _cube_spec(width=1, height=1, re_range=(-1.0, 1.0), im_range=(-1.0, 1.0))
    assert origin.pixel_center(0, 0) == 0 and render(origin).nan_mask[0][0]   # f'(0) = 0


def test_render_of_mpf_valued_spec_under_spawn(monkeypatch):
    # spawn pickles the pool's initargs; fork, the Linux default, would hide a spec
    # whose mpf values cannot be pickled
    p = Precision(34)
    text = _cube_spec(width=5, height=4, re_range=("-1.5", "0.5"), im_range=("-0.75", "1.25"))
    mp_spec = _cube_spec(width=5, height=4, re_range=(p.real("-1.5"), p.real("0.5")),
                         im_range=(p.real("-0.75"), p.real("1.25")), tol=p.real("1e-8"),
                         workers=2)
    with pytest.raises(pickle.PicklingError):
        pickle.dumps(mp_spec)
    initargs = []

    class SpawnPool(ProcessPoolExecutor):
        def __init__(self, **kw):
            initargs.append(kw["initargs"])
            super().__init__(mp_context=multiprocessing.get_context("spawn"), **kw)

    monkeypatch.setattr(basins, "ProcessPoolExecutor", SpawnPool)
    got = render(mp_spec)
    assert len(initargs) == 1 and pickle.loads(pickle.dumps(initargs[0])) == initargs[0]
    want = render(text)
    assert got.iterations == want.iterations and got.phase == want.phase
    assert got.nan_mask == want.nan_mask and got.converged == want.converged
    assert [[str(z) for z in row] for row in got.final] == \
           [[str(z) for z in row] for row in want.final]


def test_fixed_precision_complex_arithmetic_against_mpmath():
    p = Precision(34)
    ref = Precision(80).ctx
    P = p.ctx.prec
    rng = random.Random(7)

    def value(t):
        return ref.mpc(ref.ldexp(t[0], t[2]), ref.ldexp(t[1], t[2]))

    def rand():
        scale = p.ctx.ldexp(1, rng.randint(-100, 100))
        return basins._from_mp(p.ctx.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)) * scale, P)

    for _ in range(300):
        x, y = rand(), rand()
        big = max(abs(value(x)), abs(value(y)))
        # a product or quotient is good to a few units of 2**-P of itself; a sum
        # may also drop an addend that lies wholly below the larger one's last bit
        for got, want, slack in ((basins._cmul(x, y, P), value(x) * value(y), 0),
                                 (basins._cdiv(x, y, P), value(x) / value(y), 0),
                                 (basins._cadd(x, y, P), value(x) + value(y), big),
                                 (basins._csub(x, y, P), value(x) - value(y), big)):
            assert abs(value(got) - want) <= ref.ldexp(abs(want), 3 - P) + ref.ldexp(slack, -P)
    assert basins._from_mp(p.nan, P) is None and basins._from_mp(p.inf, P) is None
    assert basins._from_mp(p.cplx(0, 0), P) == basins._CZERO
    tol = p.real("1e-8")
    _, man, exp, _ = tol._mpf_
    assert basins._abs_le(basins._from_mp(tol, P), man, exp)
    assert basins._abs_le(basins._from_mp(p.cplx(0, tol), P), man, exp)
    assert not basins._abs_le(basins._from_mp(tol * (1 + p.eps), P), man, exp)

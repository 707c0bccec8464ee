"""Golden outputs: sha256 digests (first 16 hex digits) of trace and report texts.

A change that means to keep every output byte-identical must leave these
digests as they are.  The set is one 1000-digit problem of each solve-1000
family (polynomial, the paper's exp example, Kepler, complex z^4 - w) and the
A1 cubic at 40 digits, each under all three methods.  Each case hashes the
trace text (metadata and table, at the solve's digits) and the convergence
report's text at 60 digits, and a third digest hashes the bits that
:func:`~iciroot.solve.read_trace_text` gives back from that trace text: the
raw ``_mpf_`` / ``_mpc_`` tuples of every record, so the reader is pinned
like the writer.

The basin renderer is pinned the same way: the PPM bytes and the per-pixel
CSV text of a 24x24 frame of each A8 window (the cube ``z^3-1`` and the Kepler
window), rendered with 1 and with 2 workers, and the assignments of A8's
400-sample line scan.

To print the digests of the code in the working tree:
``PYTHONPATH=src:tests python -c "import test_golden; test_golden.print_digests()"``.
"""

import hashlib
import io

import pytest

from iciroot.basins import BasinSpec, line_scan, render, write_image
from iciroot.diagnostics import build_report, report_to_text
from iciroot.mpscalar import Precision, parse_scalar
from iciroot.solve import METHODS, SolveConfig, read_trace_text, solve_expr, write_trace_text

PROBLEMS = {
    "poly": ("x^5 - 0.8021*x^4 + 4.0000*x^3 - 3.2084*x^2 + 3.0000*x - 2.4063", "0.6921", 1000),
    "exp": ("(x^2+x)*exp(-x)-0.2164", "2.04", 1000),
    "kepler": ("x - 0.061*sin(x) - 0.67", "0.67", 1000),
    "zpow": ("z^4 + 0.648", "0.624+0.681i", 1000),
    "a1": ("x^3-2*x-5", "1", 40),
}

REPORT_DIGITS = 60


def _raw(v):
    """The sign, mantissa, exponent and bit count of each part of an mpf or mpc."""
    parts = v._mpc_ if hasattr(v, "_mpc_") else (v._mpf_,)
    return tuple((sign, int(man), exp, bc) for sign, man, exp, bc in parts)


def _texts(name, method):
    """(trace text, report text, read-back bits text) of one golden solve."""
    ftext, x0, digits = PROBLEMS[name]
    p = Precision(digits)
    trace = solve_expr(ftext, parse_scalar(x0, p), SolveConfig(precision=p, method=method))
    buf = io.StringIO()
    write_trace_text(trace, {"function": ftext, "x0": x0, "digits": digits, "method": method}, buf)
    back, _ = read_trace_text(io.StringIO(buf.getvalue()))
    bits = repr([(r.n, _raw(r.x), _raw(r.y), _raw(r.yp), r.step_kind) for r in back.records])
    return buf.getvalue(), report_to_text(build_report(trace), REPORT_DIGITS), bits


def _digests(name, method):
    return tuple(hashlib.sha256(t.encode()).hexdigest()[:16] for t in _texts(name, method))


GOLDEN = {
    ('poly', 'newton'): ('f9ddb9f906c9b073', '40197d6a74480a60', 'b5eb33d9aa2300b3'),
    ('poly', 'secant'): ('1a5f8407a590efa2', '50d3ba0802823df2', 'a7911854061d8e78'),
    ('poly', 'ici'): ('d90193dc906b2f37', '65ba5abb99fa81b7', '3fb2e8ed92a729c7'),
    ('exp', 'newton'): ('eb43513587e57e7f', '2149790acc95f00d', '7f5eb05d77493efa'),
    ('exp', 'secant'): ('185f388aea86ca1a', '64f9dbe9795d2e5e', '288b553f9e4b4910'),
    ('exp', 'ici'): ('c4467a223617d4ac', 'ba0f9abb864e6f54', 'bbe50c267b0d5d66'),
    ('kepler', 'newton'): ('150d4630d0a8acae', 'ecea4063dea1e148', 'a6488866b2063930'),
    ('kepler', 'secant'): ('cc8e06c2c9acfcb8', 'd6fb55a7cb51c673', '457e40d71ba0d4dc'),
    ('kepler', 'ici'): ('164b2730d3cdb034', '6e2b69abd586eec9', '2b8f5bbfbe221973'),
    ('zpow', 'newton'): ('82f97a9475203132', 'ea6d6dfbe408077e', 'f6ebe508a92ecbde'),
    ('zpow', 'secant'): ('50dc19768e1d2fdd', '51c3a3d314ab765b', '4e4d34964f82da17'),
    ('zpow', 'ici'): ('dc84646892aae31e', 'ff949cdbb559bf36', '1ecdcc042fa8cbb1'),
    ('a1', 'newton'): ('7f104895e3704e93', '20be6791185b6e8c', '3797cb5d3ed4b072'),
    ('a1', 'secant'): ('42c5633ccf221a77', '4c9b27f0aab857ad', 'd81853ac1b5213fe'),
    ('a1', 'ici'): ('40ca6daa7c4b0f3a', '206507fdb5a879b9', 'cfca548eb472e21b'),
}


@pytest.mark.parametrize("name, method", sorted(GOLDEN))
def test_trace_and_report_texts_match_their_golden_digests(name, method):
    assert _digests(name, method) == GOLDEN[name, method]


def test_the_golden_set_covers_every_problem_and_method():
    assert set(GOLDEN) == {(n, m) for n in PROBLEMS for m in METHODS}


WINDOWS = {
    "cube": dict(ftext="z^3-1", re_range=("-2", "2"), im_range=("-2", "2"), max_iter=13),
    "kepler": dict(ftext="z - 0.083*sin(z) - 1", re_range=("-30.5", "-29.5"),
                   im_range=("-17.5", "-16.5"), max_iter=30),
}

RASTER_SIZE = 24
SCAN = (("-1.45", "-1.05"), 400)      # A8's scan of the cube window, along the real axis


def _window(name, **kw):
    return BasinSpec(**WINDOWS[name], tol="1e-8", precision=Precision(34), **kw)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _raster_digests(name, workers):
    """(PPM digest, CSV digest) of one 24x24 frame of an A8 window."""
    raster = render(_window(name, width=RASTER_SIZE, height=RASTER_SIZE, workers=workers))
    ppm, csv_text = io.BytesIO(), io.StringIO()
    write_image(raster, ppm)
    raster.to_csv(csv_text)
    return _sha(ppm.getvalue()), _sha(csv_text.getvalue().encode())


def _scan_digest():
    spec = _window("cube")
    p = spec.precision
    (start, end), samples = SCAN
    scan = line_scan(spec, (p.cplx(start, 0), p.cplx(end, 0)), samples)
    return _sha(",".join(map(str, scan)).encode())


RASTERS = {
    ('cube', 1): ('b73ccfaf7e41c290', '30de3ca961cf0298'),
    ('cube', 2): ('b73ccfaf7e41c290', '30de3ca961cf0298'),
    ('kepler', 1): ('4d8a54c40d959433', '8d0e25b51f4d7a81'),
    ('kepler', 2): ('4d8a54c40d959433', '8d0e25b51f4d7a81'),
}

SCAN_DIGEST = 'c5e85f93056d6a50'


@pytest.mark.parametrize("name, workers", sorted(RASTERS))
def test_basin_frames_match_their_golden_digests(name, workers):
    assert _raster_digests(name, workers) == RASTERS[name, workers]


def test_line_scan_matches_its_golden_digest():
    assert _scan_digest() == SCAN_DIGEST


def print_digests():
    for name in PROBLEMS:
        for method in METHODS:
            print(f"    ({name!r}, {method!r}): {_digests(name, method)!r},")
    for name, workers in sorted(RASTERS):
        print(f"    ({name!r}, {workers}): {_raster_digests(name, workers)!r},")
    print(f"SCAN_DIGEST = {_scan_digest()!r}")

"""The APS01-APS12 battery (``tests/battery.py``): its texts against SciPy, and each method's runs.

Both tests need SciPy, whose ``_tstutils`` holds the battery's f and roots,
and skip without it.
"""

import math

import pytest

from iciroot.expr import compile_pair
from iciroot.mpscalar import Precision
from iciroot.solve import METHODS, SolveConfig, solve_expr

from battery import PROBLEMS

_tstutils = pytest.importorskip("scipy.optimize._tstutils")

DIGITS = 40

# records per problem from x0 at DIGITS digits under (newton, secant, ici), every
# run converged: 816, 1,102 and 647 records in all, or 734, 1,020 and 565 steps
# after the seeds; ici takes fewer than newton on 78 problems and as many on 4
RECORDS = {
    "aps.01.00": (7, 10, 6),
    "aps.02.00": (8, 11, 7),
    "aps.02.01": (9, 12, 7),
    "aps.02.02": (9, 13, 7),
    "aps.02.03": (11, 15, 9),
    "aps.02.04": (12, 16, 9),
    "aps.02.05": (12, 17, 10),
    "aps.02.06": (13, 18, 10),
    "aps.02.07": (13, 18, 10),
    "aps.02.08": (14, 19, 11),
    "aps.02.09": (14, 19, 11),
    "aps.03.00": (10, 14, 8),
    "aps.03.01": (13, 18, 10),
    "aps.03.02": (15, 21, 12),
    "aps.04.00": (11, 15, 9),
    "aps.04.01": (13, 18, 11),
    "aps.04.02": (15, 21, 12),
    "aps.04.03": (17, 24, 13),
    "aps.04.04": (19, 26, 15),
    "aps.04.05": (10, 13, 8),
    "aps.04.06": (12, 16, 9),
    "aps.04.07": (14, 19, 11),
    "aps.04.08": (16, 22, 12),
    "aps.04.09": (18, 24, 14),
    "aps.04.10": (10, 13, 8),
    "aps.04.11": (11, 15, 9),
    "aps.04.12": (12, 16, 9),
    "aps.04.13": (12, 17, 10),
    "aps.05.00": (8, 10, 7),
    "aps.06.00": (6, 7, 5),
    "aps.06.01": (7, 9, 5),
    "aps.06.02": (8, 10, 6),
    "aps.06.03": (9, 13, 8),
    "aps.06.04": (9, 13, 8),
    "aps.06.05": (9, 13, 8),
    "aps.06.06": (9, 13, 8),
    "aps.06.07": (9, 13, 8),
    "aps.06.08": (9, 13, 8),
    "aps.06.09": (9, 13, 8),
    "aps.07.00": (8, 11, 7),
    "aps.07.01": (9, 12, 8),
    "aps.07.02": (9, 12, 8),
    "aps.08.00": (2, 2, 2),
    "aps.08.01": (7, 8, 6),
    "aps.08.02": (8, 11, 7),
    "aps.08.03": (9, 11, 7),
    "aps.08.04": (9, 12, 7),
    "aps.09.00": (7, 10, 6),
    "aps.09.01": (8, 12, 7),
    "aps.09.02": (8, 10, 6),
    "aps.09.03": (8, 10, 6),
    "aps.09.04": (7, 9, 7),
    "aps.09.05": (7, 9, 7),
    "aps.09.06": (7, 9, 7),
    "aps.10.00": (7, 9, 5),
    "aps.10.01": (8, 11, 7),
    "aps.10.02": (11, 15, 9),
    "aps.10.03": (13, 18, 10),
    "aps.10.04": (15, 21, 12),
    "aps.11.00": (13, 18, 10),
    "aps.11.01": (12, 16, 9),
    "aps.11.02": (10, 14, 8),
    "aps.11.03": (10, 13, 7),
    "aps.12.00": (7, 9, 3),
    "aps.12.01": (7, 9, 3),
    "aps.12.02": (8, 10, 6),
    "aps.12.03": (8, 10, 6),
    "aps.12.04": (8, 10, 6),
    "aps.12.05": (8, 11, 6),
    "aps.12.06": (8, 11, 6),
    "aps.12.07": (9, 11, 6),
    "aps.12.08": (9, 11, 6),
    "aps.12.09": (9, 12, 6),
    "aps.12.10": (9, 12, 6),
    "aps.12.11": (9, 12, 7),
    "aps.12.12": (9, 12, 7),
    "aps.12.13": (9, 12, 7),
    "aps.12.14": (9, 12, 7),
    "aps.12.15": (9, 12, 7),
    "aps.12.16": (9, 12, 7),
    "aps.12.17": (9, 12, 7),
    "aps.12.18": (9, 12, 7),
}


def test_every_text_is_scipys_f_in_double_precision():
    scipy_tests = {d["ID"]: d for d in _tstutils._APS_TESTS_DICTS}
    p = Precision(30)
    bad = []
    for pr in PROBLEMS:
        f, args = scipy_tests[pr.id]["f"], scipy_tests[pr.id]["args"]
        jet = compile_pair(pr.ftext, p, False)
        lo, hi = map(float, pr.bracket)
        for x in (float(pr.x0), lo + (hi - lo) / 4, (lo + hi) / 2, hi - (hi - lo) / 4):
            got, want = float(jet(p.real(x))[0]), float(f(x, *args))
            if not math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12):
                bad.append(f"{pr.id} at {x!r}: {got!r}, SciPy {want!r}")
    assert len(PROBLEMS) == 82 and len({pr.id for pr in PROBLEMS}) == 82
    assert not bad, bad


@pytest.mark.parametrize("method", METHODS)
def test_each_method_from_x0_keeps_its_status_records_and_root(method):
    p = Precision(DIGITS)
    k = METHODS.index(method)
    assert set(RECORDS) == {pr.id for pr in PROBLEMS}
    moved = []
    for pr in PROBLEMS:
        trace = solve_expr(pr.ftext, p.real(pr.x0), SolveConfig(precision=p, method=method))
        if (trace.status, len(trace)) != ("converged", RECORDS[pr.id][k]):
            moved.append(f"{pr.id}: {trace.status} after {len(trace)} records, "
                         f"pinned converged after {RECORDS[pr.id][k]}")
            continue
        x, root = float(trace.final.x), float(pr.root)
        if abs(x - root) > 1e-14 * max(1.0, abs(root)):
            moved.append(f"{pr.id}: reached the root {x!r}, listed {pr.root}")
    assert not moved, moved

"""Machine-speed calibration for a shared, noisy host.

On a virtual machine whose cores are shared with other tenants the same
computation runs up to twice as slow for tens of seconds at a time, so raw
timings of identical runs differ by 20-30%.  The benchmark therefore times a
fixed mpmath computation between operations and reports times scaled to the
speed at which that computation takes ``NOMINAL_S``.

The computation uses mpmath directly, in private contexts, and nothing from
iciroot, so no change to the package can alter it; it mixes 34-digit complex
arithmetic with 1000-digit real ``exp``, the two regimes of the workloads.
Scaled this way, repeated runs agree to a few percent.  The raw timings are
printed and written alongside.
"""

from __future__ import annotations

import time

from mpmath.ctx_mp import MPContext

NOMINAL_S = 0.010


class Calibration:
    def __init__(self):
        self._c34 = MPContext()
        self._c34.prec = 150
        self._c1000 = MPContext()
        self._c1000.prec = 3400
        self.samples = []

    def _work(self):
        ctx = self._c34
        z, w = ctx.mpc("0.3", "1.2"), ctx.mpc("1.1", "-0.7")
        a = z
        for _ in range(150):
            a = (a * w + z) / (a - w)
            a = a - ctx.sin(a) * ctx.mpf("0.1")
        big = self._c1000
        x = b = big.mpf("1.234567")
        for _ in range(4):
            b = big.exp(-b) * b + x

    def sample(self) -> float:
        """Time one run of the fixed computation; returns the factor that
        scales a time measured now to nominal speed."""
        t0 = time.perf_counter()
        self._work()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        return NOMINAL_S / dt

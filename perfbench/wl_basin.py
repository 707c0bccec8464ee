"""Workloads basin-cube and basin-kepler: render + write_image frames of the
two A8 windows at 34 digits.

Each operation renders one frame and writes it as PPM.  The run makes passes
over a batch of frames; frame k's grid is the A8 window shifted by a
sub-pixel offset drawn from (seed, k), so a fresh seed gives fresh pixel
centres.  Every
frame is checked against references computed in a separate mpmath context.
"""

from __future__ import annotations

import dataclasses
import math
import random
import statistics
import time

from mpmath.ctx_mp import MPContext

from iciroot import expr
from iciroot.basins import BasinSpec, line_scan, render, write_image
from iciroot.solve import SolveConfig, solve
from kernel_replay import replay_ici_steps

TOL = "1e-8"
DIGITS = 34
CONFIGS = {
    # f is cheap: most of a pixel-iteration is the blended step and its checks
    "basin-cube": {"ftext": "z^3-1", "re": (-2.0, 2.0), "im": (-2.0, 2.0),
                   "max_iter": 13, "workers": 1},
    # sin/cos-heavy f, overflow and NaN pixels, rows split across 2 processes
    "basin-kepler": {"ftext": "z - 0.083*sin(z) - 1", "re": (-30.5, -29.5),
                     "im": (-17.5, -16.5), "max_iter": 30, "workers": 2},
}
SCAN_SEGMENT = ("-1.45", "-1.05")   # the A8 scan across the cube's basin boundary
SCAN_SAMPLES = 400
REPLAY_PIXELS = 48
# frames per pass: a pass takes a few seconds, so a run makes several
FRAMES = {"basin-cube": 8, "basin-kepler": 4}
EXPR_SETUP_REPS = 5


def _ppm_matches(raster, data: bytes) -> bool:
    """PPM header and size are right, and a pixel is white exactly when it is NaN."""
    w, h = raster.width, raster.height
    header = f"P6\n{w} {h}\n255\n".encode("ascii")
    if not data.startswith(header) or len(data) != len(header) + 3 * w * h:
        return False
    body = data[len(header):]
    return all((body[3 * (j * w + i):3 * (j * w + i) + 3] == b"\xff\xff\xff") == raster.nan_mask[j][i]
               for j in range(h) for i in range(w))


class BasinWorkload:
    """Closed loop, one client; render uses the configured worker count."""

    def __init__(self, name: str, seed: int, tiny: bool, out_dir):
        self.name = name
        self.cfg = CONFIGS[name]
        self.seed = seed
        self.size = 8 if tiny else 16
        self.batch = FRAMES[name]
        self.ppm = out_dir / f"{name}.ppm"
        self.ref = MPContext()
        self.ref.prec = math.ceil(DIGITS * math.log2(10)) + 64
        self.ref_tol = self.ref.mpf(TOL)
        self.roots = [self.ref.expjpi(self.ref.mpf(2 * k) / 3) for k in range(3)]

    def setup_request(self) -> dict:
        return {"digits": DIGITS, "functions": [[self.cfg["ftext"], True]]}

    def spec(self, k: int, workers: int | None = None) -> BasinSpec:
        """Frame k % batch: the A8 window shifted by less than half a pixel each way."""
        rng = random.Random(f"{self.seed}/{k % self.batch}")
        n = self.size
        (re0, re1), (im0, im1) = self.cfg["re"], self.cfg["im"]
        sx = rng.uniform(-0.5, 0.5) * (re1 - re0) / n
        sy = rng.uniform(-0.5, 0.5) * (im1 - im0) / n
        return BasinSpec(ftext=self.cfg["ftext"],
                         re_range=(repr(re0 + sx), repr(re1 + sx)),
                         im_range=(repr(im0 + sy), repr(im1 + sy)),
                         width=n, height=n, max_iter=self.cfg["max_iter"], tol=TOL,
                         workers=workers or self.cfg["workers"])

    def run_op(self, k):
        spec = self.spec(k)
        t0 = time.perf_counter()
        raster = render(spec)
        t1 = time.perf_counter()
        write_image(raster, self.ppm)
        t2 = time.perf_counter()
        return t1 - t0, t2 - t0, spec.width * spec.height, self._check(raster)

    def run_op_traced(self, k, tr):
        spec = self.spec(k)
        with tr.span("op", k) as op_span:
            with tr.span("basins.render", k) as render_span:
                raster = render(spec)
            with tr.span("basins.write_image", k):
                write_image(raster, self.ppm)
        return (render_span[2] - render_span[1], op_span[2] - op_span[1],
                spec.width * spec.height, self._check(raster))

    def _converged(self, raster):
        return [raster.final[j][i] for j in range(raster.height) for i in range(raster.width)
                if raster.converged[j][i]]

    def _check(self, raster) -> bool:
        if not _ppm_matches(raster, self.ppm.read_bytes()):
            return False
        ref = self.ref
        limits = [ref.convert(z) for z in self._converged(raster)]
        if self.name == "basin-cube":
            # every limit is a cube root of unity, and all three basins are hit
            hits = [0, 0, 0]
            for z in limits:
                dists = [abs(z - r) for r in self.roots]
                k = dists.index(min(dists))
                if dists[k] > ref.mpf("1e-6"):
                    return False
                hits[k] += 1
            return all(hits)
        # Kepler: |f| within tol when evaluated directly, and NaN pixels exist
        c = ref.mpf("0.083")
        if any(abs(z - c * ref.sin(z) - 1) > self.ref_tol for z in limits):
            return False
        return raster.counts()[1] >= 1

    def run_checks(self):
        if self.name != "basin-cube":
            return []
        spec = self.spec(0)
        p = spec.precision
        seg = (p.cplx(SCAN_SEGMENT[0], 0), p.cplx(SCAN_SEGMENT[1], 0))
        scan = line_scan(spec, seg, SCAN_SAMPLES)
        changes = sum(1 for k in range(1, len(scan)) if scan[k] != scan[k - 1])
        return [("line_scan of the A8 segment changes basin more than twice", changes > 2)]

    def layers(self, tr):
        spec = self.spec(0, workers=1)
        with tr.span("basins.render_workers1", -1) as s1:
            r1 = render(spec)
        with tr.span("basins.render_workers2", -1) as s2:
            r2 = render(dataclasses.replace(spec, workers=2))
        t1, t2 = s1[2] - s1[1], s2[2] - s2[1]
        same = (r1.converged == r2.converged and r1.nan_mask == r2.nan_mask
                and r1.iterations == r2.iterations)
        iters = sum(map(sum, r1.iterations))
        wasted = sum(it for its, convs in zip(r1.iterations, r1.converged)
                     for it, conv in zip(its, convs) if not conv)
        conv, nan = r1.counts()
        us_per_iter = t1 / iters * 1e6

        p = spec.precision
        for _ in range(EXPR_SETUP_REPS):
            with tr.span("expr.setup", -1):
                tree = expr.parse(self.cfg["ftext"])
                var = expr.free_variables(tree).pop()
                f = expr.compile_fn(tree, var, p, complex_mode=True)
                fp = expr.compile_fn(expr.differentiate(tree, var), var, p, complex_mode=True)
        centres = [spec.pixel_center(i, j) for j in range(spec.height) for i in range(spec.width)]
        with tr.span("expr.fpair_grid", -1) as fs:
            for z in centres:
                f(z)
                fp(z)
        fpair_us = (fs[2] - fs[1]) / len(centres) * 1e6

        # blended steps replayed from solver traces started at a sample of pixel centres
        cfg = SolveConfig(precision=p, tol=TOL, max_iter=self.cfg["max_iter"])
        steps, replay_ok = 0, True
        for z0 in centres[::max(1, len(centres) // REPLAY_PIXELS)]:
            n, ok = replay_ici_steps(solve(f, fp, z0, cfg).records, tr, -1)
            steps += n
            replay_ok = replay_ok and ok
        step_us = tr.total("kernel.ici_step") / max(steps, 1) * 1e6

        out = {
            "expr.setup_ms": statistics.median(tr.durations("expr.setup")) * 1e3,
            "expr.fpair_us": fpair_us,
            "expr.fpair_share": fpair_us / us_per_iter,
            "kernel.step_us": step_us,
            "kernel.step_share": step_us / us_per_iter,
            "basins.pixel_iters": iters,
            "basins.converged_pixels": conv,
            "basins.nan_pixels": nan,
            "basins.us_per_pixel_iter": us_per_iter,
            "basins.write_image_ms": statistics.median(tr.durations("basins.write_image")) * 1e3,
            "basins.step_and_checks_us": us_per_iter - fpair_us,
            "basins.wasted_iter_share": wasted / iters,
            "basins.parallel_efficiency": t1 / (2 * t2),
        }
        return out, [("raster identical at workers=1 and workers=2", same),
                     ("ici_step replay reproduces the solver's iterates", replay_ok)]

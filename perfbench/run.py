"""iciroot benchmark: one closed-loop workload per run, every answer checked.

    python3 perfbench/run.py --workload solve-1000 --seed 1 --seconds 30 --trace 0

Workloads: solve-1000, basin-cube, basin-kepler (see BENCHMARK.json and
perfbench/README.md).  With ``--trace 0`` the run measures the end-to-end
metrics.  With ``--trace 1`` it alternates untraced passes with passes that
record spans, then prints the per-layer metrics, the end-to-end metric each
one feeds, and the tracing overhead.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
Machine facts, check results and (traced) spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from calibrate import NOMINAL_S, Calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("solve-1000", "basin-cube", "basin-kepler")

# end-to-end metric(s) each per-layer metric should move, and on which workload
FEEDS = {
    "expr.setup_ms": "setup_s on every workload",
    "expr.fpair_us": "solve_ms_* on solve-1000; pixels_per_s on basin-kepler (large share) and basin-cube (small)",
    "expr.fpair_share": "solve_ms_* on solve-1000; pixels_per_s on basin-kepler and basin-cube",
    "kernel.step_us": "pixels_per_s on basin-cube once basins calls the kernel; little on solve-1000",
    "kernel.step_share": "pixels_per_s on basin-cube once basins calls the kernel; little on solve-1000",
    "solve.records": "solve_ms_* on solve-1000",
    "solve.safeguard_steps": "solve_ms_* on solve-1000",
    "solve.driver_us_per_record": "solve_ms_* on solve-1000",
    "solve.trace_io_ms": "order_ms_* on solve-1000",
    "mpscalar.to_decimal_us": "order_ms_* on solve-1000",
    "diagnostics.report_ms": "order_ms_* on solve-1000; no basin workload",
    "diagnostics.report_share": "order_ms_* on solve-1000; no basin workload",
    "cli.overhead_ms": "what a command-line user pays on top of solve-1000's operation",
    "basins.pixel_iters": "pixels_per_s on basin-*",
    "basins.converged_pixels": "pixels_per_s on basin-* (outcome mix)",
    "basins.nan_pixels": "pixels_per_s on basin-* (outcome mix)",
    "basins.us_per_pixel_iter": "pixels_per_s on basin-*",
    "basins.write_image_ms": "pixels_per_s and order_ms_* on basin-*",
    "basins.step_and_checks_us": "pixels_per_s on basin-cube",
    "basins.wasted_iter_share": "pixels_per_s on basin-*",
    "basins.parallel_efficiency": "pixels_per_s on basin-kepler only",
    "trace.overhead_share": "none: traced minus untraced order_ms_p50, as a share of untraced",
}


@dataclass
class Loop:
    """Timings of every operation, scaled to nominal speed and raw."""

    solve_s: list = field(default_factory=list)
    op_s: list = field(default_factory=list)
    raw_solve_s: list = field(default_factory=list)
    raw_op_s: list = field(default_factory=list)
    units: int = 0
    attempted: int = 0
    failed: int = 0


def closed_loop(ops: list, batch: int, seconds: float, cal: Calibration) -> list:
    """Run whole passes over the batch until ``seconds`` pass; one Loop per op.

    Operation k works on item k % batch with ``ops[(k // batch) % len(ops)]``,
    so several ops alternate pass by pass and see the same machine state.
    Stopping only at the end of a round of passes weighs every item alike.
    An op returns (solve seconds, operation seconds, start points, check
    passed) and runs its checks after its timed region.  The calibration is
    sampled between operations, and each operation's times are scaled by the
    mean of the samples just before and just after it.
    """
    loops = [Loop() for _ in ops]
    rounds = batch * len(ops)
    deadline = time.perf_counter() + seconds
    before = cal.sample()
    k = 0
    while k % rounds or not k or time.perf_counter() < deadline:
        which = (k // batch) % len(ops)
        loop = loops[which]
        loop.attempted += 1
        k += 1
        try:
            solve_s, op_s, units, ok = ops[which](k - 1)
        except Exception:
            traceback.print_exc()
            loop.failed += 1
            before = cal.sample()
            continue
        after = cal.sample()
        scale = (before + after) / 2
        before = after
        loop.raw_solve_s.append(solve_s)
        loop.raw_op_s.append(op_s)
        loop.solve_s.append(solve_s * scale)
        loop.op_s.append(op_s * scale)
        loop.units += units
        loop.failed += not ok
    if not all(loop.op_s for loop in loops):
        sys.exit("perfbench: no operation completed")
    return loops


def p90(xs):
    return statistics.quantiles(xs, n=10, method="inclusive")[-1] if len(xs) > 1 else xs[0]


def end_to_end(solve_s: list, op_s: list, units: int, setup_s: float) -> dict:
    rss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return {
        "setup_s": setup_s,
        "solves_per_s": len(solve_s) / sum(solve_s),
        "solve_ms_p50": statistics.median(solve_s) * 1e3,
        "solve_ms_p90": p90(solve_s) * 1e3,
        "order_ms_p50": statistics.median(op_s) * 1e3,
        "order_ms_p90": p90(op_s) * 1e3,
        "pixels_per_s": units / sum(op_s),
        "peak_rss_mb": rss_kb / 1024,
    }


def measure_setup(request: dict, reps: int, cal: Calibration):
    """Median over ``reps`` fresh interpreters of import + compile (see probe.py),
    scaled to nominal speed and raw."""
    scaled, raw = [], []
    before = cal.sample()
    for _ in range(reps):
        done = subprocess.run([sys.executable, str(HERE / "probe.py"), str(SRC), json.dumps(request)],
                              capture_output=True, text=True, timeout=120, check=True)
        after = cal.sample()
        raw.append(float(done.stdout.split()[-1]))
        scaled.append(raw[-1] * (before + after) / 2)
        before = after
    return statistics.median(scaled), statistics.median(raw)


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    name = head[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def machine_facts() -> dict:
    import mpmath
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest()[:16],
        "src_lines": lines,
    }


def make_workload(name: str, seed: int, tiny: bool):
    if name == "solve-1000":
        from wl_solve import SolveWorkload
        return SolveWorkload(seed, tiny)
    from wl_basin import BasinWorkload
    return BasinWorkload(name, seed, tiny, OUT)


def _fmt(v) -> str:
    return str(v) if isinstance(v, int) else f"{v:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs for the smoke check (5 problems, 8x8 frames, 2 set-ups)")
    args = parser.parse_args(argv)

    if not (SRC / "iciroot" / "__init__.py").is_file():
        sys.exit(f"perfbench: package source {SRC / 'iciroot'} not found")
    sys.path.insert(0, str(SRC))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    facts = machine_facts()
    print("facts: " + json.dumps(facts))

    work = make_workload(args.workload, args.seed, args.tiny)
    cal = Calibration()
    setup_reps = 2 if args.tiny else 9
    setup_s, raw_setup_s = measure_setup(work.setup_request(), setup_reps, cal)
    record = {"facts": facts, "args": vars(args)}

    if not args.trace:
        loop, = loops = closed_loop([work.run_op], work.batch, args.seconds, cal)
        checks = work.run_checks()
        values = end_to_end(loop.solve_s, loop.op_s, loop.units, setup_s)
        raw = end_to_end(loop.raw_solve_s, loop.raw_op_s, loop.units, raw_setup_s)
        wanted = bench["end_to_end"]
    else:
        from spans import Tracer
        tr = Tracer()
        # untraced and traced passes alternate, so their difference is the tracing cost
        plain, traced = loops = closed_loop([work.run_op, lambda k: work.run_op_traced(k, tr)],
                                            work.batch, args.seconds, cal)
        raw, layer_checks = work.layers(tr)
        cal.sample()
        scale = NOMINAL_S / statistics.median(cal.samples)
        time_units = {m["name"] for m in bench["per_layer"] if m["unit"] in ("ms", "us")}
        values = {k: v * scale if k in time_units else v for k, v in raw.items()}
        checks = work.run_checks() + layer_checks
        e2e_plain = end_to_end(plain.solve_s, plain.op_s, plain.units, setup_s)
        e2e_traced = end_to_end(traced.solve_s, traced.op_s, traced.units, setup_s)
        values["trace.overhead_share"] = raw["trace.overhead_share"] = (
            e2e_traced["order_ms_p50"] / e2e_plain["order_ms_p50"] - 1)
        record["spans"] = tr.to_json()
        wanted = bench["per_layer"]
        unit_of = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        for name in ("solves_per_s", "solve_ms_p50", "order_ms_p50", "pixels_per_s"):
            a, b = e2e_plain[name], e2e_traced[name]
            print(f"trace overhead {name}: untraced {_fmt(a)} traced {_fmt(b)} {unit_of[name]} "
                  f"({(b / a - 1) * 100:+.2f}%)")

    attempted = sum(lp.attempted for lp in loops) + len(checks)
    failed = sum(lp.failed for lp in loops) + sum(not ok for _, ok in checks)
    speed = statistics.median(cal.samples) / NOMINAL_S
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{sum(len(lp.op_s) for lp in loops)} operations timed over a batch of {work.batch}, "
          f"setup median of {setup_reps}; calibration ran at {speed:.3f}x its nominal time, "
          f"times below are scaled to nominal (raw in parentheses)")
    for name, ok in checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}")
    print(f"fail_ratio {_fmt(failed / attempted)} ratio ({failed} of {attempted} failed)")

    metrics = {}
    for m in wanted:
        name = m["name"]
        value = values.get(name, 0)
        metrics[name] = {"value": value, "unit": m["unit"]}
        line = f"{name} {_fmt(value)} {m['unit']} (raw {_fmt(raw.get(name, 0))})"
        if args.trace:
            note = "" if name in values else "  [layer not exercised by this workload]"
            print(f"{line}  -> {FEEDS[name]}{note}")
        else:
            samples = f" n={len(loops[0].op_s)}" if name.endswith(("_p50", "_p90")) else ""
            print(line + samples)

    record.update(metrics=metrics, raw=raw, calibration_s=cal.samples, checks=checks,
                  attempted=attempted, failed=failed)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Print the battery table: each method on the APS01-APS12 problems from x0.

Run from a checkout: ``PYTHONPATH=src python3 tests/battery_table.py``.  For
each digit count, one Markdown row: how many of the 82 problems of
``tests/battery.py`` each method (newton / secant / ici) converged on, the
trace records of all its runs (the seed record included), and on how many
problems, of those where both converged, ``ici`` took fewer, as many or more
records than ``newton``.  README carries the output; ``tests/test_battery.py``
checks its 40-digit row against the pinned record counts.  Needs no SciPy.
"""

from iciroot.mpscalar import Precision
from iciroot.solve import METHODS, SolveConfig, solve_expr

from battery import PROBLEMS

DIGITS = (40, 1000)
HEADER = ("| start, digits | converged newton / secant / ici | records newton / secant / ici "
          "| `ici` fewer / equal / more |\n|---|---|---|---|")


def row(label, runs):
    """One table row from runs[method] = [(converged, records) per problem]."""
    def join(values):
        return " / ".join(f"{v:,}" for v in values)
    conv = [sum(c for c, _ in runs[m]) for m in METHODS]
    records = [sum(n for _, n in runs[m]) for m in METHODS]
    both = [(a, b) for (ca, a), (cb, b) in zip(runs["newton"], runs["ici"]) if ca and cb]
    cmp = [sum(b < a for a, b in both), sum(b == a for a, b in both), sum(b > a for a, b in both)]
    return f"| {label} | {join(conv)} | {join(records)} | {join(cmp)} |"


def runs_from_x0(digits):
    p = Precision(digits)
    runs = {m: [] for m in METHODS}
    for m in METHODS:
        for pr in PROBLEMS:
            trace = solve_expr(pr.ftext, p.real(pr.x0), SolveConfig(precision=p, method=m))
            runs[m].append((trace.status == "converged", len(trace)))
    return runs


def main():
    print(HEADER)
    for digits in DIGITS:
        print(row(f"x0, {digits:,}", runs_from_x0(digits)))


if __name__ == "__main__":
    main()

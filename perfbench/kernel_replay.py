"""Replay of the blended step on the record pairs of a solver trace."""

from iciroot.kernel import PointSample, ici_step


def replay_ici_steps(records, tr, op):
    """Re-run ``ici_step`` for every ``ici`` record, inside one span.

    Record k of kind ``ici`` was produced by ``ici_step`` from records k-2
    and k-1.  Returns (steps replayed, whether each replay reproduced the
    recorded iterate exactly).
    """
    pairs = [(PointSample(a.x, a.y, a.yp), PointSample(b.x, b.y, b.yp), c.x)
             for a, b, c in zip(records, records[1:], records[2:]) if c.step_kind == "ici"]
    with tr.span("kernel.ici_step", op):
        out = [ici_step(a, b) for a, b, _ in pairs]
    return len(pairs), all(x == want for x, (_, _, want) in zip(out, pairs))

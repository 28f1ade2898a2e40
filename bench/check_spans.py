"""Smallest-size self-check of the span helper's self-time arithmetic.

Runs at the start of every benchmark run; standalone: ``python3 bench/check_spans.py``.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Tracer, covered  # noqa: E402


def failures() -> list[str]:
    """Return a description of every arithmetic check that does not hold."""
    bad = []
    ticks = iter([0.0, 1.0, 3.0, 4.0, 6.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    # outer [0, 10] holds child [1, 3] and child [4, 6], which holds nothing.
    outer = tracer.open("outer")
    child = tracer.open("child")
    tracer.close(child)
    child = tracer.open("child")
    tracer.close(child)
    tracer.close(outer)
    got = tracer.summary()
    want = {"outer": {"calls": 1, "total_s": 10.0, "self_s": 6.0},
            "child": {"calls": 2, "total_s": 4.0, "self_s": 4.0}}
    if got != want:
        bad.append(f"summary {got} != {want}")
    if tracer.spans[1][3] != 0 or tracer.spans[0][3] != -1:
        bad.append(f"parents {[s[3] for s in tracer.spans]} != [-1, 0, 0]")
    if tracer.count_under("child", "outer") != 2:
        bad.append("count_under('child', 'outer') != 2")
    # Overlapping and out-of-range intervals count once, clipped to the span.
    if covered(0.0, 10.0, [(2.0, 5.0), (1.0, 3.0), (9.0, 12.0), (-2.0, -1.0)]) != 5.0:
        bad.append("covered() of overlapping intervals != 5.0")
    return bad


if __name__ == "__main__":
    problems = failures()
    for p in problems:
        print(f"FAIL {p}")
    print("span self-check ok" if not problems else f"{len(problems)} failures")
    sys.exit(1 if problems else 0)

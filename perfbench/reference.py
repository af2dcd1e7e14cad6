"""A fixed reference computation that gauges how fast the host runs right now.

The benchmark's host is shared, and its single-thread speed swings by a third
or more over seconds to minutes: whole runs land in fast or slow spells, so
the pipeline's time in seconds does not repeat from run to run.  Timing this
kernel right after every pipeline iteration, in the same process, and
dividing the two medians cancels most of that swing.

The kernel does the same kinds of work as plexmesh, with none of its code:
pure-Python topology on dicts, lists and sets (the edges and cell closures of
an interpolated triangle grid), then numpy sorting and de-duplication.  It
never changes, so a faster plexmesh lowers the ratio and nothing else does.
"""

from __future__ import annotations

import numpy as np

GRID = 64
SORT_SIZE = 50_000


def _closure_sizes(m: int) -> int:
    cones = []
    edges: dict[tuple[int, int], int] = {}
    for j in range(m):
        for i in range(m):
            a, b = j * (m + 1) + i, j * (m + 1) + i + 1
            c, d = a + m + 1, b + m + 1
            for tri in ((a, b, d), (a, d, c)):
                cone = []
                for u, v in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
                    key = (u, v) if u < v else (v, u)
                    cone.append(edges.setdefault(key, len(edges)))
                cones.append(cone)
    support: dict[int, list[int]] = {}
    for cell, cone in enumerate(cones):
        for e in cone:
            support.setdefault(e, []).append(cell)
    vertices = list(edges)
    total = 0
    for cell, cone in enumerate(cones):
        closure = {("cell", cell)}
        for e in cone:
            closure.add(("edge", e))
            closure.update(("vertex", v) for v in vertices[e])
        total += len(closure) + len(support[cone[0]])
    return total


def _sorted_distinct(n: int) -> int:
    values = np.random.default_rng(0).integers(0, 1 << 30, size=n)
    order = np.argsort(values, kind="stable")
    return int(np.unique(values[order]).size)


def reference_kernel() -> int:
    """Run the fixed reference computation once; returns a checksum."""
    return _closure_sizes(GRID) + _sorted_distinct(SORT_SIZE)

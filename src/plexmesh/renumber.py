"""Reverse Cuthill-McKee ordering and whole-chart permutation application."""

from __future__ import annotations

from itertools import count

import numpy as np

from .gmsh_io import MeshBundle
from .permutation import Permutation
from .plex import Plex, _row_ids, _stable_order
from .section import permute_field


def _cuthill_mckee(adj: list[list[int]], start: int, stamp: list[int],
                   walk: int) -> tuple[list[int], int, int]:
    """Breadth-first walk from start over the sorted rows, marking the vertices
    it reaches with walk in stamp; the order, where its last level starts, and
    the number of levels.  Each level is the range of order the one before added."""
    order, lo, levels = [start], 0, 1
    stamp[start] = walk
    while True:
        hi = len(order)
        for u in order[lo:hi]:
            for v in adj[u]:
                if stamp[v] != walk:
                    stamp[v] = walk
                    order.append(v)
        if len(order) == hi:
            return order, lo, levels
        lo, levels = hi, levels + 1


def _component_order(adj: list[list[int]], v0: int, stamp: list[int], walks) -> list[int]:
    """Cuthill-McKee order of v0's component, restarting from the last level's
    lowest (degree, id) vertex while that reaches more levels."""
    order, lo, levels = _cuthill_mckee(adj, v0, stamp, next(walks))
    while True:
        start = min(order[lo:], key=lambda v: (len(adj[v]), v))
        cand_order, cand_lo, cand_levels = _cuthill_mckee(adj, start, stamp, next(walks))
        if cand_levels <= levels:
            return order
        order, lo, levels = cand_order, cand_lo, cand_levels


def rcm_ordering(plex: Plex) -> Permutation:
    """Reverse Cuthill-McKee permutation over the whole chart.

    The ordering is computed on the vertex graph (vertices adjacent when they
    share a depth-1 point) from a pseudo-peripheral start, neighbors taken in
    ascending (degree, id), then reversed.  Disconnected graphs are ordered
    component by component, components sorted by their lowest vertex id.
    Non-vertex strata follow: within each depth stratum, points are reordered
    by the minimum new vertex number in their closure (ties by old id), so a
    single permutation covers the whole chart.
    """
    # The vertex graph, each row sorted by ascending (degree, id): columns ascend
    # within a row, so one timsort of row * nv + degree (< nv), rows ascending, does it.
    bounds, flat = plex._vertex_graph
    degree = bounds[1:] - bounds[:-1]
    order = (_row_ids(bounds) * degree.size + degree[flat]).argsort(kind="stable")
    bounds, flat = bounds.tolist(), flat[order].tolist()
    adj = [flat[s:e] for s, e in zip(bounds[:-1], bounds[1:])]
    verts = plex.depth_stratum(0)
    nv = len(verts)

    # Every walk of the call marks its vertices with its own id in one list,
    # so a walk costs its component, and a vertex still at 0 starts the next.
    stamp, walks = [0] * nv, count(1)
    vertex_order: list[int] = []
    for v0 in range(nv):
        if not stamp[v0]:
            vertex_order.extend(reversed(_component_order(adj, v0, stamp, walks)))

    # A point's key is the minimum new vertex number in its closure: the minimum
    # of its cone's keys.  Round d of whole-chart minima fixes depth d's keys.
    key = np.zeros(plex.chart_size, dtype=np.int64)
    key[verts[vertex_order]] = np.arange(nv)
    coned = (plex._cone_offsets[1:] > plex._cone_offsets[:-1]).nonzero()[0]
    starts = plex._cone_offsets[coned]
    top = int(plex.depths.max(initial=0))
    for _ in range(top):
        key[coned] = np.minimum.reduceat(key[plex._cone_targets], starts)
    # The k-th point by (depth, key, id; keys are vertex numbers) takes the k-th
    # id by (depth, id), which timsort finds fastest in the few runs of depths.
    forward = np.empty(plex.chart_size, dtype=np.int64)
    order = _stable_order(plex.depths * plex.chart_size + key, (top + 1) * plex.chart_size)
    forward[order] = plex.depths.argsort(kind="stable")
    return Permutation(forward)


def apply_permutation(bundle: MeshBundle, perm: Permutation) -> MeshBundle:
    """Relabel every point of a bundle; topology, coordinates and labels follow."""
    plex = bundle.plex
    if len(perm) != plex.chart_size:
        raise ValueError("permutation size does not match the chart")
    new_plex = plex._permuted(perm)
    coords = permute_field(bundle.coordinates, perm)
    labels = {name: lab.permuted(perm) for name, lab in bundle.labels.items()}
    return MeshBundle(new_plex, coords, labels)

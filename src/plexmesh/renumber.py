"""Reverse Cuthill-McKee ordering and whole-chart permutation application."""

from __future__ import annotations

from itertools import takewhile

import numpy as np

from .gmsh_io import MeshBundle
from .permutation import Permutation
from .plex import Plex, _csr_rows, _row_ids
from .section import permute_field


def _cuthill_mckee(adj: list[list[int]], start: int) -> tuple[list[int], dict[int, int]]:
    """Breadth-first walk from start over the sorted rows, and each vertex's level."""
    order = [start]
    level = {start: 0}
    for u in order:
        next_level = level[u] + 1
        for v in adj[u]:
            if v not in level:
                level[v] = next_level
                order.append(v)
    return order, level


def _component_order(adj: list[list[int]], v0: int) -> list[int]:
    """Cuthill-McKee order of v0's component, restarting from the last level's
    lowest (degree, id) vertex while that reaches more levels."""
    order, level = _cuthill_mckee(adj, v0)
    while True:
        depth = level[order[-1]]
        last = takewhile(lambda v: level[v] == depth, reversed(order))
        cand_order, cand_level = _cuthill_mckee(
            adj, min(last, key=lambda v: (len(adj[v]), v)))
        if cand_level[cand_order[-1]] <= depth:
            return order
        order, level = cand_order, cand_level


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
    # within a row, so one stable sort by row * nv + degree (degree < nv) does it.
    bounds, flat = plex._vertex_graph
    degree = bounds[1:] - bounds[:-1]
    order = (_row_ids(bounds) * degree.size + degree[flat]).argsort(kind="stable")
    bounds, flat = bounds.tolist(), flat[order].tolist()
    adj = [flat[s:e] for s, e in zip(bounds[:-1], bounds[1:])]
    verts = plex.depth_stratum(0)
    nv = len(verts)

    visited = np.zeros(nv, dtype=bool)
    vertex_order: list[int] = []
    for v0 in range(nv):
        if visited[v0]:
            continue
        block = _component_order(adj, v0)
        visited[block] = True
        vertex_order.extend(reversed(block))

    # Rank of each vertex (by index into verts) in the new ordering.
    vrank_new = np.empty(nv, dtype=np.int64)
    vrank_new[vertex_order] = np.arange(nv)

    # A point's key is the minimum new vertex number in its closure, which is
    # the minimum over its cone of their keys; strata go by ascending depth,
    # so every cone point has its key already.
    key = np.empty(plex.chart_size, dtype=np.int64)
    key[verts] = vrank_new
    for d in range(1, int(plex.depths.max(initial=0)) + 1):
        stratum = plex.depth_stratum(d)
        offsets, targets = _csr_rows(plex._cone_offsets, plex._cone_targets, stratum)
        key[stratum] = np.minimum.reduceat(key[targets], offsets[:-1])
    # The k-th point by (depth, key, id) takes the k-th id by (depth, id).
    forward = np.empty(plex.chart_size, dtype=np.int64)
    order = (plex.depths * plex.chart_size + key).argsort(kind="stable")
    forward[order] = plex.depths.argsort(kind="stable")
    return Permutation(forward)


def apply_permutation(bundle: MeshBundle, perm: Permutation) -> MeshBundle:
    """Relabel every point of a bundle; topology, coordinates and labels follow."""
    plex = bundle.plex
    if len(perm) != plex.chart_size:
        raise ValueError("permutation size does not match the chart")
    new_plex = plex._permuted(perm)
    coords = permute_field(bundle.coordinates, perm)
    labels = {name: lab.relabeled(perm.forward) for name, lab in bundle.labels.items()}
    return MeshBundle(new_plex, coords, labels)

"""Reverse Cuthill-McKee ordering and whole-chart permutation application."""

from __future__ import annotations

from collections import deque

import numpy as np

from .gmsh_io import MeshBundle
from .permutation import Permutation
from .plex import Plex, _adjacency, _csr_rows
from .section import permute_field


def _vertex_adjacency(plex: Plex) -> tuple[np.ndarray, list[list[int]]]:
    """Vertex graph: two vertices are adjacent when a depth-1 point joins them."""
    verts = plex.depth_stratum(0)
    offsets, targets = _csr_rows(plex._cone_offsets, plex._cone_targets,
                                 plex.depth_stratum(1))
    bounds, flat = (a.tolist() for a in _adjacency(len(verts), offsets,
                                                   np.searchsorted(verts, targets)))
    return verts, [flat[s:e] for s, e in zip(bounds[:-1], bounds[1:])]


def _bfs_levels(adj: list[list[int]], start: int) -> tuple[list[int], list[list[int]]]:
    seen = {start}
    levels = [[start]]
    while True:
        nxt = sorted({n for u in levels[-1] for n in adj[u] if n not in seen})
        if not nxt:
            break
        seen.update(nxt)
        levels.append(nxt)
    order = [u for level in levels for u in level]
    return order, levels


def _pseudo_peripheral(adj: list[list[int]], component_min: int) -> int:
    """Repeated BFS toward an eccentric vertex; ties by degree then id."""
    u = component_min
    _, levels = _bfs_levels(adj, u)
    while True:
        candidate = min(levels[-1], key=lambda v: (len(adj[v]), v))
        _, cand_levels = _bfs_levels(adj, candidate)
        if len(cand_levels) > len(levels):
            u, levels = candidate, cand_levels
        else:
            return u


def _cuthill_mckee(adj: list[list[int]], start: int) -> list[int]:
    order = [start]
    seen = {start}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        fresh = sorted((v for v in adj[u] if v not in seen),
                       key=lambda v: (len(adj[v]), v))
        for v in fresh:
            seen.add(v)
            order.append(v)
            queue.append(v)
    return order


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
    verts, adj = _vertex_adjacency(plex)
    nv = len(verts)

    visited = np.zeros(nv, dtype=bool)
    vertex_order: list[int] = []
    for v0 in range(nv):
        if visited[v0]:
            continue
        start = _pseudo_peripheral(adj, v0)
        block = _cuthill_mckee(adj, start)
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
    forward = np.empty(plex.chart_size, dtype=np.int64)
    for d in range(int(plex.depths.max()) + 1):
        stratum = plex.depth_stratum(d)
        if d > 0:
            offsets, targets = _csr_rows(plex._cone_offsets, plex._cone_targets,
                                         stratum)
            key[stratum] = np.minimum.reduceat(key[targets], offsets[:-1])
        order = np.lexsort((stratum, key[stratum]))
        # stratum[order[k]] becomes the k-th point of this stratum's id range
        forward[stratum[order]] = stratum
    return Permutation(forward)


def apply_permutation(bundle: MeshBundle, perm: Permutation) -> MeshBundle:
    """Relabel every point of a bundle; topology, coordinates and labels follow."""
    plex = bundle.plex
    if len(perm) != plex.chart_size:
        raise ValueError("permutation size does not match the chart")
    # New point n takes the cone of old point perm.inverse[n], relabeled.
    offsets, targets = _csr_rows(plex._cone_offsets, plex._cone_targets, perm.inverse)
    new_plex = Plex.from_csr(plex.dim, offsets, perm.forward[targets])

    coords = permute_field(bundle.coordinates, perm)
    labels = {name: lab.relabeled(perm.forward) for name, lab in bundle.labels.items()}
    return MeshBundle(new_plex, coords, labels)

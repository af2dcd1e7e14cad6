"""Per-point reference implementations of the array kernels.

These are the original loop-and-dict versions of the topology kernels, kept
verbatim (bar being free functions over the public API) as test oracles:
every array kernel must give exactly their results.
"""

from __future__ import annotations

import numpy as np

from plexmesh import (CsrPattern, Field, Label, MeshBundle, PartitionMap,
                      Permutation, Plex, RawMesh, permute_section)
from plexmesh.distribute import RankPointSet
from plexmesh.partition import DualGraph
from plexmesh.plex import _CELL_ARITY, _TET_FACETS, _TRI_EDGES
from plexmesh.renumber import _cuthill_mckee, _pseudo_peripheral


def traverse(plex: Plex, p, step) -> np.ndarray:
    """BFS closure (step=plex.cone) or star (step=plex.support) of one point."""
    p = plex._check(p)
    seen = {p}
    out = [p]
    frontier = [p]
    while frontier:
        new = set()
        for q in frontier:
            for r in step(q):
                r = int(r)
                if r not in seen:
                    seen.add(r)
                    new.add(r)
        frontier = sorted(new)
        out.extend(frontier)
    return np.array(out, dtype=np.int64)


def closure(plex: Plex, p) -> np.ndarray:
    return traverse(plex, p, plex.cone)


def star(plex: Plex, p) -> np.ndarray:
    return traverse(plex, p, plex.support)


def longest_paths(plex: Plex, out_off, out_tgt) -> np.ndarray:
    """Relaxation sweeps; converges within the longest path length on a DAG."""
    n = plex.chart_size
    dist = np.zeros(n, dtype=np.int64)
    sources = np.repeat(np.arange(n, dtype=np.int64), np.diff(out_off))
    for _ in range(n + 1):
        prev = dist.copy()
        np.maximum.at(dist, sources, dist[out_tgt] + 1)
        if np.array_equal(dist, prev):
            return dist
    raise ValueError("cover relation contains a cycle")


def relabeled(label: Label, point_map: dict[int, int]) -> Label:
    out = Label(label.name)
    for value, pts in label.values.items():
        mapped = {point_map[p] for p in pts if p in point_map}
        if mapped:
            out.values[value] = mapped
    return out


def build_from_cells(cell_vertex_lists, num_vertices: int, dim: int) -> Plex:
    if dim not in _CELL_ARITY:
        raise ValueError(f"unsupported mesh dimension {dim}")
    cells = [tuple(int(v) for v in c) for c in cell_vertex_lists]
    if not cells:
        raise ValueError("cell list is empty")
    arity = _CELL_ARITY[dim]
    for c in cells:
        if len(c) != arity:
            if len({len(x) for x in cells}) > 1:
                raise ValueError("mixed cell arities")
            raise ValueError(
                f"cell arity {len(c)} inconsistent with dimension {dim}")
        for v in c:
            if not 0 <= v < num_vertices:
                raise ValueError(f"vertex id {v} out of range [0, {num_vertices})")

    ncells = len(cells)
    vert_pt = lambda v: ncells + v

    if dim == 1:
        cones: list[tuple[int, ...]] = [()] * (ncells + num_vertices)
        for i, (a, b) in enumerate(cells):
            cones[i] = (vert_pt(a), vert_pt(b))
        return Plex(dim, cones)

    if dim == 3:
        facet_of: dict[tuple[int, ...], int] = {}
        facet_verts: list[tuple[int, int, int]] = []
        cell_facets: list[list[int]] = []
        for c in cells:
            row = []
            for tmpl in _TET_FACETS:
                tri = tuple(c[k] for k in tmpl)
                key = tuple(sorted(tri))
                idx = facet_of.get(key)
                if idx is None:
                    idx = len(facet_verts)
                    facet_of[key] = idx
                    facet_verts.append(tri)
                row.append(idx)
            cell_facets.append(row)
        triangles = facet_verts
    else:
        triangles = cells
        cell_facets = []

    edge_of: dict[tuple[int, int], int] = {}
    edge_verts: list[tuple[int, int]] = []
    tri_edges: list[list[int]] = []
    for tri in triangles:
        row = []
        for tmpl in _TRI_EDGES:
            pair = (tri[tmpl[0]], tri[tmpl[1]])
            key = (pair[0], pair[1]) if pair[0] < pair[1] else (pair[1], pair[0])
            idx = edge_of.get(key)
            if idx is None:
                idx = len(edge_verts)
                edge_of[key] = idx
                edge_verts.append(pair)
            row.append(idx)
        tri_edges.append(row)

    if dim == 3:
        facet_pt0 = ncells + num_vertices
        edge_pt0 = facet_pt0 + len(triangles)
    else:
        facet_pt0 = 0  # unused
        edge_pt0 = ncells + num_vertices

    chart = edge_pt0 + len(edge_verts)
    cones = [()] * chart
    if dim == 3:
        for i, row in enumerate(cell_facets):
            cones[i] = tuple(facet_pt0 + f for f in row)
        for f, row in enumerate(tri_edges):
            cones[facet_pt0 + f] = tuple(edge_pt0 + e for e in row)
    else:
        for i, row in enumerate(tri_edges):
            cones[i] = tuple(edge_pt0 + e for e in row)
    for e, (a, b) in enumerate(edge_verts):
        cones[edge_pt0 + e] = (vert_pt(a), vert_pt(b))

    return Plex(dim, cones)


def permute_field(fld: Field, perm: Permutation) -> Field:
    new_section = permute_section(fld.section, perm)
    new_values = np.empty_like(fld.values)
    for p in range(fld.section.num_points):
        new_values[new_section.point_slice(int(perm.forward[p]))] = fld.at(p)
    return Field(fld.name, new_section, new_values)


def apply_permutation(bundle: MeshBundle, perm: Permutation) -> MeshBundle:
    plex = bundle.plex
    if len(perm) != plex.chart_size:
        raise ValueError("permutation size does not match the chart")
    new_cones: list[tuple[int, ...]] = [()] * plex.chart_size
    for p in range(plex.chart_size):
        new_cones[int(perm.forward[p])] = tuple(
            int(perm.forward[q]) for q in plex.cone(p))
    new_plex = Plex(plex.dim, new_cones)

    coords = permute_field(bundle.coordinates, perm)
    full_map = {p: int(perm.forward[p]) for p in range(plex.chart_size)}
    labels = {name: relabeled(lab, full_map) for name, lab in bundle.labels.items()}
    return MeshBundle(new_plex, coords, labels)


def _vertex_adjacency(plex: Plex) -> tuple[np.ndarray, list[list[int]]]:
    verts = plex.depth_stratum(0)
    vrank = {int(p): i for i, p in enumerate(verts)}
    adj: list[set[int]] = [set() for _ in verts]
    for e in plex.depth_stratum(1):
        vs = [vrank[int(q)] for q in plex.cone(int(e))]
        for i in range(len(vs)):
            for j in range(i + 1, len(vs)):
                adj[vs[i]].add(vs[j])
                adj[vs[j]].add(vs[i])
    return verts, [sorted(s) for s in adj]


def rcm_ordering(plex: Plex) -> Permutation:
    """RCM with the per-point vertex adjacency and closure-minimum stratum key."""
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

    vrank_new = np.empty(nv, dtype=np.int64)
    vrank_new[vertex_order] = np.arange(nv)

    vindex = {int(p): i for i, p in enumerate(verts)}
    forward = np.empty(plex.chart_size, dtype=np.int64)
    for d in range(int(plex.depths.max()) + 1):
        stratum = plex.depth_stratum(d)
        if d == 0:
            key = np.array([vrank_new[vindex[int(p)]] for p in stratum])
        else:
            key = np.array([min(vrank_new[vindex[int(q)]]
                                for q in closure(plex, int(p)) if plex.depths[q] == 0)
                            for p in stratum])
        order = np.lexsort((stratum, key))
        forward[stratum[order]] = stratum
    return Permutation(forward)


def p1_pattern(bundle: MeshBundle) -> CsrPattern:
    plex = bundle.plex
    if not plex.is_interpolated:
        raise ValueError("pattern construction needs an interpolated plex")
    verts = plex.depth_stratum(0)
    vrank = {int(p): i for i, p in enumerate(verts)}
    rows: list[set[int]] = [set() for _ in verts]
    for c in plex.height_stratum(0):
        vs = [vrank[int(q)] for q in closure(plex, int(c)) if plex.depths[q] == 0]
        for i in vs:
            rows[i].update(vs)
    return CsrPattern(len(verts), rows)


def bandwidth(pattern: CsrPattern) -> int:
    if pattern.n == 0:
        return 0
    return max(i - int(pattern.row(i)[0]) for i in range(pattern.n))


def profile(pattern: CsrPattern) -> int:
    return sum(i - int(pattern.row(i)[0]) for i in range(pattern.n))


def build_dual_graph(plex: Plex) -> DualGraph:
    if not plex.is_interpolated:
        raise ValueError("dual graph needs an interpolated plex")
    cells = plex.height_stratum(0)
    crank = {int(p): i for i, p in enumerate(cells)}
    adj: list[set[int]] = [set() for _ in cells]
    for f in plex.height_stratum(1):
        sup = plex.support(f)
        for i in range(len(sup)):
            for j in range(i + 1, len(sup)):
                a, b = crank[int(sup[i])], crank[int(sup[j])]
                adj[a].add(b)
                adj[b].add(a)
    return DualGraph(len(cells), [tuple(sorted(s)) for s in adj])


def cell_centroids(bundle: MeshBundle) -> np.ndarray:
    plex = bundle.plex
    coords = bundle.vertex_coords()
    verts = plex.depth_stratum(0)
    vrank = {int(p): i for i, p in enumerate(verts)}
    out = np.empty((plex.num_cells, plex.dim), dtype=np.float64)
    for i, c in enumerate(plex.height_stratum(0)):
        vs = [vrank[int(q)] for q in closure(plex, int(c)) if plex.depths[q] == 0]
        out[i] = coords[vs].mean(axis=0)
    return out


def bundle_to_raw(bundle: MeshBundle) -> RawMesh:
    plex = bundle.plex
    verts = plex.depth_stratum(0)
    vrank = {int(p): i for i, p in enumerate(verts)}
    coords = bundle.vertex_coords()

    cell_points = plex.height_stratum(0)
    cells = []
    for c in cell_points:
        cells.append([vrank[int(q)] for q in closure(plex, c) if plex.depths[q] == 0])

    crank = {int(p): i for i, p in enumerate(cell_points)}
    regions = np.zeros(len(cell_points), dtype=np.int64)
    region_label = bundle.labels.get("region", Label("region"))
    for value in region_label.value_ids():
        for p in region_label.points_with(value):
            regions[crank[int(p)]] = value

    bfacets, markers = [], []
    boundary = bundle.labels.get("boundary", Label("boundary"))
    for value in boundary.value_ids():
        for p in boundary.points_with(value):
            tup = sorted(vrank[int(q)] for q in closure(plex, int(p))
                         if plex.depths[q] == 0)
            bfacets.append(tup)
            markers.append(value)

    return RawMesh(
        dim=plex.dim,
        vertices=coords,
        cells=np.array(cells, dtype=np.int64),
        cell_region_ids=regions,
        boundary_facets=(np.array(bfacets, dtype=np.int64)
                         if bfacets else np.empty((0, max(plex.dim, 1)), dtype=np.int64)),
        boundary_markers=np.array(markers, dtype=np.int64),
    )


def close_partition(plex: Plex, pmap: PartitionMap) -> list[RankPointSet]:
    cells = plex.height_stratum(0)
    if len(pmap.ranks) != len(cells):
        raise ValueError("partition map does not cover the cells")
    nparts = pmap.nparts

    closures = {int(c): closure(plex, int(c)) for c in cells}
    owner = np.full(plex.chart_size, -1, dtype=np.int64)
    point_sets: list[set[int]] = [set() for _ in range(nparts)]
    for i, c in enumerate(cells):
        r = int(pmap.ranks[i])
        point_sets[r].update(int(p) for p in closures[int(c)])
    for r in range(nparts):
        for i in np.flatnonzero(pmap.ranks == r):
            for p in closures[int(cells[i])]:
                if owner[p] < 0:
                    owner[p] = r

    crank = {int(c): i for i, c in enumerate(cells)}
    for f in plex.height_stratum(1):
        sup = plex.support(int(f))
        rs = {int(pmap.ranks[crank[int(c)]]) for c in sup}
        if len(rs) > 1:
            for c in sup:
                cl = closures[int(c)]
                for r in rs:
                    if r != int(pmap.ranks[crank[int(c)]]):
                        point_sets[r].update(int(p) for p in cl)

    out = []
    for r in range(nparts):
        pts = np.array(sorted(point_sets[r]), dtype=np.int64)
        owned = pts[owner[pts] == r]
        out.append(RankPointSet(rank=r, points=pts, owned=owned))
    return out

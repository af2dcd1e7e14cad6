"""Per-point reference implementations of the array kernels.

These are the original loop-and-dict versions of the topology kernels, of
RCM's level and Cuthill-McKee walks, of the partitioner (list-of-tuples dual
graph), of the distribution code (tuple-list star forest, dict-of-sets
labels), of the line-at-a-time MSH 2.2 reader and writer and of the
loop-built mesh generators, kept verbatim (bar being free functions over the
public API, and the lines that build types whose representation changed
since) as test oracles: every array kernel must give exactly their results.
Boundary-facet matching has a dict-based brute force written for the tests.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import IO, Iterable, Sequence

import numpy as np

from plexmesh import (CsrPattern, Field, GmshParseError, Halo, Label,
                      MeshBundle, MigrationReport, PartitionMap, Permutation,
                      Plex, RankLocalMesh, RawMesh, Section, permute_section,
                      section_from_depth_dofs)
from plexmesh.plex import _CELL_ARITY, _TET_FACETS, _TRI_EDGES, _csr_rows, _offsets

from _helpers import plex_from_cones


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
    points, values = [], []
    for value in label.value_ids():
        mapped = {point_map[p] for p in label.points_with(value).tolist() if p in point_map}
        if mapped:
            points.extend(mapped)
            values.extend([value] * len(mapped))
    return Label.from_arrays(label.name, points, values)


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
        return plex_from_cones(dim, cones)

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

    return plex_from_cones(dim, cones)


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
    new_plex = plex_from_cones(plex.dim, new_cones)

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
    return CsrPattern(len(verts), np.repeat(np.arange(len(verts)), [len(r) for r in rows]),
                      [c for r in rows for c in sorted(r)])


def bandwidth(pattern: CsrPattern) -> int:
    if pattern.n == 0:
        return 0
    return max(i - int(pattern.row(i)[0]) for i in range(pattern.n))


def profile(pattern: CsrPattern) -> int:
    return sum(i - int(pattern.row(i)[0]) for i in range(pattern.n))


@dataclass(eq=False)
class ListDualGraph:
    """Adjacency over cells: an edge wherever two cells share a facet."""

    num_cells: int
    neighbors: list[tuple[int, ...]]  # per cell, ascending

    @property
    def num_edges(self) -> int:
        return sum(len(n) for n in self.neighbors) // 2

    def edges(self) -> list[tuple[int, int]]:
        return [(c, n) for c in range(self.num_cells)
                for n in self.neighbors[c] if c < n]


def build_dual_graph(plex: Plex) -> ListDualGraph:
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
    return ListDualGraph(len(cells), [tuple(sorted(s)) for s in adj])


def _greedy_bfs(graph: ListDualGraph, nparts: int) -> np.ndarray:
    n = graph.num_cells
    ranks = np.full(n, -1, dtype=np.int64)
    assigned = 0
    for part in range(nparts):
        # Sizing from what is left keeps every later part non-empty.
        target = -(-(n - assigned) // (nparts - part))
        size = 0
        queue: deque[int] = deque()
        while size < target:
            if not queue:
                seed = int(np.flatnonzero(ranks < 0)[0])
                queue.append(seed)
                ranks[seed] = part
                size += 1
                assigned += 1
                if size == target:
                    break
            c = queue.popleft()
            for nb in graph.neighbors[c]:
                if ranks[nb] < 0 and size < target:
                    ranks[nb] = part
                    size += 1
                    assigned += 1
                    queue.append(nb)
    return ranks


def edge_cut(graph: ListDualGraph, pmap: PartitionMap) -> int:
    """The edge-cut loop of partition_stats."""
    return sum(1 for a, b in graph.edges() if pmap.ranks[a] != pmap.ranks[b])


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


def facet_points(plex: Plex) -> dict[tuple[int, ...], int]:
    """Every height-1 point, keyed by the sorted vertex numbers of its closure."""
    vrank = {int(p): i for i, p in enumerate(plex.depth_stratum(0))}
    return {tuple(sorted(vrank[int(q)] for q in closure(plex, p) if plex.depths[q] == 0)): p
            for p in plex.height_stratum(1).tolist()}


def boundary_label(plex: Plex, facets, markers) -> Label:
    """raw_to_bundle's boundary label: each facet row (vertex ids) goes to the
    height-1 point whose closure has the same vertex set."""
    point_of = facet_points(plex)
    points = []
    for row in np.asarray(facets).tolist():
        key = tuple(sorted(row))
        if key not in point_of:
            raise ValueError(f"boundary facet {key} not found in the interpolated mesh")
        points.append(point_of[key])
    return Label.from_arrays("boundary", points, markers)


@dataclass(eq=False)
class RankPointSet:
    """One rank's share of the global chart: owned points plus one cell overlap."""

    rank: int
    points: np.ndarray  # sorted global ids, owned + overlap
    owned: np.ndarray   # sorted global ids owned by this rank


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


# -- distribution: tuple-list star forest and dict-of-sets labels ---------------
#
# The migration, halo and gather code as it stood before the array StarForest
# and Label.  The oracle pipeline runs on bundles whose labels are DictLabels
# (see dict_labels).


@dataclass
class DictLabel:
    """Named integer markers over sets of plex points."""

    name: str
    values: dict[int, set[int]] = field(default_factory=dict)

    @classmethod
    def from_arrays(cls, name: str, points, values) -> "DictLabel":
        """Label marking points[i] with values[i]."""
        points = np.asarray(points, dtype=np.int64)
        values = np.asarray(values, dtype=np.int64)
        order = np.argsort(values, kind="stable")
        points, values = points[order], values[order]
        starts = np.flatnonzero(np.diff(values, prepend=values[:1] - 1))
        ends = np.append(starts[1:], values.size)
        return cls(name, {int(values[s]): set(points[s:e].tolist())
                          for s, e in zip(starts.tolist(), ends.tolist())})

    def add(self, value: int, points: Iterable[int]) -> None:
        self.values.setdefault(int(value), set()).update(int(p) for p in points)

    def points_with(self, value: int) -> np.ndarray:
        return np.array(sorted(self.values.get(int(value), ())), dtype=np.int64)

    @property
    def points(self) -> np.ndarray:
        """Every marked point, ascending, as Label.points lists them (MeshBundle
        checks the ends against the chart)."""
        return np.array(sorted(p for pts in self.values.values() for p in pts),
                        dtype=np.int64)

    def value_ids(self) -> list[int]:
        return sorted(self.values)

    def relabeled(self, point_map: np.ndarray) -> "DictLabel":
        """New label with every point p mapped to point_map[p]; points mapped
        to -1 are dropped (used for restriction to a submesh)."""
        out = DictLabel(self.name)
        for value, pts in self.values.items():
            mapped = point_map[np.fromiter(pts, dtype=np.int64, count=len(pts))]
            mapped = mapped[mapped >= 0]
            if mapped.size:
                out.values[value] = set(mapped.tolist())
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, DictLabel):
            return NotImplemented
        return self.name == other.name and self.values == other.values


@dataclass
class TupleStarForest:
    """Ghost-point sharing: per rank, (local point, owner rank, owner-local point)."""

    leaves: list[list[tuple[int, int, int]]]

    @property
    def nranks(self) -> int:
        return len(self.leaves)

    def rank_leaves(self, rank: int) -> list[tuple[int, int, int]]:
        return self.leaves[rank]


def _extract_rank(bundle: MeshBundle, rps: RankPointSet) -> RankLocalMesh:
    plex = bundle.plex
    l2g = rps.points
    offsets, targets = _csr_rows(plex._cone_offsets, plex._cone_targets, l2g)
    local_plex = Plex(plex.dim, offsets, np.searchsorted(l2g, targets))

    local_verts = l2g[plex.depths[l2g] == 0]
    coords_global = bundle.vertex_coords()
    values = coords_global[np.searchsorted(plex.depth_stratum(0), local_verts)].ravel()
    sec = section_from_depth_dofs(local_plex, [plex.dim] + [0] * plex.dim)
    coords = Field("coordinates", sec, values)

    g2l = np.full(plex.chart_size, -1, dtype=np.int64)
    g2l[l2g] = np.arange(l2g.size, dtype=np.int64)
    labels = {name: lab.relabeled(g2l) for name, lab in bundle.labels.items()}

    owned = np.zeros(l2g.size, dtype=bool)
    owned[np.searchsorted(l2g, rps.owned)] = True
    owned_cells = np.flatnonzero(owned & (plex.heights[l2g] == 0))
    ghosts = np.flatnonzero(~owned)
    return RankLocalMesh(rank=rps.rank, bundle=MeshBundle(local_plex, coords, labels),
                         local_to_global=l2g, owned_cells=owned_cells,
                         ghost_points=ghosts)


def migrate(bundle: MeshBundle, pmap: PartitionMap, nranks: int,
            fields: Sequence[Field] | None = None,
            ) -> tuple[list[RankLocalMesh], TupleStarForest, MigrationReport]:
    """Split a bundle into rank-local meshes plus the star forest linking them.

    Only topology, coordinates and labels are materialized per rank.  Fields,
    when supplied, are accounted in the migration byte counts (the fully
    allocated state a preprocessor-style start-up would ship) but not
    expanded; omitting them models the topology-only start-up.
    """
    if nranks != pmap.nparts:
        raise ValueError(f"nranks={nranks} does not match map nparts={pmap.nparts}")
    for f in fields or ():
        if f.section.num_points != bundle.plex.chart_size:
            raise ValueError(f"field '{f.name}' is not laid out over this chart")
    rank_sets = close_partition(bundle.plex, pmap)
    locals_ = [_extract_rank(bundle, rps) for rps in rank_sets]

    # Owner-local ids by one search in the (rank, point) keys of all ranks.
    chart = bundle.plex.chart_size
    owner = np.full(chart, -1, dtype=np.int64)
    for rps in rank_sets:
        owner[rps.owned] = rps.rank
    rank_keys = np.concatenate([rps.rank * chart + rps.points for rps in rank_sets])
    rank_start = _offsets([rps.points.size for rps in rank_sets])
    leaves: list[list[tuple[int, int, int]]] = []
    for rps in rank_sets:
        local = np.flatnonzero(owner[rps.points] != rps.rank)
        g = rps.points[local]
        r = owner[g]
        owner_local = np.searchsorted(rank_keys, r * chart + g) - rank_start[r]
        leaves.append(list(zip(local.tolist(), r.tolist(), owner_local.tolist())))
    sf = TupleStarForest(leaves)

    bytes_topology = 0
    bytes_coordinates = 0
    bytes_fields = 0
    for lm in locals_:
        lp = lm.bundle.plex
        bytes_topology += 8 * (lp._cone_offsets[-1] + lp.chart_size)
        bytes_coordinates += 8 * lm.bundle.coordinates.section.total_size
        for f in fields or ():
            bytes_fields += 8 * int(f.section.dofs[lm.local_to_global].sum())
    report = MigrationReport(
        bytes_topology=int(bytes_topology),
        bytes_coordinates=int(bytes_coordinates),
        bytes_fields=int(bytes_fields),
        points_per_rank=[lm.bundle.plex.chart_size for lm in locals_],
    )
    return locals_, sf, report


def build_halo(local: RankLocalMesh, sf: TupleStarForest, section: Section,
               ) -> tuple[Halo, Permutation]:
    """Compute the trailing-receives point permutation for one rank.

    Points carrying owned dofs come first (ascending), then owned points
    without dofs, then all ghost points ordered by (owner rank, owner-local
    point).  Applying the permutation to the section therefore puts the owned
    dofs at [0, n_owned) and every ghost dof after them.
    """
    n = local.bundle.plex.chart_size
    if section.num_points != n:
        raise ValueError("section does not match the local chart")
    entries = sf.rank_leaves(local.rank)
    if {e[0] for e in entries} != set(local.ghost_points.tolist()):
        raise ValueError("star forest leaves do not match the ghost point set")

    ghost_order = sorted(entries, key=lambda e: (e[1], e[2]))
    ghosts = np.array([e[0] for e in ghost_order], dtype=np.int64)
    owned = np.ones(n, dtype=bool)
    owned[ghosts] = False
    owned = np.flatnonzero(owned)
    has_dofs = section.dofs[owned] > 0
    perm = Permutation.from_new_order(
        np.concatenate([owned[has_dofs], owned[~has_dofs], ghosts]))

    n_owned = int(section.dofs[owned].sum())
    receives = [(int(perm.forward[e[0]]), e[1], e[2]) for e in ghost_order]
    return Halo(n_owned=n_owned, receives=receives), perm


def gather_to_root(locals_: Sequence[RankLocalMesh], sf: TupleStarForest) -> MeshBundle:
    """Reassemble the original bundle from a complete distribution.

    Every global point must be owned by exactly one rank; cones, coordinates
    and labels are taken from the owners, reproducing the pre-migration
    numbering exactly.
    """
    dim = locals_[0].bundle.dim
    chart = 1 + max(int(lm.local_to_global.max(initial=-1)) for lm in locals_)
    points, sizes, cone_points, vertex_points, vertex_coords = [], [], [], [], []
    for lm in locals_:
        lp = lm.bundle.plex
        l2g = lm.local_to_global
        owned = np.ones(lp.chart_size, dtype=bool)
        owned[list(lm.ghost_points)] = False
        offsets, targets = _csr_rows(lp._cone_offsets, lp._cone_targets,
                                     np.flatnonzero(owned))
        points.append(l2g[owned])
        sizes.append(np.diff(offsets))
        cone_points.append(l2g[targets])
        local_verts = lp.depth_stratum(0)
        vertex_points.append(l2g[local_verts[owned[local_verts]]])
        vertex_coords.append(lm.bundle.vertex_coords()[owned[local_verts]])
    points = np.concatenate(points)
    claimed = np.bincount(points, minlength=chart)
    if np.any(claimed > 1):
        raise ValueError("inconsistent ownership: a point is claimed by two ranks")
    if np.any(claimed == 0):
        raise ValueError("incomplete distribution: a point is owned by no rank")

    offsets, cone_points = _csr_rows(_offsets(np.concatenate(sizes)),
                                     np.concatenate(cone_points), np.argsort(points))
    plex = Plex(dim, offsets, cone_points)
    coords = np.zeros((plex.num_vertices, dim), dtype=np.float64)
    coords[np.searchsorted(plex.depth_stratum(0), np.concatenate(vertex_points))] = \
        np.concatenate(vertex_coords)
    label_names = sorted({name for lm in locals_ for name in lm.bundle.labels})
    labels = {name: DictLabel(name) for name in label_names}
    for lm in locals_:
        for name, lab in lm.bundle.labels.items():
            for value, pts in lab.values.items():
                labels[name].add(value, lm.local_to_global[list(pts)].tolist())

    sec = section_from_depth_dofs(plex, [dim] + [0] * dim)
    return MeshBundle(plex, Field("coordinates", sec, coords.ravel()), labels)


def dict_labels(bundle: MeshBundle) -> MeshBundle:
    """The same bundle with its labels as DictLabels."""
    return MeshBundle(bundle.plex, bundle.coordinates, {
        name: DictLabel.from_arrays(name, lab.points, lab.values)
        for name, lab in bundle.labels.items()})


def label_sets(label) -> dict[int, set[int]]:
    """{value: set of points} of a Label or a DictLabel."""
    return {v: set(label.points_with(v).tolist()) for v in label.value_ids()}


# -- MSH 2.2 text I/O: one line at a time ----------------------------------------

# The element tables as the line-at-a-time reader and writer knew them.
_ELEMENT_TYPES = {1: (1, 2), 2: (2, 3), 4: (3, 4)}
_TYPE_FOR_DIM = {1: 1, 2: 2, 3: 4}
_GMSH_POINT = 15


def _next_line(stream: IO[str], context: str) -> str:
    for line in stream:
        line = line.strip()
        if line:
            return line
    raise GmshParseError(f"unexpected end of file while reading {context}")


def _ints(fields: list[str], context: str) -> list[int]:
    try:
        return [int(x) for x in fields]
    except ValueError:
        raise GmshParseError(
            f"non-integer field in {context} '{' '.join(fields)}'") from None


def _count(stream: IO[str], section: str) -> int:
    n = _ints([_next_line(stream, section)], f"{section} count")[0]
    if n < 0:
        raise GmshParseError(f"negative {section} count {n}")
    return n


def read_gmsh(stream: IO[str]) -> RawMesh:
    """Parse an MSH 2.2 ASCII stream into a RawMesh.

    The mesh dimension is the highest element dimension present; elements of
    that dimension become cells, those one lower become boundary facets with
    their first tag as marker.  Point elements (type 15) and anything of even
    lower dimension are skipped.
    """
    node_tags: list[int] = []
    coords: list[tuple[float, float, float]] = []
    elements: list[tuple[int, int, list[int]]] = []  # (dim, first tag, node tags)
    saw_format = saw_nodes = saw_elements = False

    while True:
        line = stream.readline()
        if not line:
            break
        line = line.strip()
        if not line:
            continue
        if not line.startswith("$"):
            raise GmshParseError(f"expected a section header, got '{line}'")
        section = line[1:]

        if section == "MeshFormat":
            parts = _next_line(stream, "$MeshFormat").split()
            if len(parts) != 3:
                raise GmshParseError("malformed $MeshFormat line")
            version = parts[0]
            file_type, data_size = _ints(parts[1:], "$MeshFormat line")
            if version != "2.2":
                raise GmshParseError(
                    f"unsupported MSH version {version}; only 2.2 ASCII is handled")
            if file_type != 0:
                raise GmshParseError("binary MSH files are not supported")
            if data_size != 8:
                raise GmshParseError(f"unsupported data size {data_size}")
            if _next_line(stream, "$MeshFormat") != "$EndMeshFormat":
                raise GmshParseError("missing $EndMeshFormat")
            saw_format = True

        elif section == "Nodes":
            for _ in range(_count(stream, "$Nodes")):
                line = _next_line(stream, "$Nodes")
                parts = line.split()
                try:
                    if len(parts) != 4:
                        raise ValueError
                    node_tags.append(int(parts[0]))
                    coords.append((float(parts[1]), float(parts[2]), float(parts[3])))
                except ValueError:
                    raise GmshParseError(f"malformed node line '{line}'") from None
            if _next_line(stream, "$Nodes") != "$EndNodes":
                raise GmshParseError("missing $EndNodes")
            saw_nodes = True

        elif section == "Elements":
            for _ in range(_count(stream, "$Elements")):
                parts = _ints(_next_line(stream, "$Elements").split(), "element line")
                if len(parts) < 3 or parts[2] < 0:
                    raise GmshParseError("malformed element line")
                etype, ntags = parts[1], parts[2]
                tags = parts[3:3 + ntags]
                nodes = parts[3 + ntags:]
                if etype == _GMSH_POINT:
                    continue
                if etype not in _ELEMENT_TYPES:
                    raise GmshParseError(f"unsupported element type {etype}")
                edim, nnodes = _ELEMENT_TYPES[etype]
                if len(nodes) != nnodes:
                    raise GmshParseError(
                        f"type-{etype} element needs {nnodes} nodes, got {len(nodes)}")
                elements.append((edim, tags[0] if tags else 0, nodes))
            if _next_line(stream, "$Elements") != "$EndElements":
                raise GmshParseError("missing $EndElements")
            saw_elements = True

        else:
            # Unknown section ($PhysicalNames, ...): skip to its terminator.
            end = f"$End{section}"
            while True:
                inner = stream.readline()
                if not inner:
                    raise GmshParseError(f"missing {end}")
                if inner.strip() == end:
                    break

    if not saw_format:
        raise GmshParseError("missing $MeshFormat section")
    if not saw_nodes:
        raise GmshParseError("missing $Nodes section")
    if not saw_elements or not elements:
        raise GmshParseError("no cells of maximal dimension")

    tag_to_index = {t: i for i, t in enumerate(node_tags)}
    if len(tag_to_index) != len(node_tags):
        dup = next(t for i, t in enumerate(node_tags) if tag_to_index[t] != i)
        raise GmshParseError(f"duplicate node tag {dup}")
    xyz = np.array(coords, dtype=np.float64).reshape(-1, 3)
    finite = np.isfinite(xyz).all(axis=1)
    if not finite.all():
        raise GmshParseError(
            f"node {node_tags[int(np.argmin(finite))]} has a non-finite coordinate")
    dim = max(e[0] for e in elements)
    cells, regions, bfacets, markers = [], [], [], []
    for edim, tag, nodes in elements:
        try:
            verts = [tag_to_index[n] for n in nodes]
        except KeyError as exc:
            raise GmshParseError(f"element references unknown node {exc.args[0]}")
        if edim == dim:
            cells.append(verts)
            regions.append(tag)
        elif edim == dim - 1:
            bfacets.append(verts)
            markers.append(tag)
        # lower-dimensional elements carry no meaning here; skip

    return RawMesh(
        dim=dim,
        vertices=xyz[:, :dim],
        cells=np.array(cells, dtype=np.int64),
        cell_region_ids=np.array(regions, dtype=np.int64),
        boundary_facets=(np.array(bfacets, dtype=np.int64)
                         if bfacets else np.empty((0, max(dim, 1)), dtype=np.int64)),
        boundary_markers=np.array(markers, dtype=np.int64),
    )


def write_gmsh(mesh: RawMesh) -> str:
    """Serialize a RawMesh as MSH 2.2 ASCII; read_gmsh inverts it exactly.

    Boundary facets are emitted before cells, each with its marker (or region
    id) duplicated into the two conventional tag slots.  Coordinates are
    written with 16 significant digits and zero-padded to three components.
    """
    if mesh.num_vertices == 0:
        raise ValueError("refusing to write a mesh with no vertices")
    out = ["$MeshFormat", "2.2 0 8", "$EndMeshFormat"]

    out.append("$Nodes")
    out.append(str(mesh.num_vertices))
    xyz = np.zeros((mesh.num_vertices, 3), dtype=np.float64)
    xyz[:, :mesh.dim] = mesh.vertices
    for i, (x, y, z) in enumerate(xyz):
        out.append(f"{i + 1} {x:.16g} {y:.16g} {z:.16g}")
    out.append("$EndNodes")

    out.append("$Elements")
    out.append(str(len(mesh.boundary_facets) + mesh.num_cells))
    eid = 1
    ftype = _TYPE_FOR_DIM.get(mesh.dim - 1)
    for facet, marker in zip(mesh.boundary_facets, mesh.boundary_markers):
        nodes = " ".join(str(v + 1) for v in facet)
        out.append(f"{eid} {ftype} 2 {marker} {marker} {nodes}")
        eid += 1
    ctype = _TYPE_FOR_DIM[mesh.dim]
    for cell, region in zip(mesh.cells, mesh.cell_region_ids):
        nodes = " ".join(str(v + 1) for v in cell)
        out.append(f"{eid} {ctype} 2 {region} {region} {nodes}")
        eid += 1
    out.append("$EndElements")
    return "\n".join(out) + "\n"


# -- mesh generators: per-cell and per-face loops ---------------------------------


def interval_mesh(ncells: int, length: float = 1.0) -> RawMesh:
    """1D mesh of ncells equal segments on [0, length]."""
    if ncells < 1:
        raise ValueError("need at least one cell")
    xs = np.linspace(0.0, length, ncells + 1).reshape(-1, 1)
    cells = np.column_stack([np.arange(ncells), np.arange(1, ncells + 1)])
    return RawMesh(dim=1, vertices=xs, cells=cells,
                   cell_region_ids=np.zeros(ncells, dtype=np.int64),
                   boundary_facets=np.empty((0, 1), dtype=np.int64),
                   boundary_markers=np.empty(0, dtype=np.int64))


def triangle_grid(nx: int, ny: int) -> RawMesh:
    """Unit square split into an nx x ny grid of quads, two triangles each.

    Vertices are numbered row-major (x fastest); each quad is split along its
    lower-left to upper-right diagonal.  Boundary edges carry markers
    1=bottom, 2=right, 3=top, 4=left.
    """
    if nx < 1 or ny < 1:
        raise ValueError("grid needs at least one quad per direction")
    xs = np.linspace(0.0, 1.0, nx + 1)
    ys = np.linspace(0.0, 1.0, ny + 1)
    verts = np.array([(x, y) for y in ys for x in xs])
    vid = lambda i, j: j * (nx + 1) + i

    cells = []
    for j in range(ny):
        for i in range(nx):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
            cells.append((v00, v10, v11))
            cells.append((v00, v11, v01))

    bfacets, markers = [], []
    for i in range(nx):
        bfacets.append((vid(i, 0), vid(i + 1, 0)))
        markers.append(1)
    for j in range(ny):
        bfacets.append((vid(nx, j), vid(nx, j + 1)))
        markers.append(2)
    for i in range(nx):
        bfacets.append((vid(i, ny), vid(i + 1, ny)))
        markers.append(3)
    for j in range(ny):
        bfacets.append((vid(0, j), vid(0, j + 1)))
        markers.append(4)

    nc = len(cells)
    return RawMesh(dim=2, vertices=verts, cells=np.array(cells, dtype=np.int64),
                   cell_region_ids=np.zeros(nc, dtype=np.int64),
                   boundary_facets=np.array(bfacets, dtype=np.int64),
                   boundary_markers=np.array(markers, dtype=np.int64))


_BOX_TETS = (  # Kuhn decomposition of the unit cube into six tetrahedra
    (0, 1, 3, 7), (0, 1, 7, 5), (0, 5, 7, 4),
    (0, 3, 2, 7), (0, 6, 4, 7), (0, 2, 6, 7),
)


def tet_box(nx: int, ny: int, nz: int) -> RawMesh:
    """Unit cube as an nx x ny x nz grid of boxes, six tetrahedra each.

    Boundary triangles carry markers 1..6 for the x=0, x=1, y=0, y=1, z=0,
    z=1 faces respectively.
    """
    if min(nx, ny, nz) < 1:
        raise ValueError("grid needs at least one box per direction")
    xs = np.linspace(0.0, 1.0, nx + 1)
    ys = np.linspace(0.0, 1.0, ny + 1)
    zs = np.linspace(0.0, 1.0, nz + 1)
    verts = np.array([(x, y, z) for z in zs for y in ys for x in xs])
    vid = lambda i, j, k: (k * (ny + 1) + j) * (nx + 1) + i

    cells = []
    for k in range(nz):
        for j in range(ny):
            for i in range(nx):
                corner = [vid(i + a, j + b, k + c)
                          for c in (0, 1) for b in (0, 1) for a in (0, 1)]
                for tet in _BOX_TETS:
                    cells.append(tuple(corner[t] for t in tet))
    cells = np.array(cells, dtype=np.int64)

    # Boundary faces: the two triangles of each outer box face, matching the
    # tetrahedralization (diagonals inherited from the Kuhn split).
    bfacets, markers = [], []
    cell_faces = set()
    for cell in cells:
        for f in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)):
            cell_faces.add(tuple(sorted(cell[t] for t in f)))

    def emit(quad, marker):
        # quad = (a, b, c, d) corners in cyclic order; pick the diagonal that
        # exists in the tetrahedralization
        a, b, c, d = quad
        for tri in ((a, b, c), (a, c, d), (a, b, d), (b, c, d)):
            key = tuple(sorted(tri))
            if key in cell_faces:
                bfacets.append(key)
                markers.append(marker)

    for k in range(nz):
        for j in range(ny):
            emit((vid(0, j, k), vid(0, j + 1, k), vid(0, j + 1, k + 1), vid(0, j, k + 1)), 1)
            emit((vid(nx, j, k), vid(nx, j + 1, k), vid(nx, j + 1, k + 1), vid(nx, j, k + 1)), 2)
    for k in range(nz):
        for i in range(nx):
            emit((vid(i, 0, k), vid(i + 1, 0, k), vid(i + 1, 0, k + 1), vid(i, 0, k + 1)), 3)
            emit((vid(i, ny, k), vid(i + 1, ny, k), vid(i + 1, ny, k + 1), vid(i, ny, k + 1)), 4)
    for j in range(ny):
        for i in range(nx):
            emit((vid(i, j, 0), vid(i + 1, j, 0), vid(i + 1, j + 1, 0), vid(i, j + 1, 0)), 5)
            emit((vid(i, j, nz), vid(i + 1, j, nz), vid(i + 1, j + 1, nz), vid(i, j + 1, nz)), 6)

    return RawMesh(dim=3, vertices=verts, cells=cells,
                   cell_region_ids=np.zeros(len(cells), dtype=np.int64),
                   boundary_facets=np.array(bfacets, dtype=np.int64),
                   boundary_markers=np.array(markers, dtype=np.int64))

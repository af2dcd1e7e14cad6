"""Topology migration onto simulated ranks, star forests and halo layout.

Ranks are simulated in-process: each rank receives an independent
RankLocalMesh value and all cross-rank relationships are expressed through
the immutable StarForest, never shared state, so per-rank extraction could
run concurrently as-is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .gmsh_io import MeshBundle
from .partition import PartitionMap
from .permutation import Permutation
from .plex import (Label, Plex, _csr_rows, _offsets, _row_ids, _row_pairs,
                   _unique_sorted)
from .section import Field, Section, section_from_depth_dofs


@dataclass
class StarForest:
    """Ghost-point sharing: per rank, (local point, owner rank, owner-local point)."""

    leaves: list[list[tuple[int, int, int]]]

    @property
    def nranks(self) -> int:
        return len(self.leaves)

    def rank_leaves(self, rank: int) -> list[tuple[int, int, int]]:
        return self.leaves[rank]


@dataclass(eq=False)
class RankPointSet:
    """One rank's share of the global chart: owned points plus one cell overlap."""

    rank: int
    points: np.ndarray  # sorted global ids, owned + overlap
    owned: np.ndarray   # sorted global ids owned by this rank


@dataclass(eq=False)
class RankLocalMesh:
    """Self-contained local mesh with its mapping back to the global chart."""

    rank: int
    bundle: MeshBundle
    local_to_global: np.ndarray
    owned_cells: set[int]   # local cell points owned by this rank
    ghost_points: set[int]  # local points owned elsewhere


@dataclass
class Halo:
    """Trailing-receives layout summary for one rank's data.

    n_owned counts owned dofs; every ghost dof lands at index >= n_owned once
    the accompanying permutation is applied.  receives lists ghost points as
    (permuted local point, owner rank, owner-local point), ordered by
    (owner rank, owner-local point); owner-local ids refer to the owner's
    unpermuted numbering.
    """

    n_owned: int
    receives: list[tuple[int, int, int]]


@dataclass
class MigrationReport:
    """Byte accounting of what migration ships to the ranks.

    Topology counts one 8-byte word per cone entry plus one per point of
    metadata; coordinates and fields count 8 bytes per dof.
    """

    bytes_topology: int
    bytes_coordinates: int
    bytes_fields: int
    points_per_rank: list[int]

    @property
    def bytes_total(self) -> int:
        return self.bytes_topology + self.bytes_coordinates + self.bytes_fields

    def as_dict(self) -> dict:
        return {
            "bytes_topology": self.bytes_topology,
            "bytes_coordinates": self.bytes_coordinates,
            "bytes_fields": self.bytes_fields,
            "bytes_total": self.bytes_total,
            "points_per_rank": list(self.points_per_rank),
        }


def close_partition(plex: Plex, pmap: PartitionMap) -> list[RankPointSet]:
    """Expand a cell assignment to per-rank point sets with one layer of overlap.

    A rank receives the closure of every cell assigned to it plus the closure
    of every foreign cell sharing a facet with one of its cells.  A point is
    owned by the lowest rank whose own-cell closures contain it.
    """
    cells = plex.height_stratum(0)
    if len(pmap.ranks) != len(cells):
        raise ValueError("partition map does not cover the cells")
    nparts = pmap.nparts
    chart = plex.chart_size
    offsets, closure_pts = plex.closures(cells)
    closure_cell = _row_ids(offsets)

    # Lowest-rank ownership over the own-cell closures.
    owner = np.full(chart, nparts, dtype=np.int64)
    np.minimum.at(owner, closure_pts, pmap.ranks[closure_cell])

    # One layer of overlap through shared facets: every cell sharing a facet
    # with a cell of another rank goes to that rank too.
    sup_offsets, sup = _csr_rows(plex._support_offsets, plex._support_targets,
                                 plex.height_stratum(1))
    a, b = _row_pairs(sup_offsets, np.searchsorted(cells, sup))
    foreign = pmap.ranks[a] != pmap.ranks[b]
    sent_cell = np.concatenate([np.arange(len(cells), dtype=np.int64), a[foreign]])
    sent_rank = np.concatenate([pmap.ranks, pmap.ranks[b[foreign]]])

    # Every (rank, point) pair the sent cells' closures cover, sorted by rank.
    sizes = np.diff(offsets)[sent_cell]
    _, pts = _csr_rows(offsets, closure_pts, sent_cell)
    keys = _unique_sorted(np.repeat(sent_rank, sizes) * chart + pts)
    ranks, pts = np.divmod(keys, chart)
    bounds = np.searchsorted(ranks, np.arange(nparts + 1))
    out = []
    for r in range(nparts):
        rank_pts = pts[bounds[r]:bounds[r + 1]]
        out.append(RankPointSet(rank=r, points=rank_pts,
                                owned=rank_pts[owner[rank_pts] == r]))
    return out


def _extract_rank(bundle: MeshBundle, rps: RankPointSet) -> RankLocalMesh:
    plex = bundle.plex
    l2g = rps.points
    offsets, targets = _csr_rows(plex._cone_offsets, plex._cone_targets, l2g)
    local_plex = Plex.from_csr(plex.dim, offsets, np.searchsorted(l2g, targets))

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
    owned_cells = set(np.flatnonzero(owned & (plex.heights[l2g] == 0)).tolist())
    ghosts = set(np.flatnonzero(~owned).tolist())
    return RankLocalMesh(rank=rps.rank, bundle=MeshBundle(local_plex, coords, labels),
                         local_to_global=l2g, owned_cells=owned_cells,
                         ghost_points=ghosts)


def migrate(bundle: MeshBundle, pmap: PartitionMap, nranks: int,
            fields: Sequence[Field] | None = None,
            ) -> tuple[list[RankLocalMesh], StarForest, MigrationReport]:
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
    sf = StarForest(leaves)

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


def build_halo(local: RankLocalMesh, sf: StarForest, section: Section,
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
    if {e[0] for e in entries} != local.ghost_points:
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


def gather_to_root(locals_: Sequence[RankLocalMesh], sf: StarForest) -> MeshBundle:
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
    plex = Plex.from_csr(dim, offsets, cone_points)
    coords = np.zeros((plex.num_vertices, dim), dtype=np.float64)
    coords[np.searchsorted(plex.depth_stratum(0), np.concatenate(vertex_points))] = \
        np.concatenate(vertex_coords)
    label_names = sorted({name for lm in locals_ for name in lm.bundle.labels})
    labels = {name: Label(name) for name in label_names}
    for lm in locals_:
        for name, lab in lm.bundle.labels.items():
            for value, pts in lab.values.items():
                labels[name].add(value, lm.local_to_global[list(pts)].tolist())

    sec = section_from_depth_dofs(plex, [dim] + [0] * dim)
    return MeshBundle(plex, Field("coordinates", sec, coords.ravel()), labels)

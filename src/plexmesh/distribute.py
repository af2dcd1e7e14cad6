"""Topology migration onto simulated ranks, star forests and halo layout.

Ranks are simulated in-process.  migrate moves every datum to all ranks
with one broadcast over the migration star forest and cuts each rank's
RankLocalMesh from that rank's leaf range of the results, so no array of one
rank's local mesh shares memory with another rank's or with the input
bundle.  All cross-rank relationships are expressed through the immutable
StarForest, never shared state.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .gmsh_io import MeshBundle
from .partition import PartitionMap
from .permutation import Permutation
from .plex import (Label, Plex, _csr_rows, _offsets, _row_ids, _row_pairs,
                   _unique_sorted)
from .section import Field, Section


class StarForest:
    """Star forest: every leaf (leaf_rank, leaf_point) copies one root
    (root_rank, root_point).

    Flat int64 arrays sorted by (leaf_rank, leaf_point), the PetscSF
    ilocal/iremote layout.  bcast and reduce address roots by root_point, so
    they move data of one root chart: the migration SF's, whose roots are the
    points of the undistributed mesh.
    """

    def __init__(self, nranks: int, leaf_rank, leaf_point, root_rank, root_point):
        arrays = [np.asarray(a, dtype=np.int64)
                  for a in (leaf_rank, leaf_point, root_rank, root_point)]
        key = arrays[0] * (1 + int(arrays[1].max(initial=0))) + arrays[1]
        if (key[1:] < key[:-1]).any():
            arrays = [a[key.argsort(kind="stable")] for a in arrays]
        self.nranks = nranks
        self.leaf_rank, self.leaf_point, self.root_rank, self.root_point = arrays

    def _rank_slice(self, rank: int) -> slice:
        return slice(*np.searchsorted(self.leaf_rank, [rank, rank + 1]).tolist())

    def rank_leaves(self, rank: int) -> list[tuple[int, int, int]]:
        """(leaf point, root rank, root point) of each leaf on a rank."""
        s = self._rank_slice(rank)
        return list(zip(self.leaf_point[s].tolist(), self.root_rank[s].tolist(),
                        self.root_point[s].tolist()))

    def select(self, mask: np.ndarray) -> "StarForest":
        """The star forest of the leaves where mask is true."""
        return StarForest(self.nranks, self.leaf_rank[mask], self.leaf_point[mask],
                          self.root_rank[mask], self.root_point[mask])

    def bcast(self, section: Section, values: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
        """Each leaf's root block of a Section-laid root array, as CSR in leaf order."""
        return _csr_rows(section.offsets, values, self.root_point)

    def reduce(self, section: Section, values: np.ndarray, nroots: int
               ) -> tuple[np.ndarray, np.ndarray]:
        """Inverse of bcast: each leaf's block of a Section-laid leaf array at
        its root, as CSR over roots [0, nroots), which must have one leaf each."""
        claimed = np.bincount(self.root_point, minlength=nroots)
        if (claimed > 1).any():
            raise ValueError("inconsistent ownership: a point is claimed by two ranks")
        if (claimed == 0).any():
            raise ValueError("incomplete distribution: a point is owned by no rank")
        return _csr_rows(section.offsets, values, self.root_point.argsort())


def _migration_sf(ranks: Sequence[int], points: Sequence[np.ndarray]) -> StarForest:
    """Leaf i of rank ranks[k] copies global point points[k][i], a root on rank 0."""
    leaf_rank = np.repeat(np.asarray(ranks, dtype=np.int64), [p.size for p in points])
    return StarForest(1 + max(ranks), leaf_rank,
                      np.concatenate([np.arange(p.size) for p in points]),
                      np.zeros_like(leaf_rank), np.concatenate(points))


def _layouts(bundle: MeshBundle, names) -> list[tuple[Section, np.ndarray]]:
    """A bundle's data as Section-laid arrays over its chart: cones,
    coordinates, then the values of each named label."""
    plex, coords = bundle.plex, bundle.coordinates
    labels = [bundle.labels.get(name, Label(name)) for name in names]
    return [(Section(plex._cone_offsets[1:] - plex._cone_offsets[:-1]), plex._cone_targets),
            (coords.section, coords.values),
            *((Section(np.bincount(lab.points, minlength=plex.chart_size)), lab.values)
              for lab in labels)]


def _bundle(dim: int, names, moved) -> MeshBundle:
    """The bundle of CSR (offsets, values) arrays in _layouts order."""
    (offsets, cones), (coord_off, coords), *labels = moved
    return MeshBundle(Plex(dim, offsets, cones),
                      Field("coordinates", Section(coord_off[1:] - coord_off[:-1]), coords),
                      {name: Label(name, _row_ids(label_offsets), values)
                       for name, (label_offsets, values) in zip(names, labels)})


@dataclass(eq=False)
class RankLocalMesh:
    """Self-contained local mesh with its mapping back to the global chart."""

    rank: int
    bundle: MeshBundle
    local_to_global: np.ndarray
    owned_cells: np.ndarray   # local cell points owned by this rank, ascending
    ghost_points: np.ndarray  # local points owned elsewhere, ascending


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

    Each count is 8 bytes per word the migration SF's bcasts moved: topology
    one per cone entry plus one per point of metadata, coordinates and fields
    one per dof.
    """

    bytes_topology: int
    bytes_coordinates: int
    bytes_fields: int
    points_per_rank: list[int]

    @property
    def bytes_total(self) -> int:
        return self.bytes_topology + self.bytes_coordinates + self.bytes_fields

    def as_dict(self) -> dict:
        return {**asdict(self), "bytes_total": self.bytes_total}


def close_partition(plex: Plex, pmap: PartitionMap) -> tuple[StarForest, np.ndarray]:
    """Expand a cell assignment to the migration SF and the point owners.

    A rank receives the closure of every cell assigned to it plus the closure
    of every foreign cell sharing a facet with one of its cells: leaf i of
    rank r copies root (0, g), where g is the i-th lowest global point rank r
    receives.  owner[g] is the lowest rank whose own-cell closures contain g.
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
    a, b = _row_pairs(sup_offsets, ((plex.heights == 0).cumsum() - 1)[sup])
    foreign = pmap.ranks[a] != pmap.ranks[b]
    sent_cell = np.concatenate([np.arange(len(cells), dtype=np.int64), a[foreign]])
    sent_rank = np.concatenate([pmap.ranks, pmap.ranks[b[foreign]]])

    # Every (rank, point) pair the sent cells' closures cover, sorted by rank.
    sent_offsets, pts = _csr_rows(offsets, closure_pts, sent_cell)
    keys = _unique_sorted(sent_rank.repeat(sent_offsets[1:] - sent_offsets[:-1]) * chart + pts)
    ranks, pts = np.divmod(keys, chart)
    leaf_point = np.arange(keys.size) - _offsets(np.bincount(ranks, minlength=nparts))[ranks]
    return StarForest(nparts, ranks, leaf_point, np.zeros_like(ranks), pts), owner


def migrate(bundle: MeshBundle, pmap: PartitionMap, nranks: int,
            fields: Sequence[Field] | None = None,
            ) -> tuple[list[RankLocalMesh], StarForest, MigrationReport]:
    """Split a bundle into rank-local meshes plus the star forest linking them.

    One bcast over the migration SF (rank-local point -> global point) moves
    the topology, the coordinates and each label to every rank.  Fields,
    when supplied, are moved through the same SF only to be counted in the
    migration bytes (the fully allocated state a preprocessor-style start-up
    would ship), not kept; omitting them models the topology-only start-up.
    The returned point SF links every ghost point to its owner's copy.
    """
    if nranks != pmap.nparts:
        raise ValueError(f"nranks={nranks} does not match map nparts={pmap.nparts}")
    plex = bundle.plex
    chart = plex.chart_size
    for f in fields or ():
        if f.section.num_points != chart:
            raise ValueError(f"field '{f.name}' is not laid out over this chart")
    msf, owner = close_partition(plex, pmap)
    bounds = np.searchsorted(msf.leaf_rank, np.arange(nranks + 1)).tolist()
    names = list(bundle.labels)
    moved = [msf.bcast(*layout) for layout in _layouts(bundle, names)]

    # Point SF by composition: reduce the owners' local ids onto the global
    # points, then bcast them back to every copy.
    owned = owner[msf.root_point] == msf.leaf_rank
    _, owner_point = msf.select(owned).reduce(
        Section(np.ones(np.count_nonzero(owned))), msf.leaf_point[owned], chart)
    _, owner_point = msf.bcast(Section(np.ones(chart)), owner_point)
    ghost = ~owned
    sf = StarForest(nranks, msf.leaf_rank[ghost], msf.leaf_point[ghost],
                    owner[msf.root_point[ghost]], owner_point[ghost])

    owned_cell = owned & (plex.heights[msf.root_point] == 0)
    local_of = np.empty(chart, dtype=np.int64)
    locals_ = []
    for r, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        rank_moved = [(o[lo:hi + 1] - o[lo], v[o[lo]:o[hi]]) for o, v in moved]
        # Cones in rank-local ids.  Every cone point of a point the rank
        # receives lies in a received closure, so local_of never serves an
        # entry left by an earlier rank.
        local_of[msf.root_point[lo:hi]] = msf.leaf_point[lo:hi]
        rank_moved[0] = (rank_moved[0][0], local_of[rank_moved[0][1]])
        locals_.append(RankLocalMesh(
            rank=r, bundle=_bundle(plex.dim, names, rank_moved),
            local_to_global=msf.root_point[lo:hi],
            owned_cells=owned_cell[lo:hi].nonzero()[0],
            ghost_points=ghost[lo:hi].nonzero()[0]))

    report = MigrationReport(
        bytes_topology=8 * (moved[0][1].size + msf.leaf_point.size),
        bytes_coordinates=8 * moved[1][1].size,
        bytes_fields=8 * sum(msf.bcast(f.section, f.values)[1].size for f in fields or ()),
        points_per_rank=np.diff(bounds).tolist(),
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
    s = sf._rank_slice(local.rank)
    if not np.array_equal(sf.leaf_point[s], local.ghost_points):
        raise ValueError("star forest leaves do not match the ghost point set")

    order = np.lexsort((sf.root_point[s], sf.root_rank[s]))
    ghosts = sf.leaf_point[s][order]
    owned = np.ones(n, dtype=bool)
    owned[ghosts] = False
    owned = owned.nonzero()[0]
    has_dofs = section.dofs[owned] > 0
    perm = Permutation.from_new_order(
        np.concatenate([owned[has_dofs], owned[~has_dofs], ghosts]))

    n_owned = int(section.dofs[owned].sum())
    receives = list(zip(perm.forward[ghosts].tolist(), sf.root_rank[s][order].tolist(),
                        sf.root_point[s][order].tolist()))
    return Halo(n_owned=n_owned, receives=receives), perm


def gather_to_root(locals_: Sequence[RankLocalMesh], sf: StarForest) -> MeshBundle:
    """Reassemble the original bundle from a complete distribution.

    Each rank owns the points it does not list in ``ghost_points`` (``sf``
    is not read), and every global point must have exactly one owner: the
    owned leaves of the migration SF rebuilt from ``local_to_global`` are
    reduced onto the global chart, so cones, coordinates and labels come
    from the owners in the pre-migration numbering exactly.
    """
    locals_ = sorted(locals_, key=lambda lm: lm.rank)
    names = sorted({name for lm in locals_ for name in lm.bundle.labels})
    chart = 1 + max(int(lm.local_to_global.max(initial=-1)) for lm in locals_)
    msf = _migration_sf([lm.rank for lm in locals_], [lm.local_to_global for lm in locals_])
    owned = np.ones(msf.leaf_point.size, dtype=bool)
    for lm, start in zip(locals_, _offsets([lm.local_to_global.size for lm in locals_])):
        owned[start + lm.ghost_points] = False
    owned_sf = msf.select(owned)

    moved = []
    for k, parts in enumerate(zip(*(_layouts(lm.bundle, names) for lm in locals_))):
        offsets = _offsets(np.concatenate([sec.dofs for sec, _ in parts]))
        # Cones (k == 0) in global ids.
        values = np.concatenate([lm.local_to_global[v] if k == 0 else v
                                 for lm, (_, v) in zip(locals_, parts)])
        offsets, values = _csr_rows(offsets, values, owned.nonzero()[0])
        moved.append(owned_sf.reduce(Section(offsets[1:] - offsets[:-1]), values, chart))
    return _bundle(locals_[0].bundle.dim, names, moved)

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
from .plex import (Label, Plex, _csr_rows, _indices, _offsets, _row_ids, _stable_order,
                   _unique_sorted)
from .section import Field, Section


class StarForest:
    """Star forest: every leaf (leaf_rank, leaf_point) copies one root
    (root_rank, root_point).

    Flat int64 arrays sorted by (leaf_rank, leaf_point), the PetscSF
    ilocal/iremote layout.  bcast addresses roots by root_point, so it moves
    data of one root chart: the migration SF's, whose roots are the points of
    the undistributed mesh.  Ranks lie in [0, nranks) and points are
    non-negative, which bounds every (rank, point) sort key.
    """

    def __init__(self, nranks: int, leaf_rank, leaf_point, root_rank, root_point):
        names = ("leaf ranks", "leaf points", "root ranks", "root points")
        arrays = [_indices(what, a, bound) for what, a, bound in
                  zip(names, (leaf_rank, leaf_point, root_rank, root_point),
                      (nranks, None, nranks, None))]
        if len({a.size for a in arrays}) > 1:
            raise ValueError(f"{', '.join(names)} of unequal lengths {[a.size for a in arrays]}")
        base = 1 + int(arrays[1].max(initial=0))
        key = arrays[0] * base + arrays[1]
        if (key[1:] < key[:-1]).any():
            arrays = [a[_stable_order(key, nranks * base)] for a in arrays]
        self.nranks = nranks
        self.leaf_rank, self.leaf_point, self.root_rank, self.root_point = arrays

    def _rank_slice(self, rank: int) -> slice:
        return slice(*np.searchsorted(self.leaf_rank, [rank, rank + 1]).tolist())

    def rank_leaves(self, rank: int) -> list[tuple[int, int, int]]:
        """(leaf point, root rank, root point) of each leaf on a rank."""
        s = self._rank_slice(rank)
        return list(zip(self.leaf_point[s].tolist(), self.root_rank[s].tolist(),
                        self.root_point[s].tolist()))

    def bcast(self, section: Section, values: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
        """Each leaf's root block of a Section-laid root array, as CSR in leaf order."""
        return _csr_rows(section.offsets, values, self.root_point)


def _owned_leaf(root_point: np.ndarray, owned: np.ndarray, nroots: int) -> np.ndarray:
    """Each global point's leaf: the leaves where owned holds copy [0, nroots) once each."""
    leaves = owned.nonzero()[0]
    claimed = np.bincount(root_point[leaves], minlength=nroots)
    if (claimed != 1).any():
        if (claimed > 1).any():
            raise ValueError("inconsistent ownership: a point is claimed by two ranks")
        raise ValueError("incomplete distribution: a point is owned by no rank")
    leaf = np.empty(nroots, dtype=np.int64)
    leaf[root_point[leaves]] = leaves
    return leaf


def _layouts(bundle: MeshBundle, names) -> list[tuple[Section, np.ndarray]]:
    """A bundle's data as Section-laid arrays over its chart: cones,
    coordinates, then the values of each named label."""
    plex, coords = bundle.plex, bundle.coordinates
    labels = [bundle.labels.get(name, Label(name)) for name in names]
    return [(Section(plex._cone_offsets[1:] - plex._cone_offsets[:-1]), plex._cone_targets),
            (coords.section, coords.values),
            *((Section(np.bincount(lab.points, minlength=plex.chart_size)), lab.values)
              for lab in labels)]


def _bundle(plex: Plex, names, moved) -> MeshBundle:
    """The bundle of a plex and CSR (offsets, values) arrays in _layouts
    order after the cones."""
    (coord_off, coords), *labels = moved
    return MeshBundle(plex,
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

    Each count is 8 bytes per word a bcast over the migration SF moves: one
    per cone entry and per point for topology, one per dof for the rest.
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

    # Lowest-rank ownership, carried down from the cells one support round
    # per height, the longest path up from a point to a cell.
    owner = np.full(chart, nparts, dtype=np.int64)
    owner[cells] = pmap.ranks
    supported = (plex.heights > 0).nonzero()[0]
    for _ in range(plex.heights.max(initial=0)):
        owner[supported] = np.minimum(owner[supported], np.minimum.reduceat(
            owner[plex._support_targets], plex._support_offsets[supported]))

    # One layer of overlap through shared facets: every cell sharing a facet
    # with a cell of another rank goes to that rank too.
    graph_offsets, b = plex._cell_graph
    a = _row_ids(graph_offsets)
    foreign = pmap.ranks[a] != pmap.ranks[b]
    sent = [_unique_sorted(np.concatenate([pmap.ranks, pmap.ranks[b[foreign]]]) * chart
                           + cells[np.concatenate([np.arange(len(cells)), a[foreign]])])]

    # Every (rank, point) pair the sent cells' closures cover, one cone round
    # per depth, sorted by rank.
    for _ in range(plex.depths.max(initial=0)):
        ranks, pts = np.divmod(sent[-1], chart)
        offsets, pts = _csr_rows(plex._cone_offsets, plex._cone_targets, pts)
        sent.append(_unique_sorted(ranks.repeat(offsets[1:] - offsets[:-1]) * chart + pts))
    keys = _unique_sorted(np.concatenate(sent))
    ranks, pts = np.divmod(keys, chart)
    leaf_point = np.arange(keys.size) - _offsets(np.bincount(ranks, minlength=nparts))[ranks]
    return StarForest(nparts, ranks, leaf_point, np.zeros_like(ranks), pts), owner


def migrate(bundle: MeshBundle, pmap: PartitionMap, nranks: int,
            fields: Sequence[Field] | None = None,
            ) -> tuple[list[RankLocalMesh], StarForest, MigrationReport]:
    """Split a bundle into rank-local meshes plus the star forest linking them.

    One bcast over the migration SF (rank-local point -> global point) moves
    the topology, the coordinates and each label to every rank.  Fields,
    when supplied, only add the dofs such a bcast would ship to the migration
    bytes (the fully allocated state of a preprocessor-style start-up), and
    omitting them models the topology-only start-up.
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

    # Point SF: every global point takes the local id of its one owned leaf,
    # and each ghost leaf reads it from there.
    owned = owner[msf.root_point] == msf.leaf_rank
    owner_point = msf.leaf_point[_owned_leaf(msf.root_point, owned, chart)]
    ghost = ~owned
    root = msf.root_point[ghost]
    sf = StarForest(nranks, msf.leaf_rank[ghost], msf.leaf_point[ghost],
                    owner[root], owner_point[root])

    # Each rank's plex is cut from the global one over its leaves, which
    # ascend by global point and number the rank's points in that order.
    owned_cell = owned & (plex.heights[msf.root_point] == 0)
    locals_ = [RankLocalMesh(
        rank=r,
        bundle=_bundle(rank_plex, names, [(o[lo:hi + 1] - o[lo], v[o[lo]:o[hi]])
                                          for o, v in moved[1:]]),
        local_to_global=msf.root_point[lo:hi],
        owned_cells=owned_cell[lo:hi].nonzero()[0],
        ghost_points=ghost[lo:hi].nonzero()[0])
        for r, (rank_plex, lo, hi) in enumerate(zip(
            plex._cut(msf.root_point, bounds, moved[0]), bounds[:-1], bounds[1:]))]

    report = MigrationReport(
        bytes_topology=8 * (moved[0][1].size + msf.leaf_point.size),
        bytes_coordinates=8 * moved[1][1].size,
        bytes_fields=8 * sum(int(f.section.dofs[msf.root_point].sum()) for f in fields or ()),
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

    # The star forest holds ranks in [0, nranks) and non-negative points.
    root_rank, root_point = sf.root_rank[s], sf.root_point[s]
    base = 1 + int(root_point.max(initial=0))
    order = _stable_order(root_rank * base + root_point, sf.nranks * base)
    ghosts = sf.leaf_point[s][order]
    owned = np.ones(n, dtype=bool)
    owned[ghosts] = False
    owned = owned.nonzero()[0]
    has_dofs = section.dofs[owned] > 0
    perm = Permutation.from_new_order(
        np.concatenate([owned[has_dofs], owned[~has_dofs], ghosts]))

    n_owned = int(section.dofs[owned].sum())
    receives = list(zip(perm.forward[ghosts].tolist(), root_rank[order].tolist(),
                        root_point[order].tolist()))
    return Halo(n_owned=n_owned, receives=receives), perm


def gather_to_root(locals_: Sequence[RankLocalMesh], sf: StarForest) -> MeshBundle:
    """Reassemble the original bundle from a complete distribution.

    Each rank owns the points it does not list in ``ghost_points`` (``sf``
    is not read), and every global point must have exactly one owner, whose
    leaf each datum is gathered from: cones, coordinates and labels come from
    the owners in the pre-migration numbering exactly.
    """
    if not locals_:
        raise ValueError("no rank-local meshes to gather")
    names = sorted({name for lm in locals_ for name in lm.bundle.labels})
    charts = [lm.bundle.plex.chart_size for lm in locals_]
    for lm, chart in zip(locals_, charts):
        if len(lm.local_to_global) != chart:
            raise ValueError(f"rank {lm.rank}: local_to_global of length "
                             f"{len(lm.local_to_global)} for a chart of {chart} points")
    root_point = _indices("local_to_global",
                          np.concatenate([lm.local_to_global for lm in locals_]))
    starts = _offsets(charts)
    owned = np.ones(root_point.size, dtype=bool)
    owned[np.concatenate([start + _indices(f"rank {lm.rank} ghost points", lm.ghost_points, chart)
                          for lm, start, chart in zip(locals_, starts, charts)])] = False
    leaf = _owned_leaf(root_point, owned, 1 + int(root_point.max(initial=-1)))

    # Each datum concatenated over the ranks, cones (k == 0) in global ids.
    moved = [_csr_rows(_offsets(np.concatenate([sec.dofs for sec, _ in parts])),
                       np.concatenate([root_point[start + v] if k == 0 else v
                                       for start, (_, v) in zip(starts, parts)]), leaf)
             for k, parts in enumerate(zip(*(_layouts(lm.bundle, names) for lm in locals_)))]
    return _bundle(Plex(locals_[0].bundle.dim, *moved[0]), names, moved[1:])

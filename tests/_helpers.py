"""Shared oracles for the test suite."""

from __future__ import annotations

import numpy as np

import plexmesh as pm


def canonical(bundle: pm.MeshBundle):
    """Renumbering-independent form: everything keyed by vertex coordinates."""
    raw = pm.bundle_to_raw(bundle)
    vc = [tuple(x) for x in raw.vertices.tolist()]
    return (
        bundle.dim,
        sorted(vc),
        sorted(tuple(sorted(vc[v] for v in c)) for c in raw.cells.tolist()),
        sorted(raw.cell_region_ids.tolist()),
        sorted((int(m), tuple(sorted(vc[v] for v in f)))
               for f, m in zip(raw.boundary_facets.tolist(),
                               raw.boundary_markers.tolist())),
    )


def plex_from_cones(dim: int, cones) -> pm.Plex:
    """Plex over per-point cone sequences: the cone of point p is cones[p]."""
    offsets = np.cumsum([0] + [len(c) for c in cones])
    return pm.Plex(dim, offsets, [q for c in cones for q in c])


def rank_points(msf, owner, rank: int):
    """Points a rank receives and the ones it owns, from close_partition's
    (migration SF, owner) pair, as sorted lists of global ids."""
    points = msf.root_point[msf.leaf_rank == rank]
    return points.tolist(), points[owner[points] == rank].tolist()


def dof_indices(psec, perm, ghost_points):
    """Dof index lists (owned, ghost) of a permuted section."""
    owned, ghost = [], []
    for new_p in range(psec.num_points):
        idx = list(range(psec.offset(new_p), psec.offset(new_p) + psec.dof(new_p)))
        (ghost if int(perm.inverse[new_p]) in ghost_points else owned).extend(idx)
    return owned, ghost


def reordered_bandwidth(pattern, rho) -> int:
    """Bandwidth the pattern would have under vertex relabeling rho."""
    return max(abs(int(rho[i]) - int(rho[j]))
               for i in range(pattern.n) for j in pattern.row(i))


def valid_nparts(ncells: int, wanted=(1, 2, 3, 4, 8)):
    """The acceptance nparts sweep, restricted to what partition_cells accepts."""
    return [n for n in wanted if n <= ncells]

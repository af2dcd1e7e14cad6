"""Deterministic structured mesh builders for tests, benchmarks and demos."""

from __future__ import annotations

import numpy as np

from .gmsh_io import RawMesh

# The two triangles of a quad (a, b, c, d) split along its a-c diagonal.
_QUAD_TRIS = np.array([(0, 1, 2), (0, 2, 3)])

_BOX_TETS = np.array([  # Kuhn decomposition of the unit cube into six tetrahedra
    (0, 1, 3, 7), (0, 1, 7, 5), (0, 5, 7, 4),
    (0, 3, 2, 7), (0, 6, 4, 7), (0, 2, 6, 7),
])


def _lattice(*counts: int) -> tuple[np.ndarray, np.ndarray]:
    """Vertices of a unit-cube lattice with counts[a] intervals along axis a,
    numbered x fastest, and their ids as an array indexed [..., y, x]."""
    axes = [np.linspace(0.0, 1.0, n + 1) for n in counts]
    grids = np.meshgrid(*axes[::-1], indexing="ij")[::-1]
    ids = np.arange(grids[0].size).reshape(grids[0].shape)
    return np.stack(grids, axis=-1).reshape(-1, len(counts)), ids


def _quads(ids: np.ndarray) -> np.ndarray:
    """(a, b, c, d) corners of every quad of a 2D id sheet indexed [v, u], row
    by row; a is (u, v), b is (u + 1, v), c is (u + 1, v + 1), d is (u, v + 1)."""
    return np.stack([ids[:-1, :-1], ids[:-1, 1:], ids[1:, 1:], ids[1:, :-1]],
                    axis=-1).reshape(-1, 4)


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
    verts, ids = _lattice(nx, ny)
    cells = _quads(ids)[:, _QUAD_TRIS].reshape(-1, 3)
    sides = (ids[0], ids[:, -1], ids[-1], ids[:, 0])  # each in ascending order
    return RawMesh(dim=2, vertices=verts, cells=cells,
                   cell_region_ids=np.zeros(len(cells), dtype=np.int64),
                   boundary_facets=np.concatenate(
                       [np.column_stack([s[:-1], s[1:]]) for s in sides]),
                   boundary_markers=np.repeat([1, 2, 3, 4], [nx, ny, nx, ny]))


def tet_box(nx: int, ny: int, nz: int) -> RawMesh:
    """Unit cube as an nx x ny x nz grid of boxes, six tetrahedra each.

    Boundary triangles carry markers 1..6 for the x=0, x=1, y=0, y=1, z=0,
    z=1 faces respectively.
    """
    if min(nx, ny, nz) < 1:
        raise ValueError("grid needs at least one box per direction")
    verts, ids = _lattice(nx, ny, nz)
    # Box corner a + 2b + 4c is the vertex offset by (a, b, c) from its lowest.
    corners = np.stack([ids[c:c + nz, b:b + ny, a:a + nx]
                        for c in (0, 1) for b in (0, 1) for a in (0, 1)], axis=-1)
    cells = corners.reshape(-1, 8)[:, _BOX_TETS].reshape(-1, 4)

    # Every Kuhn tetrahedron holds the box diagonal 0-7, so each box face
    # splits along the diagonal from its lowest to its highest corner, a-c of
    # its quad; an axis's two sides alternate quad by quad, ids ascending.
    bfacets, markers = [], []
    sides = ((ids[:, :, 0], ids[:, :, -1]), (ids[:, 0], ids[:, -1]), (ids[0], ids[-1]))
    for axis, (low, high) in enumerate(sides):
        quads = np.stack([_quads(low), _quads(high)], axis=1)
        bfacets.append(np.sort(quads[:, :, _QUAD_TRIS].reshape(-1, 3), axis=1))
        markers.append(np.tile(np.repeat([2 * axis + 1, 2 * axis + 2], 2), len(quads)))
    return RawMesh(dim=3, vertices=verts, cells=cells,
                   cell_region_ids=np.zeros(len(cells), dtype=np.int64),
                   boundary_facets=np.concatenate(bfacets),
                   boundary_markers=np.concatenate(markers))

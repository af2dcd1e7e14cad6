"""Gmsh MSH 2.2 ASCII reading/writing and raw-mesh <-> plex conversion.

Only the legacy 2.2 ASCII flavour is handled; anything else (4.x headers,
binary flag) is rejected with a clear error.  Node ids are 1-based in the
file and 0-based everywhere else.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import IO

import numpy as np

from .plex import Label, Plex, build_from_cells
from .section import Field, section_from_depth_dofs

# Gmsh element type -> (topological dimension, node count)
_ELEMENT_TYPES = {1: (1, 2), 2: (2, 3), 4: (3, 4)}
_TYPE_FOR_DIM = {1: 1, 2: 2, 3: 4}
_GMSH_POINT = 15


class GmshParseError(ValueError):
    """Raised for malformed or unsupported MSH input."""


def _shaped(arr, width: int, dtype, what: str) -> np.ndarray:
    out = np.asarray(arr, dtype=dtype)
    if out.size == 0:
        return out.reshape(0, width)
    if out.ndim != 2 or out.shape[1] != width:
        raise ValueError(f"{what} must have shape (n, {width}), got {out.shape}")
    return out


@dataclass(eq=False)
class RawMesh:
    """A cell-vertex mesh as read from disk, before plex interpolation."""

    dim: int
    vertices: np.ndarray        # (nv, dim) float64
    cells: np.ndarray           # (nc, dim + 1) int64 vertex ids
    cell_region_ids: np.ndarray   # (nc,) int64
    boundary_facets: np.ndarray   # (nb, dim) int64 vertex ids
    boundary_markers: np.ndarray  # (nb,) int64

    def __post_init__(self):
        self.vertices = _shaped(self.vertices, self.dim, np.float64, "vertices")
        self.cells = _shaped(self.cells, self.dim + 1, np.int64, "cells")
        self.cell_region_ids = np.asarray(self.cell_region_ids, dtype=np.int64)
        self.boundary_facets = _shaped(self.boundary_facets, max(self.dim, 1),
                                       np.int64, "boundary_facets")
        self.boundary_markers = np.asarray(self.boundary_markers, dtype=np.int64)
        nv = len(self.vertices)
        for arr in (self.cells, self.boundary_facets):
            if arr.size and (arr.min() < 0 or arr.max() >= nv):
                raise ValueError("vertex id out of range")
        if len(self.cell_region_ids) != len(self.cells):
            raise ValueError("one region id per cell required")
        if len(self.boundary_markers) != len(self.boundary_facets):
            raise ValueError("one marker per boundary facet required")

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_cells(self) -> int:
        return len(self.cells)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RawMesh):
            return NotImplemented
        return (self.dim == other.dim
                and np.array_equal(self.vertices, other.vertices)
                and np.array_equal(self.cells, other.cells)
                and np.array_equal(self.cell_region_ids, other.cell_region_ids)
                and np.array_equal(self.boundary_facets, other.boundary_facets)
                and np.array_equal(self.boundary_markers, other.boundary_markers))


@dataclass(eq=False)
class MeshBundle:
    """A plex plus vertex coordinates and region/boundary labels."""

    plex: Plex
    coordinates: Field
    labels: dict[str, Label] = field(default_factory=dict)

    def __post_init__(self):
        sec = self.coordinates.section
        dim = self.plex.dim
        on_vertex = sec.dofs[self.plex.depth_stratum(0)]
        if not (np.all(on_vertex == dim) and sec.total_size == on_vertex.size * dim):
            raise ValueError("coordinates must carry dim dofs per vertex only")

    @property
    def dim(self) -> int:
        return self.plex.dim

    def vertex_coords(self) -> np.ndarray:
        """Coordinates as an (nv, dim) array in ascending vertex-point order."""
        return self.coordinates.values.reshape(-1, self.dim)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MeshBundle):
            return NotImplemented
        return (self.plex == other.plex
                and self.coordinates == other.coordinates
                and self.labels == other.labels)


# -- reading -------------------------------------------------------------------


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


def read_gmsh_file(path) -> RawMesh:
    with open(path, "r", encoding="ascii") as fh:
        return read_gmsh(fh)


# -- writing -------------------------------------------------------------------


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


def write_gmsh_file(mesh: RawMesh, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(write_gmsh(mesh))


# -- raw <-> bundle -------------------------------------------------------------


def _vertex_set_keys(rows: np.ndarray) -> np.ndarray:
    """One sortable key per row of vertex ids, equal exactly for equal vertex sets."""
    rows = np.ascontiguousarray(np.sort(rows, axis=1), dtype=np.int64)
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).reshape(-1)


def _vertex_table(plex: Plex, points: np.ndarray) -> np.ndarray:
    """(len(points), k) vertex numbers of each point's closure, closure order."""
    offsets, verts = plex.vertex_closures(points)
    sizes = np.diff(offsets)
    if sizes.size and np.any(sizes != sizes[0]):
        raise ValueError("points with differing vertex counts")
    return verts.reshape(len(points), sizes[0] if sizes.size else 0)


def raw_to_bundle(mesh: RawMesh) -> MeshBundle:
    """Interpolate a RawMesh and attach coordinates, region and boundary labels.

    Boundary facets are matched to plex points by sorted vertex tuple; a facet
    absent from the interpolated mesh means the input is non-conforming.
    """
    plex = build_from_cells(mesh.cells, mesh.num_vertices, mesh.dim)
    sec = section_from_depth_dofs(plex, [mesh.dim] + [0] * mesh.dim)
    coords = Field("coordinates", sec, mesh.vertices.ravel().copy())

    region = Label.from_arrays("region", np.arange(mesh.num_cells), mesh.cell_region_ids)

    boundary = Label("boundary")
    if len(mesh.boundary_facets):
        # Vertex v is point num_cells + v in a built plex, so closure vertex
        # numbers are input vertex ids.
        candidates = plex.height_stratum(1)
        keys = _vertex_set_keys(_vertex_table(plex, candidates))
        order = np.argsort(keys)
        wanted = _vertex_set_keys(mesh.boundary_facets)
        at = np.minimum(np.searchsorted(keys[order], wanted), len(keys) - 1)
        missing = keys[order[at]] != wanted
        if missing.any():
            key = tuple(sorted(mesh.boundary_facets[np.argmax(missing)].tolist()))
            raise ValueError(
                f"boundary facet {key} not found in the interpolated mesh")
        found = order[at]
        boundary = Label.from_arrays("boundary", candidates[found],
                                     mesh.boundary_markers)

    return MeshBundle(plex, coords, {"region": region, "boundary": boundary})


def bundle_to_raw(bundle: MeshBundle) -> RawMesh:
    """Extract the cell-vertex view of a bundle (inverse of raw_to_bundle).

    Works on any bundle, including permuted or rank-local ones: vertex ids are
    assigned by ascending vertex point, cells by ascending cell point, and
    boundary facet tuples are written sorted.
    """
    plex = bundle.plex
    coords = bundle.vertex_coords()

    cell_points = plex.height_stratum(0)
    cells = _vertex_table(plex, cell_points)

    # A cell with several region values gets its largest, the last of its run.
    region = bundle.labels.get("region", Label("region"))
    last = np.ones(region.points.size, dtype=bool)
    last[:-1] = region.points[1:] != region.points[:-1]
    regions = np.zeros(len(cell_points), dtype=np.int64)
    regions[np.searchsorted(cell_points, region.points[last])] = region.values[last]

    boundary = bundle.labels.get("boundary", Label("boundary"))
    by_value = np.lexsort((boundary.points, boundary.values))
    return RawMesh(
        dim=plex.dim,
        vertices=coords,
        cells=cells,
        cell_region_ids=regions,
        boundary_facets=np.sort(_vertex_table(plex, boundary.points[by_value]), axis=1),
        boundary_markers=boundary.values[by_value],
    )

"""Gmsh MSH 2.2 ASCII reading/writing and raw-mesh <-> plex conversion.

Only the legacy 2.2 ASCII flavour is handled; anything else (4.x headers,
binary flag) is rejected with a clear error.  Node ids are 1-based in the
file and 0-based everywhere else.

$Nodes and $Elements blocks are parsed and formatted as arrays with numpy:
the reader reads lines from the stream as it needs them, turns up to 512
lines of a block into arrays in one step and checks them together, going
line by line only to name the first bad line of a slice that fails; the
writer fills one %-template repeated per row, so its text is byte-identical
to formatting each line on its own.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import IO, Iterator

import numpy as np

from .plex import Label, Plex, _first_encounter_ids, _offsets, build_from_cells
from .section import Field, section_from_depth_dofs

# Gmsh element type -> (topological dimension, node count)
_GMSH_POINT = 15
_ELEMENT_TYPES = {1: (1, 2), 2: (2, 3), 4: (3, 4), _GMSH_POINT: (0, 1)}
_TYPE_FOR_DIM = {d: t for t, (d, _) in _ELEMENT_TYPES.items()}
# The same table indexed by type number, -1 for unsupported types.
_TYPE_DIM, _TYPE_NODES = np.full((2, _GMSH_POINT + 1), -1, dtype=np.int64)
_TYPE_DIM[list(_ELEMENT_TYPES)], _TYPE_NODES[list(_ELEMENT_TYPES)] = zip(
    *_ELEMENT_TYPES.values())


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
        for name, label in self.labels.items():  # points ascend: the ends bound them
            for p in label.points[:1].tolist() + label.points[-1:].tolist():
                if not 0 <= p < self.plex.chart_size:
                    raise ValueError(f"label '{name}' marks point {p}, outside the chart")

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


def _line(lines: Iterator[str], context: str) -> str:
    line = next(lines, None)
    if line is None:
        raise GmshParseError(f"unexpected end of file while reading {context}")
    return line


def _ints(fields: list[str], context: str) -> list[int]:
    try:
        return np.array(fields, dtype=np.int64).tolist()
    except (ValueError, OverflowError):
        raise GmshParseError(
            f"non-integer field in {context} '{' '.join(fields)}'") from None


def _count(line: str, section: str) -> int:
    n = _ints([line], f"{section} count")[0]
    if n < 0:
        raise GmshParseError(f"negative {section} count {n}")
    return n


def _parse_nodes(block: list[str], n: int) -> tuple[np.ndarray, np.ndarray]:
    """Tags and (n, 3) coordinates of n lines of a $Nodes block."""
    rows = list(map(str.split, block))
    if len(rows) == n and set(map(len, rows)) <= {4}:
        fields = list(chain.from_iterable(rows))
        try:
            tags = np.array(fields[::4], dtype=np.int64)
            del fields[::4]
            return tags, np.array(fields, dtype=np.float64).reshape(n, 3)
        except (ValueError, OverflowError):
            pass
    # Error path only: name the first bad line.
    for line, r in zip(block, rows):
        try:
            if len(r) != 4:
                raise ValueError
            np.array(r[:1], dtype=np.int64), np.array(r[1:], dtype=np.float64)
        except (ValueError, OverflowError):
            raise GmshParseError(f"malformed node line '{line}'") from None
    raise GmshParseError("unexpected end of file while reading $Nodes")


def _parse_elements(block: list[str], n: int) -> tuple[np.ndarray, ...]:
    """Type, first tag (0 if none) and node count of each of n lines of an
    $Elements block, plus all their node tags end to end.

    Point lines are not checked: they only matter in a 1D mesh, which is
    known once every block is read.
    """
    rows = list(map(str.split, block))
    sizes = np.array(list(map(len, rows)), dtype=np.int64)
    try:
        fields = np.array(list(chain.from_iterable(rows)), dtype=np.int64)
    except (ValueError, OverflowError):
        fields = None
    if fields is not None and len(rows) == n and (sizes >= 3).all():
        start = _offsets(sizes)[:-1]
        etype, ntags = fields[start + 1], fields[start + 2]
        in_table = (etype >= 0) & (etype < len(_TYPE_NODES))
        want = np.where(in_table, _TYPE_NODES[np.where(in_table, etype, 0)], -1)
        nnodes = np.maximum(sizes - 3 - ntags, 0)
        if ((ntags >= 0) & ((etype == _GMSH_POINT) | (nnodes == want))).all():
            tagged = (ntags > 0) & (sizes > 3)
            first = np.where(tagged, fields[np.where(tagged, start + 3, 0)], 0)
            node_off = _offsets(nnodes)
            at = (np.arange(node_off[-1], dtype=np.int64)
                  + np.repeat(start + 3 + ntags - node_off[:-1], nnodes))
            return etype, first, nnodes, fields[at]
    # Error path only: name the first bad line.
    for parts in rows:
        parts = _ints(parts, "element line")
        if len(parts) < 3 or parts[2] < 0:
            raise GmshParseError("malformed element line")
        etype, ntags = parts[1], parts[2]
        if etype == _GMSH_POINT:
            continue
        if etype not in _ELEMENT_TYPES:
            raise GmshParseError(f"unsupported element type {etype}")
        nnodes = _ELEMENT_TYPES[etype][1]
        if len(parts[3 + ntags:]) != nnodes:
            raise GmshParseError(
                f"type-{etype} element needs {nnodes} nodes, got {len(parts[3 + ntags:])}")
    raise GmshParseError("unexpected end of file while reading $Elements")


_BLOCKS = {"Nodes": _parse_nodes, "Elements": _parse_elements}
# Lines of a block parsed in one step; bounds the reader's transient memory.
_SLICE_LINES = 512


def read_gmsh(stream: IO[str]) -> RawMesh:
    """Parse an MSH 2.2 ASCII stream into a RawMesh.

    The mesh dimension is the highest element dimension present; elements of
    that dimension become cells, those one lower become boundary facets with
    their first tag as marker.  Point elements (type 15) are therefore the
    boundary facets of a 1D mesh; in 2D and 3D they are skipped, as is
    anything else of lower dimension.  A file of points alone has no cells.
    """
    # Stripped non-blank lines, read from the stream as they are needed.
    lines = filter(None, map(str.strip, stream))
    blocks: dict[str, list] = {"Nodes": [], "Elements": []}
    saw_format = False
    for line in lines:
        if not line.startswith("$"):
            raise GmshParseError(f"expected a section header, got '{line}'")
        section = line[1:]

        if section == "MeshFormat":
            parts = _line(lines, line).split()
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
            if _line(lines, line) != "$EndMeshFormat":
                raise GmshParseError("missing $EndMeshFormat")
            saw_format = True

        elif section in _BLOCKS:
            n = _count(_line(lines, line), line)
            # Slice by slice, so that only one slice's strings are held at
            # once; a block of 0 lines is one empty slice.
            for k in range(0, max(n, 1), _SLICE_LINES):
                m = min(_SLICE_LINES, n - k)
                blocks[section].append(_BLOCKS[section](list(islice(lines, m)), m))
            if _line(lines, line) != f"$End{section}":
                raise GmshParseError(f"missing $End{section}")

        # Unknown section ($PhysicalNames, ...): skip to its terminator.
        elif f"$End{section}" not in lines:
            raise GmshParseError(f"missing $End{section}")

    if not saw_format:
        raise GmshParseError("missing $MeshFormat section")
    if not blocks["Nodes"]:
        raise GmshParseError("missing $Nodes section")
    elements = [np.concatenate(col) for col in zip(*blocks["Elements"])]
    if not elements or (elements[0] == _GMSH_POINT).all():
        raise GmshParseError("no cells of maximal dimension")
    etype, first, nnodes, refs = elements
    tags, xyz = (np.concatenate(col) for col in zip(*blocks["Nodes"]))

    order = np.argsort(tags, kind="stable")
    sorted_tags = tags[order]
    repeated = sorted_tags[1:] == sorted_tags[:-1]
    if repeated.any():
        # The first node whose tag a later node repeats.
        raise GmshParseError(f"duplicate node tag {tags[order[:-1][repeated].min()]}")
    finite = np.isfinite(xyz).all(axis=1)
    if not finite.all():
        raise GmshParseError(
            f"node {tags[np.argmin(finite)]} has a non-finite coordinate")

    point = etype == _GMSH_POINT
    edim = _TYPE_DIM[etype]
    dim = int(edim[~point].max())
    if dim == 1 and (nnodes[point] != 1).any():
        bad = nnodes[point][nnodes[point] != 1][0]
        raise GmshParseError(f"type-{_GMSH_POINT} element needs 1 nodes, got {bad}")
    used = ~point | (dim == 1)
    refs = refs[np.repeat(used, nnodes)]
    at = np.searchsorted(sorted_tags, refs)
    found = at < len(tags)
    found[found] = sorted_tags[at[found]] == refs[found]
    if not found.all():
        raise GmshParseError(f"element references unknown node {refs[np.argmin(found)]}")
    verts = order[at]

    edim, first = edim[used], first[used]
    start = _offsets(nnodes[used])[:-1]
    cells, facets = edim == dim, edim == dim - 1
    return RawMesh(
        dim=dim,
        vertices=xyz[:, :dim],
        cells=verts[start[cells][:, None] + np.arange(dim + 1)],
        cell_region_ids=first[cells],
        boundary_facets=verts[start[facets][:, None] + np.arange(dim)],
        boundary_markers=first[facets],
    )


def read_gmsh_file(path) -> RawMesh:
    with open(path, "r", encoding="ascii") as fh:
        try:
            return read_gmsh(fh)
        except UnicodeDecodeError as exc:
            raise GmshParseError(
                f"non-ASCII byte 0x{exc.object[exc.start]:02x} in MSH file") from None


# -- writing -------------------------------------------------------------------


def _format_rows(row: str, table: np.ndarray) -> str:
    """The %-template `row` filled in for every row of a 2D table, in one step."""
    return (row * len(table)) % tuple(table.ravel().tolist())


def _element_lines(first_id: int, etype: int, tags: np.ndarray, nodes: np.ndarray) -> str:
    """Element lines numbered from first_id, each tag in both tag slots."""
    n = len(nodes)
    table = np.column_stack([np.arange(first_id, first_id + n), np.full(n, etype),
                             np.full(n, 2), tags, tags, nodes + 1])
    return _format_rows(" ".join(["%d"] * table.shape[1]) + "\n", table)


def write_gmsh(mesh: RawMesh) -> str:
    """Serialize a RawMesh as MSH 2.2 ASCII.

    Boundary facets are emitted before cells (points, type 15, in 1D), each
    with its marker (or region id) duplicated into the two conventional tag
    slots.  Coordinates are written with 16 significant digits, zero-padded
    to three components: a double needing 17 (1/6, say) reads back rounded,
    and a mesh read from a file writes back to the same bytes.
    """
    if mesh.num_vertices == 0:
        raise ValueError("refusing to write a mesh with no vertices")
    nv, nf = mesh.num_vertices, len(mesh.boundary_facets)
    nodes = np.zeros((nv, 4), dtype=np.float64)
    nodes[:, 0] = np.arange(1, nv + 1)  # exact in float64, written with %d
    nodes[:, 1:1 + mesh.dim] = mesh.vertices
    return "".join([
        f"$MeshFormat\n2.2 0 8\n$EndMeshFormat\n$Nodes\n{nv}\n",
        _format_rows("%d %.16g %.16g %.16g\n", nodes),
        f"$EndNodes\n$Elements\n{nf + mesh.num_cells}\n",
        _element_lines(1, _TYPE_FOR_DIM[mesh.dim - 1], mesh.boundary_markers,
                       mesh.boundary_facets),
        _element_lines(nf + 1, _TYPE_FOR_DIM[mesh.dim], mesh.cell_region_ids, mesh.cells),
        "$EndElements\n",
    ])


def write_gmsh_file(mesh: RawMesh, path) -> None:
    """Write over path in place, then cut to length: cutting first makes close flush.

    A write failing partway (a full disk) can leave the old file's tail."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", encoding="ascii") as fh:
        fh.write(write_gmsh(mesh))
        fh.truncate()


# -- raw <-> bundle -------------------------------------------------------------


def raw_to_bundle(mesh: RawMesh) -> MeshBundle:
    """Interpolate a RawMesh and attach coordinates, region and boundary labels.

    Boundary facets are matched to plex points by vertex set, numbered as
    interpolation numbers its entities; a facet absent from the interpolated
    mesh means the input is non-conforming.
    """
    plex = build_from_cells(mesh.cells, mesh.num_vertices, mesh.dim)
    sec = section_from_depth_dofs(plex, [mesh.dim] + [0] * mesh.dim)
    coords = Field("coordinates", sec, mesh.vertices.ravel().copy())

    region = Label.from_arrays("region", np.arange(mesh.num_cells), mesh.cell_region_ids)

    # Vertex v is point num_cells + v in a built plex, so closure vertex
    # numbers are input vertex ids.  Candidates are distinct, so candidate k
    # is numbered k, and an input facet numbered higher is not in the mesh.
    candidates = plex.height_stratum(1)
    found = _first_encounter_ids(np.concatenate(
        [plex.vertex_closures(candidates), mesh.boundary_facets]))[0][len(candidates):]
    missing = found >= len(candidates)
    if missing.any():
        key = tuple(sorted(mesh.boundary_facets[np.argmax(missing)].tolist()))
        raise ValueError(f"boundary facet {key} not found in the interpolated mesh")
    boundary = Label.from_arrays("boundary", candidates[found], mesh.boundary_markers)

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
    cells = plex.vertex_closures(cell_points)

    # A cell with several region values gets its largest, the last of its run.
    region = bundle.labels.get("region", Label("region"))
    not_cell = plex.heights[region.points] != 0
    if not_cell.any():
        raise ValueError(f"region value on point {region.points[not_cell.argmax()]}, not a cell")
    last = np.ones(region.points.size, dtype=bool)
    last[:-1] = region.points[1:] != region.points[:-1]
    regions = np.zeros(len(cell_points), dtype=np.int64)
    regions[np.searchsorted(cell_points, region.points[last])] = region.values[last]

    boundary = bundle.labels.get("boundary", Label("boundary"))
    not_facet = plex.heights[boundary.points] != 1
    if not_facet.any():
        raise ValueError(
            f"boundary value on point {boundary.points[not_facet.argmax()]}, not a facet")
    by_value = np.lexsort((boundary.points, boundary.values))
    return RawMesh(
        dim=plex.dim,
        vertices=coords,
        cells=cells,
        cell_region_ids=regions,
        boundary_facets=np.sort(plex.vertex_closures(boundary.points[by_value]), axis=1),
        boundary_markers=boundary.values[by_value],
    )

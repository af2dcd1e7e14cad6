"""Gmsh MSH 2.2 ASCII reading/writing and raw-mesh <-> plex conversion.

Only the legacy 2.2 ASCII flavour is handled; anything else (4.x headers,
binary flag) is rejected with a clear error.  Node ids are 1-based in the
file and 0-based everywhere else.

The reader takes the whole text as bytes and parses each $Nodes and
$Elements block from them in chunks of whole lines, 64 KiB at most, with
one numpy call each (loadtxt for nodes, fromstring for elements).  One
grammar holds for every block line: printable ASCII fields between
separators (space, tab, VT, FF), any indentation, trailing space or blank
lines, and integer fields (node tags, every element field) of an optional
'-' and 1 to 18 digits.  Any other line is refused, and the error names the
first bad line in file order, found by running the same parse on each line
of the refused chunk.  Node tags that fill one range index a map; others are
searched.  The writer's text is byte-identical to formatting each line on
its own: node lines fill one %-template repeated per row, and integer
tables (element blocks, and the spy and partition CSVs elsewhere)
are written by _int_rows, one digit pass per byte column."""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import IO

import numpy as np

from .plex import (Label, Plex, _indices, _lex_key, _offsets, _sorted_rows, _whole_numbers,
                   build_from_cells)
from .section import Field, section_from_depth_dofs

# Gmsh element type -> topological dimension d; a d-simplex has d + 1 nodes.
_GMSH_POINT = 15
_ELEMENT_TYPES = {1: 1, 2: 2, 4: 3, _GMSH_POINT: 0}
_TYPE_FOR_DIM = {d: t for t, d in _ELEMENT_TYPES.items()}
# The same table indexed by type number, -1 for unsupported types.
_TYPE_DIM = np.full(_GMSH_POINT + 1, -1, dtype=np.int64)
_TYPE_DIM[list(_ELEMENT_TYPES)] = list(_ELEMENT_TYPES.values())


class GmshParseError(ValueError):
    """Raised for malformed or unsupported MSH input."""


def _shaped(arr, width: int, what: str, bound=None) -> np.ndarray:
    """arr as an (n, width) table: of int64 indices in [0, bound), or of
    float64 without a bound."""
    out = np.asarray(arr)
    if out.size == 0:
        out = out.reshape(0, width)
    elif out.ndim != 2 or out.shape[1] != width:
        raise ValueError(f"{what} must have shape (n, {width}), got {out.shape}")
    return (out.astype(np.float64, copy=False) if bound is None
            else _indices(what, out.ravel(), bound).reshape(-1, width))


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
        if self.dim not in (1, 2, 3):
            raise ValueError(f"unsupported mesh dimension {self.dim}")
        self.vertices = _shaped(self.vertices, self.dim, "vertices")
        nv = len(self.vertices)
        self.cells = _shaped(self.cells, self.dim + 1, "cells", nv)
        self.cell_region_ids = _whole_numbers("cell_region_ids", self.cell_region_ids)
        self.boundary_facets = _shaped(self.boundary_facets, self.dim, "boundary_facets", nv)
        self.boundary_markers = _whole_numbers("boundary_markers", self.boundary_markers)
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
        if sec.num_points != self.plex.chart_size:
            raise ValueError(f"coordinate section covers {sec.num_points} points, "
                             f"the plex chart {self.plex.chart_size}")
        dim = self.plex.dim
        on_vertex = sec.dofs[self.plex.depth_stratum(0)]
        if not (np.all(on_vertex == dim) and sec.total_size == on_vertex.size * dim):
            raise ValueError("coordinates must carry dim dofs per vertex only")
        for name, label in self.labels.items():
            points = np.asarray(label.points)
            if points.ndim != 1 or points.dtype.kind not in "iu":
                raise ValueError(f"label '{name}': points of shape {points.shape} and dtype "
                                 f"{points.dtype}, not a 1-D integer array")
            if (points[1:] < points[:-1]).any():
                raise ValueError(f"label '{name}': points do not ascend")
            for p in points[:1].tolist() + points[-1:].tolist():  # ascending: the ends bound them
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


class _Text:
    """MSH text as bytes under a cursor, read a stripped line or a chunk of
    whole lines at a time; lines read as text are decoded as `encoding`."""

    def __init__(self, buf: bytes, encoding: str):
        self.buf = buf if buf.endswith(b"\n") else buf + b"\n"
        self.encoding, self.pos = encoding, 0

    def line(self, context: str | None = None) -> str | None:
        """The next stripped non-blank line; at the end, None, or an error naming context."""
        while self.pos < len(self.buf):
            end = self.buf.index(b"\n", self.pos)
            line = self.buf[self.pos:end].decode(self.encoding, "surrogatepass").strip()
            self.pos = end + 1
            if line:
                return line
        if context is not None:
            raise GmshParseError(f"unexpected end of file while reading {context}")

    def lines(self, n: int, context: str) -> bytes:
        """Up to n next lines: as many as fit in _CHUNK_BYTES, or one longer."""
        if self.pos == len(self.buf):
            raise GmshParseError(f"unexpected end of file while reading {context}")
        size = max(_CHUNK_BYTES, self.buf.index(b"\n", self.pos) + 1 - self.pos)
        ends = np.flatnonzero(np.frombuffer(self.buf[self.pos:self.pos + size], np.uint8) == 10)
        start, self.pos = self.pos, self.pos + int(ends[min(n, len(ends)) - 1]) + 1
        return self.buf[start:self.pos]


# The bytes a block line may hold: printable ASCII fields between
# separators (space, tab, VT, FF; a text stream's lone CR is a space by
# then), ended by a newline.  Both numpy parsers split fields at each of these.
_TEXT_BYTES = bytes(range(32, 127)) + b"\t\n\v\f"
# Longest integer field: 18 digits never overflow an int64.
_INT_DIGITS = 18
_NODE_ROW = np.dtype([("tag", np.int64), ("xyz", np.float64, 3)])


def _fields(raw: bytes) -> tuple[np.ndarray, ...] | None:
    """Newline-ended lines as uint8 bytes, the start and end of each field
    and the number of fields on each line; None if a byte is not in _TEXT_BYTES."""
    if raw.translate(None, _TEXT_BYTES):
        return None
    b = np.frombuffer(raw, dtype=np.uint8)
    edges = np.flatnonzero(np.diff(b <= 32, prepend=True))  # the last byte is a gap
    starts, ends = edges[0::2], edges[1::2]
    return b, starts, ends, np.diff(np.searchsorted(starts, np.flatnonzero(b == 10)), prepend=0)


def _plain_ints(b: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> bool:
    """Whether each field b[start:end] is an optional '-' and 1 to
    _INT_DIGITS digits: text that int() and numpy read alike, in an int64
    (older numpy reads a float as an int with only a warning)."""
    sign = b[starts] == 45
    digits = ends - starts - sign
    odd = np.flatnonzero((b - 48 > 9) & (b > 32))  # neither a digit nor a gap
    at = np.searchsorted(starts, odd, "right") - 1  # the last field starting at or before it
    inside = (at >= 0) & (odd < ends[at])
    return bool(((digits >= 1) & (digits <= _INT_DIGITS)).all()
                and (sign[at] & (odd == starts[at]))[inside].all())


def _ints(fields: list[str], context: str) -> list[int]:
    """Header fields (counts, format numbers) as ints, each one field of the
    block integer grammar; a GmshParseError naming context otherwise."""
    text = " ".join(fields)
    parsed = _fields(text.encode("utf-8", "surrogatepass") + b"\n")
    if parsed is None or len(parsed[1]) != len(fields) or not _plain_ints(*parsed[:3]):
        raise GmshParseError(f"non-integer field in {context} '{text}'")
    return [int(f) for f in fields]


def _parse_nodes(raw: bytes) -> tuple[np.ndarray, np.ndarray] | str:
    """Tags and (n, 3) coordinates of newline-ended $Nodes lines, by one
    loadtxt call once every tag is a plain integer; for a refused line, the
    message naming it."""
    fields = _fields(raw)
    if fields is None:
        return "malformed node line '{line}'"
    b, starts, ends, sizes = fields
    tag = (np.cumsum(sizes) - sizes)[sizes > 0]
    if not len(tag):
        return np.empty(0, dtype=np.int64), np.empty((0, 3))
    if not _plain_ints(b, starts[tag], ends[tag]):
        return "malformed node line '{line}'"
    try:
        rows = np.loadtxt(raw.decode("ascii").split("\n")[:-1], dtype=_NODE_ROW,
                          comments=None, ndmin=1)
    except ValueError:
        return "malformed node line '{line}'"
    return rows["tag"], rows["xyz"]


def _parse_elements(raw: bytes) -> tuple[np.ndarray, ...] | str:
    """Type, first tag (0 if none) and node count of each newline-ended
    $Elements line, plus all their node tags end to end, by one fromstring
    call once every field is a plain integer; for a refused line, the
    message naming it.  Point lines' node counts are not checked: they only
    matter in a 1D mesh, which is known once every block is read."""
    fields = _fields(raw)
    if fields is None or not _plain_ints(*fields[:3]):
        return "non-integer field in element line '{fields}'"
    _, starts, _, sizes = fields
    # Every field is a plain integer now, so fromstring reads each of them
    # (blank text alone it would read as [0]).
    ints = (np.fromstring(raw, dtype=np.int64, sep=" ") if len(starts)
            else np.empty(0, dtype=np.int64))
    sizes = sizes[sizes > 0]
    start = _offsets(sizes)[:-1]
    if (sizes < 3).any() or (ints[start + 2] < 0).any():
        return "malformed element line"
    etype, ntags = ints[start + 1], ints[start + 2]
    in_table = (etype >= 0) & (etype < len(_TYPE_DIM))
    edim = np.where(in_table, _TYPE_DIM[np.where(in_table, etype, 0)], -1)
    if (edim < 0).any():
        return f"unsupported element type {etype[edim < 0][0]}"
    want = edim + 1
    nnodes = np.maximum(sizes - 3 - ntags, 0)
    wrong = (nnodes != want) & (etype != _GMSH_POINT)
    if wrong.any():
        k = wrong.argmax()
        return f"type-{etype[k]} element needs {want[k]} nodes, got {nnodes[k]}"
    tagged = (ntags > 0) & (sizes > 3)
    first = np.where(tagged, ints[np.where(tagged, start + 3, 0)], 0)
    node_off = _offsets(nnodes)
    at = (np.arange(node_off[-1], dtype=np.int64)
          + np.repeat(start + 3 + ntags - node_off[:-1], nnodes))
    return etype, first, nnodes, ints[at]


def _refusal(raw: bytes, parse, encoding: str) -> GmshParseError:
    """The error for the first of raw's lines that parse refuses alone.
    Only that line is decoded."""
    line = next(line for line in raw.splitlines(keepends=True)  # raw holds no CR
                if isinstance(parse(line), str))
    text, fields = (part.decode(encoding, "surrogatepass")
                    for part in (line.strip(), b" ".join(line.split())))
    return GmshParseError(parse(line).format(line=text, fields=fields))


# Bytes of a block parsed in one step; bounds the reader's transient memory.
_CHUNK_BYTES = 1 << 16


def read_gmsh(stream: IO) -> RawMesh:
    """Parse an MSH 2.2 ASCII stream into a RawMesh.

    The mesh dimension is the highest element dimension present; elements of
    that dimension become cells, those one lower become boundary facets with
    their first tag as marker.  Point elements (type 15) are therefore the
    boundary facets of a 1D mesh; in 2D and 3D they are skipped, as is
    anything else of lower dimension.  A file of points alone has no cells.
    Bytes read from the stream are ASCII text with universal newlines; text
    ends lines at LF, with CRLF read as LF and a lone CR as a field separator.
    Block lines follow the module's one grammar, so a '+' or '_' in an
    integer, a 19-digit integer (zero-padded too), a non-ASCII digit or a
    byte 0x1c-0x1f is refused with its line named, though int() and
    str.split would read it.
    """
    buf = stream.read()
    if isinstance(buf, bytes) and b"\r" in buf:  # universal newlines
        buf = buf.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    text = (_Text(buf, "ascii") if isinstance(buf, bytes) else _Text(
        buf.replace("\r\n", "\n").replace("\r", " ").encode("utf-8", "surrogatepass"), "utf-8"))
    blocks: dict[str, list] = {"Nodes": [], "Elements": []}
    saw_format = False
    while (line := text.line()) is not None:
        if not line.startswith("$"):
            raise GmshParseError(f"expected a section header, got '{line}'")
        section = line[1:]

        if section == "MeshFormat":
            version, *parts = text.line(line).split()
            if len(parts) != 2:
                raise GmshParseError("malformed $MeshFormat line")
            file_type, data_size = _ints(parts, "$MeshFormat line")
            if version != "2.2":
                raise GmshParseError(
                    f"unsupported MSH version {version}; only 2.2 ASCII is handled")
            if file_type != 0:
                raise GmshParseError("binary MSH files are not supported")
            if data_size != 8:
                raise GmshParseError(f"unsupported data size {data_size}")
            if text.line(line) != "$EndMeshFormat":
                raise GmshParseError("missing $EndMeshFormat")
            saw_format = True

        elif section in blocks:
            n = _ints([text.line(line)], f"{line} count")[0]
            if n < 0:
                raise GmshParseError(f"negative {line} count {n}")
            parse = _parse_nodes if section == "Nodes" else _parse_elements
            if not n:
                blocks[section].append(parse(b""))
            while n:  # one chunk at a time
                raw = text.lines(n, line)
                arrays = parse(raw)
                if isinstance(arrays, str):
                    raise _refusal(raw, parse, text.encoding)
                blocks[section].append(arrays)
                n -= len(arrays[0])
            if text.line(line) != f"$End{section}":
                raise GmshParseError(f"missing $End{section}")

        else:  # unknown section ($PhysicalNames, ...): skip to its terminator
            while (skipped := text.line()) != f"$End{section}":
                if skipped is None:
                    raise GmshParseError(f"missing $End{section}")

    del buf, text  # parsed: freed before the arrays are joined
    if not saw_format:
        raise GmshParseError("missing $MeshFormat section")
    if not blocks["Nodes"]:
        raise GmshParseError("missing $Nodes section")
    elements = [np.concatenate(col) for col in zip(*blocks.pop("Elements"))]
    if not elements or (elements[0] == _GMSH_POINT).all():
        raise GmshParseError("no cells of maximal dimension")
    etype, first, nnodes, refs = elements
    tags, xyz = (np.concatenate(col) for col in zip(*blocks.pop("Nodes")))

    # Tags that fill the range lo..hi once each (no tags: the empty range)
    # index a map of len(tags) entries; others are searched.
    lo, hi = (tags.min(), tags.max()) if len(tags) else (1, 0)
    node_of = np.full(len(tags), -1, dtype=np.int64)
    if int(hi) - int(lo) == len(tags) - 1:
        node_of[tags - lo] = np.arange(len(tags))
    dense = (node_of >= 0).all()
    if not dense:
        order = np.argsort(tags, kind="stable")
        sorted_tags = tags[order]
        repeated = sorted_tags[1:] == sorted_tags[:-1]
        if repeated.any():
            # The first node whose tag a later node repeats.
            raise GmshParseError(f"duplicate node tag {tags[order[:-1][repeated].min()]}")
    if not np.isfinite(xyz).all():
        raise GmshParseError(
            f"node {tags[np.argmin(np.isfinite(xyz).all(axis=1))]} has a non-finite coordinate")

    point = etype == _GMSH_POINT
    edim = _TYPE_DIM[etype]
    dim = int(edim[~point].max())
    if dim == 1 and (nnodes[point] != 1).any():
        bad = nnodes[point][nnodes[point] != 1][0]
        raise GmshParseError(f"type-{_GMSH_POINT} element needs 1 nodes, got {bad}")
    used = ~point | (dim == 1)
    refs = refs[np.repeat(used, nnodes)]
    if dense:
        found = (refs >= lo) & (refs <= hi)
    else:
        at = np.searchsorted(sorted_tags, refs)
        found = at < len(tags)
        found[found] = sorted_tags[at[found]] == refs[found]
    if not found.all():
        raise GmshParseError(f"element references unknown node {refs[np.argmin(found)]}")
    verts = node_of[refs - lo] if dense else order[at]

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
    with open(path, "rb") as fh:
        try:
            return read_gmsh(fh)
        except UnicodeDecodeError as exc:
            raise GmshParseError(
                f"non-ASCII byte 0x{exc.object[exc.start]:02x} in MSH file") from None


# -- writing -------------------------------------------------------------------


# 10**k for the digit k places left of the units, 0 for the units digit.
_DIGIT_FLOORS = np.array([0] + [10 ** k for k in range(1, 20)], dtype=np.uint64)


def _int_rows(table: np.ndarray, sep: str) -> str:
    """The rows of an int64 table as text, entries joined by sep, each row
    ended by a newline, as printf-style decimals.  One uint8 row per output
    byte column (sign, digits right to left, separator), NUL for absent signs
    and leading zeros: rows all NUL are dropped, and translate drops the rest."""
    columns = np.ascontiguousarray(table.T)
    mags = np.abs(columns).view(np.uint64)  # |-2**63| wraps to 2**63 as uint64
    tops = mags.max(axis=1, initial=0)
    top = int(tops.max(initial=0))
    floors = _DIGIT_FLOORS[len(str(top)) - 1::-1]
    mag = mags = mags.astype(np.min_scalar_type(top))
    text = np.empty((len(columns), len(floors) + 2, len(table)), dtype=np.uint8)
    np.multiply(columns < 0, ord("-"), out=text[:, 0], casting="unsafe")
    for k in range(len(floors), 1, -1):
        q = mag // 10
        np.subtract(mag, q * 10, out=text[:, k], casting="unsafe")
        mag = q
    text[:, 1], text[:, -1], text[-1, -1] = mag, ord(sep), ord("\n")
    digits = text[:, 1:-1]
    digits += ord("0")
    digits *= mags[:, None] >= floors[:, None].astype(mag.dtype)
    keep = np.ones(text.shape[:2], dtype=bool)
    keep[:, 0], keep[:, 1:-1] = columns.min(axis=1, initial=0) < 0, tops[:, None] >= floors
    return text[keep].T.tobytes().translate(None, b"\0").decode("ascii")


def _element_lines(first_id: int, etype: int, tags: np.ndarray, nodes: np.ndarray) -> str:
    """Element lines numbered from first_id, each tag in both tag slots."""
    n = len(nodes)
    return _int_rows(np.vstack([np.arange(first_id, first_id + n), np.full(n, etype),
                                np.full(n, 2), tags, tags, nodes.T + 1]).T, " ")


def write_gmsh(mesh: RawMesh) -> str:
    """Serialize a RawMesh as MSH 2.2 ASCII.

    Boundary facets are emitted before cells (points, type 15, in 1D), each
    with its marker (or region id) duplicated into the two conventional tag
    slots.  Coordinates, which must be finite, are written with 16 significant
    digits, zero-padded to three components: a double needing 17 (1/6, say)
    reads back rounded, and a mesh read from a file writes back to the same bytes.
    """
    if mesh.num_vertices == 0:
        raise ValueError("refusing to write a mesh with no vertices")
    if not np.isfinite(mesh.vertices).all():
        i = int(np.argmin(np.isfinite(mesh.vertices).all(axis=1)))
        raise ValueError(f"vertex {i} (node {i + 1}) has a non-finite coordinate")
    nv, nf = mesh.num_vertices, len(mesh.boundary_facets)
    nodes = np.column_stack([np.arange(1.0, nv + 1), mesh.vertices])  # tags exact in float64
    row = "%d" + " %.16g" * mesh.dim + " 0" * (3 - mesh.dim) + "\n"  # padding: +0.0 -> 0
    return "".join([
        f"$MeshFormat\n2.2 0 8\n$EndMeshFormat\n$Nodes\n{nv}\n",
        (row * nv) % tuple(nodes.ravel().tolist()),
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

    Boundary facets are matched to plex points by vertex set; a facet absent
    from the interpolated mesh means the input is non-conforming.
    """
    plex = build_from_cells(mesh.cells, mesh.num_vertices, mesh.dim)
    sec = section_from_depth_dofs(plex, [mesh.dim] + [0] * mesh.dim)
    coords = Field("coordinates", sec, mesh.vertices.ravel().copy())

    region = Label.from_arrays("region", np.arange(mesh.num_cells), mesh.cell_region_ids)

    # Vertex v is point num_cells + v in a built plex, so closure vertex numbers
    # are input vertex ids.  Each facet's key is searched among the candidates'.
    candidates = plex.height_stratum(1)
    rows = [plex.vertex_closures(candidates), _sorted_rows(mesh.boundary_facets)]
    own, wanted = np.split(_lex_key(np.concatenate(rows)), [len(candidates)])
    order = own.argsort()
    at = order[np.searchsorted(own, wanted, sorter=order).clip(max=len(own) - 1)]
    missing = own[at] != wanted
    if missing.any():
        key = tuple(sorted(mesh.boundary_facets[np.argmax(missing)].tolist()))
        raise ValueError(f"boundary facet {key} not found in the interpolated mesh")
    boundary = Label.from_arrays("boundary", candidates[at], mesh.boundary_markers)

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
    by_value = boundary.values.argsort(kind="stable")  # ties stay in point order
    return RawMesh(
        dim=plex.dim,
        vertices=coords,
        cells=cells,
        cell_region_ids=regions,
        boundary_facets=plex.vertex_closures(boundary.points[by_value]),
        boundary_markers=boundary.values[by_value],
    )

"""MSH 2.2 parsing/writing and raw <-> bundle conversion."""

from __future__ import annotations

import io
import re
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles as oracle
import plexmesh as pm
from plexmesh import gmsh_io

DATA = Path(__file__).parent / "data"

MINIMAL_TET = """\
$MeshFormat
2.2 0 8
$EndMeshFormat
$Nodes
4
1 0 0 0
2 1 0 0
3 0 1 0
4 0 0 1
$EndNodes
$Elements
1
1 4 2 0 0 1 2 3 4
$EndElements
"""


INTERVAL_2 = """\
$MeshFormat
2.2 0 8
$EndMeshFormat
$Nodes
3
1 0 0 0
2 0.5 0 0
3 1 0 0
$EndNodes
$Elements
2
1 1 2 0 0 1 2
2 1 2 0 0 2 3
$EndElements
"""


def parse(text: str) -> pm.RawMesh:
    return pm.read_gmsh(io.StringIO(text))


class TestRead:
    def test_minimal_tet(self):
        mesh = parse(MINIMAL_TET)
        assert mesh.dim == 3
        assert mesh.num_vertices == 4
        assert mesh.num_cells == 1
        assert len(mesh.boundary_facets) == 0
        assert mesh.cells.tolist() == [[0, 1, 2, 3]]

    def test_unit_square_golden(self):
        mesh = pm.read_gmsh_file(DATA / "square_2tri.msh")
        assert mesh.num_vertices == 4
        assert mesh.num_cells == 2
        assert len(mesh.boundary_facets) == 4
        assert sorted(mesh.boundary_markers.tolist()) == [1, 2, 3, 4]

    def test_no_elements(self):
        text = MINIMAL_TET.replace("$Elements\n1\n1 4 2 0 0 1 2 3 4\n", "$Elements\n0\n")
        with pytest.raises(pm.GmshParseError, match="no cells of maximal dimension"):
            parse(text)

    def test_points_skipped(self):
        text = MINIMAL_TET.replace("$Elements\n1\n", "$Elements\n2\n0 15 1 7 1\n")
        mesh = parse(text)
        assert mesh.num_cells == 1

    def test_points_skipped_in_2d(self):
        text = pm.write_gmsh(pm.triangle_grid(1, 1)).replace(
            "$Elements\n6\n", "$Elements\n8\n0 15 2 7 7 1\n0 15 1 7 2 3\n")
        assert parse(text) == pm.triangle_grid(1, 1)  # even a malformed point

    def test_points_alone_have_no_cells(self):
        text = MINIMAL_TET.replace("1 4 2 0 0 1 2 3 4", "1 15 2 0 0 1")
        with pytest.raises(pm.GmshParseError, match="no cells of maximal dimension"):
            parse(text)

    def test_points_are_1d_boundary_facets(self):
        mesh = parse(INTERVAL_2.replace("$Elements\n2\n",
                                        "$Elements\n4\n5 15 1 8 3\n6 15 0 1\n"))
        assert mesh.boundary_facets.tolist() == [[2], [0]]
        assert mesh.boundary_markers.tolist() == [8, 0]

    @pytest.mark.parametrize("point,match", [
        ("5 15 1 8 3 1", "type-15 element needs 1 nodes, got 2"),
        ("5 15 1 8", "type-15 element needs 1 nodes, got 0"),
        ("5 15 1 8 9", "unknown node 9"),
    ])
    def test_bad_1d_points(self, point, match):
        with pytest.raises(pm.GmshParseError, match=match):
            parse(INTERVAL_2.replace("$Elements\n2\n", f"$Elements\n3\n{point}\n"))

    def test_low_dim_elements_skipped(self):
        text = MINIMAL_TET.replace("$Elements\n1\n", "$Elements\n2\n0 1 1 9 1 2\n")
        mesh = parse(text)  # a line inside a tet mesh carries no meaning
        assert mesh.num_cells == 1 and len(mesh.boundary_facets) == 0

    def test_msh4_rejected(self):
        with pytest.raises(pm.GmshParseError, match="4.1"):
            parse(MINIMAL_TET.replace("2.2 0 8", "4.1 0 8"))

    def test_error_before_undecodable_bytes(self, tmp_path):
        # Lines are read only as the parser needs them, so a bad header is
        # reported before the decoder reaches a non-ASCII byte far behind it.
        path = tmp_path / "late_bytes.msh"
        path.write_bytes(MINIMAL_TET.replace("2.2 0 8", "4.1 0 8").encode()
                         + b"$Comments\n" + b"x\n" * 20000 + b"\xe9\n$EndComments\n")
        with pytest.raises(pm.GmshParseError, match="4.1"):
            pm.read_gmsh_file(path)

    @pytest.mark.parametrize("where", ["comment", "node", "element"])
    def test_non_ascii_byte_is_a_parse_error(self, tmp_path, where):
        path = tmp_path / "accent.msh"
        text = {"comment": MINIMAL_TET + "$Comments\nmaill\u00e9\n$EndComments\n",
                "node": MINIMAL_TET.replace("2 1 0 0", "2 1\u00e9 0 0"),
                "element": MINIMAL_TET.replace("1 2 3 4\n", "1 2 3 4 \u00e9\n")}[where]
        path.write_bytes(text.encode("utf-8"))
        with pytest.raises(pm.GmshParseError, match="non-ASCII byte 0xc3") as info:
            pm.read_gmsh_file(path)
        assert info.value.__cause__ is None and info.value.__suppress_context__

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_file_newlines_read_as_newlines(self, tmp_path, newline):
        # Files are read with universal newlines; triangle_grid(40, 40)'s
        # blocks span more than one parse step.
        text = pm.write_gmsh(pm.triangle_grid(40, 40))
        path = tmp_path / "newlines.msh"
        path.write_bytes(text.replace("\n", newline).encode("ascii"))
        assert pm.read_gmsh_file(path) == parse(text)

    def test_crlf_stream(self):
        # A text stream's CRLF is read as LF before parsing, so each of its
        # chunks is parsed once, as LF text is; a lone CR is a field
        # separator (the tag-cr case).
        text = pm.write_gmsh(pm.triangle_grid(40, 40))
        calls = {}
        for lines in (text, text.replace("\n", "\r\n")):
            loadtxt, fromstring = mock.Mock(wraps=np.loadtxt), mock.Mock(wraps=np.fromstring)
            with mock.patch.object(np, "loadtxt", loadtxt), \
                    mock.patch.object(np, "fromstring", fromstring):
                calls[lines] = parse(lines), loadtxt.call_count, fromstring.call_count
        assert calls[text][1:] == (1, 2)  # one chunk of nodes, two of elements
        assert calls[text.replace("\n", "\r\n")] == calls[text]

    def test_read_memory_is_bounded(self, tmp_path):
        # The file's bytes are held whole but parsed a chunk at a time, so
        # the traced peak stays below six times the file (1.39 MB here);
        # one parse per whole block peaks above twelve.
        path = tmp_path / "grid.msh"
        pm.write_gmsh_file(pm.triangle_grid(120, 120), path)
        tracemalloc.start()
        try:
            pm.read_gmsh_file(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * path.stat().st_size

    def test_last_line_without_newline(self):
        assert parse(MINIMAL_TET.rstrip("\n")) == parse(MINIMAL_TET)
        with pytest.raises(pm.GmshParseError,
                           match=r"unexpected end of file while reading \$Elements"):
            parse(MINIMAL_TET.replace("\n$EndElements\n", ""))

    def test_binary_rejected(self):
        with pytest.raises(pm.GmshParseError, match="binary"):
            parse(MINIMAL_TET.replace("2.2 0 8", "2.2 1 8"))

    def test_unknown_element_type(self):
        with pytest.raises(pm.GmshParseError, match="element type 5"):
            parse(MINIMAL_TET.replace("1 4 2 0 0 1 2 3 4",
                                      "1 5 2 0 0 1 2 3 4 1 2 3 4"))

    def test_dangling_node_reference(self):
        with pytest.raises(pm.GmshParseError, match="unknown node"):
            parse(MINIMAL_TET.replace("1 2 3 4\n$EndElements", "1 2 3 9\n$EndElements"))

    def test_empty_node_block(self):
        text = MINIMAL_TET.replace("4\n1 0 0 0\n2 1 0 0\n3 0 1 0\n4 0 0 1\n", "0\n")
        with pytest.raises(pm.GmshParseError, match="unknown node 1"):
            parse(text)

    def test_missing_end_nodes(self):
        with pytest.raises(pm.GmshParseError):
            parse(MINIMAL_TET.replace("$EndNodes\n", ""))

    def test_missing_end_elements(self):
        with pytest.raises(pm.GmshParseError):
            parse(MINIMAL_TET.replace("$EndElements\n", ""))

    def test_missing_format(self):
        body = MINIMAL_TET.split("$EndMeshFormat\n")[1]
        with pytest.raises(pm.GmshParseError, match="MeshFormat"):
            parse(body)

    def test_duplicate_node_tag(self):
        with pytest.raises(pm.GmshParseError, match="duplicate node tag 3"):
            parse(MINIMAL_TET.replace("4 0 0 1", "3 0 0 1"))

    @pytest.mark.parametrize("old,new,match", [
        ("$Nodes\n4\n", "$Nodes\nfour\n", "count 'four'"),
        ("$Elements\n1\n", "$Elements\n1.0\n", "count '1.0'"),
        ("1 2 3 4\n$End", "1 2 3 x\n$End", "non-integer field in element line"),
        ("2 1 0 0", "2 1 0 zero", "malformed node line '2 1 0 zero'"),
        ("2 1 0 0", "2.0 1 0 0", "malformed node line '2.0 1 0 0'"),
        ("$Nodes\n4\n", "$Nodes\n-1\n", r"negative \$Nodes count -1"),
        ("$Elements\n1\n", "$Elements\n-1\n", r"negative \$Elements count -1"),
        ("1 4 2 0 0 1 2 3 4", "1 4 -1 0 1 2 3 4", "malformed element line"),
    ], ids=["nodes-count", "elements-count", "element-field", "node-field", "node-tag",
            "negative-nodes-count", "negative-elements-count", "negative-ntags"])
    def test_non_numeric_field(self, old, new, match):
        with pytest.raises(pm.GmshParseError, match=match):
            parse(MINIMAL_TET.replace(old, new))

    @pytest.mark.parametrize("coords", ["nan 0 0", "1 inf 0", "1 0 -inf"])
    def test_non_finite_coordinate(self, coords):
        with pytest.raises(pm.GmshParseError, match="node 2 has a non-finite"):
            parse(MINIMAL_TET.replace("2 1 0 0", f"2 {coords}"))

    def test_unknown_section_skipped(self):
        text = MINIMAL_TET.replace(
            "$Nodes", "$PhysicalNames\n1\n2 1 \"wall\"\n$EndPhysicalNames\n$Nodes")
        assert parse(text).num_cells == 1

    def test_first_tag_is_marker(self):
        mesh = pm.read_gmsh_file(DATA / "square_2tri.msh")
        # golden file orders boundary lines bottom, right, top, left
        assert mesh.boundary_markers.tolist() == [1, 2, 3, 4]


def msh(nodes: list[str], elements: list[str]) -> str:
    """MSH 2.2 text with the given $Nodes and $Elements lines."""
    return "".join([
        "$MeshFormat\n2.2 0 8\n$EndMeshFormat\n",
        f"$Nodes\n{len(nodes)}\n", *(line + "\n" for line in nodes), "$EndNodes\n",
        f"$Elements\n{len(elements)}\n", *(line + "\n" for line in elements),
        "$EndElements\n"])


def outcome(read, *args):
    """What a reader returns, or the message of the GmshParseError it raises."""
    try:
        return read(*args)
    except pm.GmshParseError as exc:
        return f"GmshParseError: {exc}"


# Three nodes and one triangle; each case below swaps one line for another.
NODE_LINES = ["1 0 0 0", "2 1 0 0", "3 0 1 0"]
ELEMENT_LINES = ["1 2 2 7 7 1 2 3"]


def swapped(block: str, line: str) -> tuple[list[str], list[str]]:
    """The node and element lines with node 2's line, or the triangle's, swapped."""
    nodes, elements = list(NODE_LINES), list(ELEMENT_LINES)
    if block == "Nodes":
        nodes[1] = line
    else:
        elements[0] = line
    return nodes, elements


def read_plain_tags(text: str):
    """read_gmsh's outcome for text, checking that loadtxt only ever sees
    plain integer tags, which every numpy version reads alike (older ones
    read a float tag as an int with a warning).  fromstring needs no such
    check here: a ValueError (or, with warnings as errors, an older numpy's
    warning) from it fails the test."""
    loadtxt, seen = np.loadtxt, []
    with mock.patch.object(np, "loadtxt", lambda rows, **kw: seen.extend(rows) or loadtxt(rows, **kw)):
        got = outcome(pm.read_gmsh, io.StringIO(text))
    tags = [row.split()[0] for row in seen if row.strip()]
    assert all(re.fullmatch(r"-?[0-9]{1,18}", t) for t in tags), tags
    return got


# Lines int() and str.split read but the one block grammar refuses, each
# named in full; the oracle reads every one of them.
CUT = [
    ("Elements", "1 2 2 9223372036854775807 7 1 2 3"),
    ("Elements", "1 2 2 -9223372036854775808 7 1 2 3"),
    ("Nodes", "0000000000000000002 1 0 0"),
    ("Elements", "1 2 2 7 7 1 0000000000000000002 3"),
    ("Nodes", "+2 1 0 0"),
    ("Elements", "1 2 2 +5 7 1 2 3"),
    ("Nodes", "2 1_0 0 0"),
    ("Elements", "1 2 2 1_0 7 1 2 3"),
    ("Nodes", "2 \u0663 0 0"),
    ("Elements", "1 2 2 \u0663 7 1 2 3"),
    ("Nodes", "2\x1c1 0 0"),
    ("Elements", "1 2 2 7\x1f7 1 2 3"),
    ("Nodes", "2\u00a01 0 0"),
]
CUT_IDS = ["field-int64-max", "field-int64-min", "tag-zero-padded-19",
           "field-zero-padded-19", "tag-plus", "field-plus", "coordinate-underscore",
           "field-underscore", "arabic-indic-coordinate", "arabic-indic-field", "tag-x1c",
           "field-x1f", "no-break-space"]

# Header integers follow the same grammar: spellings int() reads, each
# edited into write_gmsh(triangle_grid(1, 1)) and named with its context.
HEADER_CUT = [
    ("$Nodes\n4\n", "$Nodes\n+4\n", "$Nodes count '+4'"),
    ("$Nodes\n4\n", "$Nodes\n0_4\n", "$Nodes count '0_4'"),
    ("$Nodes\n4\n", "$Nodes\n\u0664\n", "$Nodes count '\u0664'"),
    ("$Elements\n6\n", "$Elements\n0000000000000000006\n",
     "$Elements count '0000000000000000006'"),
    ("2.2 0 8\n", "2.2 +0 0_8\n", "$MeshFormat line '+0 0_8'"),
]
HEADER_CUT_IDS = ["nodes-count-plus", "nodes-count-underscore", "nodes-count-arabic-indic",
                  "elements-count-zero-padded-19", "format-plus-underscore"]


def refusal(block: str, line: str) -> str:
    """The message naming a refused line of a block."""
    what = "malformed node line" if block == "Nodes" else "non-integer field in element line"
    return f"GmshParseError: {what} '{line}'"


class TestFastParse:
    """numpy alone parses block lines: what it reads, or the first line it
    refuses, is what the oracle gives, but for the cut list."""

    @pytest.mark.parametrize("block,line,want", [
        ("Nodes", "2.0 1 0 0", "malformed node line '2.0 1 0 0'"),
        ("Nodes", "1e3 1 0 0", "malformed node line '1e3 1 0 0'"),
        ("Nodes", "1.5 1 0 0", "malformed node line '1.5 1 0 0'"),
        ("Elements", "1 2.0 2 7 7 1 2 3", "non-integer field in element line '1 2.0 2 7 7 1 2 3'"),
        ("Elements", "1 2 2 1e3 7 1 2 3", "non-integer field in element line '1 2 2 1e3 7 1 2 3'"),
        ("Elements", "1 2 2 7 7 1 2 1.5", "non-integer field in element line '1 2 2 7 7 1 2 1.5'"),
        ("Elements", "1 2 2 - 7 1 2 3", "non-integer field in element line '1 2 2 - 7 1 2 3'"),
        ("Elements", "1 2 2 7 7 1 2 -", "non-integer field in element line '1 2 2 7 7 1 2 -'"),
        ("Elements", "1 2 2 7-7 1 2 3", "non-integer field in element line '1 2 2 7-7 1 2 3'"),
        ("Elements", "1 2 2 --7 7 1 2 3", "non-integer field in element line '1 2 2 --7 7 1 2 3'"),
        ("Nodes", "- 1 0 0", "malformed node line '- 1 0 0'"),
        ("Nodes", "2 1\u00e9 0 0", "malformed node line '2 1\u00e9 0 0'"),
        ("Elements", "1 2 2 7 7 1 2 3\u00e9",
         "non-integer field in element line '1 2 2 7 7 1 2 3\u00e9'"),
        ("Elements", "1\t2  2 7 x 1 2 3 ", "non-integer field in element line '1 2 2 7 x 1 2 3'"),
        ("Nodes", "2  1 0 zero\t", "malformed node line '2  1 0 zero'"),
        ("Nodes", "2 1 0", "malformed node line '2 1 0'"),
        ("Elements", "1 2", "malformed element line"),
        ("Elements", "1 2 -1 7 1 2 3", "malformed element line"),
        ("Elements", "1 5 2 7 7 1 2 3", "unsupported element type 5"),
        ("Elements", "1 2 2 7 7 1 2", "type-2 element needs 3 nodes, got 2"),
        ("Elements", "1 2 9 7 7 1 2 3", "type-2 element needs 3 nodes, got 0"),
        ("Nodes", "2 nan 0 0", "node 2 has a non-finite coordinate"),
        ("Nodes", "2 1 inf 0", "node 2 has a non-finite coordinate"),
        ("Nodes", "2 1 0 1e400", "node 2 has a non-finite coordinate"),
        ("Elements", "1 2 2 -123456789012345678 7 1 2 3", None),
        ("Nodes", "000000000000000002 1 0 0", None),
        ("Elements", "1 2 2 7 7 1 000000000000000002 3", None),
        ("Nodes", "2 +1.5 -0 0", None),
        ("Nodes", "2\x0b1\x0c0 0", None),
        ("Elements", "1\x0b2\x0c2 7 7 1 2 3", None),
        ("Nodes", "2\r1 0 0", None),
        ("Nodes", " \t2 1 0 0 \t", None),
        ("Elements", "\x0c1 2 2 7 7 1 2 3\x0b", None),
        ("Nodes", "\n \x0b\n2 1 0 0", None),
        ("Elements", "\n\t\n1 2 2 7 7 1 2 3", None),
    ], ids=["tag-2.0", "tag-1e3", "tag-1.5", "field-2.0", "field-1e3", "field-1.5",
            "field-minus", "last-field-minus", "inner-minus", "double-minus", "tag-minus",
            "non-ascii-coordinate", "non-ascii-field", "spaced-element-field",
            "spaced-node-field", "node-short", "element-short", "negative-ntags",
            "unsupported-type", "few-nodes", "ntags-past-the-end", "nan", "inf", "1e400",
            "18-digits", "tag-zero-padded-18", "field-zero-padded-18", "coordinate-signs",
            "tag-vt-ff", "field-vt-ff", "tag-cr", "node-indented", "element-indented",
            "node-blank-lines", "element-blank-lines"])
    def test_lines_read_as_the_oracle_reads(self, block, line, want):
        text = msh(*swapped(block, line))
        got = read_plain_tags(text)
        assert got == outcome(oracle.read_gmsh, io.StringIO(text))
        if want is None:
            assert isinstance(got, pm.RawMesh)
        else:
            assert got == f"GmshParseError: {want}"

    @pytest.mark.parametrize("block,line", CUT, ids=CUT_IDS)
    def test_cut_lines_refused(self, block, line):
        text = msh(*swapped(block, line))
        assert isinstance(oracle.read_gmsh(io.StringIO(text)), pm.RawMesh)
        assert read_plain_tags(text) == refusal(block, line)

    @pytest.mark.parametrize("old,new,want", HEADER_CUT, ids=HEADER_CUT_IDS)
    def test_cut_header_refused(self, old, new, want):
        text = pm.write_gmsh(pm.triangle_grid(1, 1))
        assert text.count(old) == 1
        edited = text.replace(old, new)
        assert oracle.read_gmsh(io.StringIO(edited)) == oracle.read_gmsh(io.StringIO(text))
        assert outcome(pm.read_gmsh, io.StringIO(edited)) == \
            f"GmshParseError: non-integer field in {want}"

    @pytest.mark.parametrize("tag,want", [
        ("123456789012345678", None),
        ("-12345678901234567", None),
        ("-123456789012345678", None),
        ("9223372036854775807", "malformed node line '9223372036854775807 1 0 0'"),
        ("-9223372036854775808", "malformed node line '-9223372036854775808 1 0 0'"),
    ])
    def test_long_tags(self, tag, want):
        # A tag of 19 digits is cut, as a node tag (named first) and as a field.
        nodes = ["1 0 0 0", f"{tag} 1 0 0", "3 0 1 0"]
        elements = [f"1 2 2 7 7 1 {tag} 3"]
        got = read_plain_tags(msh(nodes, elements))
        if want is None:
            assert got == oracle.read_gmsh(io.StringIO(msh(nodes, elements)))
            assert got.cells.tolist() == [[0, 1, 2]]
        else:
            assert got == f"GmshParseError: {want}"

    # The oracle reads Python ints, which never overflow.
    @pytest.mark.parametrize("block,line,want", [
        ("Nodes", "99999999999999999999 1 0 0",
         "malformed node line '99999999999999999999 1 0 0'"),
        ("Nodes", "-99999999999999999999 1 0 0",
         "malformed node line '-99999999999999999999 1 0 0'"),
        ("Nodes", "9223372036854775808 1 0 0",
         "malformed node line '9223372036854775808 1 0 0'"),
        ("Elements", "1 2 2 99999999999999999999 7 1 2 3",
         "non-integer field in element line '1 2 2 99999999999999999999 7 1 2 3'"),
        ("Elements", "1 2 2 -99999999999999999999 7 1 2 3",
         "non-integer field in element line '1 2 2 -99999999999999999999 7 1 2 3'"),
    ], ids=["tag", "negative-tag", "tag-int64-max-plus-1", "field", "negative-field"])
    def test_int64_overflow_rejected(self, block, line, want):
        assert read_plain_tags(msh(*swapped(block, line))) == f"GmshParseError: {want}"

    @pytest.mark.parametrize("block", ["Nodes", "Elements"])
    def test_empty_block(self, block):
        nodes, elements = (([], ELEMENT_LINES) if block == "Nodes" else (NODE_LINES, []))
        text = msh(nodes, elements)
        got = read_plain_tags(text)
        assert got == outcome(oracle.read_gmsh, io.StringIO(text))
        assert got == ("GmshParseError: element references unknown node 1" if block == "Nodes"
                       else "GmshParseError: no cells of maximal dimension")

    @pytest.mark.parametrize("mesh", [pm.triangle_grid(32, 32), pm.tet_box(3, 3, 3)],
                             ids=["triangle_grid", "tet_box"])
    def test_written_meshes_take_the_numpy_path(self, mesh):
        # A mesh write_gmsh wrote is parsed by one numpy call per chunk and
        # looked up by index, so no tag is sorted for a search.
        text = pm.write_gmsh(mesh)
        chunks = mock.Mock(wraps=gmsh_io._Text.lines)
        loadtxt, fromstring = mock.Mock(wraps=np.loadtxt), mock.Mock(wraps=np.fromstring)
        refuse = mock.Mock(side_effect=AssertionError("tags sorted for a search"))
        with mock.patch.object(gmsh_io._Text, "lines", lambda self, *a: chunks(self, *a)), \
                mock.patch.object(np, "loadtxt", loadtxt), \
                mock.patch.object(np, "fromstring", fromstring), \
                mock.patch.object(np, "argsort", refuse), \
                mock.patch.object(gmsh_io, "_CHUNK_BYTES", 999):
            got = parse(text)
        assert got == oracle.read_gmsh(io.StringIO(text))
        blocks = [call.args[2] for call in chunks.call_args_list]
        assert loadtxt.call_count == blocks.count("$Nodes") > 1
        assert fromstring.call_count == blocks.count("$Elements") > 1
        assert not refuse.called

    @pytest.mark.parametrize("block,edits,want,source,cut", [
        ("Nodes", [(0, "1051 ", "+1051 ")], "malformed node line", "text", True),
        ("Nodes", [(0, "1051 ", "1051\x0b")], None, "text", False),
        ("Nodes", [(0, "1051 ", "1051\x1c")], "malformed node line", "text", True),
        ("Elements", [(0, "1051 2 ", "1051 +2 ")], "non-integer field in element line", "text",
         True),
        ("Elements", [(0, "1051 2 ", "1051\x0b2 ")], None, "text", False),
        ("Nodes", [(0, "1051 ", "1051.0 ")], "malformed node line '1051.0 ", "text", False),
        ("Elements", [(0, "1051 2 2 ", "1051 2 2 1.5 ")],
         "non-integer field in element line '1051 2 2 1.5 ", "text", False),
        ("Elements", [(0, "1051 2 ", "1051 5 "), (2, "1053 2 2 ", "1053 2 2 1.5 ")],
         "unsupported element type 5", "text", False),
        ("Nodes", [(0, "1051 ", "+1051 "), (2, "1053 ", "1053 \u00e9")],
         "malformed node line", "file", True),
        ("Elements", [(0, "1051 2 2 ", "1051 2 2 1.5 "), (100, "1151 2 ", "1151 5 ")],
         "non-integer field in element line '1051 2 2 1.5 ", "text", False),
    ], ids=["tag-plus", "tag-vt", "tag-x1c", "type-plus", "field-vt", "tag-1051.0", "field-1.5",
            "type-before-field", "tag-before-non-ascii", "before-a-later-chunk"])
    def test_fallback_in_a_later_slice(self, tmp_path, block, edits, want, source, cut):
        # Chunks of at most 999 bytes: line 1051 of either block of
        # triangle_grid(32, 32) is in a later chunk.  A chunk the parse
        # refuses is parsed again line by line, and only it: the first bad
        # line in file order is named, whatever other lines follow it.  A
        # case off the cut list reads as the oracle reads it; a cut one
        # (a '+' sign, byte 0x1c, with a later non-ASCII byte) is refused
        # with its line named.
        lines = pm.write_gmsh(pm.triangle_grid(32, 32)).split("\n")
        at = lines.index(f"${block}") + 2 + 1050
        for offset, old, new in edits:
            assert lines[at + offset].startswith(old)
            lines[at + offset] = new + lines[at + offset][len(old):]
        text = "\n".join(lines)
        path = tmp_path / "edited.msh"
        path.write_bytes(text.encode("utf-8"))
        read = {"text": lambda: outcome(pm.read_gmsh, io.StringIO(text)),
                "file": lambda: outcome(pm.read_gmsh_file, path)}[source]
        parse_block, calls = getattr(gmsh_io, f"_parse_{block.lower()}"), []
        with mock.patch.object(gmsh_io, f"_parse_{block.lower()}",
                               lambda raw: calls.append((raw, parse_block(raw))) or calls[-1][1]), \
                mock.patch.object(gmsh_io, "_CHUNK_BYTES", 999):
            got = read()
        if cut:
            assert got == f"GmshParseError: {want} '{lines[at].strip()}'"
        else:
            assert got == outcome(oracle.read_gmsh, io.StringIO(text))
        if want is None:
            assert isinstance(got, pm.RawMesh)
            assert not any(isinstance(result, str) for _, result in calls)
            return
        assert got.startswith(f"GmshParseError: {want}")
        refused = next(k for k, (_, result) in enumerate(calls) if isinstance(result, str))
        chunk = calls[refused][0].decode("utf-8").split("\n")[:-1]
        first = at - chunk.index(lines[at])
        assert chunk == lines[first:first + len(chunk)] and first > at - 1050
        assert len("\n".join(chunk)) < 999
        for raw, _ in calls[refused + 1:]:
            run = raw.decode("utf-8").split("\n")[:-1]
            assert any(chunk[k:k + len(run)] == run for k in range(len(chunk)))


SPACED_MESHES = [pm.interval_mesh(9), pm.triangle_grid(6, 5), pm.tet_box(2, 2, 1)]


@settings(derandomize=True, deadline=None, max_examples=25)
@given(mesh=st.sampled_from(range(len(SPACED_MESHES))), seed=st.integers(0, 2**32 - 1),
       chunk=st.sampled_from([1, 61, 999, 1 << 16]))
def test_spacing_reads_as_the_plain_text(mesh, seed, chunk):
    # Extra spaces, tabs, VT and FF between, before and after fields, and
    # blank lines between lines, land anywhere across chunk boundaries.
    text = pm.write_gmsh(SPACED_MESHES[mesh])
    rng = np.random.default_rng(seed)
    gaps = [" ", "\t", "\v", "\f"]

    def gap(least: int) -> str:
        return "".join(rng.choice(gaps, int(rng.integers(least, 4))))

    lines = []
    for line in text.splitlines():
        while rng.random() < 0.2:
            lines.append(gap(0))
        first, *rest = line.split(" ")
        lines.append(gap(0) + first + "".join(gap(1) + field for field in rest) + gap(0))
    spaced = "\n".join(lines) + "\n"
    with mock.patch.object(gmsh_io, "_CHUNK_BYTES", chunk):
        got = read_plain_tags(spaced)
    assert got == parse(text)


class TestNodeLookup:
    """Tags filling one range are indexed; any others are searched.  Both
    find what the oracle's dict finds."""

    @staticmethod
    def read_with_tags(tags: list[int], first_block: int | None = None):
        """triangle_grid(2, 2) written with node tags `tags`, read by the
        reader and the oracle; the nodes come in two blocks when
        `first_block` is given.  Also says whether the reader sorted the
        tags to search them."""
        mesh = pm.triangle_grid(2, 2)
        nodes = [f"{t} {x:.16g} {y:.16g} 0" for t, (x, y) in zip(tags, mesh.vertices.tolist())]
        tag_of = np.array(tags)
        elements = [f"{k + 1} 2 2 7 7 " + " ".join(map(str, tag_of[cell]))
                    for k, cell in enumerate(mesh.cells)]
        text = msh(nodes, elements)
        if first_block is not None:
            cut = text.index(nodes[first_block])
            text = (text[:cut].replace(f"$Nodes\n{len(nodes)}\n", f"$Nodes\n{first_block}\n")
                    + f"$EndNodes\n$Nodes\n{len(nodes) - first_block}\n" + text[cut:])
        search = mock.Mock(wraps=np.argsort)
        with mock.patch.object(np, "argsort", search):
            got = outcome(pm.read_gmsh, io.StringIO(text))
        return got, outcome(oracle.read_gmsh, io.StringIO(text)), search.called

    @pytest.mark.parametrize("start", [1, 0, -4])
    def test_shuffled_range(self, start):
        tags = (np.random.default_rng(start + 10).permutation(9) + start).tolist()
        got, want, searched = self.read_with_tags(tags)
        assert isinstance(got, pm.RawMesh) and got == want and not searched

    def test_range_in_two_blocks(self):
        got, want, searched = self.read_with_tags([4, 5, 6, 7, 8, 9, 1, 2, 3], first_block=6)
        assert isinstance(got, pm.RawMesh) and got == want and not searched

    def test_tags_with_a_gap_are_searched(self):
        got, want, searched = self.read_with_tags([9, 1, 2, 3, 4, 5, 6, 7, 10])
        assert isinstance(got, pm.RawMesh) and got == want and searched

    def test_duplicate_inside_a_range(self):
        got, want, _ = self.read_with_tags([1, 2, 2, 4, 5, 6, 7, 8, 9])
        assert got == want == "GmshParseError: duplicate node tag 2"

    @pytest.mark.parametrize("offset", [-1, 1], ids=["below", "above"])
    def test_unknown_node_just_outside_the_range(self, offset):
        mesh = pm.triangle_grid(1, 1)
        nodes = [f"{v + 1} {x:.16g} {y:.16g} 0" for v, (x, y) in enumerate(mesh.vertices.tolist())]
        ref = 0 if offset < 0 else len(nodes) + 1
        text = msh(nodes, ["1 2 2 7 7 1 2 3", f"2 2 2 7 7 2 {ref} 3"])
        got = outcome(pm.read_gmsh, io.StringIO(text))
        assert got == outcome(oracle.read_gmsh, io.StringIO(text))
        assert got == f"GmshParseError: element references unknown node {ref}"


class TestRoundTrip:
    def test_single_tet(self):
        mesh = parse(MINIMAL_TET)
        assert parse(pm.write_gmsh(mesh)) == mesh

    def test_unit_square_markers_survive(self):
        mesh = pm.read_gmsh_file(DATA / "square_2tri.msh")
        again = parse(pm.write_gmsh(mesh))
        assert again == mesh

    def test_corpus_idempotent(self, corpus):
        for name, mesh in corpus.items():
            once = parse(pm.write_gmsh(mesh))
            twice = parse(pm.write_gmsh(once))
            assert twice == once == mesh, name

    @pytest.mark.parametrize("mesh", [pm.triangle_grid(6, 6), pm.tet_box(6, 6, 6)],
                             ids=["triangle_grid-6x6", "tet_box-6x6x6"])
    def test_read_once_rewrites_byte_identically(self, mesh):
        # 16 significant digits round a coordinate that needs 17, such as
        # 1/6, so the first read may move vertices; what was read once
        # writes back to the same text and reads back to the same arrays.
        text = pm.write_gmsh(mesh)
        once = parse(text)
        assert pm.write_gmsh(once) == text
        assert parse(pm.write_gmsh(once)) == once

    def test_1d_boundary_points(self):
        mesh = pm.RawMesh(dim=1, vertices=[[0.0], [0.5], [1.0]], cells=[[0, 1], [1, 2]],
                          cell_region_ids=[0, 0], boundary_facets=[[0], [2]],
                          boundary_markers=[5, 6])
        text = pm.write_gmsh(mesh)
        assert "1 15 2 5 5 1\n2 15 2 6 6 3\n" in text
        assert parse(text) == mesh
        boundary = pm.raw_to_bundle(parse(text)).labels["boundary"]
        assert boundary.values.tolist() == [5, 6]

    def test_refuse_empty(self):
        mesh = parse(MINIMAL_TET)
        empty = pm.RawMesh(dim=3, vertices=np.empty((0, 3)), cells=np.empty((0, 4)),
                           cell_region_ids=[], boundary_facets=np.empty((0, 3)),
                           boundary_markers=[])
        with pytest.raises(ValueError, match="refusing"):
            pm.write_gmsh(empty)

    def test_sixteen_digit_coordinates(self):
        mesh = parse(MINIMAL_TET)
        mesh.vertices[0, 0] = 1.0 / 3.0
        text = pm.write_gmsh(mesh)
        assert "0.3333333333333333" in text
        assert parse(text) == mesh

    def test_file_created(self, tmp_path):
        mesh = pm.triangle_grid(2, 3)
        path = tmp_path / "new.msh"
        pm.write_gmsh_file(mesh, path)
        assert path.read_bytes() == pm.write_gmsh(mesh).encode("ascii")
        assert pm.read_gmsh_file(path) == parse(pm.write_gmsh(mesh))

    def test_longer_file_rewritten_exactly(self, tmp_path):
        # The file is rewritten in place and cut to length, so nothing of
        # the longer mesh it held survives behind the new text.
        long, short = pm.triangle_grid(6, 6), parse(MINIMAL_TET)
        path = tmp_path / "mesh.msh"
        pm.write_gmsh_file(long, path)
        assert pm.read_gmsh_file(path) == parse(pm.write_gmsh(long))
        pm.write_gmsh_file(short, path)
        assert path.read_bytes() == pm.write_gmsh(short).encode("ascii")
        assert pm.read_gmsh_file(path) == short


class TestRawToBundle:
    def test_tet_coordinates(self):
        bundle = pm.raw_to_bundle(parse(MINIMAL_TET))
        assert bundle.coordinates.section.total_size == 12
        assert bundle.vertex_coords().shape == (4, 3)

    def test_square_boundary_label(self):
        bundle = pm.raw_to_bundle(pm.read_gmsh_file(DATA / "square_2tri.msh"))
        boundary = bundle.labels["boundary"]
        marked = [int(boundary.points_with(v)[0]) for v in (1, 2, 3, 4)]
        assert len(set(marked)) == 4
        assert all(bundle.plex.depth(p) == 1 for p in marked)

    def test_region_label_covers_cells(self):
        bundle = pm.raw_to_bundle(pm.read_gmsh_file(DATA / "square_2tri.msh"))
        assert set(bundle.labels["region"].points_with(0).tolist()) == {0, 1}

    def test_cell_with_two_regions_exports_the_largest(self):
        bundle = pm.raw_to_bundle(pm.read_gmsh_file(DATA / "square_2tri.msh"))
        bundle.labels["region"] = pm.Label.from_arrays("region", [1, 0, 0], [4, 9, 2])
        assert pm.bundle_to_raw(bundle).cell_region_ids.tolist() == [9, 4]
        bundle.labels["region"] = pm.Label("region")
        assert pm.bundle_to_raw(bundle).cell_region_ids.tolist() == [0, 0]

    def test_region_on_a_vertex_rejected(self):
        bundle = pm.raw_to_bundle(pm.triangle_grid(2, 1))  # cells 0-3, vertices from 4
        bundle.labels["region"] = pm.Label.from_arrays("region", [0, 4], [1, 9])
        with pytest.raises(ValueError, match="region value on point 4, not a cell"):
            pm.bundle_to_raw(bundle)

    def test_region_on_a_vertex_of_a_scrambled_bundle_rejected(self):
        # A vertex numbered between cells must not pass for the next cell.
        bundle = pm.raw_to_bundle(pm.triangle_grid(2, 1))
        perm = pm.Permutation(np.random.default_rng(5).permutation(bundle.plex.chart_size))
        bundle = pm.apply_permutation(bundle, perm)
        cells, vertices = bundle.plex.height_stratum(0), bundle.plex.depth_stratum(0)
        vertex = int(vertices[vertices < cells.max()][0])
        bundle.labels["region"] = pm.Label.from_arrays("region", [vertex], [9])
        with pytest.raises(ValueError, match=f"region value on point {vertex}, not a cell"):
            pm.bundle_to_raw(bundle)

    @pytest.mark.parametrize("point", [40, -1])
    def test_label_point_outside_the_chart_rejected(self, point):
        # Built directly, in (point, value) order: from_arrays refuses -1 itself.
        bundle = pm.raw_to_bundle(pm.triangle_grid(2, 1))  # 19 points
        points, values = zip(*sorted([(0, 1), (point, 9)]))
        label = pm.Label("region", np.array(points), np.array(values))
        with pytest.raises(ValueError,
                           match=f"label 'region' marks point {point}, outside the chart"):
            pm.MeshBundle(bundle.plex, bundle.coordinates, {"region": label})

    @pytest.mark.parametrize("points,message", [
        ([0, 100, 1], "label 'x': points do not ascend"),
        ([0.0, 1.0, 2.0],
         "label 'x': points of shape (3,) and dtype float64, not a 1-D integer array"),
    ], ids=["unsorted", "float"])
    def test_label_points_must_ascend_as_integers(self, points, message):
        # Both pass the ends check; migrate would drop or misplace their values.
        bundle = pm.raw_to_bundle(pm.triangle_grid(2, 1))  # 19 points
        label = pm.Label("x", np.array(points), np.array([1, 2, 3]))
        with pytest.raises(ValueError, match=re.escape(message)):
            pm.MeshBundle(bundle.plex, bundle.coordinates, {**bundle.labels, "x": label})

    def test_boundary_on_a_cell_rejected(self):
        bundle = pm.raw_to_bundle(pm.triangle_grid(2, 1))
        bundle.labels["boundary"] = pm.Label.from_arrays("boundary", [0], [5])
        with pytest.raises(ValueError, match="boundary value on point 0, not a facet"):
            pm.bundle_to_raw(bundle)

    def test_boundary_on_a_cell_of_a_scrambled_bundle_rejected(self):
        # A cell numbered between facets, marked with a real facet.
        bundle = pm.raw_to_bundle(pm.triangle_grid(2, 1))
        perm = pm.Permutation(np.random.default_rng(5).permutation(bundle.plex.chart_size))
        bundle = pm.apply_permutation(bundle, perm)
        cells, facets = bundle.plex.height_stratum(0), bundle.plex.height_stratum(1)
        cell = int(cells[(cells > facets.min()) & (cells < facets.max())][0])
        bundle.labels["boundary"] = pm.Label.from_arrays(
            "boundary", [int(facets[0]), cell], [1, 5])
        with pytest.raises(ValueError, match=f"boundary value on point {cell}, not a facet"):
            pm.bundle_to_raw(bundle)

    def test_missing_facet_rejected(self):
        mesh = parse(MINIMAL_TET)
        bad = pm.RawMesh(dim=3, vertices=mesh.vertices, cells=mesh.cells,
                         cell_region_ids=mesh.cell_region_ids,
                         boundary_facets=[(0, 1, 2)], boundary_markers=[9])
        # facet (0,1,2) exists; (0,1,3) with a vertex swap still exists; use a
        # non-face triple of a *two*-tet mesh instead
        two = pm.RawMesh(dim=3, vertices=np.vstack([mesh.vertices, [[1, 1, 1]]]),
                         cells=[(0, 1, 2, 3), (1, 2, 3, 4)],
                         cell_region_ids=[0, 0],
                         boundary_facets=[(0, 1, 4)], boundary_markers=[9])
        with pytest.raises(ValueError, match="not found"):
            pm.raw_to_bundle(two)
        assert pm.raw_to_bundle(bad)  # sanity: a real facet is accepted

    def test_missing_facet_past_every_facet_rejected(self):
        # (2, 3), the diagonal of two triangles on the edge (0, 1), sorts
        # after every edge of the mesh; the first missing facet is named.
        mesh = pm.RawMesh(dim=2, vertices=[[0, 0], [1, 1], [1, 0], [0, 1]],
                          cells=[[0, 1, 2], [0, 1, 3]], cell_region_ids=[0, 0],
                          boundary_facets=[[0, 2], [3, 2], [1, 3]], boundary_markers=[1, 2, 3])
        with pytest.raises(ValueError, match=re.escape("boundary facet (2, 3) not found")):
            pm.raw_to_bundle(mesh)

    @pytest.mark.parametrize("points", [10, 21])
    def test_coordinates_must_cover_the_chart(self, points):
        # Both sections carry two dofs on each vertex (points 4-9) alone.
        bundle = pm.raw_to_bundle(pm.triangle_grid(2, 1))  # 19 points
        dofs = np.zeros(points, dtype=np.int64)
        dofs[bundle.plex.depth_stratum(0)] = 2
        coords = pm.Field("coordinates", pm.Section(dofs), bundle.coordinates.values)
        with pytest.raises(ValueError, match=f"coordinate section covers {points} points, "
                                             "the plex chart 19"):
            pm.MeshBundle(bundle.plex, coords, bundle.labels)

    @pytest.mark.parametrize("dim", [0, 4])
    def test_unsupported_dimension_rejected(self, dim):
        with pytest.raises(ValueError, match=f"unsupported mesh dimension {dim}"):
            pm.RawMesh(dim=dim, vertices=np.zeros((dim + 1, dim)), cells=[range(dim + 1)],
                       cell_region_ids=[0], boundary_facets=np.empty((0, dim)),
                       boundary_markers=[])

    def test_vertex_id_out_of_range(self):
        mesh = parse(MINIMAL_TET)
        with pytest.raises(ValueError, match=r"boundary_facets: 9 not in \[0, 4\)"):
            pm.RawMesh(dim=3, vertices=mesh.vertices, cells=mesh.cells,
                       cell_region_ids=mesh.cell_region_ids,
                       boundary_facets=[(1, 2, 9)], boundary_markers=[1])

    @pytest.mark.parametrize("field, value, message", [
        ("cells", [[0, 1, 2, 3.5]], "cells: 3.5 is not a whole number"),
        ("boundary_facets", [[0, 1, 2], [0.25, 1, 3]],
         "boundary_facets: 0.25 is not a whole number"),
        ("cell_region_ids", [0.5], "cell_region_ids: 0.5 is not a whole number"),
        ("boundary_markers", [1, np.nan], "boundary_markers: nan is not a whole number"),
        ("cell_region_ids", [[7, 8]], "cell_region_ids of shape (1, 2), not 1-D"),
        ("boundary_markers", [[1], [2]], "boundary_markers of shape (2, 1), not 1-D"),
        ("cell_region_ids", np.array([2**64 - 1], dtype=np.uint64),
         "cell_region_ids: 18446744073709551615 does not fit in int64"),
    ])
    def test_integer_fields_refuse_what_a_cast_would_change(self, field, value, message):
        # A cast would truncate 0.5 to 0 and wrap 2**64 - 1 to -1, and two
        # region ids per cell would be written as a line that read_gmsh refuses.
        fields = dict(dim=3, vertices=np.eye(4, 3), cells=[[0, 1, 2, 3]], cell_region_ids=[7],
                      boundary_facets=[[0, 1, 2], [0, 1, 3]], boundary_markers=[1, 2])
        with pytest.raises(ValueError, match=re.escape(message)):
            pm.RawMesh(**{**fields, field: value})

    def test_whole_float_fields_accepted(self):
        mesh = pm.RawMesh(dim=2, vertices=[[0, 0], [1, 0], [0, 1]], cells=[[0.0, 1.0, 2.0]],
                          cell_region_ids=np.array([4.0]), boundary_facets=[[0.0, 1.0]],
                          boundary_markers=[-3.0])
        assert mesh == pm.RawMesh(dim=2, vertices=[[0, 0], [1, 0], [0, 1]], cells=[[0, 1, 2]],
                                  cell_region_ids=[4], boundary_facets=[[0, 1]],
                                  boundary_markers=[-3])
        assert mesh.cells.dtype == mesh.boundary_markers.dtype == np.int64
        assert parse(pm.write_gmsh(mesh)) == mesh

    def test_counts_preserved_through_bundle_and_back(self, corpus):
        for name, mesh in corpus.items():
            out = pm.bundle_to_raw(pm.raw_to_bundle(mesh))
            assert out.num_vertices == mesh.num_vertices, name
            assert out.num_cells == mesh.num_cells, name
            assert (sorted(out.boundary_markers.tolist())
                    == sorted(mesh.boundary_markers.tolist())), name
            # cells as vertex-id sets survive the round trip
            want = sorted(tuple(sorted(c)) for c in mesh.cells.tolist())
            got = sorted(tuple(sorted(c)) for c in out.cells.tolist())
            assert got == want, name

    def test_every_boundary_facet_maps_to_one_point(self, corpus):
        for name, mesh in corpus.items():
            bundle = pm.raw_to_bundle(mesh)
            boundary = bundle.labels["boundary"]
            total = sum(len(boundary.points_with(v)) for v in boundary.value_ids())
            assert total == len(mesh.boundary_facets), name

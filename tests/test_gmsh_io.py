"""MSH 2.2 parsing/writing and raw <-> bundle conversion."""

from __future__ import annotations

import io
from pathlib import Path

import numpy as np
import pytest

import plexmesh as pm

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

    @pytest.mark.parametrize("where", ["comment", "node"])
    def test_non_ascii_byte_is_a_parse_error(self, tmp_path, where):
        path = tmp_path / "accent.msh"
        text = (MINIMAL_TET + "$Comments\nmaill\u00e9\n$EndComments\n"
                if where == "comment" else MINIMAL_TET.replace("2 1 0 0", "2 1\u00e9 0 0"))
        path.write_bytes(text.encode("utf-8"))
        with pytest.raises(pm.GmshParseError, match="non-ASCII byte 0xc3") as info:
            pm.read_gmsh_file(path)
        assert info.value.__cause__ is None and info.value.__suppress_context__

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
        bundle = pm.raw_to_bundle(pm.triangle_grid(2, 1))  # 19 points
        label = pm.Label.from_arrays("region", [0, point], [1, 9])
        with pytest.raises(ValueError,
                           match=f"label 'region' marks point {point}, outside the chart"):
            pm.MeshBundle(bundle.plex, bundle.coordinates, {"region": label})

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

    def test_vertex_id_out_of_range(self):
        mesh = parse(MINIMAL_TET)
        with pytest.raises(ValueError, match="out of range"):
            pm.RawMesh(dim=3, vertices=mesh.vertices, cells=mesh.cells,
                       cell_region_ids=mesh.cell_region_ids,
                       boundary_facets=[(1, 2, 9)], boundary_markers=[1])

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

"""CLI subcommands, JSON schemas, exit codes, output files."""

from __future__ import annotations

import json
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

import plexmesh as pm
from plexmesh.cli import main
from plexmesh.schemas import SCHEMAS


ONE_TRIANGLE = ("$MeshFormat\n2.2 0 8\n$EndMeshFormat\n"
                "$Nodes\n3\n1 0 0 0\n2 1 0 0\n3 0 1 0\n$EndNodes\n"
                "$Elements\n1\n1 2 2 0 0 1 2 3\n$EndElements\n")


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestInfo:
    def test_single_tet_strata(self, corpus_dir, capsys):
        code, out = run(capsys, "info", str(corpus_dir / "tet_single.msh"))
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, SCHEMAS["info"])
        assert doc["points_per_height"] == [1, 4, 6, 4]
        assert doc["cells"] == 1 and doc["vertices"] == 4
        assert doc["chart_size"] == 15

    def test_all_corpus_validates(self, corpus_dir, capsys):
        for path in sorted(corpus_dir.glob("*.msh")):
            code, out = run(capsys, "info", str(path))
            assert code == 0
            jsonschema.validate(json.loads(out), SCHEMAS["info"])


class TestPartition:
    def test_json_and_csv(self, corpus_dir, tmp_path, capsys):
        csv = tmp_path / "ranks.csv"
        code, out = run(capsys, "partition", str(corpus_dir / "grid4.msh"),
                        "--nparts", "4", "--csv", str(csv))
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, SCHEMAS["partition"])
        assert doc["ncells"] == 32
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "cell,rank"
        assert len(lines) == 33

    def test_both_methods(self, corpus_dir, capsys):
        for method in ("greedy-bfs", "coordinate-bisection"):
            code, out = run(capsys, "partition", str(corpus_dir / "grid4.msh"),
                            "--nparts", "2", "--method", method)
            assert code == 0
            assert json.loads(out)["method"] == method


class TestDistribute:
    def test_outputs(self, corpus_dir, tmp_path, capsys):
        out_dir = tmp_path / "dist"
        code, out = run(capsys, "distribute", str(corpus_dir / "grid4.msh"),
                        "--nparts", "3", "--out", str(out_dir))
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, SCHEMAS["distribute"])

        for r in range(3):
            local = pm.read_gmsh_file(out_dir / f"rank{r}.msh")
            assert local.num_cells >= 1
        sf_doc = json.loads((out_dir / "sf.json").read_text())
        jsonschema.validate(sf_doc, SCHEMAS["star_forest"])
        assert sf_doc["nranks"] == 3
        report = json.loads((out_dir / "report.json").read_text())
        jsonschema.validate(report, SCHEMAS["migration_report"])
        assert report == doc["migration"]

    def test_rank_mesh_cells_cover_input(self, corpus_dir, tmp_path, capsys):
        out_dir = tmp_path / "dist2"
        run(capsys, "distribute", str(corpus_dir / "square_2tri.msh"),
            "--nparts", "2", "--out", str(out_dir))
        total = sum(pm.read_gmsh_file(out_dir / f"rank{r}.msh").num_cells
                    for r in range(2))
        assert total == 4  # both ranks carry the full 2-cell mesh (overlap)


class TestReorder:
    def test_json_and_output_file(self, corpus_dir, tmp_path, capsys):
        out_mesh = tmp_path / "rcm.msh"
        code, out = run(capsys, "reorder", str(corpus_dir / "grid32.msh"),
                        "--out", str(out_mesh))
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, SCHEMAS["reorder"])
        assert doc["bandwidth_after"] <= doc["bandwidth_before"]
        reordered = pm.read_gmsh_file(out_mesh)
        assert reordered.num_cells == 2048


class TestSpy:
    def test_plain_and_rcm(self, corpus_dir, capsys):
        code, out = run(capsys, "spy", str(corpus_dir / "tet_single.msh"))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "row,col" and len(lines) == 17
        code, out_rcm = run(capsys, "spy", str(corpus_dir / "tet_single.msh"), "--rcm")
        assert code == 0
        assert len(out_rcm.strip().splitlines()) == 17


class TestBench:
    def test_zero_fields_equal_totals(self, corpus_dir, capsys):
        code, out = run(capsys, "bench", str(corpus_dir / "grid4.msh"),
                        "--nparts", "2", "--fields", "0")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, SCHEMAS["bench"])
        totals = [w["data"]["bytes_total"] for w in doc["workflows"]]
        assert totals[0] == totals[1]

    def test_three_fields_preprocessor_pays(self, corpus_dir, capsys):
        code, out = run(capsys, "bench", str(corpus_dir / "grid4.msh"),
                        "--nparts", "4", "--fields", "3")
        doc = json.loads(out)
        by_name = {w["workflow"]: w for w in doc["workflows"]}
        assert by_name["preprocessor"]["data"]["bytes_fields"] > 0
        assert by_name["runtime-distribute"]["data"]["bytes_fields"] == 0
        assert (by_name["runtime-distribute"]["data"]["bytes_total"]
                < by_name["preprocessor"]["data"]["bytes_total"])

    def test_byte_counts_match_migrate_exactly(self, corpus, corpus_dir, capsys):
        _, out = run(capsys, "bench", str(corpus_dir / "grid4.msh"),
                     "--nparts", "3", "--fields", "2")
        doc = json.loads(out)
        by_name = {w["workflow"]: w["data"] for w in doc["workflows"]}

        bundle = pm.raw_to_bundle(corpus["grid4"])
        pmap = pm.partition_cells(pm.build_dual_graph(bundle.plex), 3)
        sec = pm.section_from_depth_dofs(bundle.plex, [1, 0, 0])
        fields = [pm.Field(f"field{i}", sec, [0.0] * sec.total_size)
                  for i in range(2)]
        _, _, runtime = pm.migrate(bundle, pmap, 3)
        _, _, prep = pm.migrate(bundle, pmap, 3, fields=fields)
        assert by_name["runtime-distribute"] == runtime.as_dict()
        assert by_name["preprocessor"] == prep.as_dict()


class TestDeterminism:
    def test_data_sections_byte_identical(self, corpus_dir, tmp_path, capsys):
        mesh = str(corpus_dir / "grid4.msh")
        for argv in (["info", mesh],
                     ["partition", mesh, "--nparts", "4"],
                     ["reorder", mesh],
                     ["spy", mesh, "--rcm"]):
            _, a = run(capsys, *argv)
            _, b = run(capsys, *argv)
            assert a == b, argv
        _, a = run(capsys, "distribute", mesh, "--nparts", "3",
                   "--out", str(tmp_path / "d1"))
        _, b = run(capsys, "distribute", mesh, "--nparts", "3",
                   "--out", str(tmp_path / "d2"))
        assert a == b
        for name in ("rank0.msh", "rank1.msh", "rank2.msh", "sf.json", "report.json"):
            assert (tmp_path / "d1" / name).read_bytes() == \
                (tmp_path / "d2" / name).read_bytes()

    def test_bench_data_identical_timing_aside(self, corpus_dir, capsys):
        argv = ["bench", str(corpus_dir / "grid4.msh"), "--nparts", "2"]
        _, a = run(capsys, *argv)
        _, b = run(capsys, *argv)

        def strip(doc):
            for w in doc["workflows"]:
                w.pop("timing")
            return doc

        assert strip(json.loads(a)) == strip(json.loads(b))


class TestExitCodes:
    def test_usage_errors(self, capsys):
        assert main([]) == 1
        assert main(["bogus"]) == 1
        assert main(["partition", "x.msh"]) == 1  # missing --nparts

    @pytest.mark.parametrize("nparts", ["0", "-2"])
    @pytest.mark.parametrize("command", ["partition", "distribute", "bench"])
    def test_nparts_below_one_is_a_usage_error(self, corpus_dir, tmp_path, capsys,
                                               command, nparts):
        argv = [command, str(corpus_dir / "grid4.msh"), "--nparts", nparts]
        if command == "distribute":
            argv += ["--out", str(tmp_path)]
        assert main(argv) == 1
        assert capsys.readouterr().out == ""
        assert not any(tmp_path.iterdir())

    def test_negative_fields_is_a_usage_error(self, corpus_dir, capsys):
        argv = ["bench", str(corpus_dir / "grid4.msh"), "--nparts", "2", "--fields"]
        assert main(argv + ["-1"]) == 1
        assert capsys.readouterr().out == ""
        assert main(argv + ["0"]) == 0

    def test_file_errors(self, tmp_path, capsys):
        assert main(["info", str(tmp_path / "missing.msh")]) == 2
        bad = tmp_path / "bad.msh"
        bad.write_text("$MeshFormat\n4.1 0 8\n$EndMeshFormat\n")
        assert main(["info", str(bad)]) == 2

    @pytest.mark.parametrize("command", ["distribute", "reorder", "info"])
    def test_os_errors_are_file_errors(self, corpus_dir, tmp_path, capsys, command):
        # An existing file where a directory is wanted: FileExistsError or
        # NotADirectoryError, neither of which is a missing-file error.
        blocker = tmp_path / "file"
        blocker.write_text("")
        mesh = str(corpus_dir / "grid4.msh")
        argv = {"distribute": ["distribute", mesh, "--nparts", "2", "--out", str(blocker)],
                "reorder": ["reorder", mesh, "--out", str(blocker / "x.msh")],
                "info": ["info", str(blocker / "x.msh")]}[command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("plexmesh: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_unwritable_partition_csv_prints_no_report(self, corpus_dir, tmp_path, capsys):
        argv = ["partition", str(corpus_dir / "grid4.msh"), "--nparts", "2",
                "--csv", str(tmp_path / "missing" / "ranks.csv")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("plexmesh: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("content", [
        ONE_TRIANGLE.encode() + "$Comments\nmaill\u00e9\n$EndComments\n".encode(),
        np.random.default_rng(7).bytes(256) + b"\xff",
    ], ids=["accented-comment", "random-bytes"])
    def test_non_ascii_input_is_a_parse_error(self, tmp_path, capsys, content):
        mesh = tmp_path / "bytes.msh"
        mesh.write_bytes(content)
        first = next(b for b in content if b > 0x7F)
        assert main(["info", str(mesh)]) == 2
        err = capsys.readouterr().err
        assert err == f"plexmesh: parse error: non-ASCII byte 0x{first:02x} in MSH file\n"

    def test_validation_errors(self, corpus_dir, capsys):
        assert main(["partition", str(corpus_dir / "tet_single.msh"),
                     "--nparts", "5"]) == 3

    def test_degenerate_cell_is_a_validation_error(self, tmp_path, capsys):
        mesh = tmp_path / "degenerate.msh"
        mesh.write_text("$MeshFormat\n2.2 0 8\n$EndMeshFormat\n"
                        "$Nodes\n3\n1 0 0 0\n2 1 0 0\n3 0 1 0\n$EndNodes\n"
                        "$Elements\n2\n1 2 2 0 0 1 2 3\n2 2 2 0 0 1 1 2\n"
                        "$EndElements\n")
        assert main(["info", str(mesh)]) == 3
        assert "degenerate cell 1 (0, 0, 1)" in capsys.readouterr().err


    @pytest.mark.parametrize("nodes,message", [
        ("4\n1 0 0 0\n2 1 0 0\n3 0 1 0\n3 1 1 0\n", "duplicate node tag 3"),
        ("four\n", "count 'four'"),
        ("3\n1 0 0 0\n2 nan 0 0\n3 0 1 0\n", "node 2 has a non-finite"),
        ("-1\n", "negative $Nodes count -1"),
    ], ids=["duplicate-tag", "non-integer-count", "nan-coordinate", "negative-count"])
    def test_malformed_nodes_are_parse_errors(self, tmp_path, capsys, nodes, message):
        mesh = tmp_path / "bad.msh"
        mesh.write_text(ONE_TRIANGLE.replace(
            "3\n1 0 0 0\n2 1 0 0\n3 0 1 0\n", nodes))
        assert main(["info", str(mesh)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("elements,code,message", [
        ("1\n1 2 -1 1 1 2 3\n", 2, "malformed element line"),
        ("2\n1 2 2 0 0 1 2 3\n2 2 2 0 0 1 2 3\n", 3,
         "duplicate cell 1 (0, 1, 2): same vertices as cell 0"),
    ], ids=["negative-ntags", "duplicate-cell"])
    def test_malformed_elements(self, tmp_path, capsys, elements, code, message):
        mesh = tmp_path / "bad.msh"
        mesh.write_text(ONE_TRIANGLE.replace("1\n1 2 2 0 0 1 2 3\n", elements))
        assert main(["info", str(mesh)]) == code
        assert message in capsys.readouterr().err

    def test_unused_vertex_is_a_validation_error(self, tmp_path, capsys):
        mesh = tmp_path / "unused.msh"
        mesh.write_text(ONE_TRIANGLE.replace(
            "3\n1 0 0 0\n2 1 0 0\n3 0 1 0\n",
            "4\n1 0 0 0\n2 1 0 0\n3 0 1 0\n4 1 1 0\n"))
        assert main(["info", str(mesh)]) == 3
        assert "vertex 3 is used by no cell" in capsys.readouterr().err


def test_console_entry_point(corpus_dir):
    proc = subprocess.run(
        [sys.executable, "-m", "plexmesh.cli", "info",
         str(corpus_dir / "line_single.msh")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["dim"] == 1

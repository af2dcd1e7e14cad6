"""Every CLI output against the SHA-256 digests recorded in data/outputs.json.

Each subcommand runs in-process on the golden meshes and on fixed generator
meshes, shuffled and not, at a few part counts: `info`, `partition --csv`,
`distribute` (its JSON and every file it writes), `reorder --out`, `spy`,
`spy --rcm`, and `bench` with its "timing" blocks removed.  A change meant to
keep outputs passes unchanged; a change that alters outputs on purpose
re-records the file with

    PYTHONPATH=src:tests:. python tests/test_outputs.py

and the diff shows which outputs moved.  Each benchmark workload's seed-1
outputs are checked against perfbench/digests.json as well.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import shutil
import sys
from pathlib import Path

import pytest

import plexmesh as pm
from perfbench.worker import recorded_digest
from perfbench.workloads import WORKLOADS, shuffle_mesh
from plexmesh import cli, gmsh_io

from _helpers import relabel

DATA = Path(__file__).parent / "data"
DIGESTS = DATA / "outputs.json"
GOLDEN = ["line_single", "tri_single", "tet_single", "square_2tri"]
NPARTS = (1, 2, 3, 5, 8)


def _meshes(tmp: Path) -> list[Path]:
    """The golden files, and generator meshes written next to them; the
    unshuffled grid gives coordinate bisection tied centroids."""
    paths = [Path(shutil.copy(DATA / f"{name}.msh", tmp)) for name in GOLDEN]
    for name, raw in {"grid4": pm.triangle_grid(4, 4),
                      "grid7x5-s1": relabel(pm.triangle_grid(7, 5), 1),
                      "box322-s2": relabel(pm.tet_box(3, 2, 2), 2),
                      "interval9-s3": relabel(pm.interval_mesh(9), 3)}.items():
        paths.append(tmp / f"{name}.msh")
        pm.write_gmsh_file(raw, paths[-1])
    return paths


def _run(*argv) -> str:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main([str(a) for a in argv])
    assert code == 0, argv
    return out.getvalue()


def _untimed(doc):
    if isinstance(doc, dict):
        return {k: _untimed(v) for k, v in doc.items() if k != "timing"}
    if isinstance(doc, list):
        return [_untimed(v) for v in doc]
    return doc


def outputs(tmp: Path, meshes: list[Path] | None = None) -> dict[str, str]:
    """SHA-256 of every output, keyed by mesh, subcommand, options and file."""
    found = {}

    def record(key: str, data) -> None:
        found[key] = hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()

    for mesh in meshes or _meshes(tmp):
        name = mesh.stem
        info = _run("info", mesh)
        record(f"{name}/info", info)
        record(f"{name}/spy", _run("spy", mesh))
        record(f"{name}/spy --rcm", _run("spy", mesh, "--rcm"))
        out = tmp / f"{name}.reordered.msh"
        record(f"{name}/reorder", _run("reorder", mesh, "--out", out))
        record(f"{name}/reorder --out", out.read_bytes())
        for nparts in NPARTS:
            if nparts > json.loads(info)["cells"]:
                continue
            bench = json.loads(_run("bench", mesh, "--nparts", nparts))
            record(f"{name}/bench {nparts}", json.dumps(_untimed(bench), sort_keys=True))
            for method in ("greedy-bfs", "coordinate-bisection"):
                key = f"{name}/{method} {nparts}"
                csv = tmp / f"{name}.{method}.{nparts}.csv"
                record(f"{key}/partition", _run("partition", mesh, "--nparts", nparts,
                                                "--method", method, "--csv", csv))
                record(f"{key}/partition --csv", csv.read_bytes())
                out = tmp / f"{name}.{method}.{nparts}"
                record(f"{key}/distribute", _run("distribute", mesh, "--nparts", nparts,
                                                 "--method", method, "--out", out))
                for path in sorted(out.iterdir()):
                    record(f"{key}/distribute/{path.name}", path.read_bytes())
    return found


@pytest.fixture(scope="module")
def found(tmp_path_factory) -> dict[str, str]:
    return outputs(tmp_path_factory.mktemp("outputs"))


def test_every_output_matches_its_recorded_digest(found):
    recorded = json.loads(DIGESTS.read_text())
    assert sorted(found) == sorted(recorded)
    assert [key for key in sorted(found) if found[key] != recorded[key]] == []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_benchmark_outputs_match_their_seed_1_digests(name, tmp_path):
    # The benchmark's seed-1 run, once, against perfbench/digests.json.
    wl = WORKLOADS[name]
    src = tmp_path / "input.msh"
    pm.write_gmsh_file(shuffle_mesh(wl.make_mesh(), 1), src)
    out = wl.pipeline(wl, src, tmp_path)
    assert wl.check(out, pm.gather_to_root) == []
    assert wl.digest(out) == recorded_digest(name, 1)


# Every writer of the CLI's outputs, one space appended to what it writes,
# and the outputs it writes.
PLANTED = {
    "json": (cli, "_emit", lambda emit: lambda obj: (emit(obj), print(end=" ")),
             {"info", "reorder", "partition", "distribute"}),
    "spy": (cli, "spy_export", lambda export: lambda pattern: export(pattern) + " ",
            {"spy", "spy --rcm"}),
    "msh": (gmsh_io, "write_gmsh", lambda write: lambda mesh: write(mesh) + " ",
            {"reorder --out", "rank.msh"}),
    "text file": (Path, "write_text", lambda write: lambda path, text: write(path, text + " "),
                  {"partition --csv", "sf.json", "report.json"}),
}


@pytest.mark.parametrize("writer", sorted(PLANTED))
def test_a_planted_byte_in_any_writer_changes_its_digests(writer, found, monkeypatch, tmp_path):
    meshes = _meshes(tmp_path)
    owner, name, plant, kinds = PLANTED[writer]
    monkeypatch.setattr(owner, name, plant(getattr(owner, name)))
    planted = outputs(tmp_path, meshes)
    assert {re.sub(r"rank\d+", "rank", key.rsplit("/", 1)[-1])
            for key in found if planted[key] != found[key]} == kinds


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        DIGESTS.write_text(json.dumps(outputs(Path(tmp)), sort_keys=True, indent=1) + "\n")
    print(f"recorded {DIGESTS}", file=sys.stderr)

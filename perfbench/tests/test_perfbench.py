"""Tests of the benchmark itself, on tiny versions of its workloads.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import plexmesh as pm
from perfbench import run, worker, workloads
from perfbench.reference import reference_kernel
from perfbench.tracing import Tracer, instrument

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_MESHES = {
    "distribute-tet3d": lambda: pm.tet_box(2, 2, 2),
    "reorder-tri2d": lambda: pm.triangle_grid(6, 6),
    "runtime-distribute-tri2d": lambda: pm.triangle_grid(8, 8),
}


@pytest.fixture()
def tiny(monkeypatch, tmp_path):
    """Swap in tiny meshes; returns a function setting up one workload's input.

    The recorded digests belong to the full-size meshes, so none is expected.
    """
    for name, make in TINY_MESHES.items():
        monkeypatch.setitem(workloads.WORKLOADS, name,
                            dataclasses.replace(workloads.WORKLOADS[name], make_mesh=make))
    monkeypatch.setattr(worker, "recorded_digest", lambda *_: None)

    def prepare(name: str, seed: int = 3):
        src, out_dir = tmp_path / f"{name}.msh", tmp_path / f"{name}-out"
        out_dir.mkdir()
        return worker.setup(name, seed, src), src, out_dir
    return prepare


def _measure(name, src, out_dir, trace=False, seed=3):
    return worker.measure(name, seed, 0.01, trace, src, out_dir)


def test_workloads_match_spec():
    assert set(workloads.WORKLOADS) == {w["name"] for w in SPEC["workloads"]}
    assert set(TINY_MESHES) == set(workloads.WORKLOADS)
    assert all(worker.recorded_digest(name, 1) for name in workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY_MESHES))
@pytest.mark.parametrize("trace", [False, True])
def test_runner_emits_every_declared_metric_with_its_unit(tiny, name, trace):
    setup, src, out_dir = tiny(name)
    measured = _measure(name, src, out_dir, trace)
    line = run.result_line(SPEC, [setup], measured, trace)

    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        entry = line["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"])
    assert line["correct"] and line["failed"] == 0
    assert line["attempted"] == (3 if trace else 2)
    if not trace:
        assert all(v["value"] > 0 for v in line["metrics"].values())
    json.dumps(line)


def test_traced_layer_metrics_cover_the_layers_each_workload_runs(tiny):
    values = {}
    for name in TINY_MESHES:
        _, src, out_dir = tiny(name)
        values[name] = _measure(name, src, out_dir, trace=True)["metrics"]
    tet, reorder, runtime = (values[n] for n in ("distribute-tet3d", "reorder-tri2d",
                                                 "runtime-distribute-tri2d"))
    assert tet["distribute.migrate_s"] > 0 and tet["renumber.rcm_ordering_s"] == 0
    assert reorder["renumber.rcm_ordering_s"] > 0 and reorder["distribute.migrate_s"] == 0
    assert runtime["partition.cell_centroids_s"] > 0 and runtime["gmsh_io.write_s"] == 0
    assert tet["plex.closure_reuse"] == 0 < reorder["plex.closure_reuse"]
    assert runtime["plex.plex_inits"] > tet["plex.plex_inits"] > reorder["plex.plex_inits"]
    for v in values.values():
        assert v["plex.closure_calls"] > 0 and v["trace.wall_s"] > 0


def test_self_times_sum_to_traced_wall(tiny):
    name = "runtime-distribute-tri2d"
    _, src, out_dir = tiny(name)
    wl = workloads.WORKLOADS[name]
    tracer = Tracer()
    with instrument(tracer), tracer.recording(worker.ROOT_SPAN):
        wl.pipeline(wl, src, out_dir)
    sample = tracer.collect()

    wall = sample["total_s"][worker.ROOT_SPAN]
    glue = sample["self_s"][worker.ROOT_SPAN]
    layers = sum(v for k, v in sample["self_s"].items() if k != worker.ROOT_SPAN)
    assert layers == pytest.approx(wall - glue, rel=1e-9)
    assert 0 <= glue < wall
    assert min(sample["self_s"].values()) > -1e-9
    # Every span is a layer call; the metric table names the ones reported.
    reported = {n for names in worker.SELF_TIME_SPANS.values() for n in names}
    assert {"plex.Plex.closure", "distribute.migrate", "renumber.rcm_ordering"} <= reported
    # One plex for the input, one per rank, one per reordered rank.
    assert sample["calls"]["plex.Plex.__init__"] == 1 + 2 * wl.nparts


def test_instrument_wraps_every_namespace_and_restores():
    originals = (pm.build_from_cells, pm.gmsh_io.build_from_cells,
                 pm.plex.Plex.closure, pm.plex.Plex.cone)
    tracer = Tracer()
    with instrument(tracer):
        wrapped = pm.plex.build_from_cells
        assert wrapped is not originals[0]
        assert pm.build_from_cells is wrapped and pm.gmsh_io.build_from_cells is wrapped
        assert pm.plex.Plex.closure is not originals[2]
        assert pm.plex.Plex.cone is originals[3]
        with tracer.recording("root"):
            pm.triangle_grid(2, 2)
        assert tracer.collect()["calls"] == {"root": 1, "meshgen.triangle_grid": 1}
    assert (pm.build_from_cells, pm.gmsh_io.build_from_cells,
            pm.plex.Plex.closure, pm.plex.Plex.cone) == originals


def _mutated_gather(locals_, sf):
    bundle = pm.distribute.gather_to_root(locals_, sf)
    values = bundle.coordinates.values.copy()
    values[0] += 1.0
    coords = pm.Field("coordinates", bundle.coordinates.section, values)
    return pm.MeshBundle(bundle.plex, coords, bundle.labels)


def _mutated_bundle_to_raw(bundle):
    raw = pm.gmsh_io.bundle_to_raw(bundle)
    raw.cell_region_ids[0] += 1
    return raw


@pytest.mark.parametrize("name, patch, expected", [
    ("distribute-tet3d", ("gather_to_root", _mutated_gather), "gather_to_root"),
    ("runtime-distribute-tri2d", ("gather_to_root", _mutated_gather), "gather_to_root"),
    ("reorder-tri2d", ("bundle_to_raw", _mutated_bundle_to_raw), "not the input mesh"),
    ("distribute-tet3d", None, "digest"),
])
def test_corrupted_output_counts_as_failure(tiny, monkeypatch, name, patch, expected):
    _, src, out_dir = tiny(name)
    if patch is None:
        monkeypatch.setattr(worker, "recorded_digest", lambda *_: "0" * 64)
    else:
        monkeypatch.setattr(pm, *patch)
    measured = _measure(name, src, out_dir)
    assert measured["failed"] == measured["attempted"] == 2
    assert any(expected in p for p in measured["problems"])
    assert not run.result_line(SPEC, [worker.setup(name, 3, src)], measured,
                               False)["correct"]


def test_end_to_end_time_is_relative_to_the_reference_kernel(tiny):
    name = "reorder-tri2d"
    _, src, out_dir = tiny(name)
    measured = worker.measure(name, 3, 0.5, False, src, out_dir)
    walls, refs = measured["walls"], measured["refs"]
    assert len(walls) == len(refs) == measured["attempted"] > 2
    assert measured["metrics"]["wall_ref_ratio"] == pytest.approx(statistics.median(
        walls[i] / ((refs[i - 1] + refs[i]) / 2) for i in range(1, len(walls))))
    assert reference_kernel() == reference_kernel() > 0


def test_shuffle_is_seeded_and_keeps_the_mesh():
    mesh = pm.triangle_grid(5, 4)
    a, b = workloads.shuffle_mesh(mesh, 7), workloads.shuffle_mesh(mesh, 7)
    c = workloads.shuffle_mesh(mesh, 8)
    assert a == b and a != c and a != mesh
    for shuffled in (a, c):
        for x, y in zip(workloads._coordinate_form(mesh),
                        workloads._coordinate_form(shuffled)):
            np.testing.assert_array_equal(x, y)


def test_runner_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reorder-tri2d",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

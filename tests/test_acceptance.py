"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print.  Criteria sweep the whole corpus (single simplex per dimension, the
two-triangle square, 4x4 and 32x32 triangle grids, a tetrahedralized cube);
nparts values exceeding a mesh's cell count are excluded because
partition_cells defines them as errors.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

import jsonschema
import numpy as np
import pytest

import plexmesh as pm
from plexmesh.cli import main as cli_main
from plexmesh.schemas import SCHEMAS

from _helpers import canonical, dof_indices, reordered_bandwidth, valid_nparts

pytestmark = pytest.mark.acceptance


@contextmanager
def criterion(num: int, desc: str):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num}: {desc}")
        raise
    print(f"PASS criterion {num}: {desc}")


def distributions(bundles, nparts_wanted=(1, 2, 3, 4, 8)):
    """Every (name, bundle, nparts, locals, sf) combo the corpus supports."""
    for name, bundle in bundles.items():
        graph = pm.build_dual_graph(bundle.plex)
        for nparts in valid_nparts(graph.num_cells, nparts_wanted):
            pmap = pm.partition_cells(graph, nparts)
            locals_, sf, report = pm.migrate(bundle, pmap, nparts)
            yield name, bundle, nparts, locals_, sf, report


def test_criterion_1_fig1_golden():
    with criterion(1, "single-tetrahedron DAG golden test, < 1 ms"):
        def build_and_check():
            plex = pm.build_from_cells([(0, 1, 2, 3)], 4, 3)
            assert plex.chart_size == 15
            assert [len(plex.height_stratum(h)) for h in range(4)] == [1, 4, 6, 4]
            assert sorted(plex.cone(0).tolist()) == [5, 6, 7, 8]
            assert plex.cone(0).tolist() == sorted(
                plex.height_stratum(1).tolist())
            assert len(plex.closure(0)) == 15

        build_and_check()  # warm caches, then time the best of 5
        best = min(_timed(build_and_check) for _ in range(5))
        assert best < 1e-3, f"took {best * 1e3:.3f} ms"


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_criterion_2_duality_suite(bundles):
    with criterion(2, "exhaustive cone/support duality on the corpus, < 5 s"):
        t0 = time.perf_counter()
        for name, bundle in bundles.items():
            plex = bundle.plex
            cone_arcs = {(p, int(q)) for p in range(plex.chart_size)
                         for q in plex.cone(p)}
            sup_arcs = {(int(q), p) for p in range(plex.chart_size)
                        for q in plex.support(p)}
            assert cone_arcs == sup_arcs, name
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"took {elapsed:.2f} s"


def test_criterion_3_gmsh_round_trip(corpus):
    with criterion(3, "read-write-read equals read on the golden corpus"):
        import io
        for name, mesh in corpus.items():
            again = pm.read_gmsh(io.StringIO(pm.write_gmsh(mesh)))
            assert again == mesh, name


def test_criterion_4_distribution_soundness(bundles):
    with criterion(4, "owned cells partition, leaves resolve, gather restores"):
        for name, bundle, nparts, locals_, sf, _ in distributions(bundles):
            tag = f"{name}/nparts={nparts}"
            cells = set(bundle.plex.height_stratum(0).tolist())
            owned_global = [
                {int(lm.local_to_global[c]) for c in lm.owned_cells}
                for lm in locals_]
            assert set().union(*owned_global) == cells, tag
            assert sum(len(s) for s in owned_global) == len(cells), tag
            for r in range(nparts):
                for local, owner, owner_pt in sf.rank_leaves(r):
                    assert owner != r, tag
                    assert owner_pt not in locals_[owner].ghost_points, tag
                    assert (locals_[owner].local_to_global[owner_pt]
                            == locals_[r].local_to_global[local]), tag
            back = pm.gather_to_root(locals_, sf)
            assert canonical(back) == canonical(bundle), tag


def test_criterion_5_trailing_receives(bundles):
    with criterion(5, "owned dofs precede ghost dofs on every rank"):
        for name, bundle, nparts, locals_, sf, _ in distributions(bundles):
            for lm in locals_:
                sec = pm.section_from_depth_dofs(
                    lm.bundle.plex, [1] + [0] * bundle.dim)
                halo, perm = pm.build_halo(lm, sf, sec)
                psec = pm.permute_section(sec, perm)
                owned_idx, ghost_idx = dof_indices(psec, perm, lm.ghost_points)
                assert owned_idx == list(range(halo.n_owned))
                if ghost_idx:
                    assert max(owned_idx, default=-1) < min(ghost_idx), \
                        f"{name}/nparts={nparts}/rank={lm.rank}"


def test_criterion_6_communication_volume(bundles):
    with criterion(6, "topology-only migration ships fewer bytes; 3-field "
                      "ratio on the 32x32 grid matches nfields/2"):
        for name, bundle in bundles.items():
            graph = pm.build_dual_graph(bundle.plex)
            for nparts in valid_nparts(graph.num_cells, (2, 3, 4, 8)):
                pmap = pm.partition_cells(graph, nparts)
                sec = pm.section_from_depth_dofs(
                    bundle.plex, [1] + [0] * bundle.dim)
                fld = pm.Field("u", sec, np.zeros(sec.total_size))
                _, _, runtime = pm.migrate(bundle, pmap, nparts)
                _, _, prep = pm.migrate(bundle, pmap, nparts, fields=[fld])
                tag = f"{name}/nparts={nparts}"
                assert runtime.bytes_fields == 0 and prep.bytes_fields > 0, tag
                assert runtime.bytes_total < prep.bytes_total, tag
                assert runtime.bytes_topology == prep.bytes_topology, tag

        # 3 P1 fields vs 2 coordinate dofs per vertex: bytes ratio exactly 3/2
        bundle = bundles["grid32"]
        graph = pm.build_dual_graph(bundle.plex)
        pmap = pm.partition_cells(graph, 4)
        sec = pm.section_from_depth_dofs(bundle.plex, [1, 0, 0])
        fields = [pm.Field(f"f{i}", sec, np.zeros(sec.total_size))
                  for i in range(3)]
        _, _, rep = pm.migrate(bundle, pmap, 4, fields=fields)
        assert rep.bytes_fields * 2 == rep.bytes_coordinates * 3
        assert rep.bytes_fields == rep.bytes_coordinates * len(fields) // 2


def test_criterion_7_rcm_effectiveness(bundles):
    with criterion(7, "RCM bandwidth beats 20/20 random orderings and the "
                      "input order on the 32x32 grid, < 5 s"):
        t0 = time.perf_counter()
        bundle = bundles["grid32"]
        pattern = pm.p1_pattern(bundle)
        bw_input = pm.bandwidth(pattern)
        perm = pm.rcm_ordering(bundle.plex)
        bw_rcm = pm.bandwidth(pm.p1_pattern(pm.apply_permutation(bundle, perm)))
        assert bw_rcm <= bw_input, (bw_rcm, bw_input)
        for seed in range(20):
            rho = np.random.default_rng(seed).permutation(pattern.n)
            assert bw_rcm <= reordered_bandwidth(pattern, rho), f"seed {seed}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"took {elapsed:.2f} s"


def test_criterion_8_permutation_consistency(bundles):
    with criterion(8, "pattern commutes with permutations; nnz invariant over "
                      "100 random permutations per corpus mesh"):
        for name, bundle in bundles.items():
            plex = bundle.plex
            base = pm.p1_pattern(bundle)
            rng = np.random.default_rng(29)
            for trial in range(100):
                perm = pm.Permutation(rng.permutation(plex.chart_size))
                permuted = pm.p1_pattern(pm.apply_permutation(bundle, perm))
                assert permuted.nnz == base.nnz, f"{name}/trial={trial}"
                if trial < 3:  # full structural commutation check
                    verts = plex.depth_stratum(0)
                    rho = np.argsort(np.argsort(perm.forward[verts]))
                    rows, cols = [], []
                    for i in range(base.n):
                        rows += [int(rho[i])] * len(base.row(i))
                        cols += [int(rho[j]) for j in base.row(i)]
                    assert permuted == pm.CsrPattern(base.n, rows, cols), name


def test_criterion_9_partition_quality(bundles):
    with criterion(9, "both partitioners on the 32x32 grid at nparts=4: "
                      "imbalance <= 1.25, edge cut below half the dual edges"):
        bundle = bundles["grid32"]
        graph = pm.build_dual_graph(bundle.plex)
        for method in ("greedy-bfs", "coordinate-bisection"):
            coords = (pm.cell_centroids(bundle)
                      if method == "coordinate-bisection" else None)
            pmap = pm.partition_cells(graph, 4, method=method, coords=coords)
            stats = pm.partition_stats(graph, pmap)
            assert stats.imbalance <= 1.25, method
            assert stats.edge_cut < graph.num_edges / 2, method


def test_criterion_10_cli_contract(corpus_dir, tmp_path, capsys):
    with criterion(10, "every subcommand emits schema-valid, run-to-run "
                       "identical data on the whole corpus"):
        for path in sorted(corpus_dir.glob("*.msh")):
            ncells = pm.read_gmsh_file(path).num_cells
            nparts = str(min(2, ncells))
            jobs = [
                ("info", ["info", str(path)]),
                ("partition", ["partition", str(path), "--nparts", nparts]),
                ("distribute", ["distribute", str(path), "--nparts", nparts,
                                "--out", str(tmp_path / f"{path.stem}_d")]),
                ("reorder", ["reorder", str(path)]),
                (None, ["spy", str(path), "--rcm"]),
                ("bench", ["bench", str(path), "--nparts", nparts,
                           "--fields", "2"]),
            ]
            for schema_name, argv in jobs:
                assert cli_main(argv) == 0, argv
                first = capsys.readouterr().out
                assert cli_main(argv) == 0, argv
                second = capsys.readouterr().out
                tag = f"{path.name}: {argv[0]}"
                if schema_name is None:
                    assert first == second, tag  # CSV output
                    continue
                doc1, doc2 = json.loads(first), json.loads(second)
                jsonschema.validate(doc1, SCHEMAS[schema_name])
                if schema_name == "bench":
                    for doc in (doc1, doc2):
                        for w in doc["workflows"]:
                            w.pop("timing")
                assert doc1 == doc2, tag
                if schema_name != "bench":
                    assert first == second, tag
        sf_doc = json.loads(
            (tmp_path / "grid4_d" / "sf.json").read_text())
        jsonschema.validate(sf_doc, SCHEMAS["star_forest"])
        report = json.loads(
            (tmp_path / "grid4_d" / "report.json").read_text())
        jsonschema.validate(report, SCHEMAS["migration_report"])

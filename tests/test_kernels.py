"""Array kernels against the per-point oracles in _oracles.py.

Every kernel must reproduce its oracle exactly, on randomly relabeled
generator meshes (vertex ids, cell order and boundary-facet order shuffled)
and under random whole-chart permutations, which scramble the stratum
layout `build_from_cells` produces.  The MSH reader must also agree with the
line-at-a-time oracle on cosmetically varied text and, error message for
error message, on text with one defect.
"""

from __future__ import annotations

import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles as oracle
from _helpers import plex_from_cones, rank_points
import plexmesh as pm
from plexmesh import gmsh_io

# Seeded: the same examples run every time.
PROPERTY = settings(derandomize=True, deadline=None, max_examples=25)

MESHES = {
    "interval": lambda size: pm.interval_mesh(2 + 2 * size),
    "triangles": lambda size: pm.triangle_grid(1 + size, 2),
    "tets": lambda size: pm.tet_box(1 + size % 2, 1, 2),
}


def relabel(mesh: pm.RawMesh, seed: int) -> pm.RawMesh:
    """The same mesh with vertex ids, cells and boundary facets shuffled."""
    rng = np.random.default_rng(seed)
    new_id = rng.permutation(mesh.num_vertices)
    cell_order = rng.permutation(mesh.num_cells)
    facet_order = rng.permutation(len(mesh.boundary_facets))
    vertices = np.empty_like(mesh.vertices)
    vertices[new_id] = mesh.vertices
    return pm.RawMesh(dim=mesh.dim, vertices=vertices,
                      cells=new_id[mesh.cells][cell_order],
                      cell_region_ids=np.arange(mesh.num_cells)[cell_order] % 3,
                      boundary_facets=new_id[mesh.boundary_facets][facet_order],
                      boundary_markers=mesh.boundary_markers[facet_order])


meshes = st.builds(lambda kind, size, seed: relabel(MESHES[kind](size), seed),
                   st.sampled_from(sorted(MESHES)), st.integers(0, 2),
                   st.integers(0, 2**32 - 1))
seeds = st.integers(0, 2**32 - 1)


def scrambled(bundle: pm.MeshBundle, seed: int) -> pm.MeshBundle:
    perm = pm.Permutation(np.random.default_rng(seed).permutation(bundle.plex.chart_size))
    return oracle.apply_permutation(bundle, perm)


def assert_traversals_match(plex: pm.Plex, points) -> None:
    for kernel, reference in ((plex.closures, oracle.closure),
                              (lambda pts: plex._traverse(pts, plex._support_offsets,
                                                          plex._support_targets),
                               oracle.star)):
        offsets, targets = kernel(points)
        assert offsets.tolist() == np.cumsum([0] + [
            len(reference(plex, p)) for p in points]).tolist()
        for i, p in enumerate(points):
            assert targets[offsets[i]:offsets[i + 1]].tolist() == \
                reference(plex, p).tolist()
    for p in points:
        assert plex.closure(p).tolist() == oracle.closure(plex, p).tolist()
        assert plex.star(p).tolist() == oracle.star(plex, p).tolist()


def assert_strata_match(plex: pm.Plex) -> None:
    """Strata, grading and support of plex equal the oracles'."""
    offsets, targets = plex._cone_offsets, plex._cone_targets
    sources = np.repeat(np.arange(plex.chart_size), np.diff(offsets))
    order = np.lexsort((sources, targets))
    sup_offsets = np.searchsorted(targets[order], np.arange(plex.chart_size + 1))
    depths = oracle.longest_paths(plex, offsets, targets)
    heights = oracle.longest_paths(plex, sup_offsets, sources[order])
    graded = bool(np.all(depths[targets] == depths[sources] - 1))
    interpolated = graded and bool(np.all(depths[heights == 0] == plex.dim))
    assert plex.depths.tolist() == depths.tolist()
    assert plex.heights.tolist() == heights.tolist()
    assert plex._graded == graded
    assert plex.is_interpolated == interpolated
    assert plex._support_offsets.tolist() == sup_offsets.tolist()
    assert plex._support_targets.tolist() == sources[order].tolist()
    # Depth and height are at most dim, so the strata 0..dim cover the chart.
    for strata in (plex.depth_stratum, plex.height_stratum):
        assert sum(len(strata(k)) for k in range(plex.dim + 1)) == plex.chart_size
    assert pm.section_from_depth_dofs(plex, [1] * (plex.dim + 1)).total_size == plex.chart_size


@PROPERTY
@given(raw=meshes)
def test_build_from_cells_matches_oracle(raw):
    plex = pm.build_from_cells(raw.cells, raw.num_vertices, raw.dim)
    assert plex == oracle.build_from_cells(raw.cells, raw.num_vertices, raw.dim)
    assert plex.is_interpolated
    assert_strata_match(plex)


@PROPERTY
@given(raw=meshes, seed=seeds)
def test_closures_and_stars_match_oracle(raw, seed):
    bundle = scrambled(pm.raw_to_bundle(raw), seed)
    plex = bundle.plex
    assert_strata_match(plex)
    # Any order, repeats included: rows follow the request.
    points = np.random.default_rng(seed).integers(0, plex.chart_size, 12)
    assert_traversals_match(plex, points)
    assert_traversals_match(plex, np.arange(plex.chart_size))


def plex_if_shallow(dim: int, cones) -> pm.Plex | None:
    """plex_from_cones(dim, cones) if the oracle finds no path longer than
    dim; otherwise None, once Plex is seen to reject the cones."""
    offsets = np.cumsum([0] + [len(c) for c in cones])
    targets = np.array([q for c in cones for q in c], dtype=np.int64)
    depths = oracle.longest_paths(SimpleNamespace(chart_size=len(cones)), offsets, targets)
    if depths.max(initial=0) > dim:
        with pytest.raises(ValueError, match=f"path longer than dimension {dim}"):
            plex_from_cones(dim, cones)
        return None
    return plex_from_cones(dim, cones)


# Not graded: cells reach vertices both directly and through edges, so a
# vertex is met on two BFS levels.  Point 0 is at depth 3.
SKIPPING = [(2, 5, 6), (5, 3), (4, 5), (), (), (3, 4), (4, 7), ()]

HAND_BUILT = [
    (2, [(2, 3, 4), (3, 5, 4), (), (), (), ()]),   # cells covering vertices directly
    (2, SKIPPING),                                 # deeper than dim: rejected
    (3, [(1, 4), (2, 3), (3, 4), (4,), ()]),       # a chain of depth 4: rejected
    # not graded: cell 0 covers vertex 4 directly, so 4 sits at height 1
    (2, [(1, 4), (2, 3), (), (), ()]),
    # graded, but with support-free points at two depths: edge 7 hangs off
    # vertex 3 of triangle 0, so heights cannot mirror depths
    (2, [(4, 5, 6), (), (), (), (1, 2), (2, 3), (1, 3), (3, 8), ()]),
    # graded, but not simplicial: a quadrilateral covers four edges
    (2, [(5, 6, 7, 8), (), (), (), (), (1, 2), (2, 3), (3, 4), (4, 1)]),
    (3, SKIPPING),
    # graded, so the simplex guess checks out, but an interpolated
    # tetrahedron is deeper than dim 2: rejected
    (2, [(5, 6, 7, 8), (), (), (), (), (9, 10, 11), (12, 13, 10), (14, 13, 11),
         (12, 14, 9), (2, 3), (1, 3), (1, 2), (3, 4), (1, 4), (2, 4)]),
]


@pytest.mark.parametrize("dim,cones", HAND_BUILT)
def test_traversals_on_hand_built_dags(dim, cones):
    plex = plex_if_shallow(dim, cones)
    if plex is None:
        return
    assert_strata_match(plex)
    points = np.arange(plex.chart_size)
    assert_traversals_match(plex, np.concatenate([points, points[::-1]]))
    rebuilt = pm.Plex(dim, plex._cone_offsets, plex._cone_targets)
    assert rebuilt == plex and rebuilt.cones() == [tuple(c) for c in cones]


@PROPERTY
@given(seed=seeds)
def test_traversals_on_random_non_graded_dags(seed):
    # A layered DAG on levels 0..dim with a skip arc is non-graded and no
    # deeper than dim: accepted, and every traversal matches the oracles.
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 4))
    plex = plex_from_cones(dim, layered_dag(int(rng.integers(2**32)), dim))
    assert not plex._graded
    assert_strata_match(plex)
    assert_traversals_match(plex, rng.integers(0, plex.chart_size, 2 * plex.chart_size))
    # Cones draw from higher-numbered points, so the DAG is acyclic and its
    # arcs may skip depths; 0 -> 1 -> 2 plus 0 -> 2 makes one skip certain.
    n = int(rng.integers(10, 61))
    sizes = [int(rng.integers(0, min(4, n - p - 1) + 1)) for p in range(n)]
    cones = [sorted(rng.choice(np.arange(p + 1, n), k, replace=False).tolist())
             for p, k in enumerate(sizes)]
    cones[0] = sorted({1, 2, *cones[0]})
    cones[1] = sorted({2, *cones[1]})
    # Accepted exactly when no path is longer than dim: at these sizes
    # almost never, which the layered DAG above makes up for.
    plex = plex_if_shallow(int(rng.integers(1, 4)), cones)
    if plex is None:
        return
    assert not plex._graded
    assert_strata_match(plex)
    # Any order, repeats included.
    assert_traversals_match(plex, rng.integers(0, n, 2 * n))


def layered_dag(seed: int, top: int = 3) -> list[list[int]]:
    """Cones of a random DAG on levels 0..top whose arcs drop one or more levels.

    A chain through all the levels plus an arc from its top to its bottom
    makes the DAG non-graded (for top >= 2); point ids are shuffled.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 41))
    level = rng.integers(0, top + 1, n)
    level[:top + 1] = np.arange(top, -1, -1)
    cones = []
    for p in range(n):
        below = (level < level[p]).nonzero()[0]
        k = int(rng.integers(0, min(4, below.size) + 1))
        cones.append({*rng.choice(below, k, replace=False).tolist()})
    for p in range(top):
        cones[p] |= {p + 1}
    cones[0] |= {top}
    new = rng.permutation(n)
    return [sorted(int(new[q]) for q in cones[p]) for p in new.argsort()]


@PROPERTY
@given(seed=seeds)
def test_traversals_on_random_layered_dags(seed):
    # Depth at most 3 with skip arcs: accepted at dim 3, and every closure and
    # star of the chain's ends meets a point on two levels.
    cones = layered_dag(seed)
    plex = plex_from_cones(3, cones)
    assert not plex._graded
    assert_strata_match(plex)
    points = np.arange(plex.chart_size)
    rng = np.random.default_rng(seed)
    assert_traversals_match(plex, np.concatenate([points, rng.permutation(points)]))


def test_closures_of_nothing():
    plex = pm.build_from_cells([(0, 1, 2)], 3, 2)
    offsets, targets = plex.closures([])
    assert offsets.tolist() == [0] and targets.size == 0
    with pytest.raises(IndexError, match="outside chart"):
        plex.closures([0, 7])


@PROPERTY
@given(raw=meshes, seed=seeds)
def test_simplex_depths_are_verified(raw, seed):
    plex = scrambled(pm.raw_to_bundle(raw), seed).plex
    # A simplicial mesh keeps its guessed depths, cone size - 1, and mirrors
    # its heights: nothing is relaxed, and the support is not built.
    assert "_support" not in vars(plex)
    assert_strata_match(plex)
    # A cell one face short or covering an extra vertex is guessed wrong,
    # and its strata must be relaxed to the oracle's, still without the
    # support.
    rng = np.random.default_rng(seed)
    cones = plex.cones()
    cell = int(rng.choice(plex.height_stratum(0)))
    vertex = int(rng.choice(np.setdiff1d(plex.depth_stratum(0), cones[cell])))
    for cone in (cones[cell][1:], cones[cell] + (vertex,)):
        relaxed = plex_from_cones(plex.dim, cones[:cell] + [cone] + cones[cell + 1:])
        assert "_support" not in vars(relaxed)
        assert_strata_match(relaxed)


def test_support_built_on_first_use():
    plex = pm.build_from_cells([(0, 1, 2, 3)], 4, 3)
    assert "_support" not in vars(plex)
    assert plex.support(1).tolist() == [10, 11, 13]
    assert "_support" in vars(plex)


def test_mesh_graphs_built_on_first_use():
    plex = pm.build_from_cells([(0, 1, 2), (1, 3, 2)], 4, 2)
    assert not {"_vertex_graph", "_cell_graph"} & set(vars(plex))
    bounds, cols = plex._vertex_graph
    assert bounds.tolist() == [0, 2, 5, 8, 10] and cols.tolist() == [1, 2, 0, 2, 3, 0, 1, 3, 1, 2]
    assert "_vertex_graph" in vars(plex) and "_cell_graph" not in vars(plex)
    assert [a.tolist() for a in plex._cell_graph] == [[0, 1, 2], [1, 0]]
    assert "_cell_graph" in vars(plex)


def count_graphs(monkeypatch) -> list[int]:
    """Hook plex._adjacency; the list grows by one per graph derived."""
    calls = []
    adjacency = pm.plex._adjacency

    def counted(*args):
        calls.append(1)
        return adjacency(*args)

    monkeypatch.setattr(pm.plex, "_adjacency", counted)
    return calls


def test_reorder_pipeline_derives_each_vertex_graph_once(corpus, monkeypatch):
    bundle = pm.raw_to_bundle(corpus["grid4"])
    calls = count_graphs(monkeypatch)
    before = pm.p1_pattern(bundle)
    reordered = pm.apply_permutation(bundle, pm.rcm_ordering(bundle.plex))
    assert pm.p1_pattern(reordered).nnz == before.nnz
    assert len(calls) == 2


def test_partition_overlap_reuses_the_cell_graph(corpus, monkeypatch):
    plex = pm.raw_to_bundle(corpus["cube"]).plex
    calls = count_graphs(monkeypatch)
    pmap = pm.partition_cells(pm.build_dual_graph(plex), 4)
    pm.close_partition(plex, pmap)
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["grid4", "grid32", "cube"])
def test_pipeline_never_peels(corpus, name, monkeypatch):
    # Every plex the pipeline builds, gather_to_root's included, is
    # simplicial, so its guessed depths check out.
    def relax(*_):
        raise AssertionError("strata relaxed")

    monkeypatch.setattr(pm.Plex, "_longest_paths", relax)
    bundle = pm.raw_to_bundle(corpus[name])
    graph = pm.build_dual_graph(bundle.plex)
    centroids = pm.cell_centroids(bundle)
    for nparts in (1, 4):
        for method in ("greedy-bfs", "coordinate-bisection"):
            pmap = pm.partition_cells(graph, nparts, method, coords=centroids)
            locals_, sf, _ = pm.migrate(bundle, pmap, nparts)
            assert pm.gather_to_root(locals_, sf) == bundle
            for lm in locals_:
                plex = lm.bundle.plex
                reordered = pm.apply_permutation(lm.bundle, pm.rcm_ordering(plex))
                assert pm.p1_pattern(reordered).nnz > 0


@PROPERTY
@given(raw=meshes, seed=seeds)
def test_permutation_kernels_match_oracles(raw, seed):
    bundle = pm.raw_to_bundle(raw)
    rng = np.random.default_rng(seed)
    perm = pm.Permutation(rng.permutation(bundle.plex.chart_size))
    permuted = pm.apply_permutation(bundle, perm)
    assert permuted == oracle.apply_permutation(bundle, perm)
    assert_strata_match(permuted.plex)

    dofs = rng.integers(0, 3, bundle.plex.chart_size)
    fld = pm.Field("u", pm.Section(dofs), rng.standard_normal(int(dofs.sum())))
    assert pm.permute_field(fld, perm) == oracle.permute_field(fld, perm)


@PROPERTY
@given(raw=meshes, seed=seeds)
def test_bundle_kernels_match_oracles(raw, seed):
    for bundle in (pm.raw_to_bundle(raw), scrambled(pm.raw_to_bundle(raw), seed)):
        plex = bundle.plex
        pattern = pm.p1_pattern(bundle)
        assert pattern == oracle.p1_pattern(bundle)
        assert pm.bandwidth(pattern) == oracle.bandwidth(pattern)
        assert pm.profile(pattern) == oracle.profile(pattern)
        assert pm.rcm_ordering(plex) == oracle.rcm_ordering(plex)
        assert pm.bundle_to_raw(bundle) == oracle.bundle_to_raw(bundle)
        assert pm.cell_centroids(bundle).tobytes() == oracle.cell_centroids(bundle).tobytes()
        assert dual_rows(pm.build_dual_graph(plex)) == oracle.build_dual_graph(plex).neighbors


def joined_grids(sizes, seed: int, interleave: bool) -> pm.Plex:
    """Shuffled triangle grids joined into one mesh: each grid's vertex ids
    offset past the previous grids' (or, interleaved, shuffled all together),
    cells shuffled across grids."""
    rng = np.random.default_rng(seed)
    cells, nv = [], 0
    for nx, ny in sizes:
        grid = relabel(pm.triangle_grid(nx, ny), int(rng.integers(2**32)))
        cells.append(grid.cells + nv)
        nv += grid.num_vertices
    cells = np.concatenate(cells)
    cells = cells[rng.permutation(len(cells))]
    if interleave:
        cells = rng.permutation(nv)[cells]
    return pm.build_from_cells(cells, nv, 2)


@PROPERTY
@given(sizes=st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=2, max_size=3),
       seed=seeds, interleave=st.booleans())
def test_rcm_matches_oracle_on_joined_grids(sizes, seed, interleave):
    plex = joined_grids(sizes, seed, interleave)
    assert pm.rcm_ordering(plex) == oracle.rcm_ordering(plex)


@PROPERTY
@given(kind=st.sampled_from(["tets", "interval"]), size=st.integers(1, 3), seed=seeds,
       nparts=st.integers(1, 4))
def test_rcm_matches_oracle_on_rank_meshes(kind, size, seed, nparts):
    raw = pm.tet_box(size, 2, 2) if kind == "tets" else pm.interval_mesh(4 * size)
    bundle = pm.raw_to_bundle(relabel(raw, seed))
    pmap = pm.partition_cells(pm.build_dual_graph(bundle.plex), nparts)
    locals_, _, _ = pm.migrate(bundle, pmap, nparts)
    for lm in locals_:
        assert pm.rcm_ordering(lm.bundle.plex) == oracle.rcm_ordering(lm.bundle.plex)


def dual_rows(graph: pm.DualGraph) -> list[tuple[int, ...]]:
    """The CSR dual graph as the oracle's per-cell neighbor tuples."""
    bounds = graph.offsets.tolist()
    return [tuple(graph.neighbors[s:e].tolist()) for s, e in zip(bounds[:-1], bounds[1:])]


@PROPERTY
@given(kind=st.sampled_from(["triangles", "tets"]), sizes=st.tuples(*[st.integers(1, 3)] * 3),
       seed=seeds, nparts=st.integers(1, 8))
def test_partitioner_matches_oracle(kind, sizes, seed, nparts):
    nx, ny, nz = sizes
    raw = relabel(pm.triangle_grid(nx, ny) if kind == "triangles" else pm.tet_box(nx, ny, nz),
                  seed)
    plex = scrambled(pm.raw_to_bundle(raw), seed).plex
    graph, want = pm.build_dual_graph(plex), oracle.build_dual_graph(plex)
    assert dual_rows(graph) == want.neighbors
    assert graph.num_edges == want.num_edges
    nparts = min(nparts, raw.num_cells)
    greedy = pm.partition_cells(graph, nparts)
    assert greedy.ranks.tolist() == oracle._greedy_bfs(want, nparts).tolist()
    ranks = np.random.default_rng(seed).integers(0, nparts, raw.num_cells)
    for pmap in (greedy, pm.PartitionMap(ranks, nparts)):
        assert pm.partition_stats(graph, pmap).edge_cut == oracle.edge_cut(want, pmap)


def assert_same_mesh_arrays(mesh: pm.RawMesh, want: pm.RawMesh) -> None:
    assert mesh.dim == want.dim
    for name in ("vertices", "cells", "cell_region_ids", "boundary_facets",
                 "boundary_markers"):
        a, b = getattr(mesh, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


@PROPERTY
@given(nx=st.integers(1, 8), ny=st.integers(1, 8), nz=st.integers(1, 8),
       length=st.sampled_from([1.0, 1 / 3, 2.5, 1e-300]))
def test_generators_match_oracle(nx, ny, nz, length):
    assert_same_mesh_arrays(pm.triangle_grid(nx, ny), oracle.triangle_grid(nx, ny))
    assert_same_mesh_arrays(pm.tet_box(nx, ny, nz), oracle.tet_box(nx, ny, nz))
    assert_same_mesh_arrays(pm.interval_mesh(nx, length), oracle.interval_mesh(nx, length))


@PROPERTY
@given(raw=meshes, seed=seeds, nparts=st.integers(1, 4))
def test_close_partition_matches_oracle(raw, seed, nparts):
    # Random ranks, some possibly empty.
    ranks = np.random.default_rng(seed).integers(0, nparts, raw.num_cells)
    pmap = pm.PartitionMap(ranks, nparts)
    built = pm.raw_to_bundle(raw)
    # Scrambled, cells leave [0, ncells): a cell's index is no longer its point.
    for bundle in (built, scrambled(built, seed)):
        msf, owner = pm.close_partition(bundle.plex, pmap)
        want = oracle.close_partition(bundle.plex, pmap)
        assert msf.leaf_rank.size == sum(b.points.size for b in want)
        for b in want:
            points, owned = rank_points(msf, owner, b.rank)
            assert points == b.points.tolist()
            assert owned == b.owned.tolist()
            assert msf.leaf_point[msf.leaf_rank == b.rank].tolist() == list(range(len(points)))
        assert not msf.root_rank.any()
        locals_, sf, _ = pm.migrate(bundle, pmap, nparts)
        assert pm.gather_to_root(locals_, sf) == bundle


def sets_of(labels: dict) -> dict:
    return {name: oracle.label_sets(lab) for name, lab in labels.items()}


@PROPERTY
@given(kind=st.sampled_from(["triangles", "tets"]), size=st.integers(0, 2),
       seed=seeds, nparts=st.integers(1, 5))
def test_distribution_matches_oracle(kind, size, seed, nparts):
    raw = relabel({"triangles": pm.triangle_grid(2 + size, 3),
                   "tets": pm.tet_box(1 + size, 2, 1)}[kind], seed)
    built = pm.raw_to_bundle(raw)
    rng = np.random.default_rng(seed)
    # Random ranks with at least one of them empty when nparts > 1.
    ranks = rng.integers(0, nparts, raw.num_cells)
    empty = rng.integers(nparts)
    ranks[ranks == empty] = (empty + 1) % nparts
    pmap = pm.PartitionMap(ranks, nparts)
    dofs = rng.integers(0, 3, built.plex.chart_size)
    fld = pm.Field("u", pm.Section(dofs), rng.standard_normal(int(dofs.sum())))

    # Scrambled, cells leave [0, ncells): a cell's index is no longer its point.
    for bundle in (built, scrambled(built, seed)):
        locals_, sf, report = pm.migrate(bundle, pmap, nparts, fields=[fld])
        want_locals, want_sf, want_report = oracle.migrate(
            oracle.dict_labels(bundle), pmap, nparts, fields=[fld])
        assert sf.nranks == want_sf.nranks
        assert report.as_dict() == want_report.as_dict()
        for lm, want in zip(locals_, want_locals, strict=True):
            assert sf.rank_leaves(lm.rank) == want_sf.rank_leaves(want.rank)
            assert lm.bundle.plex == want.bundle.plex
            assert_strata_match(lm.bundle.plex)
            assert lm.bundle.coordinates == want.bundle.coordinates
            assert sets_of(lm.bundle.labels) == sets_of(want.bundle.labels)
            assert lm.local_to_global.tolist() == want.local_to_global.tolist()
            assert lm.owned_cells.tolist() == want.owned_cells.tolist()
            assert lm.ghost_points.tolist() == want.ghost_points.tolist()
            sec = pm.Section(rng.integers(0, 3, lm.bundle.plex.chart_size))
            halo, perm = pm.build_halo(lm, sf, sec)
            want_halo, want_perm = oracle.build_halo(want, want_sf, sec)
            assert halo == want_halo
            assert perm.forward.tolist() == want_perm.forward.tolist()

        gathered = pm.gather_to_root(locals_, sf)
        want = oracle.gather_to_root(want_locals, want_sf)
        assert gathered.plex == want.plex
        assert gathered.coordinates == want.coordinates
        assert sets_of(gathered.labels) == sets_of(want.labels)
        assert gathered == bundle


def test_pipeline_never_imports_numpy_ma():
    # np.unique and everything built on it (isin, union1d, ...) import
    # numpy.ma on first use, which adds about 1.24 MB of peak resident
    # memory to every process that runs the pipeline.
    script = """
import io
import sys
import plexmesh as pm
for mesh, method in ((pm.triangle_grid(4, 4), "greedy-bfs"),
                     (pm.tet_box(2, 2, 2), "coordinate-bisection")):
    mesh = pm.read_gmsh(io.StringIO(pm.write_gmsh(mesh)))
    bundle = pm.raw_to_bundle(mesh)
    graph = pm.build_dual_graph(bundle.plex)
    pmap = pm.partition_cells(graph, 2, method=method, coords=pm.cell_centroids(bundle))
    pm.partition_stats(graph, pmap)
    locals_, sf, _ = pm.migrate(bundle, pmap, 2)
    for lm in locals_:
        pm.build_halo(lm, sf, lm.bundle.coordinates.section)
        reordered = pm.apply_permutation(lm.bundle, pm.rcm_ordering(lm.bundle.plex))
        pattern = pm.p1_pattern(reordered)
        pm.bandwidth(pattern), pm.profile(pattern), pm.spy_export(pattern)
        pm.write_gmsh(pm.bundle_to_raw(reordered))
    pm.gather_to_root(locals_, sf)
print("numpy.ma" in sys.modules)
"""
    src = str(Path(pm.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().lower()) is False


@PROPERTY
@given(raw=meshes, seed=seeds)
def test_boundary_matching_matches_oracle(raw, seed):
    # The generator's boundary facets plus repeats of any facet, interior ones
    # too, shuffled and with their vertices permuted; then 1-3 planted vertex
    # sets that are no facet.
    rng = np.random.default_rng(seed)
    plex = oracle.build_from_cells(raw.cells, raw.num_vertices, raw.dim)
    known = oracle.facet_points(plex)
    all_facets = np.array(sorted(known))
    extra = all_facets[rng.integers(0, len(all_facets), 1 + len(all_facets) // 2)]
    rows = np.concatenate([raw.boundary_facets, extra, extra[:3]])
    rows = rng.permuted(rows[rng.permutation(len(rows))], axis=1)
    markers = rng.integers(-5, 6, len(rows))

    def with_facets(facets, markers):
        return pm.RawMesh(dim=raw.dim, vertices=raw.vertices, cells=raw.cells,
                          cell_region_ids=raw.cell_region_ids,
                          boundary_facets=facets, boundary_markers=markers)

    bundle = pm.raw_to_bundle(with_facets(rows, markers))
    assert bundle.labels["boundary"] == oracle.boundary_label(plex, rows, markers)
    if raw.dim == 1:
        return  # every vertex is a 1D facet, so nothing can be planted
    planted, count = [], int(rng.integers(1, 4))
    while len(planted) < count:
        row = rng.choice(raw.num_vertices, raw.dim, replace=False)
        if tuple(sorted(row.tolist())) not in known:
            planted.append(row)
    at = np.sort(rng.choice(len(rows) + len(planted), len(planted), replace=False))
    bad = np.empty((len(rows) + len(planted), raw.dim), dtype=np.int64)
    keep = np.ones(len(bad), dtype=bool)
    keep[at] = False
    bad[at], bad[keep] = planted, rows
    message = f"boundary facet {tuple(sorted(planted[0].tolist()))} not found"
    for build in (pm.raw_to_bundle,
                  lambda m: oracle.boundary_label(plex, m.boundary_facets, m.boundary_markers)):
        with pytest.raises(ValueError, match=re.escape(message)):
            build(with_facets(bad, np.zeros(len(bad), dtype=np.int64)))


# -- MSH 2.2 text I/O ------------------------------------------------------------

SPECIAL_FLOATS = [1 / 3, -0.0, 5e-324, 1e300, -2.5e-310, 0.1, 123456789.00000001]


@PROPERTY
@given(raw=meshes, seed=seeds,
       values=st.lists(st.sampled_from(SPECIAL_FLOATS) | st.floats(), max_size=8))
def test_write_gmsh_matches_oracle(raw, seed, values):
    rng = np.random.default_rng(seed)
    vertices = raw.vertices.copy()
    vertices.flat[rng.integers(0, vertices.size, len(values))] = values
    mesh = pm.RawMesh(dim=raw.dim, vertices=vertices, cells=raw.cells,
                      cell_region_ids=rng.integers(-2**40, 2**40, raw.num_cells),
                      boundary_facets=raw.boundary_facets,
                      boundary_markers=rng.integers(-9, 10**6, len(raw.boundary_facets)))
    assert pm.write_gmsh(mesh) == oracle.write_gmsh(mesh)


def msh_sections(text: str) -> list[list[str]]:
    """The lines of an MSH text written by write_gmsh, one list per section."""
    sections, lines = [], text.splitlines()
    for line in lines:
        if line.startswith("$") and not line.startswith("$End"):
            sections.append([])
        sections[-1].append(line)
    return sections


def int_spellings(rng):
    """A function that spells a non-negative integer token, in a form int()
    reads as the same number: plain ASCII digits, or also padded to 19 digits,
    or also with a '+' or underscores."""
    forms = [lambda t: t, lambda t: "0" + t]
    forms += [[], [lambda t: t.zfill(19)],
              [lambda t: "+" + t, lambda t: "_".join(t)]][rng.integers(3)]
    return lambda token: forms[rng.integers(len(forms))](token)


def cosmetic(lines: list[str], rng) -> str:
    """The lines with random blank lines, padding, separators and endings."""
    out = []
    for line in lines:
        while rng.random() < 0.1:
            out.append(rng.choice(["", " ", "\t", " \t "]))
        tokens = line.split()
        seps = rng.choice([" ", "  ", "\t", " \t"], len(tokens) - 1)
        body = tokens[0] + "".join(str(sep) + tok for sep, tok in zip(seps, tokens[1:]))
        out.append(rng.choice(["", " ", "\t"]) + body + rng.choice(["", " ", "\t"]))
    return rng.choice(["\n", "\r\n"]).join(out) + "\n"


def varied_msh(raw: pm.RawMesh, rng) -> str:
    """Valid MSH text for `raw` that differs from write_gmsh's in form only."""
    fmt, nodes, elements = msh_sections(oracle.write_gmsh(raw))
    nv = len(nodes) - 3
    spell = int_spellings(rng)
    for i in range(2, len(nodes) - 1):
        tag, *xyz = nodes[i].split()
        nodes[i] = " ".join([spell(tag), *xyz])
    lines = []
    for line in elements[2:-1]:
        eid, etype, _, tag, _, *vertices = line.split()
        ntags = int(rng.integers(4))
        tags = [tag, *map(str, rng.integers(0, 9, 2))][:ntags]
        lines.append(" ".join(map(spell, [eid, etype, str(ntags), *tags, *vertices])))
    # Points and lines below the facet dimension carry no meaning.
    extra = [15] * (raw.dim >= 2) + [1] * (raw.dim == 3)
    for _ in range(int(rng.integers(4)) if extra else 0):
        etype = rng.choice(extra)
        nodes_of = rng.integers(1, nv + 1, 1 if etype == 15 else 2)
        line = f"{len(lines) + 1} {etype} 1 7 " + " ".join(map(str, nodes_of))
        lines.insert(int(rng.integers(len(lines) + 1)), line)
    elements = ["$Elements", str(len(lines)), *lines, "$EndElements"]
    physical = ["$PhysicalNames", "1", '2 1 "wall"', "$EndPhysicalNames"]
    sections = [fmt, nodes, elements]
    sections.insert(int(rng.integers(4)), physical)
    return cosmetic([line for sec in sections for line in sec], rng)


def read_in_small_slices(stream) -> pm.RawMesh:
    """read_gmsh parsing each block 3 lines at a time."""
    with mock.patch.object(gmsh_io, "_SLICE_LINES", 3):
        return pm.read_gmsh(stream)


def read_both(text: str):
    """(new, oracle) outcome of reading `text`: a RawMesh or an error message.

    The new reader must give the same outcome when it parses its blocks in
    slices of a few lines.
    """
    outcomes = []
    for read in (pm.read_gmsh, read_in_small_slices, oracle.read_gmsh):
        try:
            outcomes.append(read(io.StringIO(text)))
        except pm.GmshParseError as exc:
            outcomes.append(f"GmshParseError: {exc}")
    assert outcomes[0] == outcomes[1]
    return outcomes[0], outcomes[2]


@PROPERTY
@given(raw=meshes, seed=seeds)
def test_read_gmsh_matches_oracle(raw, seed):
    text = varied_msh(raw, np.random.default_rng(seed))
    got, want = read_both(text)
    assert isinstance(want, pm.RawMesh), want
    assert got == want


def perturbed(raw: pm.RawMesh, defect: str, rng) -> list[str]:
    """write_gmsh's lines for `raw` with one kind of defect.

    Defects found only once the whole file is read (duplicate tags, unknown
    nodes, non-finite coordinates) may be planted twice: the reader must
    name the one the oracle names.
    """
    fmt, nodes, elements = msh_sections(oracle.write_gmsh(raw))
    for _ in range(int(rng.integers(1, 3))):
        node = int(rng.integers(2, len(nodes) - 1))
        element = int(rng.integers(2, len(elements) - 1))
        _plant(defect, fmt, nodes, elements, node, element, rng)
        if defect not in ("duplicate-node-tag", "non-finite-coordinate", "unknown-node"):
            break
    return fmt + nodes + elements


def _plant(defect: str, fmt, nodes, elements, node: int, element: int, rng) -> None:
    block, row = [(nodes, node), (elements, element)][rng.integers(2)]
    fields = block[row].split()
    where = int(rng.integers(len(fields)))
    if defect == "dropped-field":
        block[row] = " ".join(fields[:-1])
    elif defect == "extra-field":
        block[row] += " 7"
    elif defect == "non-numeric-token":
        # "1.5" is a valid coordinate but no valid tag, count or element field.
        bad = ["x", "1e", "0x10", "--1"] + ["1.5"] * (block is elements or where == 0)
        fields[where] = rng.choice(bad)
        block[row] = " ".join(fields)
    elif defect == "negative-count":
        count = str(-int(rng.integers(1, 3)))
        if rng.random() < 0.3:  # an element's tag count
            fields = elements[element].split()
            elements[element] = " ".join([*fields[:2], count, *fields[3:]])
        else:
            block[1] = count
    elif defect == "count-off-by-one":
        block[1] = str(int(block[1]) + rng.choice([-1, 1]))
    elif defect == "duplicate-node-tag":
        other = node + 1 if node + 1 < len(nodes) - 1 else node - 1
        nodes[node] = " ".join([nodes[other].split()[0], *nodes[node].split()[1:]])
    elif defect == "non-finite-coordinate":
        fields = nodes[node].split()
        fields[int(rng.integers(1, 4))] = rng.choice(["nan", "inf", "-inf", "1e400"])
        nodes[node] = " ".join(fields)
    elif defect == "unknown-node":
        fields = elements[element].split()
        fields[int(rng.integers(5, len(fields)))] = str(len(nodes) - 2 + int(rng.integers(1, 5)))
        elements[element] = " ".join(fields)
    elif defect == "unsupported-type":
        fields = elements[element].split()
        fields[1] = str(rng.choice([0, 3, 5, 9, 16, -1]))
        elements[element] = " ".join(fields)
    elif defect == "wrong-node-count":
        fields = elements[element].split()
        fields[1] = str(rng.choice([t for t in (1, 2, 4) if t != int(fields[1])]))
        elements[element] = " ".join(fields)
    elif defect == "missing-end":
        [fmt, nodes, elements][rng.integers(3)].pop()


DEFECTS = ["dropped-field", "extra-field", "non-numeric-token", "negative-count",
           "count-off-by-one", "duplicate-node-tag", "non-finite-coordinate",
           "unknown-node", "unsupported-type", "wrong-node-count", "missing-end"]


@settings(PROPERTY, max_examples=150)
@given(raw=meshes, seed=seeds, defect=st.sampled_from(DEFECTS))
def test_read_gmsh_reports_defects_like_oracle(raw, seed, defect):
    rng = np.random.default_rng(seed)
    text = cosmetic(perturbed(raw, defect, rng), rng)
    got, want = read_both(text)
    assert isinstance(want, str), f"{defect} left the text valid"
    assert got == want

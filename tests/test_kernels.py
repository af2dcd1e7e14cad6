"""Array kernels against the per-point oracles in _oracles.py.

Every kernel must reproduce its oracle exactly, on randomly relabeled
generator meshes (vertex ids, cell order and boundary-facet order shuffled)
and under random whole-chart permutations, which scramble the stratum
layout `build_from_cells` produces.  The MSH reader must also agree with the
line-at-a-time oracle on cosmetically varied text and, error message for
error message, on text with one defect.
"""

from __future__ import annotations

import ast
import functools
import io
import itertools
import json
import os
import re
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles as oracle
from _helpers import plex_from_cones, rank_points, relabel
import plexmesh as pm
from plexmesh import gmsh_io

# Seeded: the same examples run every time.
PROPERTY = settings(derandomize=True, deadline=None, max_examples=25)

MESHES = {
    "interval": lambda size: pm.interval_mesh(2 + 2 * size),
    "triangles": lambda size: pm.triangle_grid(1 + size, 2),
    "tets": lambda size: pm.tet_box(1 + size % 2, 1, 2),
}


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
    """Strata and support of plex equal the oracles'."""
    offsets, targets = plex._cone_offsets, plex._cone_targets
    sources = np.repeat(np.arange(plex.chart_size), np.diff(offsets))
    order = np.lexsort((sources, targets))
    sup_offsets = np.searchsorted(targets[order], np.arange(plex.chart_size + 1))
    depths = oracle.longest_paths(plex, offsets, targets)
    heights = oracle.longest_paths(plex, sup_offsets, sources[order])
    assert plex.depths.tolist() == depths.tolist()
    assert plex.heights.tolist() == heights.tolist()
    assert plex._support_offsets.tolist() == sup_offsets.tolist()
    assert plex._support_targets.tolist() == sources[order].tolist()
    # Depth and height are at most dim, so the strata 0..dim cover the chart.
    for strata in (plex.depth_stratum, plex.height_stratum):
        assert sum(len(strata(k)) for k in range(plex.dim + 1)) == plex.chart_size
    assert pm.section_from_depth_dofs(plex, [1] * (plex.dim + 1)).total_size == plex.chart_size


@pytest.mark.parametrize("kind", sorted(MESHES))
@PROPERTY
@given(size=st.integers(0, 2), seed=seeds)
def test_build_from_cells_matches_oracle(kind, size, seed):
    # Each dimension runs its own examples through the one loop over depths.
    raw = relabel(MESHES[kind](size), seed)
    plex = pm.build_from_cells(raw.cells, raw.num_vertices, raw.dim)
    assert plex == oracle.build_from_cells(raw.cells, raw.num_vertices, raw.dim)
    assert_strata_match(plex)


@st.composite
def int_tables(draw) -> np.ndarray:
    """0-300 rows of 1-4 columns over an alphabet of at most 4 values, so rows
    repeat; some tables shift every value, or some columns, near 2**62 or 2**63."""
    shape = (draw(st.integers(0, 300)), draw(st.integers(1, 4)))
    alphabet = draw(st.integers(1, 4))
    shifts = st.sampled_from([0, 0, 2**62 - 2, 2**63 - 5])
    shift = draw(st.one_of(shifts, st.lists(shifts, min_size=shape[1], max_size=shape[1])))
    rows = np.random.default_rng(draw(seeds)).integers(0, alphabet, shape)
    return rows + np.array(shift, dtype=np.int64)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(rows=int_tables())
def test_row_keys_match_lexsort(rows):
    with mock.patch.object(pm.plex, "_unique_sorted", wraps=pm.plex._unique_sorted) as hook:
        key = pm.plex._lex_key(rows)
    # Keys renumber densely only where a fold could pass int64, as any fold
    # into keys near 2**62 could.
    if rows.size == 0 or rows.max() < 4:
        assert not hook.called
    elif rows.shape[1] > 1 and rows.min() >= 2**62 - 2:
        assert hook.called
    order = np.lexsort(rows.T[::-1])
    assert key.argsort(kind="stable").tolist() == order.tolist()
    assert ((key[order[1:]] == key[order[:-1]]).tolist()
            == (rows[order[1:]] == rows[order[:-1]]).all(axis=1).tolist())
    for got, want in zip(pm.plex._first_encounter_ids(rows), oracle.first_encounter_ids(rows)):
        assert got.tolist() == want.tolist()


@pytest.mark.parametrize("ncols", [1, 2, 3, 4])
def test_row_keys_of_no_rows(ncols):
    rows = np.empty((0, ncols), dtype=np.int64)
    assert pm.plex._lex_key(rows).argsort().tolist() == np.lexsort(rows.T[::-1]).tolist() == []
    for got, want in zip(pm.plex._first_encounter_ids(rows), oracle.first_encounter_ids(rows)):
        assert got.tolist() == want.tolist() == []


@pytest.mark.parametrize("bound", [1, 2**16 - 1, 2**16, 2**16 + 1, 2**32, 2**48])
@pytest.mark.parametrize("size", [0, 1, 2, 700])
@pytest.mark.parametrize("seed", range(4))
def test_stable_order_matches_the_stable_argsort(bound, size, seed):
    # Heavy ties: at most 10 distinct keys, among them 0, bound - 1 and the
    # keys either side of each 16-bit digit boundary below bound.
    rng = np.random.default_rng(seed)
    edges = [0, bound - 1, bound // 2, 2**16 - 1, 2**16, 2**32 - 1, 2**32 + 5]
    values = [v for v in edges if v < bound] + rng.integers(0, bound, 3).tolist()
    keys = rng.choice(np.array(values[:rng.integers(1, len(values) + 1)]), size)
    assert keys.dtype == np.int64
    assert (pm.plex._stable_order(keys, bound).tolist()
            == keys.argsort(kind="stable").tolist())


@pytest.mark.parametrize("width", range(7))
@pytest.mark.parametrize("seed", range(4))
def test_sorted_rows_match_np_sort(width, seed):
    # Every order of distinct values, rows over a 5-value alphabet reaching
    # both ends of int64 (ties), repeats of those rows, and no rows at all.
    rng = np.random.default_rng(seed)
    alphabet = np.array([-2**63, -1, 0, 1, 2**63 - 1])
    rows = rng.choice(alphabet, (80, width))
    orders = list(itertools.permutations(range(width)))
    orders = np.array(orders, dtype=np.int64).reshape(len(orders), width)
    for table in (orders, rows, rows[rng.integers(0, 80, 40)], rows[:0]):
        got = pm.plex._sorted_rows(table)
        assert got.dtype == np.int64
        assert got.shape == table.shape
        assert got.tolist() == np.sort(table, axis=1).tolist()


@pytest.mark.parametrize("kind", ["interval", "triangles", "tets"])
@pytest.mark.parametrize("seed", range(8))
def test_degenerate_cell_named_first(kind, seed):
    """Three cells each repeat a vertex: the error names the first."""
    rng = np.random.default_rng(seed)
    raw = MESHES[kind](2)
    cells = raw.cells.copy()
    planted = np.sort(rng.choice(raw.num_cells, 3, replace=False))
    for i in planted:
        a, b = rng.choice(cells.shape[1], 2, replace=False)
        cells[i, a] = cells[i, b]
    i = planted[0]
    with pytest.raises(ValueError) as err:
        pm.plex._cell_array(cells, raw.num_vertices, raw.dim)
    assert str(err.value) == (f"degenerate cell {i} {tuple(cells[i].tolist())}: "
                              "repeated vertex id")


@pytest.mark.parametrize("kind", ["interval", "triangles", "tets"])
@pytest.mark.parametrize("seed", range(8))
def test_duplicate_cell_named_as_by_lexsort(kind, seed):
    """Several cells repeated, vertices reordered, all rows shuffled: the
    error names the pair the multi-key sort names."""
    rng = np.random.default_rng(seed)
    raw = MESHES[kind](2)
    copies = raw.cells[rng.choice(raw.num_cells, 4)]
    copies = np.take_along_axis(copies, rng.permuted(np.indices(copies.shape)[1], axis=1), 1)
    cells = rng.permutation(np.concatenate([raw.cells, copies]))
    want = oracle.duplicate_cell_message(cells)
    assert want is not None
    with pytest.raises(ValueError) as err:
        pm.plex._cell_array(cells, raw.num_vertices, raw.dim)
    assert str(err.value) == want
    assert oracle.duplicate_cell_message(raw.cells) is None


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


def assert_refused(dim: int, cones) -> None:
    """Plex refuses the cones with the oracle's message naming the first bad point."""
    want = oracle.plex_refusal(dim, cones)
    assert want is not None
    with pytest.raises(ValueError) as err:
        plex_from_cones(dim, cones)
    assert str(err.value) == want


ARC = "a cone arc must drop one depth"
# Not graded: cells reach vertices both directly and through edges.
SKIPPING = [(2, 5, 6), (5, 3), (4, 5), (), (), (3, 4), (4, 7), ()]

HAND_BUILT = {
    # A non-interpolated mesh: cells cover vertices directly.
    "cells-on-vertices": (2, [(2, 3, 4), (3, 5, 4), (), (), (), ()],
                          f"point 0 at depth 2 covers point 2 at depth 0: {ARC}"),
    "skipping-2d": (2, SKIPPING, f"point 1 at depth 1 covers point 5 at depth 1: {ARC}"),
    "skipping-3d": (3, SKIPPING, f"point 1 at depth 1 covers point 5 at depth 1: {ARC}"),
    "chain": (3, [(1, 4), (2, 3), (3, 4), (4,), ()],
              f"point 0 at depth 1 covers point 1 at depth 1: {ARC}"),
    # Cell 0 covers vertex 4 directly and through cell 1.
    "vertex-at-two-heights": (2, [(1, 4), (2, 3), (), (), ()],
                              f"point 0 at depth 1 covers point 1 at depth 1: {ARC}"),
    # Cell 6 covers vertex 2 beside edges (0, 1) and (0, 2).
    "vertex-beside-edges": (2, [()] * 3 + [(0, 1), (0, 2), (1, 2), (3, 4, 2)],
                            f"point 6 at depth 2 covers point 2 at depth 0: {ARC}"),
    # Graded, but edge 7 hangs off vertex 3 of triangle 0.
    "dangling-edge": (2, [(4, 5, 6), (), (), (), (1, 2), (2, 3), (1, 3), (3, 8), ()],
                      "point 7 at depth 1 has no support: only points at depth 2 may have none"),
    # Graded, but a lone triangle is not interpolated up to dim 3.
    "triangle-in-3d": (3, [(4, 5, 6), (), (), (), (1, 2), (2, 3), (1, 3)],
                       "point 0 at depth 2 has no support: only points at depth 3 may have none"),
    "unused-vertex": (1, [(1, 2), (), (), ()],
                      "point 3 at depth 0 has no support: only points at depth 1 may have none"),
    # Graded, but a quadrilateral covers four edges.
    "quadrilateral": (2, [(5, 6, 7, 8), (), (), (), (), (1, 2), (2, 3), (3, 4), (4, 1)],
                      "point 0 has 4 cone points: depth 3 is past dimension 2"),
    # An interpolated tetrahedron is deeper than dim 2.
    "tetrahedron-in-2d": (2, [(5, 6, 7, 8), (), (), (), (), (9, 10, 11), (12, 13, 10),
                              (14, 13, 11), (12, 14, 9), (2, 3), (1, 3), (1, 2), (3, 4),
                              (1, 4), (2, 4)],
                          "point 0 has 4 cone points: depth 3 is past dimension 2"),
}


@pytest.mark.parametrize("dim,cones,message", HAND_BUILT.values(), ids=HAND_BUILT.keys())
def test_hand_built_dags_refused_at_the_first_bad_point(dim, cones, message):
    assert oracle.plex_refusal(dim, cones) == message
    assert_refused(dim, cones)


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
def test_random_dags_refused_at_the_first_bad_point(seed):
    # Both DAGs have a skip arc, so neither is graded: a layered DAG on
    # levels 0..2 or 0..3, and one whose cones draw from higher-numbered
    # points, with 0 -> 1 -> 2 plus 0 -> 2.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(10, 61))
    sizes = [int(rng.integers(0, min(4, n - p - 1) + 1)) for p in range(n)]
    cones = [sorted(rng.choice(np.arange(p + 1, n), k, replace=False).tolist())
             for p, k in enumerate(sizes)]
    cones[0] = sorted({1, 2, *cones[0]})
    cones[1] = sorted({2, *cones[1]})
    layered = layered_dag(int(rng.integers(2**32)), int(rng.integers(2, 4)))
    for dim in (1, 2, 3):
        assert_refused(dim, cones)
        assert_refused(dim, layered)


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
    # A simplicial mesh has depths cone size - 1 and heights dim - depth,
    # checked without building the support.
    assert "_support" not in vars(plex)
    assert_strata_match(plex)
    # A cell one face short or covering an extra vertex, or any point one
    # cone point short, is refused, naming the first bad point.
    rng = np.random.default_rng(seed)
    cones = plex.cones()
    cell = int(rng.choice(plex.height_stratum(0)))
    vertex = int(rng.choice(np.setdiff1d(plex.depth_stratum(0), cones[cell])))
    point = int(rng.choice((plex.depths > 0).nonzero()[0]))
    for p, cone in ((cell, cones[cell][1:]), (cell, cones[cell] + (vertex,)),
                    (point, cones[point][1:])):
        assert_refused(plex.dim, cones[:p] + [cone] + cones[p + 1:])


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
    """Hook plex._adjacency; the list grows by one per graph it derives."""
    calls = []
    adjacency = pm.plex._adjacency

    def counted(*args):
        calls.append(1)
        return adjacency(*args)

    monkeypatch.setattr(pm.plex, "_adjacency", counted)
    return calls


def test_reorder_pipeline_derives_each_vertex_graph_once(corpus, monkeypatch):
    # The input plex derives its graph once, from its edge rows, not through
    # _adjacency; the permuted plex carries it relabelled, so p1_pattern of
    # the reordered bundle derives nothing.
    bundle = pm.raw_to_bundle(corpus["grid4"])
    derived = []
    derive = pm.Plex._vertex_graph.func

    def counted(plex):
        derived.append(plex)
        return derive(plex)

    prop = functools.cached_property(counted)
    prop.__set_name__(pm.Plex, "_vertex_graph")
    monkeypatch.setattr(pm.Plex, "_vertex_graph", prop)
    calls = count_graphs(monkeypatch)
    before = pm.p1_pattern(bundle)
    reordered = pm.apply_permutation(bundle, pm.rcm_ordering(bundle.plex))
    plex = reordered.plex
    assert "_vertex_graph" in vars(plex)
    assert pm.p1_pattern(reordered).nnz == before.nnz
    assert [id(p) for p in derived] == [id(bundle.plex)] and not calls
    assert_same_arrays(plex._vertex_graph, edge_vertex_graph(plex))


def test_distribute_pipeline_constructs_only_the_global_plex(corpus, monkeypatch):
    # Vertex tables are born in build_from_cells and cut by migrate with the
    # strata, so no rank plex runs __init__ and no table is built by union.
    calls = {"__init__": 0, "_union_rows": 0}

    def counted(name):
        method = getattr(pm.Plex, name)

        def call(*args):
            calls[name] += 1
            return method(*args)
        return call

    for name in calls:
        monkeypatch.setattr(pm.Plex, name, counted(name))
    bundle = pm.raw_to_bundle(corpus["cube"])
    pmap = pm.partition_cells(pm.build_dual_graph(bundle.plex), 4)
    locals_, _, _ = pm.migrate(bundle, pmap, 4)
    raws = [pm.bundle_to_raw(lm.bundle) for lm in locals_]
    assert calls == {"__init__": 1, "_union_rows": 0}
    assert sum(raw.num_cells for raw in raws) > bundle.plex.num_cells


def test_partition_overlap_reuses_the_cell_graph(corpus, monkeypatch):
    plex = pm.raw_to_bundle(corpus["cube"]).plex
    calls = count_graphs(monkeypatch)
    pmap = pm.partition_cells(pm.build_dual_graph(plex), 4)
    pm.close_partition(plex, pmap)
    assert len(calls) == 1


def assert_same_arrays(got, want) -> None:
    for a, b in zip(got, want, strict=True):
        assert (a.dtype, a.shape, a.tolist()) == (b.dtype, b.shape, b.tolist())


def closure_vertex_rows(plex: pm.Plex, points) -> np.ndarray:
    """vertex_closures of points of one depth, from each point's oracle closure."""
    vertex_number = (plex.depths == 0).cumsum() - 1
    rows = [[int(vertex_number[q]) for q in oracle.closure(plex, p) if plex.depths[q] == 0]
            for p in points]
    return np.array(rows, dtype=np.int64).reshape(len(rows), len(rows[0]) if rows else 0)


def edge_vertex_graph(plex: pm.Plex):
    """The vertex graph by the generic build: vertices sharing an edge's cone."""
    offsets, targets = pm.plex._csr_rows(plex._cone_offsets, plex._cone_targets,
                                         plex.depth_stratum(1))
    return pm.plex._adjacency(plex.num_vertices, offsets,
                              ((plex.depths == 0).cumsum() - 1)[targets])


def assert_constructed_alike(plex: pm.Plex) -> None:
    """plex equals the plex the constructor makes from its cones, with the
    same strata and vertex tables."""
    want = pm.Plex(plex.dim, plex._cone_offsets, plex._cone_targets)
    assert plex == want
    assert_same_arrays([plex.depths, plex.heights], [want.depths, want.heights])
    assert_same_arrays(plex._vertex_tables, want._vertex_tables)


def test_pipeline_plexes_pass_the_constructor(corpus):
    # Every plex the pipeline makes without __init__ (migrate's rank plexes,
    # cut by Plex._cut, and apply_permutation's, by Plex._permuted) and
    # gather_to_root's is one the constructor accepts.
    for name, raw in corpus.items():
        bundle = pm.raw_to_bundle(raw)
        graph = pm.build_dual_graph(bundle.plex)
        centroids = pm.cell_centroids(bundle)
        for nparts in range(1, min(8, raw.num_cells) + 1):
            for method in ("greedy-bfs", "coordinate-bisection"):
                pmap = pm.partition_cells(graph, nparts, method, coords=centroids)
                locals_, sf, _ = pm.migrate(bundle, pmap, nparts)
                gathered = pm.gather_to_root(locals_, sf)
                assert gathered == bundle
                assert_constructed_alike(gathered.plex)
                for lm in locals_:
                    assert_constructed_alike(lm.bundle.plex)
                    perm = pm.rcm_ordering(lm.bundle.plex)
                    assert_constructed_alike(pm.apply_permutation(lm.bundle, perm).plex)


def rebuilt(plex: pm.Plex, perm: pm.Permutation) -> pm.Plex:
    """plex renumbered by perm through the constructor."""
    cones = [()] * plex.chart_size
    for p, cone in enumerate(plex.cones()):
        cones[perm(p)] = tuple(perm(q) for q in cone)
    return plex_from_cones(plex.dim, cones)


def assert_derived_relations_match(plex: pm.Plex, seed: int) -> None:
    """Every stratum's vertex table rows equal the oracle closures' vertex
    rows, the vertex graph the generic build, and _permuted a rebuilt plex,
    under a random and the RCM permutation, with the graph carried once built."""
    rng = np.random.default_rng(seed)
    for d in range(plex.dim + 1):
        stratum = plex.depth_stratum(d)
        for points in (stratum, rng.permutation(stratum)[:rng.integers(stratum.size + 1)]):
            assert_same_arrays([plex.vertex_closures(points)],
                               [closure_vertex_rows(plex, points)])
    assert "_vertex_graph" not in vars(plex._permuted(pm.Permutation.identity(plex.chart_size)))
    assert_same_arrays(plex._vertex_graph, edge_vertex_graph(plex))
    for perm in (pm.Permutation(rng.permutation(plex.chart_size)), pm.rcm_ordering(plex)):
        got, want = plex._permuted(perm), rebuilt(plex, perm)
        # The stored fields of a constructed plex, and the carried graph.
        assert vars(got).keys() == vars(want).keys() | {"_vertex_graph"}
        assert got == want
        assert_same_arrays([got.depths, got.heights], [want.depths, want.heights])
        assert_same_arrays(got._vertex_graph, edge_vertex_graph(want))


@PROPERTY
@given(raw=meshes, seed=seeds)
def test_derived_relations_match_oracles(raw, seed):
    built = pm.raw_to_bundle(raw)
    for bundle in (built, scrambled(built, seed)):
        assert_derived_relations_match(bundle.plex, seed)


@PROPERTY
@given(raw=meshes)
def test_built_vertex_tables_match_the_unions(raw):
    # build_from_cells keeps the sorted rows it deduplicates by, which are
    # the tables a constructed plex unions stratum by stratum.
    plex = pm.build_from_cells(raw.cells, raw.num_vertices, raw.dim)
    assert len(vars(plex)["_vertex_tables"]) == raw.dim + 1
    fresh = pm.Plex(raw.dim, plex._cone_offsets, plex._cone_targets)
    assert "_vertex_tables" not in vars(fresh)
    assert_same_arrays(plex._vertex_tables, fresh._vertex_tables)


@PROPERTY
@given(raw=meshes, seed=seeds, nparts=st.integers(1, 8))
def test_derived_relations_match_oracles_on_rank_meshes(raw, seed, nparts):
    # Rank plexes cut from the global plex equal the ones the constructor
    # builds from their cones, vertex tables included.
    built = pm.raw_to_bundle(raw)
    nparts = min(nparts, raw.num_cells)
    built_map = pm.partition_cells(pm.build_dual_graph(built.plex), nparts)
    shuffled = scrambled(built, seed)
    for bundle, pmap in (
            (built, built_map),
            (shuffled, pm.partition_cells(pm.build_dual_graph(shuffled.plex), nparts))):
        plex = bundle.plex
        for lm in pm.migrate(bundle, pmap, nparts)[0]:
            got, want = lm.bundle.plex, oracle.rank_plex(plex, lm.local_to_global)
            assert vars(got).keys() - {"_vertex_tables"} == vars(want).keys()
            assert "_vertex_tables" in vars(got)
            assert got == want
            assert_same_arrays([got.depths, got.heights], [want.depths, want.heights])
            assert_same_arrays(got._vertex_tables, want._vertex_tables)
            assert_derived_relations_match(got, seed)


@PROPERTY
@given(raw=meshes, seed=seeds)
def test_swapped_cone_point_refused_as_the_oracles_refuse(raw, seed):
    # A point's cone point swapped for another one depth down: the
    # constructor refuses what the contract oracle refuses; otherwise the
    # cell vertex rows come out of the vertex tables exactly when the
    # simplex oracle finds every cone closing, else its message.
    plex = scrambled(pm.raw_to_bundle(raw), seed).plex
    rng = np.random.default_rng(seed)
    cones = plex.cones()
    p = int(rng.choice((plex.depths > 0).nonzero()[0]))
    others = np.setdiff1d(plex.depth_stratum(plex.depths[p] - 1), cones[p])
    if not others.size:
        return
    cone = list(cones[p])
    cone[rng.integers(len(cone))] = int(rng.choice(others))
    cones[p] = tuple(cone)
    if oracle.plex_refusal(plex.dim, cones) is not None:
        assert_refused(plex.dim, cones)
        return
    swapped = plex_from_cones(plex.dim, cones)
    cells = swapped.height_stratum(0)
    want = oracle.simplex_refusal(swapped)
    if want is None:
        assert_same_arrays([swapped.vertex_closures(cells)], [closure_vertex_rows(swapped, cells)])
    else:
        with pytest.raises(ValueError) as err:
            swapped.vertex_closures(cells)
        assert str(err.value) == want


OPEN_CONES = {
    # Triangle 11's edges share no vertex; triangle 12 closes.
    "open": (2, [()] * 6 + [(0, 1), (2, 3), (4, 5), (1, 2), (0, 2), (6, 7, 8), (6, 9, 10)], 11),
    # Triangle 7 covers edge (1, 2) twice, so vertex 1 three times.
    "repeated-edge": (2, [()] * 3 + [(0, 1), (1, 2), (1, 2), (0, 2), (3, 4, 5), (3, 4, 6)], 7),
    # Segment 1 covers vertex 0 twice.
    "repeated-vertex": (1, [(), (0, 0)], 1),
}


@pytest.mark.parametrize("dim,cones,point", OPEN_CONES.values(), ids=OPEN_CONES.keys())
def test_cones_that_do_not_close_are_refused(dim, cones, point):
    # Graded and accepted by the constructor, but a cone's vertex sets are
    # not a simplex's facets: every query reading the vertex tables or the
    # vertex graph refuses, naming the point, whichever depth it asks for.
    plex = plex_from_cones(dim, cones)
    message = f"point {point}: the vertex sets of its cone do not form a simplex"
    assert oracle.simplex_refusal(plex) == message
    coords = pm.Field("coordinates", pm.section_from_depth_dofs(plex, [dim] + [0] * dim),
                      np.zeros(dim * plex.num_vertices))
    bundle = pm.MeshBundle(plex, coords)
    pmap = pm.PartitionMap(np.zeros(plex.num_cells, dtype=np.int64), 1)
    for query in (lambda: plex.vertex_closures([point]),
                  lambda: plex.vertex_closures(plex.depth_stratum(0)),
                  lambda: pm.p1_pattern(bundle), lambda: pm.rcm_ordering(plex),
                  lambda: pm.migrate(bundle, pmap, 1)):
        with pytest.raises(ValueError) as err:
            query()
        assert str(err.value) == message
    assert "_vertex_tables" not in vars(plex) and "_vertex_graph" not in vars(plex)


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
def test_permuted_labels_match_from_arrays(raw, seed):
    """A label whose points carry 1-3 values each, moved by a random and the
    RCM permutation, equals the label built from the moved pairs: each
    point's values stay ascending."""
    bundle = pm.raw_to_bundle(raw)
    rng = np.random.default_rng(seed)
    chart = bundle.plex.chart_size
    points = rng.permutation(chart)[:rng.integers(1, chart + 1)]
    counts = rng.integers(1, 4, points.size)
    values = np.concatenate([rng.choice(np.arange(-3, 4), c, replace=False) for c in counts])
    bundle.labels["marks"] = pm.Label.from_arrays("marks", points.repeat(counts), values)
    for perm in (pm.Permutation(rng.permutation(chart)), pm.rcm_ordering(bundle.plex)):
        got = pm.apply_permutation(bundle, perm).labels
        assert got.keys() == bundle.labels.keys()
        for name, lab in bundle.labels.items():
            want = pm.Label.from_arrays(name, perm.forward[lab.points], lab.values)
            assert_same_arrays([got[name].points, got[name].values],
                               [want.points, want.values])


def assert_pattern_matches_graph_entries(bundle: pm.MeshBundle) -> None:
    """p1_pattern, the diagonal inserted into the vertex graph as it is,
    equals CsrPattern of the graph's entries, which sorts them."""
    pattern = pm.p1_pattern(bundle)
    bounds, cols = bundle.plex._vertex_graph
    rows = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
    assert pattern == pm.CsrPattern(len(bounds) - 1, rows, cols)


@PROPERTY
@given(raw=meshes, seed=seeds)
def test_bundle_kernels_match_oracles(raw, seed):
    for bundle in (pm.raw_to_bundle(raw), scrambled(pm.raw_to_bundle(raw), seed)):
        plex = bundle.plex
        pattern = pm.p1_pattern(bundle)
        assert pattern == oracle.p1_pattern(bundle)
        assert_pattern_matches_graph_entries(bundle)
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


def bisected_ranks(raw: pm.RawMesh, nparts: int) -> list[pm.RankLocalMesh]:
    """The ranks of raw bisected by coordinate into nparts ranks, as the
    runtime benchmark workload splits its triangle grid."""
    bundle = pm.raw_to_bundle(raw)
    pmap = pm.partition_cells(pm.build_dual_graph(bundle.plex), nparts,
                              "coordinate-bisection", coords=pm.cell_centroids(bundle))
    return pm.migrate(bundle, pmap, nparts)[0]


def assert_rank_rcm_matches_oracle(raw: pm.RawMesh, nparts: int) -> None:
    for lm in bisected_ranks(raw, nparts):
        assert pm.rcm_ordering(lm.bundle.plex) == oracle.rcm_ordering(lm.bundle.plex)


@settings(PROPERTY, max_examples=10)
@given(nx=st.integers(1, 12), ny=st.integers(1, 12), seed=seeds, nparts=st.integers(1, 32))
def test_rcm_matches_oracle_on_bisected_rank_meshes(nx, ny, seed, nparts):
    assert_rank_rcm_matches_oracle(relabel(pm.triangle_grid(nx, ny), seed),
                                   min(nparts, 2 * nx * ny))


def test_rcm_matches_oracle_on_the_runtime_workload_ranks():
    assert_rank_rcm_matches_oracle(relabel(pm.triangle_grid(32, 32), 1), 32)


@pytest.mark.parametrize("interleave", [False, True])
def test_rcm_matches_oracle_on_hundreds_of_components(interleave):
    sizes = np.random.default_rng(3).integers(1, 3, (300, 2)).tolist()
    plex = joined_grids(sizes, 3, interleave)
    assert pm.rcm_ordering(plex) == oracle.rcm_ordering(plex)


def test_p1_pattern_matches_sorted_graph_entries_on_the_runtime_workload_ranks():
    # Each rank's RCM-permuted bundle carries its graph through the permutation.
    for lm in bisected_ranks(relabel(pm.triangle_grid(32, 32), 1), 32):
        assert_pattern_matches_graph_entries(lm.bundle)
        permuted = pm.apply_permutation(lm.bundle, pm.rcm_ordering(lm.bundle.plex))
        assert "_vertex_graph" in vars(permuted.plex)
        assert_pattern_matches_graph_entries(permuted)


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


def assert_same_forest(sf: pm.StarForest, want: pm.StarForest) -> None:
    assert sf.nranks == want.nranks
    for name in ("leaf_rank", "leaf_point", "root_rank", "root_point"):
        a, b = getattr(sf, name), getattr(want, name)
        assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes()), name


def assert_distribution_matches_oracles(bundle: pm.MeshBundle, pmap: pm.PartitionMap) -> None:
    """close_partition and migrate's point SF equal their closure-based and
    select/reduce/bcast compositions."""
    msf, owner = pm.close_partition(bundle.plex, pmap)
    want_msf, want_owner = oracle.close_partition_by_closures(bundle.plex, pmap)
    assert_same_forest(msf, want_msf)
    assert owner.tolist() == want_owner.tolist()
    _, sf, _ = pm.migrate(bundle, pmap, pmap.nparts)
    assert_same_forest(sf, oracle.point_sf_by_composition(msf, owner, pmap.nparts))


def partitions(bundle: pm.MeshBundle, nparts: int, seed: int) -> list[pm.PartitionMap]:
    """Both partitioners' maps, and random ranks, some possibly empty."""
    graph = pm.build_dual_graph(bundle.plex)
    coords = pm.cell_centroids(bundle)
    ranks = np.random.default_rng(seed).integers(0, nparts, graph.num_cells)
    return [pm.partition_cells(graph, nparts), pm.PartitionMap(ranks, nparts),
            pm.partition_cells(graph, nparts, "coordinate-bisection", coords=coords)]


@PROPERTY
@given(kind=st.sampled_from(sorted(MESHES)), size=st.integers(0, 2), shuffled=st.booleans(),
       seed=seeds, nparts=st.integers(1, 8))
def test_partition_and_distribution_match_the_oracles(kind, size, shuffled, seed, nparts):
    # Unshuffled, the generators' grids give many tied centroids.
    raw = MESHES[kind](size)
    bundle = pm.raw_to_bundle(relabel(raw, seed) if shuffled else raw)
    nparts = min(nparts, bundle.plex.num_cells)
    pmaps = partitions(bundle, nparts, seed)
    assert pmaps[2].ranks.tolist() == oracle.bisect(pm.cell_centroids(bundle), nparts).tolist()
    for built in (bundle, scrambled(bundle, seed)):
        for pmap in pmaps:
            assert_distribution_matches_oracles(built, pmap)


@PROPERTY
@given(ncells=st.integers(1, 40), dim=st.integers(1, 3), span=st.integers(1, 4), seed=seeds,
       nparts=st.integers(1, 8))
def test_bisection_matches_the_recursive_oracle_on_tied_coordinates(ncells, dim, span, seed,
                                                                    nparts):
    # Integer coordinates on a few values: tied coordinates, tied spreads
    # across axes and repeated centroids.
    coords = np.random.default_rng(seed).integers(0, span, (ncells, dim)).astype(float)
    graph = pm.DualGraph(ncells, np.zeros(ncells + 1, dtype=np.int64), np.zeros(0, dtype=np.int64))
    nparts = min(nparts, ncells)
    ranks = pm.partition_cells(graph, nparts, "coordinate-bisection", coords=coords).ranks
    assert ranks.tolist() == oracle.bisect(coords, nparts).tolist()


@pytest.mark.parametrize("nparts", [1, 2, 3, 5, 7, 8, 32, 64, 100])
@pytest.mark.parametrize("raw", [pm.triangle_grid(32, 32), pm.tet_box(6, 6, 6)],
                         ids=["runtime-tri2d", "tet3d"])
def test_partition_and_distribution_match_the_oracles_on_the_benchmark_meshes(raw, nparts):
    # The benchmark meshes, shuffled as their seed-1 inputs are.
    bundle = pm.raw_to_bundle(relabel(raw, 1))
    pmaps = partitions(bundle, nparts, 1)
    assert pmaps[2].ranks.tolist() == oracle.bisect(pm.cell_centroids(bundle), nparts).tolist()
    for pmap in pmaps:
        assert_distribution_matches_oracles(bundle, pmap)


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


# The stable sorts and row sorts of src/plexmesh that stay off the two kernels,
# plex._stable_order and plex._sorted_rows: one reason per call.
SORTS_OFF_THE_KERNELS = {
    ("gmsh_io.py", "read_gmsh", "stable"): ["node tags may be negative"],
    ("gmsh_io.py", "bundle_to_raw", "stable"): ["boundary markers may be negative"],
    ("plex.py", "_cell_array", "stable"): [
        "only for a duplicate cell, to name its first pair; accepted cells sort unstably"],
    # Keys already in a few ascending runs, which timsort merges and radix
    # passes cannot exploit.
    ("renumber.py", "rcm_ordering", "stable"): [
        "row * nv + degree ascends by row: timsort 14 us against radix 47-99 us on tri2d",
        "depths ascend stratum by stratum: timsort 9 us against radix 37 us on tri2d"],
}


def enclosed_nodes(source: str):
    """(enclosing function, node) for every node of a source, "<module>" for
    the module's own, in the order a depth-first walk meets them."""
    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            yield func, child
            yield from visit(child, child.name if isinstance(child, ast.FunctionDef) else func)

    return visit(ast.parse(source), "<module>")


def sort_sites(name: str, source: str) -> list[tuple[str, str, str]]:
    """(file name, enclosing function, "stable" or "rows") of every call with
    kind="stable" and every np.sort(..., axis=1) in a file's source."""
    sites = []
    for func, node in enclosed_nodes(source):
        if isinstance(node, ast.Call):
            args = {k.arg: k.value for k in node.keywords}
            if len(node.args) > 1:
                args.setdefault("axis", node.args[1])
            kind, axis = args.get("kind"), args.get("axis")
            if isinstance(kind, ast.Constant) and kind.value == "stable":
                sites.append((name, func, "stable"))
            if (ast.unparse(node.func) == "np.sort" and axis is not None
                    and ast.unparse(axis) in ("1", "-1")):
                sites.append((name, func, "rows"))
    return sites


def test_stable_and_row_sorts_go_through_the_kernels():
    # numpy timsorts int64 where _stable_order radix-sorts 16-bit digits, and
    # sorts rows one call each where _sorted_rows compares whole columns.
    sites = [site for path in sorted(Path(pm.__file__).parent.glob("*.py"))
             for site in sort_sites(path.name, path.read_text())
             if site[:2] not in {("plex.py", "_stable_order"), ("plex.py", "_sorted_rows")}]
    assert Counter(sites) == {site: len(why) for site, why in SORTS_OFF_THE_KERNELS.items()}


def test_sort_sites_are_found():
    source = textwrap.dedent("""
        import numpy as np
        def f(a):
            a.argsort(kind="stable"), np.sort(a, 1), np.sort(a, axis=-1)
            def g():
                return np.argsort(a, kind="stable"), np.sort(a, axis=0), a.argsort()
        """)
    assert sort_sites("x.py", source) == [("x.py", "f", "stable"), ("x.py", "f", "rows"),
                                          ("x.py", "f", "rows"), ("x.py", "g", "stable")]


# The string constants of src/plexmesh holding a %d conversion, which integer
# tables leave to gmsh_io._int_rows's whole-column digit passes: one reason each.
PERCENT_D_OFF_THE_KERNEL = {
    ("gmsh_io.py", "write_gmsh"): [
        "node tags share their lines with %.16g coordinates, and float text is at its floor"],
}


def percent_d_sites(name: str, source: str) -> list[tuple[str, str]]:
    """(file name, enclosing function) of every string constant holding %d,
    docstrings and f-string parts included."""
    return [(name, func) for func, node in enclosed_nodes(source)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and "%d" in node.value]


def test_integer_tables_go_through_the_kernel():
    sites = [site for path in sorted(Path(pm.__file__).parent.glob("*.py"))
             for site in percent_d_sites(path.name, path.read_text())]
    assert Counter(sites) == {site: len(why) for site, why in PERCENT_D_OFF_THE_KERNEL.items()}


def test_percent_d_sites_are_found():
    source = textwrap.dedent('''
        """Module %d."""
        def f(a):
            return "%d,%d" % a, "%s" % a
        def g(a):
            """%.16g"""
            return f"{a} %d", "%.16g %i" % a
        ''')
    assert percent_d_sites("x.py", source) == [("x.py", "<module>"), ("x.py", "f"),
                                               ("x.py", "g")]


def planted_gather(field: str, value) -> pm.MeshBundle:
    """gather_to_root of two triangles split over two ranks, with the first
    entry of rank 1's field (of an 11-point chart) set to value."""
    locals_, sf, _ = pm.migrate(pm.raw_to_bundle(pm.triangle_grid(1, 1)),
                                pm.PartitionMap([0, 1], 2), 2)
    array = getattr(locals_[1], field).copy()
    array[0] = value
    setattr(locals_[1], field, array)
    return pm.gather_to_root(locals_, sf)


# One planted value per plex._indices call site, with the refusal's exact text.
INDEX_SITES = {
    "cone-targets": (lambda: pm.Plex(1, [0, 1, 1], [5]), "cone targets: 5 not in [0, 2)"),
    "cell-vertex-ids": (lambda: pm.build_from_cells([(0, 1, 7)], 4, 2),
                        "cell vertex ids: 7 not in [0, 4)"),
    "raw-cells": (lambda: pm.RawMesh(2, np.eye(3, 2), [[0, 1, 3]], [0], np.empty((0, 2)), []),
                  "cells: 3 not in [0, 3)"),
    "raw-boundary-facets": (lambda: pm.RawMesh(2, np.eye(3, 2), [[0, 1, 2]], [0], [[0, -1]], [1]),
                            "boundary_facets: -1 not in [0, 3)"),
    "star-forest-ranks": (lambda: pm.StarForest(2, [0], [0], [2], [0]),
                          "root ranks: 2 not in [0, 2)"),
    "star-forest-points": (lambda: pm.StarForest(2, [0], [-1], [0], [0]),
                           "leaf points: -1 not in [0, inf)"),
    "local-to-global": (lambda: planted_gather("local_to_global", -5),
                        "local_to_global: -5 not in [0, inf)"),
    "ghost-points": (lambda: planted_gather("ghost_points", 11),
                     "rank 1 ghost points: 11 not in [0, 11)"),
    "partition-map": (lambda: pm.PartitionMap([0, 2], 2), "cell ranks: 2 not in [0, 2)"),
    "permutation": (lambda: pm.Permutation([0, 3, 1]), "permutation: 3 not in [0, 3)"),
    "section": (lambda: pm.Section([1, -2]), "dof counts: -2 not in [0, inf)"),
    "depth-dofs": (lambda: pm.section_from_depth_dofs(pm.build_from_cells([(0, 1, 2)], 3, 2),
                                                      [1, -1, 0]),
                   "per-depth dof counts: -1 not in [0, inf)"),
    "pattern-rows": (lambda: pm.CsrPattern(3, [3], [0]), "rows: 3 not in [0, 3)"),
    "pattern-cols": (lambda: pm.CsrPattern(3, [0], [-1]), "cols: -1 not in [0, 3)"),
}


@pytest.mark.parametrize("site", INDEX_SITES)
def test_index_refusals_name_the_array_the_value_and_the_range(site):
    make, message = INDEX_SITES[site]
    with pytest.raises(ValueError) as err:
        make()
    assert str(err.value) == message


def test_indices_name_the_first_value_outside():
    assert str(pytest.raises(ValueError, pm.plex._indices, "x", [1, 5, -1, 9], 4).value) == \
        "x: 5 not in [0, 4)"
    assert str(pytest.raises(ValueError, pm.plex._indices, "x", [9, -1]).value) == \
        "x: -1 not in [0, inf)"
    for bound in (None, 0, 3):
        out = pm.plex._indices("x", np.empty(0), bound)
        assert out.dtype == np.int64 and out.size == 0
    assert pm.plex._indices("x", [2.0, 0], 3).tolist() == [2, 0]


# The comparisons of a .min() with < 0 in src/plexmesh besides the two range
# checks, plex._indices and Plex._points' IndexError: one reason each.
NEGATIVE_MIN_OFF_THE_CHECK = {
    ("plex.py", "_indices"): ["the range check"],
    ("plex.py", "_points"): ["the query contract's IndexError for a point outside the chart"],
    ("gmsh_io.py", "_int_rows"): ["each row's sign column of the digit table, not a range check"],
}


def negative_min_sites(name: str, source: str) -> list[tuple[str, str]]:
    """(file name, enclosing function) of every comparison with < 0 of an
    operand that calls .min(), such as a.min() < 0 or min(a.min(), b.min()) < 0."""
    sites = []
    for func, node in enclosed_nodes(source):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            sites += [(name, func) for left, op, right in zip(operands, node.ops, operands[1:])
                      if isinstance(op, ast.Lt) and isinstance(right, ast.Constant)
                      and right.value == 0
                      and any(isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                              and n.func.attr == "min" for n in ast.walk(left))]
    return sites


def test_range_checks_go_through_indices():
    # plex._indices range-checks index arrays and names the array, the value
    # and the range, where a hand-written check need not.
    sites = [site for path in sorted(Path(pm.__file__).parent.glob("*.py"))
             for site in negative_min_sites(path.name, path.read_text())]
    assert Counter(sites) == {site: len(why) for site, why in NEGATIVE_MIN_OFF_THE_CHECK.items()}


def test_negative_min_sites_are_found():
    source = textwrap.dedent("""
        def f(a, b):
            return a.min() < 0, min(a.min(), b.min()) < 0, 0 <= a.min(initial=0) < 0
        def g(a):
            return a.max() < 0, a.min() < 1, (a < 0).any(), a.min() > 0, min(a) < 0
        """)
    assert negative_min_sites("x.py", source) == [("x.py", "f")] * 3


def private_definitions(tree: ast.Module):
    """(name, node) of each private module-level function and constant and
    each private method of a module-level class."""
    methods = [node for cls in tree.body if isinstance(cls, ast.ClassDef) for node in cls.body]
    for node in tree.body + methods:
        if isinstance(node, ast.FunctionDef):
            names = [node.name]
        elif isinstance(node, ast.Assign) and node in tree.body:
            names = [n.id for t in node.targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from ((name, node) for name in names
                    if name.startswith("_") and not name.endswith("__"))


def references(node: ast.AST) -> Counter:
    """How often each name is read under a node, as a name or an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load))


def unreferenced_private_names(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(file name, name) of every private definition of the sources that no
    code outside the definition itself reads."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = sum((references(tree) for tree in trees.values()), Counter())
    return [(file, name) for file, tree in trees.items()
            for name, node in private_definitions(tree)
            if read[name] == references(node)[name]]


def test_private_names_have_a_reader():
    # A deleted caller must not leave its helper behind.
    sources = {path.name: path.read_text()
               for path in sorted(Path(pm.__file__).parent.glob("*.py"))}
    assert unreferenced_private_names(sources) == []


def test_unreferenced_private_names_are_found():
    sources = {"a.py": textwrap.dedent("""
        _USED, _UNUSED = 1, 2
        def _helper(n):
            return _helper(n - 1) if n else _USED
        def _orphan():
            return _orphan()
        class C:
            __slots__ = ()
            def __init__(self):
                self._field = 0
            def _kept(self):
                return self._field
            def _dropped(self):
                return C()._kept()
            @property
            def _prop(self):
                return 0
        def public():
            return _helper(1)
        """), "b.py": "from a import C\nC()._prop\n"}
    assert unreferenced_private_names(sources) == [("a.py", "_UNUSED"), ("a.py", "_orphan"),
                                                   ("a.py", "_dropped")]


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
       values=st.lists(st.sampled_from(SPECIAL_FLOATS)
                       | st.floats(allow_nan=False, allow_infinity=False), max_size=8))
def test_write_gmsh_matches_oracle(raw, seed, values):
    rng = np.random.default_rng(seed)
    vertices = raw.vertices.copy()
    vertices.flat[rng.integers(0, vertices.size, len(values))] = values
    mesh = pm.RawMesh(dim=raw.dim, vertices=vertices, cells=raw.cells,
                      cell_region_ids=rng.integers(-2**40, 2**40, raw.num_cells),
                      boundary_facets=raw.boundary_facets,
                      boundary_markers=rng.integers(-9, 10**6, len(raw.boundary_facets)))
    assert pm.write_gmsh(mesh) == oracle.write_gmsh(mesh)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_write_gmsh_refuses_non_finite_coordinates(value):
    # read_gmsh refuses such a file, so write_gmsh must not write one.
    mesh = pm.tet_box(1, 1, 1)
    mesh.vertices[5, 2] = mesh.vertices[7, 0] = value
    for write in (pm.write_gmsh, oracle.write_gmsh):
        with pytest.raises(ValueError, match=re.escape(
                "vertex 5 (node 6) has a non-finite coordinate")):
            write(mesh)


@pytest.mark.parametrize("mesh", [pm.interval_mesh(7), pm.triangle_grid(3, 2)],
                         ids=["1d", "2d"])
def test_node_padding_is_written_as_percent_g_of_zero(mesh):
    # The node lines write their +0.0 padding as the literal 0.
    mesh.vertices[:2] = -0.0
    xyz = np.zeros((mesh.num_vertices, 3))
    xyz[:, :mesh.dim] = mesh.vertices
    want = "".join("%d %.16g %.16g %.16g\n" % (i + 1, *row) for i, row in enumerate(xyz))
    assert msh_sections(pm.write_gmsh(mesh))[1][2:-1] == want.splitlines()


def percent_d(table: np.ndarray, sep: str) -> str:
    return "".join(sep.join("%d" % v for v in row) + "\n" for row in table.tolist())


# Both sides of every int64 extreme, unsigned dtype boundary and power of ten.
EDGE_INTS = sorted({-2**63, 2**63 - 1, *(2**b + d for b in (8, 16, 32) for d in (-1, 0)),
                    *(10**k + d for k in range(1, 19) for d in (-1, 0))})


@st.composite
def edge_tables(draw) -> np.ndarray:
    """0-6 rows of 1-5 columns, each column of edge values, their
    complements (~v == -v - 1), small numbers or any int64; some columns
    all negative."""
    shape = (draw(st.integers(0, 6)), draw(st.integers(1, 5)))
    values = st.sampled_from(EDGE_INTS) | st.integers(-10, 10) | st.integers(-2**63, 2**63 - 1)
    table = np.array(draw(st.lists(values, min_size=shape[0] * shape[1],
                                   max_size=shape[0] * shape[1])), dtype=np.int64)
    table = table.reshape(shape)
    negative = np.array(draw(st.lists(st.booleans(), min_size=shape[1], max_size=shape[1])))
    table[:, negative] = np.minimum(table[:, negative], ~table[:, negative])
    return table


@settings(derandomize=True, deadline=None, max_examples=300)
@given(table=edge_tables(), sep=st.sampled_from([" ", ","]))
def test_int_rows_match_percent_d(table, sep):
    assert gmsh_io._int_rows(table, sep) == percent_d(table, sep)


@pytest.mark.parametrize("sep", [" ", ","])
@pytest.mark.parametrize("value", EDGE_INTS)
def test_int_rows_match_percent_d_at_each_edge(value, sep):
    # The edge alone in one column sets that column's width, and its
    # complement is the matching negative edge.
    for table in ([[value]], [[~value]], [[value, ~value, 0], [0, -1, value // 7]],
                  [[~value], [-1], [~(value // 3)]]):
        table = np.array(table, dtype=np.int64)
        assert gmsh_io._int_rows(table, sep) == percent_d(table, sep)


@pytest.mark.parametrize("ncols", [1, 2, 8])
def test_int_rows_of_no_rows(ncols):
    assert gmsh_io._int_rows(np.empty((0, ncols), dtype=np.int64), ",") == ""


def msh_sections(text: str) -> list[list[str]]:
    """The lines of an MSH text written by write_gmsh, one list per section."""
    sections, lines = [], text.splitlines()
    for line in lines:
        if line.startswith("$") and not line.startswith("$End"):
            sections.append([])
        sections[-1].append(line)
    return sections


def int_spellings(rng):
    """A function that spells a non-negative integer token, in a form the
    reader's integer grammar reads as the same number: plain ASCII digits,
    or also with a leading zero, or also zero-padded to 18 digits, the most
    an integer field may have."""
    forms = [lambda t: t, lambda t: "0" + t]
    forms += [[], [lambda t: t.zfill(18)]][rng.integers(2)]
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


def read_in_small_chunks(size: int):
    """read_gmsh parsing each block in chunks of at most `size` bytes."""
    def read(stream) -> pm.RawMesh:
        with mock.patch.object(gmsh_io, "_CHUNK_BYTES", size):
            return pm.read_gmsh(stream)
    return read


def read_both(text: str):
    """(new, oracle) outcome of reading `text`: a RawMesh or an error message.

    The new reader must give the same outcome whatever its chunk size: one
    line per chunk (1 byte), or a few lines cut at a small odd size.
    """
    outcomes = []
    for read in (pm.read_gmsh, read_in_small_chunks(1), read_in_small_chunks(61),
                 oracle.read_gmsh):
        try:
            outcomes.append(read(io.StringIO(text)))
        except pm.GmshParseError as exc:
            outcomes.append(f"GmshParseError: {exc}")
    assert outcomes[0] == outcomes[1] == outcomes[2]
    return outcomes[0], outcomes[3]


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

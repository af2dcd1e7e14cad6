"""Topology DAG construction and traversal.

Golden values for the single tetrahedron follow the literal numbering of the
15-point DAG (cell 0, vertices 1-4, facets 5-8, edges 9-14); derived values
are frozen from the brute-force oracles defined below.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
import time

import numpy as np
import pytest

from plexmesh import Plex, build_from_cells

from _helpers import plex_from_cones

TET = [(0, 1, 2, 3)]
TWO_TRI = [(0, 1, 2), (1, 3, 2)]


def unique_subsimplices(cells, k):
    """Oracle: distinct k-vertex subsets appearing in any cell."""
    return {frozenset(sub) for c in cells for sub in combinations(c, k)}


def reachable(plex, p, step):
    """Oracle: transitive closure by fixpoint iteration, no ordering."""
    out = {p}
    while True:
        nxt = out | {int(q) for r in out for q in step(r)}
        if nxt == out:
            return out
        out = nxt


class TestBuildFromCells:
    def test_single_tet_fig_numbering(self):
        plex = build_from_cells(TET, 4, 3)
        assert plex.chart_size == 15
        assert list(plex.cone(0)) == [5, 6, 7, 8]
        assert list(plex.cone(5)) == [9, 10, 11]
        # edge -> vertex pairs of the golden numbering
        pairs = {e: set(int(q) for q in plex.cone(e)) for e in range(9, 15)}
        assert pairs == {9: {2, 3}, 10: {1, 3}, 11: {1, 2},
                         12: {3, 4}, 13: {1, 4}, 14: {2, 4}}

    def test_single_line(self):
        plex = build_from_cells([(0, 1)], 2, 1)
        assert plex.chart_size == 3
        assert list(plex.cone(0)) == [1, 2]

    def test_two_triangles_share_edge(self):
        # oracle: 2 cells + 4 vertices + |unique vertex pairs| points
        nedges = len(unique_subsimplices(TWO_TRI, 2))
        assert nedges == 5
        plex = build_from_cells(TWO_TRI, 4, 2)
        assert plex.chart_size == 2 + 4 + nedges == 11
        # the shared edge appears once: exactly one edge has support of 2 cells
        shared = [e for e in range(6, 11) if len(plex.support(e)) == 2]
        assert len(shared) == 1

    def test_deduplication_keys_on_sorted_tuple(self):
        # same shared edge written with flipped orientation in the second cell
        plex = build_from_cells([(0, 1, 2), (2, 1, 3)], 4, 2)
        assert plex.chart_size == 11

    def test_deterministic(self):
        a = build_from_cells(TWO_TRI, 4, 2)
        b = build_from_cells(TWO_TRI, 4, 2)
        assert a == b and a.cones() == b.cones()

    def test_vertex_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            build_from_cells([(0, 1, 4)], 4, 2)

    def test_mixed_arities(self):
        with pytest.raises(ValueError, match="mixed"):
            build_from_cells([(0, 1, 2), (0, 1)], 4, 2)

    def test_arity_dim_mismatch(self):
        with pytest.raises(ValueError, match="inconsistent with dimension"):
            build_from_cells([(0, 1, 2)], 4, 3)

    def test_unused_vertex_rejected(self):
        with pytest.raises(ValueError, match="vertex 3 is used by no cell"):
            build_from_cells([(0, 1, 2)], 4, 2)

    def test_empty_cells(self):
        with pytest.raises(ValueError, match="empty"):
            build_from_cells([], 4, 2)

    @pytest.mark.parametrize("dim,cells", [
        (1, [(0, 1), (2, 2)]),
        (2, [(0, 1, 2), (0, 0, 1)]),
        (3, [(0, 1, 2, 3), (0, 1, 3, 1)]),
    ])
    def test_degenerate_cell_rejected(self, dim, cells):
        with pytest.raises(ValueError, match=r"degenerate cell 1 \(" + ", ".join(
                str(v) for v in cells[1]) + r"\)"):
            build_from_cells(cells, 4, dim)

    @pytest.mark.parametrize("dim,cells,match", [
        (1, [(0, 1), (1, 2), (1, 0)], r"duplicate cell 2 \(1, 0\): same vertices as cell 0"),
        (2, [(0, 1, 2), (0, 1, 2)], r"duplicate cell 1 \(0, 1, 2\): same vertices as cell 0"),
        (3, [(0, 1, 2, 3), (1, 2, 3, 4), (3, 2, 1, 0)],
         r"duplicate cell 2 \(3, 2, 1, 0\): same vertices as cell 0"),
    ], ids=["interval", "triangles", "tets"])
    def test_duplicate_cell_rejected(self, dim, cells, match):
        # without the check, two copies of a triangle interpolate to two
        # cells sharing all three edges
        with pytest.raises(ValueError, match=match):
            build_from_cells(cells, 1 + max(max(c) for c in cells), dim)


@pytest.fixture(scope="module")
def tet():
    return build_from_cells(TET, 4, 3)


class TestQueries:
    def test_cone_of_vertex_empty(self, tet):
        assert list(tet.cone(1)) == []

    def test_support(self, tet):
        assert list(tet.support(5)) == [0]
        assert list(tet.support(0)) == []
        assert list(tet.support(1)) == [10, 11, 13]

    def test_closure_cell(self, tet):
        assert len(tet.closure(0)) == 15
        assert sorted(tet.closure(0).tolist()) == list(range(15))

    def test_closure_vertex_is_self(self, tet):
        assert list(tet.closure(2)) == [2]

    def test_closure_facet(self, tet):
        assert set(tet.closure(5).tolist()) == {5, 9, 10, 11, 1, 2, 3}

    def test_star_cell_is_self(self, tet):
        assert list(tet.star(0)) == [0]

    def test_star_vertex_golden(self, tet):
        assert list(tet.star(1)) == [1, 10, 11, 13, 5, 6, 7, 0]

    def test_star_matches_reachability_oracle(self, tet):
        for p in range(tet.chart_size):
            assert set(tet.star(p).tolist()) == reachable(tet, p, tet.support)
            assert set(tet.closure(p).tolist()) == reachable(tet, p, tet.cone)

    def test_star_of_shared_edge_has_both_cells(self):
        plex = build_from_cells(TWO_TRI, 4, 2)
        shared = next(e for e in range(6, 11) if len(plex.support(e)) == 2)
        oracle = reachable(plex, shared, plex.support)
        assert {0, 1} <= set(plex.star(shared).tolist()) == oracle

    def test_out_of_chart(self, tet):
        for op in (tet.cone, tet.support, tet.closure, tet.star):
            with pytest.raises(IndexError):
                op(15)
            with pytest.raises(IndexError):
                op(-1)


class TestStrata:
    def test_tet_strata(self):
        plex = build_from_cells(TET, 4, 3)
        assert [len(plex.height_stratum(h)) for h in range(4)] == [1, 4, 6, 4]
        assert [len(plex.depth_stratum(d)) for d in range(4)] == [4, 6, 4, 1]

    def test_line_depths(self):
        plex = build_from_cells([(0, 1)], 2, 1)
        assert plex.depths.tolist() == [1, 0, 0]

    def test_two_triangle_strata(self):
        plex = build_from_cells(TWO_TRI, 4, 2)
        assert len(plex.height_stratum(0)) == 2
        assert len(plex.height_stratum(1)) == 5
        assert len(plex.height_stratum(2)) == 4

    @pytest.mark.parametrize("dim,cell", [(1, (0, 1)), (2, (0, 1, 2)), (3, (0, 1, 2, 3))])
    def test_single_simplex_binomial_counts(self, dim, cell):
        plex = build_from_cells([cell], dim + 1, dim)
        for k in range(dim + 1):
            assert len(plex.depth_stratum(k)) == comb(dim + 1, k + 1)

    def test_depth_plus_height(self):
        for dim, cells, nv in ((1, [(0, 1), (1, 2)], 3), (2, TWO_TRI, 4), (3, TET, 4)):
            plex = build_from_cells(cells, nv, dim)
            assert np.all(plex.depths + plex.heights == dim)

    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            plex_from_cones(1, [(1,), (2,), (0,)])

    def test_long_cycle_rejected_fast(self):
        # Peeling stops at the first empty level, so a ring costs O(arcs).
        n = 100_000
        started = time.perf_counter()
        with pytest.raises(ValueError, match="cover relation contains a cycle"):
            Plex(1, np.arange(n + 1), (np.arange(n) + 1) % n)
        assert time.perf_counter() - started < 0.5

    def test_cycle_above_acyclic_part_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            plex_from_cones(2, [(1, 3), (2,), (1,), ()])


class TestConstructor:
    @pytest.mark.parametrize("dim,offsets,targets,message", [
        (0, [0, 1, 1], [1], "unsupported mesh dimension 0"),
        (4, [0, 1, 1], [1], "unsupported mesh dimension 4"),
        (1, [], [], "malformed CSR cone arrays"),
        (1, [[0, 1, 1]], [1], "malformed CSR cone arrays"),
        (1, [1, 2, 2], [1, 1], "malformed CSR cone arrays"),
        (1, [0, 2, 1], [1], "malformed CSR cone arrays"),
        (1, [0, 1, 1], [1, 0], "malformed CSR cone arrays"),
        (1, [0, 1, 1], [-1], "cone target outside chart"),
        (1, [0, 1, 1], [2], "cone target outside chart"),
    ], ids=["dim-0", "dim-4", "empty-offsets", "2d-offsets", "nonzero-start",
            "decreasing", "targets-length", "negative-target", "target-at-chart-size"])
    def test_bad_input_rejected(self, dim, offsets, targets, message):
        with pytest.raises(ValueError, match=message):
            Plex(dim, offsets, targets)


class TestDuality:
    @pytest.mark.parametrize("dim,cells,nv", [
        (1, [(0, 1), (1, 2)], 3),
        (2, TWO_TRI, 4),
        (3, [(0, 1, 2, 3), (1, 2, 3, 4)], 5),
    ])
    def test_cone_support_transpose(self, dim, cells, nv):
        plex = build_from_cells(cells, nv, dim)
        cone_arcs = {(p, int(q)) for p in range(plex.chart_size) for q in plex.cone(p)}
        sup_arcs = {(int(q), p) for p in range(plex.chart_size) for q in plex.support(p)}
        assert cone_arcs == sup_arcs

    def test_closure_star_idempotent(self):
        plex = build_from_cells(TWO_TRI, 4, 2)
        for p in range(plex.chart_size):
            cl = set(plex.closure(p).tolist())
            assert set().union(*(set(plex.closure(q).tolist()) for q in cl)) == cl
            st = set(plex.star(p).tolist())
            assert set().union(*(set(plex.star(q).tolist()) for q in st)) == st

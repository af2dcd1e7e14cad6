"""Dual graph construction and the two partitioning heuristics."""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest

import plexmesh as pm
from plexmesh import (PartitionMap, build_dual_graph, build_from_cells,
                      cell_centroids, partition_cells, partition_stats)

from _helpers import plex_from_cones


def dual_edges_oracle(cells, dim):
    """Oracle: cells adjacent iff they share a (dim-1)-simplex, by pair scan."""
    edges = set()
    for (i, a), (j, b) in combinations(enumerate(cells), 2):
        shared_facets = {frozenset(f) for f in combinations(a, dim)} & \
                        {frozenset(f) for f in combinations(b, dim)}
        if shared_facets:
            edges.add((i, j))
    return edges


def neighbors_of(graph, c) -> list[int]:
    return graph.neighbors[graph.offsets[c]:graph.offsets[c + 1]].tolist()


def edges_of(graph) -> list[tuple[int, int]]:
    """Every dual edge (c, n) with c < n, in row order."""
    return [(c, n) for c in range(graph.num_cells) for n in neighbors_of(graph, c) if c < n]


def stats_oracle(graph, ranks, nparts):
    cut = sum(1 for a, b in edges_of(graph) if ranks[a] != ranks[b])
    sizes = np.bincount(ranks, minlength=nparts)
    return cut, sizes.max() / (len(ranks) / nparts)


class TestDualGraph:
    def test_single_tet(self):
        graph = build_dual_graph(build_from_cells([(0, 1, 2, 3)], 4, 3))
        assert graph.num_cells == 1 and graph.num_edges == 0

    def test_two_triangles(self):
        graph = build_dual_graph(build_from_cells([(0, 1, 2), (1, 3, 2)], 4, 2))
        assert edges_of(graph) == [(0, 1)]

    def test_grid_matches_pairwise_oracle(self, corpus):
        raw = corpus["grid4"]
        graph = build_dual_graph(pm.raw_to_bundle(raw).plex)
        want = dual_edges_oracle([tuple(c) for c in raw.cells.tolist()], raw.dim)
        assert set(edges_of(graph)) == want
        assert all(len(neighbors_of(graph, c)) <= 3 for c in range(graph.num_cells))

    def test_symmetry(self, bundles):
        graph = build_dual_graph(bundles["cube"].plex)
        for c in range(graph.num_cells):
            for n in neighbors_of(graph, c):
                assert c in neighbors_of(graph, n)

    def test_non_interpolated_rejected(self):
        # Cells covering vertices directly in 2D are not interpolated: no
        # plex, so no dual graph, is made of them.
        with pytest.raises(ValueError, match=r"^point 0 at depth 2 covers point 2 at depth 0: "
                                             "a cone arc must drop one depth$"):
            plex_from_cones(2, [(2, 3, 4), (3, 5, 4), (), (), (), ()])


class TestPartitionCells:
    def test_single_part(self, bundles):
        graph = build_dual_graph(bundles["grid4"].plex)
        pmap = partition_cells(graph, 1)
        assert pmap.ranks.tolist() == [0] * 32
        assert partition_stats(graph, pmap).edge_cut == 0

    def test_forced_two_cell_split(self):
        graph = build_dual_graph(build_from_cells([(0, 1, 2), (1, 3, 2)], 4, 2))
        pmap = partition_cells(graph, 2)
        stats = partition_stats(graph, pmap)
        assert sorted(pmap.ranks.tolist()) == [0, 1]
        assert stats.edge_cut == 1 and stats.imbalance == 1.0

    @pytest.mark.parametrize("method", ["greedy-bfs", "coordinate-bisection"])
    def test_grid4_quality(self, bundles, method):
        bundle = bundles["grid4"]
        graph = build_dual_graph(bundle.plex)
        coords = cell_centroids(bundle) if method == "coordinate-bisection" else None
        pmap = partition_cells(graph, 4, method=method, coords=coords)
        stats = partition_stats(graph, pmap)
        assert stats.imbalance <= 1.25
        assert pmap.ranks.min() == 0 and pmap.ranks.max() == 3
        assert np.bincount(pmap.ranks).min() >= 1

    def test_grid4_greedy_parts_connected(self, bundles):
        graph = build_dual_graph(bundles["grid4"].plex)
        pmap = partition_cells(graph, 4)
        for r in range(4):
            cells = set(pmap.cells_of(r).tolist())
            seen = {min(cells)}
            stack = [min(cells)]
            while stack:
                c = stack.pop()
                for n in neighbors_of(graph, c):
                    if n in cells and n not in seen:
                        seen.add(n)
                        stack.append(n)
            assert seen == cells, f"rank {r} disconnected"

    @pytest.mark.parametrize("method", ["greedy-bfs", "coordinate-bisection"])
    def test_deterministic(self, bundles, method):
        bundle = bundles["grid32"]
        graph = build_dual_graph(bundle.plex)
        coords = cell_centroids(bundle) if method == "coordinate-bisection" else None
        a = partition_cells(graph, 5, method=method, coords=coords)
        b = partition_cells(graph, 5, method=method, coords=coords)
        assert a == b

    def test_every_rank_nonempty_awkward_sizes(self):
        # 5 cells on a path, 4 parts: fixed global ceiling would starve rank 3
        cells = [(i, i + 1) for i in range(5)]
        graph = build_dual_graph(build_from_cells(cells, 6, 1))
        pmap = partition_cells(graph, 4)
        assert np.bincount(pmap.ranks, minlength=4).min() >= 1

    def test_nparts_exceeds_cells(self):
        graph = build_dual_graph(build_from_cells([(0, 1, 2)], 3, 2))
        with pytest.raises(ValueError, match="exceeds"):
            partition_cells(graph, 2)

    def test_disconnected_graph_reseeds(self):
        # two islands: BFS frontier drains, the part must reseed to fill up
        graph = build_dual_graph(build_from_cells([(0, 1, 2), (3, 4, 5)], 6, 2))
        assert graph.num_edges == 0
        pmap = partition_cells(graph, 1)
        assert pmap.ranks.tolist() == [0, 0]
        pmap = partition_cells(graph, 2)
        assert sorted(pmap.ranks.tolist()) == [0, 1]

    def test_bisection_needs_coords(self, bundles):
        graph = build_dual_graph(bundles["grid4"].plex)
        with pytest.raises(ValueError, match="centroid"):
            partition_cells(graph, 2, method="coordinate-bisection")

    def test_bisection_needs_2d_coords(self, bundles):
        graph = build_dual_graph(bundles["grid4"].plex)
        with pytest.raises(ValueError, match=r"coords of shape \(32, k\), got \(32,\)"):
            partition_cells(graph, 2, method="coordinate-bisection",
                            coords=np.zeros(graph.num_cells))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_bisection_refuses_non_finite_centroids(self, bundles, bad):
        bundle = bundles["grid4"]
        coords = pm.cell_centroids(bundle)
        coords[[5, 9], [0, 1]] = bad
        with pytest.raises(ValueError, match=rf"cell 5 has a non-finite centroid \[{bad}, "):
            partition_cells(build_dual_graph(bundle.plex), 2, method="coordinate-bisection",
                            coords=coords)

    @pytest.mark.parametrize("nparts", [1, 2])
    def test_bisection_refuses_zero_width_centroids(self, bundles, nparts):
        graph = build_dual_graph(bundles["grid4"].plex)
        with pytest.raises(ValueError, match=r"one or more coordinates per cell required: "
                                             r"coords of shape \(32, k\), got \(32, 0\)"):
            partition_cells(graph, nparts, method="coordinate-bisection",
                            coords=np.zeros((32, 0)))

    def test_unknown_method(self, bundles):
        graph = build_dual_graph(bundles["grid4"].plex)
        with pytest.raises(ValueError, match="unknown"):
            partition_cells(graph, 2, method="spectral")

    def test_total_assignment_uses_valid_ranks(self, bundles):
        graph = build_dual_graph(bundles["cube"].plex)
        for nparts in (1, 2, 3, 7):
            pmap = partition_cells(graph, nparts)
            assert len(pmap.ranks) == graph.num_cells
            assert 0 <= pmap.ranks.min() and pmap.ranks.max() < nparts


class TestPartitionStats:
    def test_recount_oracle_random_maps(self, bundles):
        graph = build_dual_graph(bundles["grid4"].plex)
        rng = np.random.default_rng(11)
        for _ in range(25):
            ranks = rng.integers(0, 3, size=graph.num_cells)
            # oracle needs every rank non-empty only for the invariant;
            # recount works regardless
            stats = partition_stats(graph, PartitionMap(ranks, 3))
            cut, imb = stats_oracle(graph, ranks, 3)
            assert stats.edge_cut == cut
            assert stats.imbalance == pytest.approx(imb)

    @pytest.mark.parametrize("ranks, message", [
        ([[0, 1], [1, 0]], r"cell ranks of shape \(2, 2\), not 1-D"),
        ([0, 1.5], "cell ranks: 1.5 is not a whole number"),
    ], ids=["2d", "fractional"])
    def test_fractional_or_not_1d_ranks_rejected(self, ranks, message):
        with pytest.raises(ValueError, match=message):
            PartitionMap(ranks, 2)

    def test_whole_float_and_empty_ranks_accepted(self):
        assert PartitionMap([1.0, 0.0], 2) == PartitionMap([1, 0], 2)
        assert PartitionMap([], 1).ranks.dtype == np.int64

    def test_size_mismatch(self, bundles):
        graph = build_dual_graph(bundles["grid4"].plex)
        with pytest.raises(ValueError, match="cover"):
            partition_stats(graph, PartitionMap(np.zeros(3, dtype=int), 1))

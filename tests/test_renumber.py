"""RCM ordering and permutation application."""

from __future__ import annotations

import numpy as np
import pytest

import plexmesh as pm
from plexmesh import (Permutation, apply_permutation, bandwidth,
                      build_from_cells, p1_pattern, rcm_ordering)


from _helpers import reordered_bandwidth


def dense_bandwidth(pattern) -> int:
    """Oracle: bandwidth from the dense boolean matrix."""
    mat = np.zeros((pattern.n, pattern.n), dtype=bool)
    for i in range(pattern.n):
        mat[i, pattern.row(i)] = True
    return max(int(i - np.flatnonzero(mat[i])[0]) for i in range(pattern.n))


class TestRcmOrdering:
    def test_path_in_order_stays_optimal(self):
        bundle = pm.raw_to_bundle(pm.interval_mesh(3))
        perm = rcm_ordering(bundle.plex)
        pat = p1_pattern(apply_permutation(bundle, perm))
        assert bandwidth(pat) == dense_bandwidth(pat) == 1

    @pytest.mark.parametrize("seed", range(5))
    def test_scrambled_path_restored(self, seed):
        bundle = pm.raw_to_bundle(pm.interval_mesh(7))  # 8 vertices
        rng = np.random.default_rng(seed)
        scrambled = apply_permutation(
            bundle, Permutation(rng.permutation(bundle.plex.chart_size)))
        assert bandwidth(p1_pattern(scrambled)) >= 1
        perm = rcm_ordering(scrambled.plex)
        restored = p1_pattern(apply_permutation(scrambled, perm))
        assert dense_bandwidth(restored) == 1

    def test_grid10_beats_random_orderings(self):
        bundle = pm.raw_to_bundle(pm.triangle_grid(10, 10))
        pat = p1_pattern(bundle)
        rcm_bw = bandwidth(p1_pattern(
            apply_permutation(bundle, rcm_ordering(bundle.plex))))
        for seed in range(20):
            rho = np.random.default_rng(seed).permutation(pat.n)
            assert rcm_bw <= reordered_bandwidth(pat, rho), f"seed {seed}"

    def test_shortcut_matches_full_application(self):
        # reordered_bandwidth (used as oracle elsewhere) agrees with the
        # apply_permutation route on a block-preserving vertex permutation
        bundle = pm.raw_to_bundle(pm.triangle_grid(3, 3))
        plex = bundle.plex
        verts = plex.depth_stratum(0)
        rng = np.random.default_rng(2)
        fwd = np.arange(plex.chart_size)
        fwd[verts] = verts[rng.permutation(len(verts))]
        perm = Permutation(fwd)
        pat = p1_pattern(bundle)
        # rho[i] = new row of old row i: rank of the vertex's new point id
        rho = np.argsort(np.argsort(perm.forward[verts]))
        full = bandwidth(p1_pattern(apply_permutation(bundle, perm)))
        assert reordered_bandwidth(pat, rho) == full

    def test_deterministic(self, bundles):
        plex = bundles["grid4"].plex
        assert rcm_ordering(plex) == rcm_ordering(plex)

    def test_whole_chart_bijection(self, bundles):
        plex = bundles["cube"].plex
        perm = rcm_ordering(plex)
        assert len(perm) == plex.chart_size
        assert np.array_equal(np.sort(perm.forward), np.arange(plex.chart_size))

    def test_strata_ranges_preserved(self, bundles):
        plex = bundles["grid4"].plex
        perm = rcm_ordering(plex)
        for d in range(3):
            stratum = plex.depth_stratum(d)
            assert np.array_equal(np.sort(perm.forward[stratum]), stratum)

    def test_disconnected_components_by_lowest_vertex(self):
        plex = build_from_cells([(0, 1), (2, 3)], 4, 1)
        perm = rcm_ordering(plex)
        # vertex points 2,3 (first component) keep the leading block, 4,5 the next
        assert {int(perm.forward[2]), int(perm.forward[3])} == {2, 3}
        assert {int(perm.forward[4]), int(perm.forward[5])} == {4, 5}

    def test_cells_follow_lowest_new_vertex(self, bundles):
        plex = bundles["grid4"].plex
        perm = rcm_ordering(plex)
        verts = plex.depth_stratum(0)
        new_vrank = np.argsort(np.argsort(perm.forward[verts]))
        key = {}
        for i, c in enumerate(plex.height_stratum(0)):
            vs = [int(q) for q in plex.closure(int(c)) if plex.depths[q] == 0]
            idx = [int(np.searchsorted(verts, v)) for v in vs]
            key[int(c)] = min(int(new_vrank[k]) for k in idx)
        cells = plex.height_stratum(0)
        new_cell_order = sorted(cells.tolist(), key=lambda c: int(perm.forward[c]))
        keys_in_new_order = [key[c] for c in new_cell_order]
        assert keys_in_new_order == sorted(keys_in_new_order)


def test_empty_rank_through_the_rank_pipeline(two_triangle):
    # Every cell on rank 0 leaves rank 1 an empty chart.
    pmap = pm.PartitionMap(ranks=[0, 0], nparts=2)
    locals_, sf, _ = pm.migrate(two_triangle, pmap, 2)
    empty = locals_[1]
    assert empty.bundle.plex.chart_size == 0
    halo, halo_perm = pm.build_halo(empty, sf, empty.bundle.coordinates.section)
    assert (halo.n_owned, halo.receives, len(halo_perm)) == (0, [], 0)
    perm = rcm_ordering(empty.bundle.plex)
    assert len(perm) == 0
    reordered = apply_permutation(empty.bundle, perm)
    assert p1_pattern(reordered).nnz == 0
    raw = pm.bundle_to_raw(reordered)
    assert raw.cells.shape == (0, 3) and raw.vertices.shape == (0, 2)
    assert reordered.plex.vertex_closures([]).shape == (0, 0)


class TestApplyPermutation:
    def test_identity_bit_identical(self, two_triangle):
        out = apply_permutation(two_triangle, Permutation.identity(11))
        assert out == two_triangle

    def test_stratum_sizes_invariant_random(self, two_triangle):
        rng = np.random.default_rng(5)
        for _ in range(25):
            perm = Permutation(rng.permutation(11))
            out = apply_permutation(two_triangle, perm)
            for d in range(3):
                assert len(out.plex.depth_stratum(d)) == \
                    len(two_triangle.plex.depth_stratum(d))

    def test_tet_closure_count_invariant(self, tet_bundle):
        rng = np.random.default_rng(9)
        for _ in range(10):
            perm = Permutation(rng.permutation(15))
            out = apply_permutation(tet_bundle, perm)
            cell = int(out.plex.height_stratum(0)[0])
            assert len(out.plex.closure(cell)) == 15

    def test_duality_preserved(self, two_triangle):
        perm = Permutation(np.random.default_rng(1).permutation(11))
        out = apply_permutation(two_triangle, perm)
        plex = out.plex
        cone_arcs = {(p, int(q)) for p in range(11) for q in plex.cone(p)}
        sup_arcs = {(int(q), p) for p in range(11) for q in plex.support(p)}
        assert cone_arcs == sup_arcs

    def test_coordinates_follow_vertices(self, two_triangle):
        perm = Permutation(np.random.default_rng(4).permutation(11))
        out = apply_permutation(two_triangle, perm)
        old = {tuple(xy) for xy in two_triangle.vertex_coords().tolist()}
        new = {tuple(xy) for xy in out.vertex_coords().tolist()}
        assert old == new
        # per-vertex: the coordinate block moved with the point
        for p in two_triangle.plex.depth_stratum(0):
            want = two_triangle.coordinates.at(int(p)).tolist()
            got = out.coordinates.at(int(perm.forward[p])).tolist()
            assert want == got

    def test_labels_follow_points(self, two_triangle):
        perm = Permutation(np.random.default_rng(8).permutation(11))
        out = apply_permutation(two_triangle, perm)
        for v in (1, 2, 3, 4):
            old_pts = two_triangle.labels["boundary"].points_with(v)
            want = sorted(int(perm.forward[p]) for p in old_pts)
            assert out.labels["boundary"].points_with(v).tolist() == want

    def test_size_mismatch(self, two_triangle):
        with pytest.raises(ValueError, match="chart"):
            apply_permutation(two_triangle, Permutation.identity(7))

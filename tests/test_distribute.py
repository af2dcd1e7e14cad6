"""Partition closure, migration, star forests, halos and gather.

The two-triangle fixture (cells (0,1,2) and (1,3,2)) interpolates to: cells
{0,1}, vertices {2..5}, edges {6..10} with 6 = the shared diagonal {1,2},
so closures and ownership below are hand-enumerable.
"""

from __future__ import annotations

import numpy as np
import pytest

import plexmesh as pm
from plexmesh import (PartitionMap, StarForest, build_halo, close_partition,
                      gather_to_root, migrate, permute_section,
                      section_from_depth_dofs)

from _helpers import canonical, dof_indices, rank_points


def split_two_triangle(bundle):
    pmap = PartitionMap(np.array([0, 1]), 2)
    return migrate(bundle, pmap, 2)


def test_fractional_star_forest_rejected():
    with pytest.raises(ValueError, match="leaf ranks: 0.9 is not a whole number"):
        StarForest(2, [0.9, 1.2], [0.5, 0.4], [0, 0], [1.5, 2.5])
    with pytest.raises(ValueError, match="root points: 1.5 is not a whole number"):
        StarForest(2, [0, 1], [0, 0], [0, 0], [1.5, 2.5])


@pytest.mark.parametrize("arrays, message", [
    (([0, 1], [0, 0], [0], [5, 6, 7]),
     r"leaf ranks, leaf points, root ranks, root points of unequal lengths \[2, 2, 1, 3\]"),
    (([0, 1], [0, 0], [-1, 3], [-4, 0]), r"root ranks: -1 not in \[0, 2\)"),
    (([1, 2], [0, 0], [0, 0], [4, 0]), r"leaf ranks: 2 not in \[0, 2\)"),
    (([0, 1], [0, -3], [0, 0], [4, 0]), r"leaf points: -3 not in \[0, inf\)"),
    (([0, 1], [0, 0], [1, 0], [0, -4]), r"root points: -4 not in \[0, inf\)"),
])
def test_malformed_star_forest_rejected(arrays, message):
    # Sort keys rank * base + point wrap in the 16-bit passes unless ranks
    # lie in [0, nranks) and points are non-negative.
    with pytest.raises(ValueError, match=message):
        StarForest(2, *arrays)


class TestClosePartition:
    def test_single_part_gets_everything(self, two_triangle):
        plex = two_triangle.plex
        msf, owner = close_partition(plex, PartitionMap(np.array([0, 0]), 1))
        points, owned = rank_points(msf, owner, 0)
        assert points == list(range(11))
        assert owned == list(range(11))

    def test_two_triangle_hand_enumeration(self, two_triangle):
        msf, owner = close_partition(two_triangle.plex, PartitionMap(np.array([0, 1]), 2))
        (points0, owned0), (points1, owned1) = (rank_points(msf, owner, r) for r in (0, 1))
        # one layer of overlap pulls the whole mesh onto both ranks
        assert points0 == list(range(11))
        assert points1 == list(range(11))
        # closure(cell 0) = {0, edges 6,7,8, vertices 2,3,4}: rank 0 owns it,
        # including the shared edge 6 and its vertices 3,4 (lowest rank wins)
        assert owned0 == [0, 2, 3, 4, 6, 7, 8]
        assert owned1 == [1, 5, 9, 10]

    def test_grid4_owned_cells_partition(self, bundles):
        bundle = bundles["grid4"]
        graph = pm.build_dual_graph(bundle.plex)
        pmap = pm.partition_cells(graph, 4)
        msf, owner = close_partition(bundle.plex, pmap)
        cells = bundle.plex.height_stratum(0)
        owned_cells = [set(rank_points(msf, owner, r)[1]) & set(cells.tolist())
                       for r in range(4)]
        assert set().union(*owned_cells) == set(cells.tolist())
        for a in range(4):
            for b in range(a + 1, 4):
                assert not owned_cells[a] & owned_cells[b]

    def test_map_must_cover_cells(self, two_triangle):
        with pytest.raises(ValueError, match="cover"):
            close_partition(two_triangle.plex, PartitionMap(np.array([0]), 1))


class TestMigrate:
    def test_single_rank_isomorphic(self, two_triangle):
        locals_, sf, report = migrate(two_triangle, PartitionMap(np.array([0, 0]), 1), 1)
        assert len(locals_) == 1
        assert locals_[0].bundle == two_triangle
        assert sf.rank_leaves(0) == []
        assert locals_[0].ghost_points.tolist() == []
        assert report.points_per_rank == [11]

    def test_two_triangle_local_meshes(self, two_triangle):
        locals_, sf, report = split_two_triangle(two_triangle)
        assert [lm.bundle.plex.chart_size for lm in locals_] == [11, 11]
        # local numbering coincides with global here (full overlap)
        for lm in locals_:
            assert lm.local_to_global.tolist() == list(range(11))
        assert locals_[1].ghost_points.tolist() == [0, 2, 3, 4, 6, 7, 8]
        # leaves of rank 1 cover the shared edge and its two vertices
        leaf_points = {l for l, _, _ in sf.rank_leaves(1)}
        assert {6, 3, 4} <= leaf_points
        assert sf.rank_leaves(0) == [(1, 1, 1), (5, 1, 5), (9, 1, 9), (10, 1, 10)]

    def test_two_triangle_byte_accounting(self, two_triangle):
        # per rank: 16 cone entries + 11 points metadata, 4 verts x 2 coords
        _, _, report = split_two_triangle(two_triangle)
        assert report.bytes_topology == 2 * 8 * (16 + 11)
        assert report.bytes_coordinates == 2 * 8 * (4 * 2)
        assert report.bytes_fields == 0

    def test_field_bytes_only_when_supplied(self, two_triangle):
        pmap = PartitionMap(np.array([0, 1]), 2)
        sec = section_from_depth_dofs(two_triangle.plex, [1, 0, 0])
        fld = pm.Field("u", sec, np.zeros(sec.total_size))
        _, _, without = migrate(two_triangle, pmap, 2)
        _, _, withf = migrate(two_triangle, pmap, 2, fields=[fld])
        assert without.bytes_fields == 0
        assert withf.bytes_fields == 2 * 8 * 4  # 4 vertices per rank
        assert withf.bytes_topology == without.bytes_topology
        assert withf.bytes_coordinates == without.bytes_coordinates

    def test_local_labels_restricted(self, two_triangle):
        locals_, _, _ = split_two_triangle(two_triangle)
        for lm in locals_:
            boundary = lm.bundle.labels["boundary"]
            assert sorted(boundary.value_ids()) == [1, 2, 3, 4]

    def test_every_leaf_resolves_to_owned_point(self, bundles):
        for name in ("grid4", "cube"):
            bundle = bundles[name]
            graph = pm.build_dual_graph(bundle.plex)
            pmap = pm.partition_cells(graph, 4)
            locals_, sf, _ = migrate(bundle, pmap, 4)
            for r in range(4):
                for local, owner, owner_pt in sf.rank_leaves(r):
                    assert owner != r
                    assert owner_pt not in locals_[owner].ghost_points
                    assert (locals_[owner].local_to_global[owner_pt]
                            == locals_[r].local_to_global[local])

    def test_local_plex_valid_and_grouped(self, bundles):
        bundle = bundles["grid4"]
        pmap = pm.partition_cells(pm.build_dual_graph(bundle.plex), 3)
        locals_, _, _ = migrate(bundle, pmap, 3)
        for lm in locals_:
            lp = lm.bundle.plex
            assert lp == pm.Plex(lp.dim, lp._cone_offsets, lp._cone_targets)
            # grouping preserved: cells first, then vertices, then edges
            cells = lp.height_stratum(0)
            verts = lp.depth_stratum(0)
            edges = lp.depth_stratum(1)
            assert cells.tolist() == list(range(len(cells)))
            assert verts.tolist() == list(range(len(cells), len(cells) + len(verts)))
            assert edges.tolist() == list(range(len(cells) + len(verts), lp.chart_size))

    def test_nranks_mismatch(self, two_triangle):
        with pytest.raises(ValueError, match="nranks"):
            migrate(two_triangle, PartitionMap(np.array([0, 1]), 2), 3)


class TestBuildHalo:
    def test_empty_star_forest_identity(self, two_triangle):
        locals_, sf, _ = migrate(two_triangle, PartitionMap(np.array([0, 0]), 1), 1)
        sec = section_from_depth_dofs(locals_[0].bundle.plex, [1, 0, 0])
        halo, perm = build_halo(locals_[0], sf, sec)
        assert halo.n_owned == 4
        assert halo.receives == []
        # identity-equivalent: points may move, the dof ordering does not
        fld = pm.Field("u", sec, np.arange(sec.total_size, dtype=float))
        assert pm.permute_field(fld, perm).values.tolist() == fld.values.tolist()

    def test_two_triangle_rank1_trailing(self, two_triangle):
        locals_, sf, _ = split_two_triangle(two_triangle)
        sec = section_from_depth_dofs(locals_[1].bundle.plex, [1, 0, 0])
        halo, perm = build_halo(locals_[1], sf, sec)
        assert halo.n_owned == 1  # rank 1 owns only vertex 5
        # ghosts ordered by (owner rank, owner point): 0,2,3,4,6,7,8
        assert perm.inverse.tolist() == [5, 1, 9, 10, 0, 2, 3, 4, 6, 7, 8]
        assert halo.receives == [(4, 0, 0), (5, 0, 2), (6, 0, 3), (7, 0, 4),
                                 (8, 0, 6), (9, 0, 7), (10, 0, 8)]
        psec = permute_section(sec, perm)
        owned_idx, ghost_idx = dof_indices(psec, perm, locals_[1].ghost_points)
        assert max(owned_idx) < min(ghost_idx)
        assert ghost_idx == [1, 2, 3]

    def test_second_application_is_identity(self, two_triangle):
        locals_, sf, _ = split_two_triangle(two_triangle)
        lm = locals_[1]
        sec = section_from_depth_dofs(lm.bundle.plex, [1, 0, 0])
        halo, perm = build_halo(lm, sf, sec)

        permuted = pm.RankLocalMesh(
            rank=lm.rank,
            bundle=pm.apply_permutation(lm.bundle, perm),
            local_to_global=invert_l2g(lm.local_to_global, perm),
            owned_cells=np.sort(perm.forward[lm.owned_cells]),
            ghost_points=np.sort(perm.forward[lm.ghost_points]),
        )
        leaf_point = sf.leaf_point.copy()
        on_rank1 = sf.leaf_rank == 1
        leaf_point[on_rank1] = perm.forward[leaf_point[on_rank1]]
        sf2 = StarForest(sf.nranks, sf.leaf_rank, leaf_point, sf.root_rank, sf.root_point)
        halo2, perm2 = build_halo(permuted, sf2, permute_section(sec, perm))
        assert perm2.is_identity
        assert halo2.n_owned == halo.n_owned
        assert [r[0] for r in halo2.receives] == [r[0] for r in halo.receives]

    def test_ghost_points_must_match_leaves(self, two_triangle):
        locals_, sf, _ = split_two_triangle(two_triangle)
        lm = locals_[1]
        sec = section_from_depth_dofs(lm.bundle.plex, [1, 0, 0])
        for ghosts in (lm.ghost_points[1:], lm.ghost_points[::-1]):
            lm.ghost_points = ghosts
            with pytest.raises(ValueError, match="ghost point set"):
                build_halo(lm, sf, sec)

    def test_section_size_checked(self, two_triangle):
        locals_, sf, _ = split_two_triangle(two_triangle)
        with pytest.raises(ValueError, match="local chart"):
            build_halo(locals_[0], sf, pm.Section([1, 1]))

    def test_trailing_on_all_grid4_ranks(self, bundles):
        bundle = bundles["grid4"]
        pmap = pm.partition_cells(pm.build_dual_graph(bundle.plex), 4)
        locals_, sf, _ = migrate(bundle, pmap, 4)
        for lm in locals_:
            sec = section_from_depth_dofs(lm.bundle.plex, [1, 0, 0])
            halo, perm = build_halo(lm, sf, sec)
            psec = permute_section(sec, perm)
            owned_idx, ghost_idx = dof_indices(psec, perm, lm.ghost_points)
            assert owned_idx == list(range(halo.n_owned))
            if ghost_idx:
                assert min(ghost_idx) == halo.n_owned


def invert_l2g(l2g, perm):
    out = np.empty_like(l2g)
    out[perm.forward] = l2g
    return out


class TestGather:
    def test_single_rank_exact(self, two_triangle):
        locals_, sf, _ = migrate(two_triangle, PartitionMap(np.array([0, 0]), 1), 1)
        assert gather_to_root(locals_, sf) == two_triangle

    def test_two_rank_canonical(self, two_triangle):
        locals_, sf, _ = split_two_triangle(two_triangle)
        back = gather_to_root(locals_, sf)
        assert canonical(back) == canonical(two_triangle)
        assert back == two_triangle

    def test_grid4_four_ranks(self, bundles):
        bundle = bundles["grid4"]
        pmap = pm.partition_cells(pm.build_dual_graph(bundle.plex), 4)
        locals_, sf, _ = migrate(bundle, pmap, 4)
        back = gather_to_root(locals_, sf)
        assert back.plex.num_cells == 32
        assert canonical(back) == canonical(bundle)

    def test_empty_rank_skipped(self):
        bundle = pm.raw_to_bundle(pm.triangle_grid(2, 2))
        pmap = PartitionMap(np.zeros(8, dtype=np.int64), 2)
        locals_, sf, report = migrate(bundle, pmap, 2)
        assert report.points_per_rank == [33, 0]
        assert gather_to_root(locals_, sf) == bundle

    def test_double_claim_rejected(self, two_triangle):
        locals_, sf, _ = split_two_triangle(two_triangle)
        ghosts = locals_[1].ghost_points
        locals_[1].ghost_points = ghosts[ghosts != 0]  # rank 1 now also claims point 0
        with pytest.raises(ValueError, match="two ranks"):
            gather_to_root(locals_, sf)

    def test_unowned_point_rejected(self, two_triangle):
        locals_, sf, _ = split_two_triangle(two_triangle)
        # nobody owns cell 1 anymore
        locals_[1].ghost_points = np.sort(np.append(locals_[1].ghost_points, 1))
        with pytest.raises(ValueError, match="no rank"):
            gather_to_root(locals_, sf)

    @pytest.mark.parametrize("planted, message", [
        (-100, r"local_to_global: -100 not in \[0, inf\)"),
        (0.5, "local_to_global: 0.5 is not a whole number"),
    ], ids=["negative", "fractional"])
    def test_bad_local_to_global_rejected(self, two_triangle, planted, message):
        locals_, sf, _ = split_two_triangle(two_triangle)
        l2g = locals_[1].local_to_global.astype(type(planted))
        l2g[1] = planted
        locals_[1].local_to_global = l2g
        with pytest.raises(ValueError, match=message):
            gather_to_root(locals_, sf)

    @pytest.mark.parametrize("plant, message", [
        (lambda lm: setattr(lm, "ghost_points", np.append(lm.ghost_points, 10**6)),
         r"rank 1 ghost points: 1000000 not in \[0, {chart}\)"),
        (lambda lm: setattr(lm, "ghost_points", np.append(lm.ghost_points, 0.5)),
         r"rank 1 ghost points: 0\.5 is not a whole number"),
        (lambda lm: setattr(lm, "local_to_global", lm.local_to_global[:-1]),
         r"rank 1: local_to_global of length {short} for a chart of {chart} points"),
    ], ids=["ghost-past-chart", "fractional-ghost", "short-local-to-global"])
    def test_rank_checked_against_its_chart(self, plant, message):
        # Each names the rank and its fault; indexing with them would raise a
        # bare numpy IndexError, and a short map would leave points unowned.
        bundle = pm.raw_to_bundle(pm.triangle_grid(3, 3))
        locals_, sf, _ = migrate(bundle, PartitionMap(np.arange(18) // 9, 2), 2)
        chart = locals_[1].bundle.plex.chart_size
        plant(locals_[1])
        with pytest.raises(ValueError, match=f"^{message.format(chart=chart, short=chart - 1)}$"):
            gather_to_root(locals_, sf)

    def test_no_ranks_rejected(self, two_triangle):
        _, sf, _ = split_two_triangle(two_triangle)
        with pytest.raises(ValueError, match="no rank-local meshes to gather"):
            gather_to_root([], sf)

    def test_star_forests_made(self, two_triangle, monkeypatch):
        # migrate makes the migration SF and the point SF; gather-back reads
        # the ranks' local_to_global and ghost_points and makes none.
        made = []
        init = StarForest.__init__

        def counted(self, *args):
            made.append(args)
            init(self, *args)

        monkeypatch.setattr(StarForest, "__init__", counted)
        fld = pm.Field("u", pm.Section(np.ones(11, dtype=np.int64)), np.arange(11.0))
        locals_, sf, _ = migrate(two_triangle, PartitionMap(np.array([0, 1]), 2), 2,
                                 fields=[fld])
        assert len(made) == 2
        assert gather_to_root(locals_, sf) == two_triangle
        assert len(made) == 2


class TestPlantedOwnership:
    """migrate refuses a closure whose owners leave a point unowned or let
    two leaves own one point."""

    def planted(self, monkeypatch, plant):
        def close(plex, pmap):
            msf, owner = close_partition(plex, pmap)
            return plant(msf, owner.copy())
        monkeypatch.setattr(pm.distribute, "close_partition", close)

    def test_unowned_point(self, two_triangle, monkeypatch):
        def unown(msf, owner):
            owner[6] = 2  # the shared edge, received by ranks 0 and 1
            return msf, owner
        self.planted(monkeypatch, unown)
        with pytest.raises(ValueError, match="incomplete distribution: a point is owned by no rank"):
            split_two_triangle(two_triangle)

    def test_point_claimed_twice(self, two_triangle, monkeypatch):
        def claim_twice(msf, owner):
            # Rank 0 lists its copy of the shared edge twice.
            twice = (msf.leaf_rank == 0) & (msf.root_point == 6)
            leaf_point = np.append(msf.leaf_point, msf.leaf_point[msf.leaf_rank == 0].max() + 1)
            return StarForest(2, np.append(msf.leaf_rank, 0), leaf_point,
                              np.append(msf.root_rank, 0),
                              np.append(msf.root_point, msf.root_point[twice])), owner
        self.planted(monkeypatch, claim_twice)
        with pytest.raises(ValueError, match="inconsistent ownership: a point is claimed by two"):
            split_two_triangle(two_triangle)


class TestConcurrencyContract:
    @pytest.mark.parametrize("name,nparts", [("grid4", 4), ("cube", 4)])
    def test_rank_meshes_share_no_memory(self, bundles, name, nparts):
        # no array of a rank's local mesh, the vertex tables migrate cuts
        # included, overlaps another rank's or the input bundle's, so ranks
        # can be handed out and worked on independently
        def arrays(bundle):
            plex, coords = bundle.plex, bundle.coordinates
            yield from (plex._cone_offsets, plex._cone_targets, plex.depths, plex.heights,
                        *plex._vertex_tables,
                        coords.section.dofs, coords.section.offsets, coords.values)
            for label in bundle.labels.values():
                yield from (label.points, label.values)

        bundle = bundles[name]
        pmap = pm.partition_cells(pm.build_dual_graph(bundle.plex), nparts)
        locals_, _, _ = migrate(bundle, pmap, nparts)
        assert all(lm.bundle.labels for lm in locals_)
        per_rank = [[*arrays(lm.bundle), lm.local_to_global] for lm in locals_]
        for r, mine in enumerate(per_rank):
            others = [a for q in per_rank[r + 1:] for a in q] + [*arrays(bundle)]
            for a in mine:
                assert not any(np.shares_memory(a, b) for b in others)

    def test_concurrent_plex_reads(self, bundles):
        from concurrent.futures import ThreadPoolExecutor

        plex = bundles["cube"].plex
        expected = [plex.closure(p).tolist() for p in range(plex.chart_size)]
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(lambda p: plex.closure(p).tolist(),
                                range(plex.chart_size)))
        assert got == expected

    def test_support_built_concurrently(self, corpus):
        # A plex builds its support on first use; threads racing there must
        # all see the same transpose.
        import sys
        from concurrent.futures import ThreadPoolExecutor

        raw = corpus["cube"]
        reference = pm.raw_to_bundle(raw).plex
        expected = [reference.star(p).tolist() for p in range(reference.chart_size)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                plex = pm.raw_to_bundle(raw).plex
                with ThreadPoolExecutor(max_workers=8) as pool:
                    got = list(pool.map(lambda p: plex.star(p).tolist(),
                                        range(plex.chart_size), timeout=60))
                assert got == expected
        finally:
            sys.setswitchinterval(interval)

    def test_mesh_graphs_built_concurrently(self, corpus):
        # The vertex and cell graphs are built on first use too; threads
        # racing there must all see the same graphs.
        import sys
        from concurrent.futures import ThreadPoolExecutor

        def graphs(bundle):
            dual, pattern = pm.build_dual_graph(bundle.plex), pm.p1_pattern(bundle)
            return [a.tolist() for a in (dual.offsets, dual.neighbors,
                                         pattern.indptr, pattern.indices)]

        raw = corpus["cube"]
        expected = graphs(pm.raw_to_bundle(raw))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                bundle = pm.raw_to_bundle(raw)
                with ThreadPoolExecutor(max_workers=8) as pool:
                    got = list(pool.map(lambda _: graphs(bundle), range(16), timeout=60))
                assert got == [expected] * 16
        finally:
            sys.setswitchinterval(interval)


class TestCommunicationVolume:
    def test_topology_only_beats_full_state(self, bundles):
        for name in ("square_2tri", "grid4", "cube"):
            bundle = bundles[name]
            graph = pm.build_dual_graph(bundle.plex)
            nparts = min(2, graph.num_cells)
            if nparts < 2:
                continue
            pmap = pm.partition_cells(graph, nparts)
            sec = section_from_depth_dofs(bundle.plex, [1] + [0] * bundle.dim)
            fld = pm.Field("u", sec, np.zeros(sec.total_size))
            _, _, runtime = migrate(bundle, pmap, nparts)
            _, _, prep = migrate(bundle, pmap, nparts, fields=[fld])
            assert runtime.bytes_total < prep.bytes_total, name
            assert prep.bytes_fields > 0 and runtime.bytes_fields == 0

"""Data layout over plex points: dof counts, offsets, permutation."""

from __future__ import annotations

import numpy as np
import pytest

from plexmesh import (Permutation, Section, build_from_cells, permute_field,
                      permute_section, section_from_depth_dofs, Field)

TET = build_from_cells([(0, 1, 2, 3)], 4, 3)
TWO_TRI = build_from_cells([(0, 1, 2), (1, 3, 2)], 4, 2)


class TestFromDepthDofs:
    def test_p1_on_tet(self):
        sec = section_from_depth_dofs(TET, [1, 0, 0, 0])
        assert sec.total_size == 4
        assert all(sec.dof(p) == 1 for p in TET.depth_stratum(0))
        assert all(sec.dof(p) == 0 for p in range(TET.chart_size)
                   if TET.depth(p) > 0)

    def test_all_zero(self):
        sec = section_from_depth_dofs(TET, [0, 0, 0, 0])
        assert sec.total_size == 0

    def test_vertex_and_cell_dofs(self):
        # oracle: count points per depth directly
        per_depth = [len(TWO_TRI.depth_stratum(d)) for d in range(3)]
        sec = section_from_depth_dofs(TWO_TRI, [1, 0, 1])
        assert sec.total_size == per_depth[0] + per_depth[2] == 6

    def test_p2_style_vertex_edge(self):
        sec = section_from_depth_dofs(TWO_TRI, [1, 1, 0])
        assert sec.total_size == 4 + 5

    def test_restriction_reproduces_input(self):
        dofs_per_depth = [2, 1, 3]
        sec = section_from_depth_dofs(TWO_TRI, dofs_per_depth)
        for d, want in enumerate(dofs_per_depth):
            assert all(sec.dof(int(p)) == want for p in TWO_TRI.depth_stratum(d))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="per-depth"):
            section_from_depth_dofs(TET, [1, 0])

    def test_offsets_are_prefix_sums(self):
        sec = Section([2, 0, 3, 1])
        assert sec.offsets.tolist() == [0, 2, 2, 5, 6]
        assert sec.total_size == 6

    def test_offsets_strictly_increasing_on_nonzero(self):
        sec = section_from_depth_dofs(TET, [2, 1, 0, 1])
        nz = [p for p in range(sec.num_points) if sec.dof(p) > 0]
        offs = [sec.offset(p) for p in nz]
        assert offs == sorted(set(offs))

    def test_negative_dofs_rejected(self):
        with pytest.raises(ValueError):
            Section([1, -1])


class TestPermute:
    def test_identity(self):
        sec = section_from_depth_dofs(TET, [1, 0, 0, 0])
        assert permute_section(sec, Permutation.identity(TET.chart_size)) == sec

    def test_swap_two_points(self):
        sec = Section([1, 2, 0])
        fwd = [1, 0, 2]
        out = permute_section(sec, Permutation(fwd))
        assert out.dofs.tolist() == [2, 1, 0]
        assert out.total_size == sec.total_size

    def test_total_size_invariant_100_random(self):
        sec = section_from_depth_dofs(TET, [1, 0, 0, 0])
        rng = np.random.default_rng(7)
        for _ in range(100):
            perm = Permutation(rng.permutation(TET.chart_size))
            assert permute_section(sec, perm).total_size == 4

    def test_dofs_follow_points(self):
        sec = Section([3, 1, 4, 1, 5])
        rng = np.random.default_rng(3)
        for _ in range(20):
            perm = Permutation(rng.permutation(5))
            out = permute_section(sec, perm)
            for p in range(5):
                assert out.dof(int(perm.forward[p])) == sec.dof(p)

    def test_size_mismatch(self):
        sec = Section([1, 1])
        with pytest.raises(ValueError):
            permute_section(sec, Permutation.identity(3))

    def test_permute_field_moves_blocks(self):
        sec = Section([2, 0, 1])
        fld = Field("f", sec, [10.0, 11.0, 20.0])
        perm = Permutation([2, 1, 0])  # point 0 -> 2, point 2 -> 0
        out = permute_field(fld, perm)
        assert out.at(2).tolist() == [10.0, 11.0]
        assert out.at(0).tolist() == [20.0]


class TestField:
    def test_length_checked(self):
        sec = Section([1, 1])
        with pytest.raises(ValueError, match="total size"):
            Field("f", sec, [1.0])

    def test_point_access(self):
        sec = Section([1, 2])
        fld = Field("f", sec, [1.0, 2.0, 3.0])
        assert fld.at(1).tolist() == [2.0, 3.0]


class TestPermutationType:
    def test_forward_inverse_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            perm = Permutation(rng.permutation(12))
            assert np.array_equal(perm.forward[perm.inverse], np.arange(12))
            assert np.array_equal(perm.inverse[perm.forward], np.arange(12))

    def test_non_bijection_rejected(self):
        with pytest.raises(ValueError):
            Permutation([0, 0, 1])
        with pytest.raises(ValueError):
            Permutation([0, 3, 1])

    def test_from_new_order(self):
        perm = Permutation.from_new_order([2, 0, 1])  # new pos 0 holds old 2
        assert perm.forward.tolist() == [1, 2, 0]
        assert perm.inverse.tolist() == [2, 0, 1]

    @pytest.mark.parametrize("new_order", [[-1, 0], [0, 5], [0, 0, 1], [1, 1]],
                             ids=["negative", "too-high", "repeat", "repeat-no-zero"])
    def test_from_new_order_rejects_non_bijection(self, new_order):
        with pytest.raises(ValueError):
            Permutation.from_new_order(new_order)

"""Sparsity patterns, bandwidth/profile and spy export."""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest

import plexmesh as pm
from plexmesh import (CsrPattern, Permutation, apply_permutation, bandwidth,
                      p1_pattern, profile, spy_export)


def pattern_oracle(raw: pm.RawMesh) -> set[tuple[int, int]]:
    """Oracle: vertex pairs coupled through a cell, straight from raw cells."""
    entries = {(int(v), int(v)) for v in range(raw.num_vertices)}
    for cell in raw.cells.tolist():
        for a, b in combinations(cell, 2):
            entries.add((a, b))
            entries.add((b, a))
    return entries


def entries_of(pat: CsrPattern) -> set[tuple[int, int]]:
    return {(i, int(j)) for i in range(pat.n) for j in pat.row(i)}


def vertex_row_perm(plex, perm) -> np.ndarray:
    """Row relabeling induced on the pattern by a chart permutation."""
    verts = plex.depth_stratum(0)
    return np.argsort(np.argsort(perm.forward[verts]))


def permuted_pattern(pat: CsrPattern, rho) -> CsrPattern:
    rows, cols = [], []
    for i in range(pat.n):
        rows += [int(rho[i])] * len(pat.row(i))
        cols += [int(rho[j]) for j in pat.row(i)]
    return CsrPattern(pat.n, rows, cols)


class TestP1Pattern:
    def test_single_tet_dense(self, tet_bundle):
        pat = p1_pattern(tet_bundle)
        assert pat.n == 4 and pat.nnz == 16

    def test_two_triangle_diagonal_pair_absent(self, two_triangle):
        pat = p1_pattern(two_triangle)
        assert pat.nnz == 14
        assert 3 not in pat.row(0) and 0 not in pat.row(3)

    def test_grid10_matches_oracle(self):
        raw = pm.triangle_grid(10, 10)
        pat = p1_pattern(pm.raw_to_bundle(raw))
        assert entries_of(pat) == pattern_oracle(raw)

    def test_corpus_symmetry_and_diagonal(self, corpus, bundles):
        for name, bundle in bundles.items():
            pat = p1_pattern(bundle)
            ent = entries_of(pat)
            assert all((j, i) in ent for i, j in ent), name
            assert all((i, i) in ent for i in range(pat.n)), name
            assert ent == pattern_oracle(corpus[name]), name

    def test_columns_strictly_increasing(self, bundles):
        pat = p1_pattern(bundles["grid4"])
        for i in range(pat.n):
            row = pat.row(i).tolist()
            assert row == sorted(set(row))


class TestBandwidthProfile:
    def test_diagonal_only(self):
        pat = CsrPattern(3, [], [])
        assert bandwidth(pat) == 0 and profile(pat) == 0

    def test_path_in_order(self):
        pat = p1_pattern(pm.raw_to_bundle(pm.interval_mesh(5)))
        assert bandwidth(pat) == 1
        assert profile(pat) == 5  # every row after the first reaches back one

    def test_recount_oracle(self, bundles):
        for name, bundle in bundles.items():
            pat = p1_pattern(bundle)
            rows = [pat.row(i).tolist() for i in range(pat.n)]
            assert bandwidth(pat) == max(i - r[0] for i, r in enumerate(rows)), name
            assert profile(pat) == sum(i - r[0] for i, r in enumerate(rows)), name


class TestSpyExport:
    def test_dense_2x2(self):
        pat = CsrPattern(2, [0, 0, 1, 1], [0, 1, 0, 1])
        assert spy_export(pat) == "row,col\n0,0\n0,1\n1,0\n1,1\n"

    def test_single_tet_line_count(self, tet_bundle):
        lines = spy_export(p1_pattern(tet_bundle)).strip().splitlines()
        assert lines[0] == "row,col"
        assert len(lines) - 1 == 16

    def test_line_count_equals_nnz(self, bundles):
        for name, bundle in bundles.items():
            pat = p1_pattern(bundle)
            lines = spy_export(pat).strip().splitlines()
            assert len(lines) - 1 == pat.nnz, name

    def test_row_major_deterministic(self, two_triangle):
        assert spy_export(p1_pattern(two_triangle)) == \
            spy_export(p1_pattern(two_triangle))


class TestPermutationConsistency:
    def test_pattern_commutes_with_permutation(self, bundles):
        for name in ("square_2tri", "tet_single", "grid4"):
            bundle = bundles[name]
            n = bundle.plex.chart_size
            rng = np.random.default_rng(13)
            for _ in range(5):
                perm = Permutation(rng.permutation(n))
                direct = p1_pattern(apply_permutation(bundle, perm))
                rho = vertex_row_perm(bundle.plex, perm)
                assert direct == permuted_pattern(p1_pattern(bundle), rho), name

    def test_nnz_invariant(self, bundles):
        for name in ("square_2tri", "cube", "grid4"):
            bundle = bundles[name]
            base = p1_pattern(bundle).nnz
            rng = np.random.default_rng(17)
            for _ in range(20):
                perm = Permutation(rng.permutation(bundle.plex.chart_size))
                assert p1_pattern(apply_permutation(bundle, perm)).nnz == base, name

    def test_bandwidth_not_invariant(self, bundles):
        # the whole point of reordering: nnz stays, bandwidth moves
        bundle = bundles["grid4"]
        base = bandwidth(p1_pattern(bundle))
        seen = set()
        rng = np.random.default_rng(23)
        for _ in range(10):
            perm = Permutation(rng.permutation(bundle.plex.chart_size))
            seen.add(bandwidth(p1_pattern(apply_permutation(bundle, perm))))
        assert any(bw != base for bw in seen)


class TestCsrPattern:
    def test_diagonal_inserted(self):
        pat = CsrPattern(2, [0], [1])
        assert pat.row(0).tolist() == [0, 1]
        assert pat.row(1).tolist() == [1]

    def test_column_out_of_range(self):
        with pytest.raises(ValueError):
            CsrPattern(2, [0], [2])

    @pytest.mark.parametrize("rows,cols", [([2], [0]), ([-1], [0]), ([0, 1], [0])],
                             ids=["row-too-high", "negative-row", "length-mismatch"])
    def test_bad_entries_rejected(self, rows, cols):
        with pytest.raises(ValueError, match=r"equal-length indices in \[0, 2\)"):
            CsrPattern(2, rows, cols)

    def test_duplicate_entries_stored_once(self):
        pat = CsrPattern(3, [2, 0, 2, 2], [0, 2, 0, 1])
        assert pat.indptr.tolist() == [0, 2, 3, 6]
        assert pat.indices.tolist() == [0, 2, 1, 0, 1, 2]

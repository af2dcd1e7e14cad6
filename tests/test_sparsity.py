"""Sparsity patterns, bandwidth/profile and spy export."""

from __future__ import annotations

from itertools import combinations
from unittest import mock

import numpy as np
import pytest

import plexmesh as pm
from plexmesh import (CsrPattern, Permutation, apply_permutation, bandwidth,
                      p1_pattern, profile, sparsity, spy_export)
from plexmesh.plex import _pairs_to_csr

from _helpers import plex_from_cones


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


def assert_matches_sorting_every_pair(n: int, rows, cols) -> None:
    """CsrPattern holds what sorting the entries plus the diagonal gives."""
    diag = np.arange(n)
    want = _pairs_to_csr(n, np.concatenate([rows, diag]).astype(np.int64),
                         np.concatenate([cols, diag]).astype(np.int64))
    pat = CsrPattern(n, rows, cols)
    assert pat.indptr.tolist() == want[0].tolist()
    assert pat.indices.tolist() == want[1].tolist()


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

    def test_quadrilateral_rejected(self):
        # Interpolated but not simplicial: the diagonal vertices of a
        # quadrilateral share its closure but no edge, so no plex, and no
        # pattern, is made of it.
        with pytest.raises(ValueError, match=r"^point 0 has 4 cone points: depth 3 is past "
                                             "dimension 2$"):
            plex_from_cones(2, [(5, 6, 7, 8), (), (), (), (), (1, 2), (2, 3), (3, 4), (4, 1)])

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

    @pytest.mark.parametrize("rows,cols,message", [
        ([2], [0], r"rows: 2 not in \[0, 2\)"),
        ([-1], [0], r"rows: -1 not in \[0, 2\)"),
        ([0, 1], [0], "rows and cols of unequal lengths 2 and 1"),
    ], ids=["row-too-high", "negative-row", "length-mismatch"])
    def test_bad_entries_rejected(self, rows, cols, message):
        with pytest.raises(ValueError, match=message):
            CsrPattern(2, rows, cols)

    def test_fractional_entries_rejected(self):
        with pytest.raises(ValueError, match="rows: 0.5 is not a whole number"):
            CsrPattern(3, [0.5, 2.9], [1.7, 0.2])

    def test_duplicate_entries_stored_once(self):
        pat = CsrPattern(3, [2, 0, 2, 2], [0, 2, 0, 1])
        assert pat.indptr.tolist() == [0, 2, 3, 6]
        assert pat.indices.tolist() == [0, 2, 1, 0, 1, 2]

    @pytest.mark.parametrize("n,rows,cols", [
        (4, [0, 0, 1, 2, 3], [1, 3, 0, 3, 1]),
        (4, [1, 0, 3, 0, 2], [0, 1, 0, 3, 2]),
        (3, [0, 0, 2, 2], [2, 2, 1, 1]),
        (3, [0, 1, 1], [0, 0, 1]),
        (3, [0, 0, 1], [2, 1, 0]),
        (5, [0, 4], [4, 0]),
        (3, [], []),
        (0, [], []),
    ], ids=["csr-order", "unsorted", "duplicates", "diagonal-given", "row-unsorted",
            "empty-rows", "no-entries", "no-rows"])
    def test_matches_sorting_every_pair(self, n, rows, cols):
        assert_matches_sorting_every_pair(n, rows, cols)

    def test_matches_sorting_every_pair_at_random(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            n = int(rng.integers(1, 9))
            rows, cols = rng.integers(0, n, (2, int(rng.integers(0, 3 * n))))
            if rng.random() < 0.5:  # CSR order, no diagonal, as a vertex graph comes
                keep = rows != cols
                rows, cols = np.divmod(np.unique(rows[keep] * n + cols[keep]), n)
            assert_matches_sorting_every_pair(n, rows, cols)

    def test_large_p1_pattern_sorts_nothing(self, bundles):
        # The vertex graph comes in CSR order, so the diagonal is inserted,
        # on a rank-sized mesh (112 graph entries) as on the 1,089-vertex grid.
        for name in ("grid4", "grid32"):
            graph_entries = bundles[name].plex._vertex_graph[1].size
            with mock.patch.object(sparsity, "_pairs_to_csr",
                                   side_effect=AssertionError("pairs sorted again")):
                pat = p1_pattern(bundles[name])
            assert pat.nnz == graph_entries + pat.n, name

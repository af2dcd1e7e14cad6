"""Vertex-coupling sparsity patterns, bandwidth/profile, spy-plot export."""

from __future__ import annotations

import numpy as np

from .gmsh_io import MeshBundle, _format_rows
from .plex import _pairs_to_csr, _row_ids


class CsrPattern:
    """Symmetric CSR sparsity pattern with a full diagonal.

    Holds every (rows[k], cols[k]) entry plus the diagonal; column indices
    are strictly increasing within each row.
    """

    def __init__(self, n: int, rows, cols):
        rows, cols = (np.asarray(a, dtype=np.int64) for a in (rows, cols))
        if rows.size != cols.size or rows.size and (
                min(rows.min(), cols.min()) < 0 or max(rows.max(), cols.max()) >= n):
            raise ValueError(f"rows and cols must be equal-length indices in [0, {n})")
        diag = np.arange(n, dtype=np.int64)
        self.n = n
        self.indptr, self.indices = _pairs_to_csr(
            n, np.concatenate([rows, diag]), np.concatenate([cols, diag]))

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    def row(self, i: int) -> np.ndarray:
        return self.indices[self.indptr[i]:self.indptr[i + 1]]

    def __eq__(self, other) -> bool:
        if not isinstance(other, CsrPattern):
            return NotImplemented
        return (self.n == other.n and np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.indices, other.indices))


def p1_pattern(bundle: MeshBundle) -> CsrPattern:
    """Vertex-vertex coupling: (i, j) stored when i and j share a cell closure.

    On a simplicial plex two vertices share a cell exactly when an edge joins
    them, so the pattern is the plex's vertex graph plus the diagonal.
    Row/column indices count vertices in ascending vertex-point order, which
    keeps the pattern well defined on permuted bundles too.
    """
    plex = bundle.plex
    if not plex.is_interpolated:
        raise ValueError("pattern construction needs an interpolated plex")
    sizes, upper = plex._cone_offsets[1:] - plex._cone_offsets[:-1], plex.depths > 0
    if (sizes[upper] != plex.depths[upper] + 1).any():
        raise ValueError("pattern construction needs a simplicial plex")
    bounds, cols = plex._vertex_graph
    return CsrPattern(plex.num_vertices, _row_ids(bounds), cols)


def _row_reach(pattern: CsrPattern) -> np.ndarray:
    """Distance from the diagonal to the leftmost entry of every row."""
    return np.arange(pattern.n, dtype=np.int64) - pattern.indices[pattern.indptr[:-1]]


def bandwidth(pattern: CsrPattern) -> int:
    """Max distance from the diagonal to the leftmost entry of any row."""
    if pattern.n == 0:
        return 0
    return int(_row_reach(pattern).max())


def profile(pattern: CsrPattern) -> int:
    """Sum over rows of the distance from diagonal to leftmost entry."""
    return int(_row_reach(pattern).sum())


def spy_export(pattern: CsrPattern) -> str:
    """CSV of stored entries, row-major: header 'row,col' then one line each."""
    return "row,col\n" + _format_rows(
        "%d,%d\n", np.column_stack([_row_ids(pattern.indptr), pattern.indices]))

"""Vertex-coupling sparsity patterns, bandwidth/profile, spy-plot export."""

from __future__ import annotations

import numpy as np

from .gmsh_io import MeshBundle, _int_rows
from .plex import _indices, _pairs_to_csr, _row_ids


def _with_diagonal(bounds: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The diagonal inserted into a CSR whose rows hold distinct, ascending,
    off-diagonal columns: each entry moves up by its row number, plus one
    past the diagonal, and the diagonal fills the gaps."""
    n = bounds.size - 1
    rows = _row_ids(bounds)
    past = cols > rows
    indptr = bounds + np.arange(n + 1)
    indices = np.empty(indptr[-1], dtype=np.int64)
    indices[np.arange(cols.size) + rows + past] = cols
    indices[indptr[:-1] + np.bincount(rows[~past], minlength=n)] = np.arange(n)
    return indptr, indices


class CsrPattern:
    """Symmetric CSR sparsity pattern with a full diagonal.

    Holds every (rows[k], cols[k]) entry plus the diagonal; column indices
    are strictly increasing within each row.
    """

    def __init__(self, n: int, rows, cols):
        rows, cols = _indices("rows", rows, n), _indices("cols", cols, n)
        if rows.size != cols.size:
            raise ValueError(f"rows and cols of unequal lengths {rows.size} and {cols.size}")
        off = rows != cols
        self.n = n
        self.indptr, self.indices = _with_diagonal(*_pairs_to_csr(n, rows[off], cols[off]))

    @classmethod
    def _of_graph(cls, bounds: np.ndarray, cols: np.ndarray) -> "CsrPattern":
        """The pattern of a graph's CSR, which _with_diagonal takes as is."""
        new = object.__new__(cls)
        new.n = bounds.size - 1
        new.indptr, new.indices = _with_diagonal(bounds, cols)
        return new

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

    A plex is simplicial, so two vertices share a cell exactly when an edge
    joins them, and the pattern is the plex's vertex graph plus the diagonal;
    a cone that does not close refuses the vertex tables the graph is read from.
    Row/column indices count vertices in ascending vertex-point order, which
    keeps the pattern well defined on permuted bundles too.
    """
    return CsrPattern._of_graph(*bundle.plex._vertex_graph)


def _row_reach(pattern: CsrPattern) -> np.ndarray:
    """Distance from the diagonal to the leftmost entry of every row."""
    return np.arange(pattern.n, dtype=np.int64) - pattern.indices[pattern.indptr[:-1]]


def bandwidth(pattern: CsrPattern) -> int:
    """Max distance from the diagonal to the leftmost entry of any row."""
    return int(_row_reach(pattern).max(initial=0))


def profile(pattern: CsrPattern) -> int:
    """Sum over rows of the distance from diagonal to leftmost entry."""
    return int(_row_reach(pattern).sum())


def spy_export(pattern: CsrPattern) -> str:
    """CSV of stored entries, row-major: header 'row,col' then one line each."""
    return "row,col\n" + _int_rows(
        np.vstack([_row_ids(pattern.indptr), pattern.indices]).T, ",")

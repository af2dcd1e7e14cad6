"""Layered-DAG representation of unstructured mesh topology.

A mesh is encoded as a directed acyclic graph over abstract "points": one
point per topological entity (cell, facet, edge, vertex), all pooled into a
single contiguous numbering called the chart.  Each point covers the points
one level down its boundary (its *cone*); the transpose relation is the
*support*.  Strata (entities of equal dimension) are the sets of points of
equal depth/height, so all traversal code is dimension independent; depths
are simplex guesses checked against the DAG, or peeled from it.

Both relations are stored in CSR form (an offset array and a target array),
and every bulk query works on whole arrays of points at once.

Point numbering for built meshes: cells occupy [0, ncells), then vertices,
then facets (3D only), then edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

PointId = int

# Local facets of a tetrahedron (a,b,c,d) and local edges of a triangle
# (x,y,z), in the creation order the interpolated numbering is defined by.
_TET_FACETS = ((0, 1, 2), (0, 2, 3), (0, 1, 3), (1, 2, 3))
_TRI_EDGES = ((1, 2), (0, 2), (0, 1))

_CELL_ARITY = {1: 2, 2: 3, 3: 4}


# -- CSR helpers shared by the array kernels ----------------------------------
#
# np.unique (and isin, union1d, ... built on it) imports numpy.ma on first
# use, which costs about 1.2 MB of resident memory; sorting plus an
# adjacent-difference mask does the same job without it.


def _unique_sorted(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values of a 1-D integer array."""
    values = values.copy()
    values.sort()
    if values.size < 2:
        return values
    keep = np.empty(values.size, dtype=bool)
    keep[0] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _offsets(sizes: np.ndarray) -> np.ndarray:
    """CSR offsets (exclusive prefix sum with the total appended) of row sizes."""
    out = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=out[1:])  # sizes may be a list
    return out


def _csr_rows(offsets: np.ndarray, targets: np.ndarray,
              rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The given rows of a CSR relation, in the given order, as a new CSR."""
    starts = offsets[rows]
    sizes = offsets[rows + 1] - starts
    out = _offsets(sizes)
    idx = np.arange(out[-1], dtype=np.int64) + (starts - out[:-1]).repeat(sizes)
    return out, targets[idx]


def _row_ids(offsets: np.ndarray) -> np.ndarray:
    """Row index of every entry of a CSR relation."""
    return np.arange(len(offsets) - 1, dtype=np.int64).repeat(offsets[1:] - offsets[:-1])


def _row_pairs(offsets: np.ndarray, targets: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """Every ordered pair (a, b) of entries sharing a row, (a, a) included."""
    sizes = offsets[1:] - offsets[:-1]
    entry_row = _row_ids(offsets)
    reps = sizes[entry_row]
    first = targets.repeat(reps)
    pair_start = _offsets(reps)
    within = np.arange(pair_start[-1], dtype=np.int64) - pair_start[:-1].repeat(reps)
    second = targets[offsets[entry_row].repeat(reps) + within]
    return first, second


def _pairs_to_csr(n: int, rows: np.ndarray, cols: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """CSR over n rows of the distinct (row, col) pairs, columns ascending."""
    keys = _unique_sorted(rows * max(n, 1) + cols)
    rows, cols = np.divmod(keys, max(n, 1))
    return _offsets(np.bincount(rows, minlength=n)), cols


def _adjacency(n: int, offsets: np.ndarray, targets: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """CSR over n items of the other items sharing a CSR row with each, ascending."""
    a, b = _row_pairs(offsets, targets)
    return _pairs_to_csr(n, a[a != b], b[a != b])


class Plex:
    """Immutable layered DAG over mesh points.

    Construction takes simplex depths (cone size - 1) that check out as
    graded, else peels the DAG, mirrors heights from graded depths, and
    rejects cyclic cover relations.  The support is built on first use
    (racing threads build the same arrays); all queries are read-only, so
    instances are safe for concurrent use.

    Built from CSR cones, ``Plex(dim, offsets, targets)``: the cone of point
    p is ``targets[offsets[p]:offsets[p + 1]]``.
    """

    def __init__(self, dim: int, offsets, targets):
        if dim not in (1, 2, 3):
            raise ValueError(f"unsupported mesh dimension {dim}")
        self.dim = dim
        offsets, targets = (np.asarray(a, dtype=np.int64) for a in (offsets, targets))
        if (offsets.ndim != 1 or offsets.size == 0 or offsets[0] != 0
                or (offsets[1:] < offsets[:-1]).any()
                or targets.shape != (int(offsets[-1]),)):
            raise ValueError("malformed CSR cone arrays")
        self.chart_size = offsets.size - 1
        self._cone_offsets = offsets
        self._cone_targets = targets
        if targets.size and (targets.min() < 0 or targets.max() >= self.chart_size):
            raise ValueError("cone target outside chart")

        # Graded: every cone arc drops exactly one depth, so closures meet a
        # point on one BFS level only.  The simplex guess, cone size - 1, is
        # exact when graded (each cone path from p has length guess[p]) and
        # proves the DAG acyclic; other DAGs are peeled.
        sources = _row_ids(offsets)

        def graded(d):
            return bool((d[targets] == d[sources] - 1).all())

        depths = np.maximum(offsets[1:] - offsets[:-1] - 1, 0)
        self._graded = graded(depths)
        if not self._graded:
            depths = self._longest_paths(offsets, *self._support)
            self._graded = graded(depths)
        self.depths = depths
        # Graded with every support-free point on top, each support path
        # climbs one depth a step to the top: heights mirror depths.
        top = depths.max(initial=0)
        has_support = np.bincount(targets, minlength=self.chart_size) > 0
        self.heights = (top - depths if self._graded and has_support[depths < top].all()
                        else self._longest_paths(self._support_offsets, offsets, targets))

    # -- construction helpers -------------------------------------------------

    @cached_property
    def _support(self) -> tuple[np.ndarray, np.ndarray]:
        # The cone transpose, built on first use (stable, so supports ascend);
        # __init__ keeps none of it, so most plexes hold no arc-sized copy.
        targets = self._cone_targets
        return (_offsets(np.bincount(targets, minlength=self.chart_size)),
                _row_ids(self._cone_offsets)[targets.argsort(kind="stable")])

    _support_offsets = property(lambda self: self._support[0])
    _support_targets = property(lambda self: self._support[1])

    def _longest_paths(self, out_off, in_off, in_tgt) -> np.ndarray:
        """Longest out-arc path length from each point to an out-degree-0 point.

        Kahn-style peeling: level 0 is every point without out-arcs; level k
        is every point whose out-arcs all lead to levels below k, which is its
        longest path.  Each arc is visited once.  Points left over when a
        level comes out empty lie on or above a cycle.
        """
        remaining = out_off[1:] - out_off[:-1]
        level = np.empty(self.chart_size, dtype=np.int64)
        frontier = (remaining == 0).nonzero()[0]
        left = self.chart_size
        k = 0
        while left:
            if frontier.size == 0:
                raise ValueError("cover relation contains a cycle")
            level[frontier] = k
            left -= frontier.size
            _, preds = _csr_rows(in_off, in_tgt, frontier)
            np.subtract.at(remaining, preds, 1)
            frontier = _unique_sorted(preds[remaining[preds] == 0])
            k += 1
        return level

    # -- incidence queries -----------------------------------------------------

    def _check(self, p: int) -> int:
        p = int(p)
        if not 0 <= p < self.chart_size:
            raise IndexError(f"point {p} outside chart [0, {self.chart_size})")
        return p

    def cone(self, p: PointId) -> np.ndarray:
        """Points directly covered by p (its boundary one level down)."""
        p = self._check(p)
        return self._cone_targets[self._cone_offsets[p]:self._cone_offsets[p + 1]]

    def support(self, p: PointId) -> np.ndarray:
        """Points directly covering p, ascending."""
        p = self._check(p)
        return self._support_targets[self._support_offsets[p]:self._support_offsets[p + 1]]

    def closure(self, p: PointId) -> np.ndarray:
        """p plus everything reachable through cones, breadth first.

        Each BFS level is appended in ascending point order, so the result is
        deterministic and each point appears exactly once.
        """
        return self.closures([self._check(p)])[1]

    def star(self, p: PointId) -> np.ndarray:
        """p plus everything reachable through supports, breadth first."""
        return self._traverse([self._check(p)], self._support_offsets,
                              self._support_targets)[1]

    def closures(self, points) -> tuple[np.ndarray, np.ndarray]:
        """Closures of many points at once, as CSR (offsets, targets).

        Row i, ``targets[offsets[i]:offsets[i + 1]]``, equals
        ``closure(points[i])`` exactly.
        """
        return self._traverse(points, self._cone_offsets, self._cone_targets)

    def vertex_closures(self, points) -> tuple[np.ndarray, np.ndarray]:
        """The vertices in each point's closure, as CSR of vertex numbers.

        Vertex numbers count depth-0 points in ascending point order; each
        row keeps closure order.
        """
        offsets, targets = self.closures(points)
        is_vertex = self.depths[targets] == 0
        vertices = ((self.depths == 0).cumsum() - 1)[targets[is_vertex]]
        return _offsets(is_vertex)[offsets], vertices

    def _traverse(self, points, step_off, step_tgt) -> tuple[np.ndarray, np.ndarray]:
        """Level-synchronous BFS from every point at once over a CSR relation.

        Each level's (row, point) pairs are sorted and de-duplicated as one
        key array, so levels are row-sorted and one stable sort by row lists
        every row's levels in order, each ascending.
        """
        n = self.chart_size
        pts = np.asarray(points, dtype=np.int64).reshape(-1)
        if pts.size and (pts.min() < 0 or pts.max() >= n):
            self._check(pts[(pts < 0) | (pts >= n)][0])
        m = pts.size
        rows = np.arange(m, dtype=np.int64)
        levels = [(rows, pts)]
        seen = None if self._graded else np.sort(rows * n + pts)
        while True:
            offsets, reached = _csr_rows(step_off, step_tgt, pts)
            if reached.size == 0:
                break
            keys = _unique_sorted(rows.repeat(offsets[1:] - offsets[:-1]) * n + reached)
            if seen is not None:
                found = np.searchsorted(seen, keys)
                found[found == seen.size] = 0
                keys = keys[seen[found] != keys]
                if keys.size == 0:
                    break
                seen = np.sort(np.concatenate([seen, keys]))
            rows, pts = np.divmod(keys, n)
            levels.append((rows, pts))

        rows, pts = (np.concatenate(a) for a in zip(*levels))
        return (_offsets(np.bincount(rows, minlength=m)),
                pts[rows.argsort(kind="stable")])

    # -- strata ----------------------------------------------------------------

    def depth(self, p: PointId) -> int:
        return int(self.depths[self._check(p)])

    def height(self, p: PointId) -> int:
        return int(self.heights[self._check(p)])

    def depth_stratum(self, d: int) -> np.ndarray:
        """Points at depth d (distance from the vertex stratum), ascending."""
        return (self.depths == d).nonzero()[0]

    def height_stratum(self, h: int) -> np.ndarray:
        """Points at height h (distance from the cell stratum), ascending."""
        return (self.heights == h).nonzero()[0]

    @property
    def num_cells(self) -> int:
        return int(np.count_nonzero(self.heights == 0))

    @property
    def num_vertices(self) -> int:
        return int(np.count_nonzero(self.depths == 0))

    @property
    def is_interpolated(self) -> bool:
        """True when the DAG is strictly graded and cells sit at depth dim."""
        return self._graded and bool((self.depths[self.heights == 0] == self.dim).all())

    def cones(self) -> list[tuple[int, ...]]:
        """All cones as tuples, indexed by point."""
        return [tuple(int(q) for q in self.cone(p)) for p in range(self.chart_size)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Plex):
            return NotImplemented
        return (self.dim == other.dim
                and np.array_equal(self._cone_offsets, other._cone_offsets)
                and np.array_equal(self._cone_targets, other._cone_targets))

    def __repr__(self) -> str:
        return f"Plex(dim={self.dim}, chart_size={self.chart_size})"


@dataclass(eq=False)
class Label:
    """Named integer markers on plex points, as (points, values) arrays.

    Pairs are sorted by (point, value) without repeats, so a label is a
    Section-laid array over the chart: point p carries the values
    ``values[k]`` for ``points[k] == p``.  ``from_arrays`` establishes the
    order; direct construction takes arrays already in it.
    """

    name: str
    points: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    values: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    @classmethod
    def from_arrays(cls, name: str, points, values) -> "Label":
        """Label marking points[i] with values[i]."""
        points = np.asarray(points, dtype=np.int64)
        values = np.asarray(values, dtype=np.int64)
        order = np.lexsort((values, points))
        points, values = points[order], values[order]
        keep = np.ones(points.size, dtype=bool)
        keep[1:] = (points[1:] != points[:-1]) | (values[1:] != values[:-1])
        return cls(name, points[keep], values[keep])

    def points_with(self, value: int) -> np.ndarray:
        return self.points[self.values == int(value)]

    def value_ids(self) -> list[int]:
        return _unique_sorted(self.values).tolist()

    def relabeled(self, point_map: np.ndarray) -> "Label":
        """New label with every point p mapped to point_map[p]; points mapped
        to -1 are dropped (used for restriction to a submesh)."""
        mapped = point_map[self.points]
        keep = mapped >= 0
        return Label.from_arrays(self.name, mapped[keep], self.values[keep])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Label):
            return NotImplemented
        return (self.name == other.name and np.array_equal(self.points, other.points)
                and np.array_equal(self.values, other.values))


def _cell_array(cell_vertex_lists, num_vertices: int, dim: int) -> np.ndarray:
    """Validated (ncells, dim + 1) vertex-id array of a simplex cell list."""
    if dim not in _CELL_ARITY:
        raise ValueError(f"unsupported mesh dimension {dim}")
    arity = _CELL_ARITY[dim]
    cells = cell_vertex_lists
    if not len(cells):
        raise ValueError("cell list is empty")
    lengths = ({cells.shape[1]} if isinstance(cells, np.ndarray)
               else {len(c) for c in cells})
    if len(lengths) > 1:
        raise ValueError("mixed cell arities")
    if lengths != {arity}:
        raise ValueError(f"cell arity {lengths.pop()} inconsistent with dimension {dim}")
    cells = np.asarray(cells, dtype=np.int64).reshape(-1, arity)
    bad = (cells < 0) | (cells >= num_vertices)
    if bad.any():
        raise ValueError(f"vertex id {cells[bad][0]} out of range [0, {num_vertices})")
    ordered = np.sort(cells, axis=1)
    repeated = np.flatnonzero(np.any(ordered[:, 1:] == ordered[:, :-1], axis=1))
    if repeated.size:
        i = int(repeated[0])
        raise ValueError(f"degenerate cell {i} {tuple(cells[i].tolist())}: "
                         "repeated vertex id")
    order = np.lexsort(ordered.T[::-1])
    same = np.flatnonzero(np.all(ordered[order[1:]] == ordered[order[:-1]], axis=1))
    if same.size:
        i, j = order[[same[0], same[0] + 1]].tolist()  # stable: i < j
        raise ValueError(f"duplicate cell {j} {tuple(cells[j].tolist())}: "
                         f"same vertices as cell {i}")
    unused = np.bincount(cells.ravel(), minlength=num_vertices) == 0
    if unused.any():
        raise ValueError(f"vertex {int(np.argmax(unused))} is used by no cell")
    return cells


def _first_encounter_ids(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct rows of `rows` (as vertex sets) in first-encounter order.

    Returns the number of every row and, per number, the index of the row
    that first showed it.
    """
    keys = np.sort(rows, axis=1)
    order = np.lexsort(keys.T[::-1])  # stable: equal rows keep input order
    keys = keys[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = np.any(keys[1:] != keys[:-1], axis=1)
    first = order[new]               # first row of each group, by sort position
    rank = np.empty(first.size, dtype=np.int64)
    by_encounter = np.argsort(first)
    rank[by_encounter] = np.arange(first.size, dtype=np.int64)
    ids = np.empty(len(order), dtype=np.int64)
    ids[order] = rank[np.cumsum(new) - 1]
    return ids, first[by_encounter]


def build_from_cells(cell_vertex_lists: Sequence[Sequence[int]],
                     num_vertices: int, dim: int) -> Plex:
    """Interpolate a cell-vertex mesh into a full plex.

    Cells must all be simplices of the given dimension (2 vertex ids = line,
    3 = triangle, 4 = tetrahedron) with distinct vertex ids.  Intermediate
    entities are created in a fixed traversal order and deduplicated by sorted
    vertex tuple, so the result is a pure function of the input.

    Args:
        cell_vertex_lists: one vertex-id tuple per cell.
        num_vertices: total vertex count (ids must be < num_vertices).
        dim: topological dimension, 1, 2 or 3.

    Returns:
        An interpolated Plex numbered cells, vertices, facets, edges.
    """
    cells = _cell_array(cell_vertex_lists, num_vertices, dim)
    ncells = len(cells)
    verts_first = ncells  # vertex v is point ncells + v

    if dim == 1:
        sizes = np.repeat([2, 0], [ncells, num_vertices])
        return Plex(dim, _offsets(sizes), verts_first + cells.reshape(-1))

    # Facet pass (3D): deduplicate triangles shared between cells, keeping
    # the vertex tuple in first-encounter order for the edge pass below.
    if dim == 3:
        tris = cells[:, _TET_FACETS].reshape(-1, 3)
        cell_facets, first = _first_encounter_ids(tris)
        triangles = tris[first]
    else:
        triangles = cells

    # Edge pass: every triangle (a cell in 2D, a facet in 3D) contributes its
    # three edges, deduplicated by sorted vertex pair.
    pairs = triangles[:, _TRI_EDGES].reshape(-1, 2)
    tri_edges, first = _first_encounter_ids(pairs)
    edge_verts = pairs[first]

    edge_pt0 = ncells + num_vertices + (len(triangles) if dim == 3 else 0)
    if dim == 3:
        facet_pt0 = ncells + num_vertices
        sizes = np.repeat([4, 0, 3, 2], [ncells, num_vertices, len(triangles),
                                         len(edge_verts)])
        targets = [facet_pt0 + cell_facets, edge_pt0 + tri_edges]
    else:
        sizes = np.repeat([3, 0, 2], [ncells, num_vertices, len(edge_verts)])
        targets = [edge_pt0 + tri_edges]
    targets.append(verts_first + edge_verts.reshape(-1))
    return Plex(dim, _offsets(sizes), np.concatenate(targets))

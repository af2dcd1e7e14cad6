"""Layered-DAG representation of interpolated simplicial mesh topology.

A mesh is encoded as a directed acyclic graph over abstract "points": one
point per topological entity (cell, facet, edge, vertex), all pooled into a
single contiguous numbering called the chart.  Each point covers the points
one level down its boundary (its *cone*); the transpose relation is the
*support*.  Strata (entities of equal dimension) are the sets of points of
equal depth/height, so all traversal code is dimension independent.  Every
plex is interpolated and simplicial: a point's depth is its cone size - 1,
each cone arc drops one depth, and only points at depth dim lack a support.

Both relations are stored in CSR form (an offset array and a target array),
and every bulk query works on whole arrays of points at once.

Point numbering for built meshes: cells occupy [0, ncells), then vertices,
then each depth from dim - 1 down to 1 (facets, then edges, in 3D).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

PointId = int

# The local faces of a d-simplex, a row of d + 1 vertex ids, for d = 3
# (a tetrahedron's facets) and d = 2 (a triangle's edges), in the creation
# order the interpolated numbering is defined by.
_FACES = {3: ((0, 1, 2), (0, 2, 3), (0, 1, 3), (1, 2, 3)), 2: ((1, 2), (0, 2), (0, 1))}

# Compare-exchange networks that sort rows of 1 to 4 columns.
_NETWORKS = {1: (), 2: ((0, 1),), 3: ((0, 1), (1, 2), (0, 1)),
             4: ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2))}


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


def _stable_order(keys: np.ndarray, bound: int) -> np.ndarray:
    """keys.argsort(kind="stable") for int64 keys in [0, bound), by one stable pass
    per 16-bit digit: numpy radix-sorts 16-bit keys where int64 gets timsort."""
    order = keys.astype(np.uint16).argsort(kind="stable")
    for shift in range(16, (int(bound) - 1).bit_length(), 16):
        order = order[(keys[order] >> shift).astype(np.uint16).argsort(kind="stable")]
    return order


def _sorted_rows(table: np.ndarray) -> np.ndarray:
    """np.sort(table, axis=1), which costs one call per row: up to four
    columns go through a sorting network of whole-column min/max instead."""
    if table.shape[1] not in _NETWORKS:
        return np.sort(table, axis=1)
    cols = list(table.T)
    for i, j in _NETWORKS[table.shape[1]]:
        cols[i], cols[j] = np.minimum(cols[i], cols[j]), np.maximum(cols[i], cols[j])
    return np.column_stack(cols)


def _whole_numbers(what: str, values) -> np.ndarray:
    """values as a 1-D int64 array; a ValueError naming what where they are not
    1-D, not whole or above int64, which a cast would truncate or wrap."""
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError(f"{what} of shape {arr.shape}, not 1-D")
    if arr.dtype.kind in "iu":
        ints = arr.astype(np.int64, copy=False)
        if arr.dtype.kind == "u" and (ints < 0).any():  # uint64 from 2**63 wraps
            raise ValueError(f"{what}: {arr[ints < 0][0].item()} does not fit in int64")
        return ints
    with np.errstate(invalid="ignore"):  # NaN and inf cast to junk, caught below
        ints = arr.astype(np.int64)
    bad = ints != arr
    if bad.any():
        raise ValueError(f"{what}: {arr[bad][0].item()!r} is not a whole number")
    return ints


def _indices(what: str, values, bound=None) -> np.ndarray:
    """_whole_numbers(what, values), each in [0, bound), or [0, inf) without a
    bound; a ValueError naming the first value outside.  Only a bound costs a max."""
    arr = _whole_numbers(what, values)
    if arr.min(initial=0) < 0 or bound is not None and arr.max(initial=-1) >= bound:
        top = np.inf if bound is None else bound
        raise ValueError(f"{what}: {arr[(arr < 0) | (arr >= top)][0]} not in [0, {top})")
    return arr


def _lex_key(rows: np.ndarray) -> np.ndarray:
    """One int64 per row of a non-negative int64 table, in the rows' lexicographic
    order; a fold that could pass int64 first renumbers key and column densely."""
    key = rows[:, 0]
    for col in rows.T[1:]:
        base = int(col.max(initial=0)) + 1
        if (int(key.max(initial=0)) + 1) * base > 2**63:
            key, col = (np.searchsorted(_unique_sorted(a), a) for a in (key, col))
            base = int(col.max(initial=0)) + 1
        key = key * base + col
    return key


def _offsets(sizes: np.ndarray) -> np.ndarray:
    """CSR offsets (exclusive prefix sum with the total appended) of row sizes."""
    out = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.add.accumulate(sizes, dtype=np.int64, out=out[1:])  # a list, or bools to count
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


def _pairs_to_csr(n: int, rows: np.ndarray, cols: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """CSR over n rows of the distinct (row, col) pairs, columns ascending."""
    keys = _unique_sorted(rows * max(n, 1) + cols)
    rows, cols = np.divmod(keys, max(n, 1))
    return _offsets(np.bincount(rows, minlength=n)), cols


def _adjacency(n: int, offsets: np.ndarray, targets: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """CSR over n items of the other items sharing a CSR row with each, ascending."""
    # Every ordered pair (a, b) of entries sharing a row, (a, a) included.
    entry_row = _row_ids(offsets)
    reps = (offsets[1:] - offsets[:-1])[entry_row]
    a = targets.repeat(reps)
    pair_start = _offsets(reps)
    within = np.arange(pair_start[-1], dtype=np.int64) - pair_start[:-1].repeat(reps)
    b = targets[offsets[entry_row].repeat(reps) + within]
    return _pairs_to_csr(n, a[a != b], b[a != b])


class Plex:
    """Immutable interpolated simplicial DAG over mesh points.

    Built from CSR cones, ``Plex(dim, offsets, targets)``: the cone of point
    p is ``targets[offsets[p]:offsets[p + 1]]``.  A point's depth is its
    cone size - 1 (0 for an empty cone) and its height is dim - depth.  The
    constructor refuses, with a ValueError naming the first bad point, a
    depth past dim (a quadrilateral in 2D), a cone arc that does not drop
    exactly one depth (a cycle, a cell covering vertices directly) and a
    point below depth dim without a support (a non-interpolated or
    dangling entity).  Depth is then the longest path down and height the
    longest path up, so closures and stars meet each point on one BFS
    level.  The support, the vertex tables and the two mesh graphs are
    built on first use (racing threads build the same arrays); all queries
    are read-only, so instances are safe for concurrent use.
    """

    def __init__(self, dim: int, offsets, targets):
        if dim not in (1, 2, 3):
            raise ValueError(f"unsupported mesh dimension {dim}")
        self.dim = dim
        offsets, targets = np.asarray(offsets), np.asarray(targets)
        if (offsets.ndim != 1 or offsets.size == 0 or offsets[0] != 0
                or (offsets[1:] < offsets[:-1]).any()
                or targets.ndim != 1 or targets.size != offsets[-1]):
            raise ValueError("malformed CSR cone arrays")
        offsets = _whole_numbers("cone offsets", offsets)
        targets = _indices("cone targets", targets, offsets.size - 1)
        self.chart_size = offsets.size - 1
        self._cone_offsets = offsets
        self._cone_targets = targets

        sizes = offsets[1:] - offsets[:-1]
        depths = np.maximum(sizes - 1, 0)
        if depths.max(initial=0) > dim:
            p = int((depths > dim).argmax())
            raise ValueError(f"point {p} has {sizes[p]} cone points: depth {depths[p]} "
                             f"is past dimension {dim}")
        drop = depths.repeat(sizes) - depths[targets]
        if (drop != 1).any():
            k = int((drop != 1).argmax())
            p = int(np.searchsorted(offsets, k, side="right")) - 1
            q = int(targets[k])
            raise ValueError(f"point {p} at depth {depths[p]} covers point {q} at depth "
                             f"{depths[q]}: a cone arc must drop one depth")
        dangling = (depths < dim) & (np.bincount(targets, minlength=self.chart_size) == 0)
        if dangling.any():
            p = int(dangling.argmax())
            raise ValueError(f"point {p} at depth {depths[p]} has no support: only "
                             f"points at depth {dim} may have none")
        self.depths = depths
        self.heights = dim - depths

    # -- construction helpers -------------------------------------------------

    @cached_property
    def _support(self) -> tuple[np.ndarray, np.ndarray]:
        # The cone transpose, a stable sort of targets in the chart (so supports
        # ascend) built on first use: most plexes never hold an arc-sized copy.
        targets = self._cone_targets
        return (_offsets(np.bincount(targets, minlength=self.chart_size)),
                _row_ids(self._cone_offsets)[_stable_order(targets, self.chart_size)])

    _support_offsets = property(lambda self: self._support[0])
    _support_targets = property(lambda self: self._support[1])

    # The mesh graphs, built on first use like the support: items (vertices,
    # cells) joined by a depth-1 (height-1) point, as CSR over item numbers,
    # columns ascending, no self-loops.

    @cached_property
    def _vertex_graph(self) -> tuple[np.ndarray, np.ndarray]:
        # Both orders of every edge row.
        edges = self._vertex_tables[1]
        return _pairs_to_csr(self.num_vertices, edges.ravel(), edges[:, ::-1].ravel())

    @cached_property
    def _cell_graph(self) -> tuple[np.ndarray, np.ndarray]:
        # Cells sharing a facet's support row, as cell numbers.
        offsets, targets = _csr_rows(*self._support, self.height_stratum(1))
        return _adjacency(self.num_cells, offsets, ((self.heights == 0).cumsum() - 1)[targets])

    @cached_property
    def _vertex_tables(self) -> tuple[np.ndarray, ...]:
        """Each depth's vertex sets, ascending, as (size, d + 1) tables for
        d = 0..dim, built depth by depth on first use.

        Depth 0 is the vertex-number column.  A depth-d row is the union of
        its d + 1 cone points' rows, which must hold each of d + 1 vertices
        d times, as a simplex's facets do: it is then the closure's vertex
        set.  The first point whose rows do not is a ValueError, so no
        query answers from a plex whose cones do not close.
        """
        tables = (np.arange(self.num_vertices, dtype=np.int64)[:, None],)
        for d in range(1, self.dim + 1):
            tables += (self._union_rows(d, tables[-1]),)
        return tables

    def _union_rows(self, d: int, below: np.ndarray) -> np.ndarray:
        stratum = self.depth_stratum(d)
        below_row = (self.depths == d - 1).cumsum() - 1
        cones = below_row[self._cone_targets[self._cone_offsets[stratum][:, None]
                                             + np.arange(d + 1)]]
        rows = _sorted_rows(below[cones].reshape(-1, (d + 1) * d)).reshape(-1, d + 1, d)
        bad = ((rows[..., 1:] != rows[..., :1]).any(axis=(1, 2))
               | (rows[:, 1:, 0] <= rows[:, :-1, 0]).any(axis=1))
        if bad.any():
            raise ValueError(f"point {stratum[bad.argmax()]}: the vertex sets of its cone "
                             "do not form a simplex")
        return rows[..., 0].copy()

    def _permuted(self, perm) -> "Plex":
        """This plex renumbered by perm without __init__: it carries strata
        and, once built, the vertex graph, relabelled."""
        new = object.__new__(Plex)
        new.dim, new.chart_size = self.dim, self.chart_size
        offsets, targets = _csr_rows(self._cone_offsets, self._cone_targets, perm.inverse)
        new._cone_offsets, new._cone_targets = offsets, perm.forward[targets]
        new.depths, new.heights = self.depths[perm.inverse], self.heights[perm.inverse]
        if "_vertex_graph" in vars(self):
            bounds, cols = self._vertex_graph
            # Old vertex i's new number counts the new vertices before its new point.
            vnum = ((new.depths == 0).cumsum() - 1)[perm.forward[self.depth_stratum(0)]]
            new._vertex_graph = _pairs_to_csr(vnum.size, vnum[_row_ids(bounds)], vnum[cols])
        return new

    def _cut(self, points: np.ndarray, bounds: Sequence[int], cones) -> list["Plex"]:
        """The sub-plexes on runs of points, run r points[bounds[r]:bounds[r + 1]]
        renumbered 0, 1, ...: each run ascends and is the closure of some cells.
        cones is the runs' cones as one CSR in this plex's numbers.

        The closure of cells is itself interpolated and simplicial, so each
        run keeps this plex's depths and heights without __init__.  Its
        cones are localised by one scatter, and each depth's vertex table
        rows, gathered once for all runs, are mapped through the ascending
        run-vertex numbering, so they stay sorted.
        """
        offsets, targets = cones
        tables = self._vertex_tables
        depths, heights = self.depths[points], self.heights[points]
        # Per depth, the runs' table rows (depth 0: vertex numbers) and where
        # each run's rows start.
        rows = [t[((self.depths == d).cumsum() - 1)[points[depths == d]]]
                for d, t in enumerate(tables)]
        starts = [_offsets(depths == d)[bounds].tolist() for d in range(len(tables))]
        local_of = np.empty(self.chart_size, dtype=np.int64)
        vertex_of = np.empty(self.num_vertices, dtype=np.int64)
        plexes = []
        for r, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            # Every cone point of a run point lies in the run, so local_of
            # never serves an entry left by an earlier run.
            local_of[points[lo:hi]] = np.arange(hi - lo)
            new = object.__new__(Plex)
            new.dim, new.chart_size = self.dim, hi - lo
            new._cone_offsets = offsets[lo:hi + 1] - offsets[lo]
            new._cone_targets = local_of[targets[offsets[lo]:offsets[hi]]]
            new.depths, new.heights = depths[lo:hi], heights[lo:hi]
            vertices = rows[0][starts[0][r]:starts[0][r + 1], 0]
            vertex_of[vertices] = np.arange(vertices.size)
            new._vertex_tables = (np.arange(vertices.size, dtype=np.int64)[:, None], *(
                vertex_of[t[s[r]:s[r + 1]]] for t, s in zip(rows[1:], starts[1:])))
            plexes.append(new)
        return plexes

    # -- incidence queries -----------------------------------------------------

    def _points(self, points) -> np.ndarray:
        """points as a 1-D int64 array of whole numbers; an IndexError, the
        query contract, for the first outside the chart."""
        pts = _whole_numbers("points", points)
        if pts.min(initial=0) < 0 or pts.max(initial=-1) >= self.chart_size:
            p = pts[(pts < 0) | (pts >= self.chart_size)][0]
            raise IndexError(f"point {p} outside chart [0, {self.chart_size})")
        return pts

    def cone(self, p: PointId) -> np.ndarray:
        """Points directly covered by p (its boundary one level down)."""
        p = self._points([p])[0]
        return self._cone_targets[self._cone_offsets[p]:self._cone_offsets[p + 1]]

    def support(self, p: PointId) -> np.ndarray:
        """Points directly covering p, ascending."""
        p = self._points([p])[0]
        return self._support_targets[self._support_offsets[p]:self._support_offsets[p + 1]]

    def closure(self, p: PointId) -> np.ndarray:
        """p plus everything reachable through cones, breadth first.

        Each BFS level is appended in ascending point order, so the result is
        deterministic and each point appears exactly once.
        """
        return self.closures([p])[1]

    def star(self, p: PointId) -> np.ndarray:
        """p plus everything reachable through supports, breadth first."""
        return self._traverse([p], self._support_offsets, self._support_targets)[1]

    def closures(self, points) -> tuple[np.ndarray, np.ndarray]:
        """Closures of many points at once, as CSR (offsets, targets).

        Row i, ``targets[offsets[i]:offsets[i + 1]]``, equals
        ``closure(points[i])`` exactly.
        """
        return self._traverse(points, self._cone_offsets, self._cone_targets)

    def vertex_closures(self, points) -> np.ndarray:
        """The vertices in each point's closure, as a (len(points), k) table.

        Vertex numbers count depth-0 points in ascending point order, and
        rows ascend: they index the points' depth's vertex table.  Points
        whose closures hold differing numbers of vertices raise ValueError;
        no points give a (0, 0) table.
        """
        pts = self._points(points)
        if not pts.size:
            return np.empty((0, 0), dtype=np.int64)
        depths = self.depths[pts]
        if (depths != depths[0]).any():
            raise ValueError("points with differing vertex counts")
        return self._vertex_tables[depths[0]][((self.depths == depths[0]).cumsum() - 1)[pts]]

    def _traverse(self, points, step_off, step_tgt) -> tuple[np.ndarray, np.ndarray]:
        """Level-synchronous BFS from every point at once over a CSR relation.

        Each level's (row, point) pairs are sorted and de-duplicated as one
        key array, so levels are row-sorted and one stable sort by row lists
        every row's levels in order, each ascending.  Every arc moves one
        depth, so no point is met on two levels, and depth <= dim bounds the
        walk to dim + 1 levels.
        """
        n = self.chart_size
        pts = self._points(points)
        m = pts.size
        rows = np.arange(m, dtype=np.int64)
        levels = [(rows, pts)]
        while True:
            offsets, reached = _csr_rows(step_off, step_tgt, pts)
            if reached.size == 0:
                break
            keys = _unique_sorted(rows.repeat(offsets[1:] - offsets[:-1]) * n + reached)
            rows, pts = np.divmod(keys, n)
            levels.append((rows, pts))

        rows, pts = (np.concatenate(a) for a in zip(*levels))
        return (_offsets(np.bincount(rows, minlength=m)),
                pts[_stable_order(rows, m)])

    # -- strata ----------------------------------------------------------------

    def depth(self, p: PointId) -> int:
        return int(self.depths[self._points([p])[0]])

    def height(self, p: PointId) -> int:
        return int(self.heights[self._points([p])[0]])

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

    def cones(self) -> list[tuple[int, ...]]:
        """All cones as tuples, indexed by point."""
        targets, offsets = self._cone_targets.tolist(), self._cone_offsets.tolist()
        return [tuple(targets[a:b]) for a, b in zip(offsets, offsets[1:])]

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
        points = _indices(f"label '{name}': points", points)
        values = _whole_numbers(f"label '{name}': values", values)
        if points.size != values.size:
            raise ValueError(f"label '{name}': {points.size} points but {values.size} values")
        order = np.lexsort((values, points))
        points, values = points[order], values[order]
        keep = np.ones(points.size, dtype=bool)
        keep[1:] = (points[1:] != points[:-1]) | (values[1:] != values[:-1])
        return cls(name, points[keep], values[keep])

    def points_with(self, value: int) -> np.ndarray:
        return self.points[self.values == int(value)]

    def value_ids(self) -> list[int]:
        return _unique_sorted(self.values).tolist()

    def permuted(self, perm) -> "Label":
        """The label with every point p moved to perm.forward[p].  A bijection
        keeps the pairs distinct and each point's values ascending, so one
        stable sort by new point, in [0, len(perm)), puts the pairs in order."""
        points = perm.forward[self.points]
        order = _stable_order(points, len(perm))
        return Label(self.name, points[order], self.values[order])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Label):
            return NotImplemented
        return (self.name == other.name and np.array_equal(self.points, other.points)
                and np.array_equal(self.values, other.values))


def _cell_array(cell_vertex_lists, num_vertices: int, dim: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """Validated (ncells, dim + 1) vertex-id array of a simplex cell list,
    and the same with each row sorted."""
    if dim not in (1, 2, 3):
        raise ValueError(f"unsupported mesh dimension {dim}")
    arity = dim + 1
    cells = cell_vertex_lists
    if isinstance(cells, np.ndarray) and cells.ndim != 2:
        raise ValueError(f"cell vertex ids of shape {cells.shape}, not 2-D")
    if not len(cells):
        raise ValueError("cell list is empty")
    lengths = ({cells.shape[1]} if isinstance(cells, np.ndarray)
               else {len(c) for c in cells})
    if len(lengths) > 1:
        raise ValueError("mixed cell arities")
    if lengths != {arity}:
        raise ValueError(f"cell arity {lengths.pop()} inconsistent with dimension {dim}")
    cells = _indices("cell vertex ids", np.asarray(cells).reshape(-1), num_vertices
                     ).reshape(-1, arity)
    ordered = _sorted_rows(cells)
    repeated = np.flatnonzero(np.logical_or.reduce((ordered[:, 1:] == ordered[:, :-1]).T))
    if repeated.size:
        i = int(repeated[0])
        raise ValueError(f"degenerate cell {i} {tuple(cells[i].tolist())}: "
                         "repeated vertex id")
    key = _lex_key(ordered)
    ascending = np.sort(key)
    if (ascending[1:] == ascending[:-1]).any():  # only then the stable order naming a pair
        order = key.argsort(kind="stable")
        same = (key[order[1:]] == key[order[:-1]]).nonzero()[0]
        i, j = order[[same[0], same[0] + 1]].tolist()  # stable: i < j
        raise ValueError(f"duplicate cell {j} {tuple(cells[j].tolist())}: "
                         f"same vertices as cell {i}")
    unused = np.bincount(cells.ravel(), minlength=num_vertices) == 0
    if unused.any():
        raise ValueError(f"vertex {int(np.argmax(unused))} is used by no cell")
    return cells, ordered


def _first_encounter_ids(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Number the distinct rows of `rows` (as vertex sets) in first-encounter order.

    Returns the number of every row and, per number, the index of the row
    that first showed it and that row sorted.
    """
    ordered = _sorted_rows(rows)
    key = _lex_key(ordered)
    order = key.argsort()            # groups equal rows, in no set order within
    key = key[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = key[1:] != key[:-1]
    first = np.minimum.reduceat(order, new.nonzero()[0])  # each group's first row
    rank = np.empty(first.size, dtype=np.int64)
    by_encounter = np.argsort(first)
    rank[by_encounter] = np.arange(first.size, dtype=np.int64)
    ids = np.empty(len(order), dtype=np.int64)
    ids[order] = rank[np.cumsum(new) - 1]
    first = first[by_encounter]
    return ids, first, ordered[first]


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
        An interpolated Plex numbered cells, vertices, then depth dim - 1
        down to 1.
    """
    cells, ordered = _cell_array(cell_vertex_lists, num_vertices, dim)
    # The vertex tables as interpolation finds them: depth 0 the vertex
    # column, row k of depth d the sorted vertex ids of depth-d entity k.
    tables = {0: np.arange(num_vertices, dtype=np.int64)[:, None], dim: ordered}
    # One pass per depth d: the faces of the depth-d rows, numbered in
    # first-encounter order, are the depth-(d - 1) points, and their first
    # rows, in their vertex order, are the next pass's rows.
    rows, cones = cells, []
    for d in range(dim, 1, -1):
        faces = rows[:, _FACES[d]].reshape(-1, d)
        ids, first, tables[d - 1] = _first_encounter_ids(faces)
        rows = faces[first]
        cones.append(ids)
    cones.append(rows.reshape(-1))  # a depth-1 row's cone is its two vertices

    order = [dim, 0, *range(dim - 1, 0, -1)]  # depths in point order
    sizes = [len(tables[d]) for d in order]
    start = dict(zip(order, _offsets(sizes)))
    plex = Plex(dim, _offsets(np.repeat([d + 1 if d else 0 for d in order], sizes)),
                np.concatenate([start[d - 1] + ids for d, ids in zip(range(dim, 0, -1), cones)]))
    plex._vertex_tables = tuple(tables[d] for d in range(dim + 1))
    return plex

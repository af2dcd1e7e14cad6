"""Cell dual graph and deterministic cell -> rank partitioning heuristics."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .gmsh_io import MeshBundle
from .plex import Plex, _indices, _offsets, _row_ids


@dataclass(eq=False)
class DualGraph:
    """Cells sharing a facet, as CSR: cell c's are neighbors[offsets[c]:offsets[c + 1]]."""

    num_cells: int
    offsets: np.ndarray
    neighbors: np.ndarray

    @property
    def num_edges(self) -> int:
        return self.neighbors.size // 2


@dataclass(eq=False)
class PartitionMap:
    """Per-cell rank assignment."""

    ranks: np.ndarray
    nparts: int

    def __post_init__(self):
        self.ranks = _indices("cell ranks", self.ranks, self.nparts)

    def cells_of(self, rank: int) -> np.ndarray:
        return np.flatnonzero(self.ranks == rank).astype(np.int64)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PartitionMap):
            return NotImplemented
        return self.nparts == other.nparts and np.array_equal(self.ranks, other.ranks)


@dataclass
class PartitionStats:
    edge_cut: int
    imbalance: float


def build_dual_graph(plex: Plex) -> DualGraph:
    """Connect cells through shared height-1 points."""
    return DualGraph(plex.num_cells, *plex._cell_graph)


def partition_cells(graph: DualGraph, nparts: int, method: str = "greedy-bfs",
                    coords: np.ndarray | None = None) -> PartitionMap:
    """Assign every cell a rank in [0, nparts).

    greedy-bfs grows one part at a time by breadth-first traversal seeded at
    the lowest unassigned cell id; coordinate-bisection recursively splits
    cell centroids along the widest axis at the (lower) median and needs
    finite coords of shape (ncells, k), k >= 1.
    """
    if nparts < 1:
        raise ValueError("nparts must be >= 1")
    if nparts > graph.num_cells:
        raise ValueError(f"nparts={nparts} exceeds cell count {graph.num_cells}")
    if method == "greedy-bfs":
        ranks = _greedy_bfs(graph, nparts)
    elif method == "coordinate-bisection":
        if coords is None:
            raise ValueError("coordinate-bisection requires cell centroids")
        coords = np.asarray(coords, dtype=np.float64)
        if coords.ndim != 2 or len(coords) != graph.num_cells or coords.shape[1] == 0:
            raise ValueError(f"one centroid of one or more coordinates per cell required: "
                             f"coords of shape ({graph.num_cells}, k), got {coords.shape}")
        if not np.isfinite(coords).all():
            bad = np.isfinite(coords).all(axis=1).argmin()
            raise ValueError(f"cell {bad} has a non-finite centroid {coords[bad].tolist()}")
        ranks = _bisect(coords, nparts)
    else:
        raise ValueError(f"unknown partition method '{method}'")
    return PartitionMap(ranks, nparts)


def _greedy_bfs(graph: DualGraph, nparts: int) -> np.ndarray:
    n = graph.num_cells
    bounds, neighbors = graph.offsets.tolist(), graph.neighbors.tolist()
    ranks = [-1] * n
    assigned = seed = 0
    for part in range(nparts):
        # Sizing from what is left keeps every later part non-empty.
        target = -(-(n - assigned) // (nparts - part))
        assigned += target
        size = 0
        queue: deque[int] = deque()
        while size < target:
            if not queue:
                while ranks[seed] >= 0:  # reseed at the lowest unassigned cell
                    seed += 1
                ranks[seed] = part
                size += 1
                queue.append(seed)
                continue
            c = queue.popleft()
            for nb in neighbors[bounds[c]:bounds[c + 1]]:
                if ranks[nb] < 0 and size < target:
                    ranks[nb] = part
                    size += 1
                    queue.append(nb)
    return np.array(ranks, dtype=np.int64)


def _bisect(coords: np.ndarray, nparts: int) -> np.ndarray:
    # Level by level, cells grouped by segment: each segment sorts along its
    # widest axis (the lowest on ties) by (coordinate, cell id) rank, and its
    # lower h cells take its lower ceil(parts / 2) ranks.
    n, dim = coords.shape
    ids = np.arange(n, dtype=np.int64)
    axis_rank = np.empty((dim, n), dtype=np.int64)
    for a in range(dim):
        axis_rank[a, np.lexsort((ids, coords[:, a]))] = ids
    order, sizes, parts = ids, np.array([n]), np.array([nparts])
    while parts.max() > 1:
        c, starts = coords[order], _offsets(sizes)[:-1]
        axis = (np.maximum.reduceat(c, starts) - np.minimum.reduceat(c, starts)).argmax(axis=1)
        segment = np.arange(sizes.size).repeat(sizes)
        order = order[(segment * n + axis_rank[axis[segment], order]).argsort()]
        halves = np.column_stack([-(-parts // 2), parts // 2])
        h = -(-sizes * halves[:, 0] // parts)
        sizes, parts = np.column_stack([h, sizes - h])[halves > 0], halves[halves > 0]
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = _offsets(parts)[:-1].repeat(sizes)
    return ranks


def partition_stats(graph: DualGraph, pmap: PartitionMap) -> PartitionStats:
    """Edge cut and max/mean part-size imbalance of an assignment."""
    if len(pmap.ranks) != graph.num_cells:
        raise ValueError("partition map does not cover the dual graph")
    ranks = pmap.ranks
    cut = int(np.count_nonzero(ranks[_row_ids(graph.offsets)] != ranks[graph.neighbors])) // 2
    sizes = np.bincount(pmap.ranks, minlength=pmap.nparts)
    imbalance = float(sizes.max() * pmap.nparts / graph.num_cells)
    return PartitionStats(edge_cut=cut, imbalance=imbalance)


def cell_centroids(bundle: MeshBundle) -> np.ndarray:
    """Mean vertex position per cell, (ncells, dim), cells in ascending order."""
    plex = bundle.plex
    table = plex.vertex_closures(plex.height_stratum(0))
    return bundle.vertex_coords()[table].sum(axis=1) / table.shape[1]

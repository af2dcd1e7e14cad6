"""Cell dual graph and deterministic cell -> rank partitioning heuristics."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .gmsh_io import MeshBundle
from .plex import Plex, _adjacency, _csr_rows, _row_ids


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
        self.ranks = np.asarray(self.ranks, dtype=np.int64)
        if self.ranks.size and (self.ranks.min() < 0 or self.ranks.max() >= self.nparts):
            raise ValueError("rank outside [0, nparts)")

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
    """Connect cells through shared height-1 points; requires an interpolated plex."""
    if not plex.is_interpolated:
        raise ValueError("dual graph needs an interpolated plex")
    cell_of = (plex.heights == 0).cumsum() - 1  # cell number of each cell point
    offsets, support = _csr_rows(plex._support_offsets, plex._support_targets,
                                 plex.height_stratum(1))
    return DualGraph(plex.num_cells, *_adjacency(plex.num_cells, offsets, cell_of[support]))


def partition_cells(graph: DualGraph, nparts: int, method: str = "greedy-bfs",
                    coords: np.ndarray | None = None) -> PartitionMap:
    """Assign every cell a rank in [0, nparts).

    greedy-bfs grows one part at a time by breadth-first traversal seeded at
    the lowest unassigned cell id; coordinate-bisection recursively splits
    cell centroids along the widest axis at the (lower) median and needs
    coords of shape (ncells, dim).
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
        if len(coords) != graph.num_cells:
            raise ValueError("one centroid per cell required")
        ranks = np.empty(graph.num_cells, dtype=np.int64)
        _bisect(np.arange(graph.num_cells), coords, nparts, 0, ranks)
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


def _bisect(idx: np.ndarray, coords: np.ndarray, nparts: int, rank0: int,
            out: np.ndarray) -> None:
    if nparts == 1:
        out[idx] = rank0
        return
    nleft = -(-nparts // 2)
    spread = coords[idx].max(axis=0) - coords[idx].min(axis=0)
    axis = int(np.argmax(spread))  # argmax takes the lowest axis on ties
    order = idx[np.lexsort((idx, coords[idx, axis]))]
    h = -(-len(order) * nleft // nparts)
    _bisect(order[:h], coords, nleft, rank0, out)
    _bisect(order[h:], coords, nparts - nleft, rank0 + nleft, out)


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
    coords = bundle.vertex_coords()
    offsets, verts = plex.vertex_closures(plex.height_stratum(0))
    sizes = np.diff(offsets)
    # Sum each cell's vertices one closure position at a time, in closure
    # order, as the mean of its (k, dim) coordinate rows would.
    out = coords[verts[offsets[:-1]]]
    for j in range(1, int(sizes.max(initial=0))):
        rows = np.flatnonzero(sizes > j)
        out[rows] += coords[verts[offsets[rows] + j]]
    out /= sizes[:, None]
    return out

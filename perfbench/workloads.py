"""The benchmark workloads: seeded inputs, timed pipelines, checks and counts.

Every plexmesh call goes through the ``plexmesh`` module attribute at call
time (``pm.migrate(...)``), so the span wrappers of ``tracing.instrument`` see
it.  Why each workload exists is in README.md next to this file.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

import plexmesh as pm


def shuffle_mesh(mesh: pm.RawMesh, seed: int) -> pm.RawMesh:
    """Relabel vertices and reorder cells and boundary facets at random.

    Coordinates move with their vertices, region ids with their cells and
    markers with their facets, so the result is the same mesh.  The
    generators number everything in grid order, which is already a good
    ordering; the relabelling gives partitioning and RCM real work.
    """
    rng = np.random.default_rng(seed)
    new_id = rng.permutation(mesh.num_vertices)
    cell_order = rng.permutation(mesh.num_cells)
    facet_order = rng.permutation(len(mesh.boundary_facets))
    vertices = np.empty_like(mesh.vertices)
    vertices[new_id] = mesh.vertices
    return pm.RawMesh(
        dim=mesh.dim,
        vertices=vertices,
        cells=new_id[mesh.cells][cell_order],
        cell_region_ids=mesh.cell_region_ids[cell_order],
        boundary_facets=new_id[mesh.boundary_facets][facet_order],
        boundary_markers=mesh.boundary_markers[facet_order],
    )


# -- pipelines (the timed part) --------------------------------------------------


def _distribute_tet3d(wl: "Workload", src: Path, out_dir: Path):
    raw = pm.read_gmsh_file(src)
    bundle = pm.raw_to_bundle(raw)
    graph = pm.build_dual_graph(bundle.plex)
    pmap = pm.partition_cells(graph, wl.nparts, method="greedy-bfs")
    stats = pm.partition_stats(graph, pmap)
    locals_, sf, report = pm.migrate(bundle, pmap, wl.nparts)
    halos, rank_raws, rank_paths = [], [], []
    for lm in locals_:
        halos.append(pm.build_halo(lm, sf, lm.bundle.coordinates.section))
        rank_raw = pm.bundle_to_raw(lm.bundle)
        path = out_dir / f"rank{lm.rank}.msh"
        pm.write_gmsh_file(rank_raw, path)
        rank_raws.append(rank_raw)
        rank_paths.append(path)
    return SimpleNamespace(src=src, bundle=bundle, graph=graph, stats=stats,
                           locals=locals_, sf=sf, report=report, halos=halos,
                           rank_raws=rank_raws, written=rank_paths)


def _reorder_tri2d(wl: "Workload", src: Path, out_dir: Path):
    raw = pm.read_gmsh_file(src)
    bundle = pm.raw_to_bundle(raw)
    before = pm.p1_pattern(bundle)
    bandwidth_before, profile_before = pm.bandwidth(before), pm.profile(before)
    perm = pm.rcm_ordering(bundle.plex)
    reordered = pm.apply_permutation(bundle, perm)
    after = pm.p1_pattern(reordered)
    bandwidth_after, profile_after = pm.bandwidth(after), pm.profile(after)
    spy_csv = pm.spy_export(after)
    out_raw = pm.bundle_to_raw(reordered)
    path = out_dir / "reordered.msh"
    pm.write_gmsh_file(out_raw, path)
    return SimpleNamespace(src=src, raw=raw, perm=perm, pattern=after,
                           bandwidth_before=bandwidth_before,
                           profile_before=profile_before,
                           bandwidth_after=bandwidth_after,
                           profile_after=profile_after, spy_csv=spy_csv,
                           out_raw=out_raw, written=[path])


def _runtime_distribute_tri2d(wl: "Workload", src: Path, out_dir: Path):
    raw = pm.read_gmsh_file(src)
    bundle = pm.raw_to_bundle(raw)
    graph = pm.build_dual_graph(bundle.plex)
    centroids = pm.cell_centroids(bundle)
    pmap = pm.partition_cells(graph, wl.nparts, method="coordinate-bisection",
                              coords=centroids)
    stats = pm.partition_stats(graph, pmap)
    locals_, sf, report = pm.migrate(bundle, pmap, wl.nparts)
    halos, perms, patterns = [], [], []
    for lm in locals_:
        halos.append(pm.build_halo(lm, sf, lm.bundle.coordinates.section))
        perm = pm.rcm_ordering(lm.bundle.plex)
        patterns.append(pm.p1_pattern(pm.apply_permutation(lm.bundle, perm)))
        perms.append(perm)
    bandwidth_after = max(pm.bandwidth(p) for p in patterns)
    profile_after = max(pm.profile(p) for p in patterns)
    return SimpleNamespace(src=src, bundle=bundle, graph=graph, stats=stats,
                           locals=locals_, sf=sf, report=report, halos=halos,
                           perms=perms, patterns=patterns,
                           bandwidth_after=bandwidth_after,
                           profile_after=profile_after, written=[])


# -- correctness checks (untimed) ------------------------------------------------


def _check_gather(out, gather) -> list[str]:
    if gather(out.locals, out.sf) != out.bundle:
        return ["gather_to_root does not reproduce the input bundle"]
    return []


def _check_distribute_tet3d(out, gather) -> list[str]:
    problems = _check_gather(out, gather)
    for path, rank_raw in zip(out.written, out.rank_raws):
        if pm.read_gmsh_file(path) != rank_raw:
            problems.append(f"{path.name} does not read back as the mesh written")
    return problems


def _coordinate_form(mesh: pm.RawMesh):
    """Numbering-free form of a mesh: vertices named by coordinate rank.

    Cells (with region ids) and boundary facets (with markers) become sorted
    rows of coordinate ranks, themselves sorted; two meshes with equal forms
    are the same mesh up to vertex and cell numbering.
    """
    order = np.lexsort(mesh.vertices.T[::-1])
    coords = mesh.vertices[order]
    if len(coords) > 1 and not np.all(np.any(coords[1:] != coords[:-1], axis=1)):
        raise ValueError("duplicate vertex coordinates")
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))

    def rows(conn, tags):
        table = np.column_stack([np.sort(rank[conn], axis=1), tags])
        return table[np.lexsort(table.T[::-1])]

    return (coords, rows(mesh.cells, mesh.cell_region_ids),
            rows(mesh.boundary_facets, mesh.boundary_markers))


def _check_reorder_tri2d(out, gather) -> list[str]:
    problems = []
    try:
        same = all(np.array_equal(a, b) for a, b in zip(
            _coordinate_form(out.raw), _coordinate_form(out.out_raw)))
    except ValueError:
        same = False
    if not same:
        problems.append("reordered mesh is not the input mesh")
    if out.bandwidth_after > out.bandwidth_before:
        problems.append(f"RCM raised the bandwidth from {out.bandwidth_before} "
                        f"to {out.bandwidth_after}")
    return problems


# -- output digests --------------------------------------------------------------


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            part = np.ascontiguousarray(part, dtype="<i8").tobytes()
        elif isinstance(part, str):
            part = part.encode()
        elif not isinstance(part, bytes):
            part = json.dumps(part, sort_keys=True).encode()
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def _distribution_parts(out):
    yield [[list(e) for e in out.sf.rank_leaves(r)] for r in range(out.sf.nranks)]
    yield out.report.as_dict()
    yield [out.stats.edge_cut, out.stats.imbalance]
    for halo, perm in out.halos:
        yield [halo.n_owned, [list(r) for r in halo.receives]]
        yield perm.forward


def _digest_distribute_tet3d(out) -> str:
    return _digest([*_distribution_parts(out),
                    *(path.read_bytes() for path in out.written)])


def _digest_reorder_tri2d(out) -> str:
    return _digest([out.perm.forward, out.spy_csv,
                    [out.bandwidth_before, out.profile_before,
                     out.bandwidth_after, out.profile_after],
                    *(path.read_bytes() for path in out.written)])


def _digest_runtime_distribute_tri2d(out) -> str:
    parts = list(_distribution_parts(out))
    for perm, pattern in zip(out.perms, out.patterns):
        parts += [perm.forward, pattern.indptr, pattern.indices]
    return _digest(parts + [[out.bandwidth_after, out.profile_after]])


# -- per-layer counts (untimed; they repeat exactly for a given input) -----------


def _io_counts(out) -> dict:
    return {"gmsh_io.read_bytes": out.src.stat().st_size,
            "gmsh_io.write_bytes": sum(p.stat().st_size for p in out.written)}


def _distribution_counts(out) -> dict:
    chart = out.bundle.plex.chart_size
    sf_leaves = sum(len(out.sf.rank_leaves(r)) for r in range(out.sf.nranks))
    owned = sum(lm.bundle.plex.chart_size - len(lm.ghost_points) for lm in out.locals)
    rank_charts = sum(lm.bundle.plex.chart_size for lm in out.locals)
    return {
        "partition.dual_edges": out.graph.num_edges,
        "partition.edge_cut": out.stats.edge_cut,
        "partition.imbalance": out.stats.imbalance,
        "distribute.sf_leaves": sf_leaves,
        "distribute.owned_points": owned,
        "distribute.ghost_ratio": sf_leaves / owned,
        "distribute.overlap_ratio": rank_charts / chart,
        "distribute.bytes_topology": out.report.bytes_topology,
        "distribute.bytes_coordinates": out.report.bytes_coordinates,
        "distribute.bytes_migrated": out.report.bytes_total,
    }


def _counts_distribute_tet3d(out) -> dict:
    return {**_io_counts(out), **_distribution_counts(out)}


def _counts_reorder_tri2d(out) -> dict:
    return {**_io_counts(out),
            "sparsity.nnz": out.pattern.nnz,
            "sparsity.bandwidth_after": out.bandwidth_after,
            "sparsity.profile_after": out.profile_after,
            "renumber.bandwidth_ratio": out.bandwidth_after / out.bandwidth_before}


def _counts_runtime_distribute_tri2d(out) -> dict:
    bandwidth_before = max(pm.bandwidth(pm.p1_pattern(lm.bundle)) for lm in out.locals)
    return {**_io_counts(out), **_distribution_counts(out),
            "sparsity.nnz": sum(p.nnz for p in out.patterns),
            "sparsity.bandwidth_after": out.bandwidth_after,
            "sparsity.profile_after": out.profile_after,
            "renumber.bandwidth_ratio": out.bandwidth_after / bandwidth_before}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    pipeline(wl, src, out_dir) is the timed part and returns its outputs;
    check(outputs, gather) returns a list of problems, empty when correct,
    where gather is the gather_to_root to verify a distribution with;
    digest(outputs) hashes every output; counts(outputs) gives the per-layer
    counts the outputs determine.
    """

    name: str
    make_mesh: Callable[[], pm.RawMesh]
    nparts: int
    pipeline: Callable
    check: Callable
    digest: Callable
    counts: Callable


WORKLOADS = {wl.name: wl for wl in (
    Workload("distribute-tet3d", lambda: pm.tet_box(6, 6, 6), 8,
             _distribute_tet3d, _check_distribute_tet3d,
             _digest_distribute_tet3d, _counts_distribute_tet3d),
    Workload("reorder-tri2d", lambda: pm.triangle_grid(32, 32), 1,
             _reorder_tri2d, _check_reorder_tri2d,
             _digest_reorder_tri2d, _counts_reorder_tri2d),
    Workload("runtime-distribute-tri2d", lambda: pm.triangle_grid(32, 32), 32,
             _runtime_distribute_tri2d, _check_gather,
             _digest_runtime_distribute_tri2d, _counts_runtime_distribute_tri2d),
)}

"""Command-line driver: info, partition, distribute, reorder, spy, bench.

Exit codes: 0 success, 1 usage error, 2 file/parse error, 3 validation error.
All JSON goes to stdout with sorted keys; wall-clock numbers are confined to
"timing" blocks so the data sections are reproducible run to run.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from .distribute import migrate
from .gmsh_io import (GmshParseError, MeshBundle, bundle_to_raw, raw_to_bundle,
                      read_gmsh_file, write_gmsh_file)
from .partition import (build_dual_graph, cell_centroids, partition_cells,
                        partition_stats)
from .renumber import apply_permutation, rcm_ordering
from .section import Field, section_from_depth_dofs
from .sparsity import bandwidth, p1_pattern, spy_export

USAGE_ERROR, FILE_ERROR, VALIDATION_ERROR = 1, 2, 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True, indent=2))


def _load(path: str) -> MeshBundle:
    return raw_to_bundle(read_gmsh_file(path))


def _synthetic_fields(bundle: MeshBundle, count: int) -> list[Field]:
    sec = section_from_depth_dofs(bundle.plex, [1] + [0] * bundle.dim)
    return [Field(f"field{i}", sec, np.zeros(sec.total_size)) for i in range(count)]


def _cmd_info(args) -> int:
    bundle = _load(args.mesh)
    plex = bundle.plex
    _emit({
        "dim": plex.dim,
        "chart_size": plex.chart_size,
        "cells": plex.num_cells,
        "vertices": plex.num_vertices,
        "points_per_depth": [len(plex.depth_stratum(d)) for d in range(plex.dim + 1)],
        "points_per_height": [len(plex.height_stratum(h)) for h in range(plex.dim + 1)],
    })
    return 0


def _partition(bundle: MeshBundle, nparts: int, method: str):
    graph = build_dual_graph(bundle.plex)
    coords = cell_centroids(bundle) if method == "coordinate-bisection" else None
    pmap = partition_cells(graph, nparts, method=method, coords=coords)
    return graph, pmap


def _cmd_partition(args) -> int:
    bundle = _load(args.mesh)
    graph, pmap = _partition(bundle, args.nparts, args.method)
    stats = partition_stats(graph, pmap)
    if args.csv:
        lines = ["cell,rank"] + [f"{c},{int(r)}" for c, r in enumerate(pmap.ranks)]
        Path(args.csv).write_text("\n".join(lines) + "\n")
    _emit({
        "method": args.method,
        "nparts": args.nparts,
        "ncells": graph.num_cells,
        "edge_cut": stats.edge_cut,
        "imbalance": stats.imbalance,
    })
    return 0


def _cmd_distribute(args) -> int:
    bundle = _load(args.mesh)
    _, pmap = _partition(bundle, args.nparts, args.method)
    locals_, sf, report = migrate(bundle, pmap, args.nparts)

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for lm in locals_:
        write_gmsh_file(bundle_to_raw(lm.bundle), outdir / f"rank{lm.rank}.msh")
    sf_doc = {
        "nranks": sf.nranks,
        "ranks": [{"rank": r, "leaves": [list(e) for e in sf.rank_leaves(r)]}
                  for r in range(sf.nranks)],
    }
    (outdir / "sf.json").write_text(json.dumps(sf_doc, sort_keys=True, indent=2) + "\n")
    (outdir / "report.json").write_text(
        json.dumps(report.as_dict(), sort_keys=True, indent=2) + "\n")

    _emit({"nranks": args.nparts, "migration": report.as_dict()})
    return 0


def _cmd_reorder(args) -> int:
    bundle = _load(args.mesh)
    before = bandwidth(p1_pattern(bundle))
    perm = rcm_ordering(bundle.plex)
    reordered = apply_permutation(bundle, perm)
    after = bandwidth(p1_pattern(reordered))
    if args.out:
        write_gmsh_file(bundle_to_raw(reordered), args.out)
    _emit({"bandwidth_before": before, "bandwidth_after": after})
    return 0


def _cmd_spy(args) -> int:
    bundle = _load(args.mesh)
    if args.rcm:
        bundle = apply_permutation(bundle, rcm_ordering(bundle.plex))
    sys.stdout.write(spy_export(p1_pattern(bundle)))
    return 0


def _cmd_bench(args) -> int:
    reports = []
    for workflow in ("preprocessor", "runtime-distribute"):
        t0 = time.perf_counter()
        bundle = _load(args.mesh)
        t_read = time.perf_counter() - t0

        t0 = time.perf_counter()
        _, pmap = _partition(bundle, args.nparts, "greedy-bfs")
        t_partition = time.perf_counter() - t0

        fields = _synthetic_fields(bundle, args.fields) if workflow == "preprocessor" else None
        t0 = time.perf_counter()
        locals_, _, report = migrate(bundle, pmap, args.nparts, fields=fields)
        t_migrate = time.perf_counter() - t0

        t_reorder = 0.0
        if workflow == "runtime-distribute":
            t0 = time.perf_counter()
            for lm in locals_:
                apply_permutation(lm.bundle, rcm_ordering(lm.bundle.plex))
            t_reorder = time.perf_counter() - t0

        reports.append({
            "workflow": workflow,
            "nranks": args.nparts,
            "fields": args.fields if workflow == "preprocessor" else 0,
            "timing": {
                "read_s": t_read,
                "partition_s": t_partition,
                "migrate_s": t_migrate,
                "reorder_s": t_reorder,
            },
            "data": report.as_dict(),
        })
    _emit({"workflows": reports})
    return 0


def _build_parser() -> _Parser:
    def count(minimum: int):
        def count(text: str) -> int:  # argparse reports "invalid count value: ..."
            if int(text) < minimum:
                raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {text}")
            return int(text)
        return count

    parser = _Parser(prog="plexmesh",
                     description="Mesh topology, distribution and renumbering tool")
    sub = parser.add_subparsers(dest="command", required=True)
    # Shared arguments as parent parsers, each extending the last, so every
    # usage line lists mesh, --nparts and --method in that order.
    mesh = _Parser(add_help=False)
    mesh.add_argument("mesh")
    sized = _Parser(add_help=False, parents=[mesh])
    sized.add_argument("--nparts", type=count(1), required=True)
    method = _Parser(add_help=False, parents=[sized])
    method.add_argument("--method", default="greedy-bfs",
                        choices=["greedy-bfs", "coordinate-bisection"])

    p = sub.add_parser("info", parents=[mesh], help="stratum and size summary of a mesh")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("partition", parents=[method],
                       help="partition cells and report quality")
    p.add_argument("--csv", help="write per-cell rank CSV to this path")
    p.set_defaults(func=_cmd_partition)

    p = sub.add_parser("distribute", parents=[method],
                       help="migrate the mesh onto simulated ranks")
    p.add_argument("--out", default=".", help="output directory (rank meshes, sf.json, report.json)")
    p.set_defaults(func=_cmd_distribute)

    p = sub.add_parser("reorder", parents=[mesh],
                       help="RCM-reorder a mesh and report bandwidth")
    p.add_argument("--out", help="write the reordered mesh to this path")
    p.set_defaults(func=_cmd_reorder)

    p = sub.add_parser("spy", parents=[mesh], help="dump the vertex coupling pattern as CSV")
    p.add_argument("--rcm", action="store_true", help="apply RCM before export")
    p.set_defaults(func=_cmd_spy)

    p = sub.add_parser("bench", parents=[sized],
                       help="compare preprocessor vs runtime start-up")
    p.add_argument("--fields", type=count(0), default=1,
                   help="synthetic P1 fields the preprocessor path migrates")
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else USAGE_ERROR
    try:
        return args.func(args)
    except OSError as exc:
        print(f"plexmesh: {exc}", file=sys.stderr)
        return FILE_ERROR
    except GmshParseError as exc:
        print(f"plexmesh: parse error: {exc}", file=sys.stderr)
        return FILE_ERROR
    except ValueError as exc:
        print(f"plexmesh: {exc}", file=sys.stderr)
        return VALIDATION_ERROR


if __name__ == "__main__":
    sys.exit(main())

"""Child processes of the benchmark runner.

    python3 perfbench/worker.py setup WORKLOAD SEED INPUT_MSH
    python3 perfbench/worker.py measure WORKLOAD SEED SECONDS TRACE INPUT_MSH OUT_DIR

``setup`` times importing plexmesh, generating and shuffling the workload's
mesh and writing it as MSH 2.2.  ``measure`` runs the workload's pipeline
from that file over and over for SECONDS, checks every iteration, and
reports either the untraced end-to-end numbers (TRACE 0) or the per-layer
numbers of a traced run (TRACE 1).  Both print one JSON object as the last
line of standard output.  Nothing heavier than the standard library is
imported before the set-up clock starts.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "digests.json"

# Per-layer self-time metrics: the spans whose self time each one sums.
SELF_TIME_SPANS = {
    "gmsh_io.read_s": ("gmsh_io.read_gmsh", "gmsh_io.read_gmsh_file"),
    "gmsh_io.write_s": ("gmsh_io.write_gmsh", "gmsh_io.write_gmsh_file"),
    "gmsh_io.raw_to_bundle_s": ("gmsh_io.raw_to_bundle",),
    "gmsh_io.bundle_to_raw_s": ("gmsh_io.bundle_to_raw",),
    "plex.build_from_cells_s": ("plex.build_from_cells",),
    "plex.plex_init_s": ("plex.Plex.__init__",),
    "plex.closure_s": ("plex.Plex.closure",),
    "partition.build_dual_graph_s": ("partition.build_dual_graph",),
    "partition.cell_centroids_s": ("partition.cell_centroids",),
    "partition.partition_cells_s": ("partition.partition_cells",),
    "partition.partition_stats_s": ("partition.partition_stats",),
    "distribute.close_partition_s": ("distribute.close_partition",),
    "distribute.migrate_s": ("distribute.migrate",),
    "distribute.build_halo_s": ("distribute.build_halo",),
    "section.permute_field_s": ("section.permute_field", "section.permute_section"),
    "section.section_from_depth_dofs_s": ("section.section_from_depth_dofs",),
    "renumber.rcm_ordering_s": ("renumber.rcm_ordering",),
    "renumber.apply_permutation_s": ("renumber.apply_permutation",),
    "sparsity.p1_pattern_s": ("sparsity.p1_pattern",),
    "sparsity.bandwidth_profile_s": ("sparsity.bandwidth", "sparsity.profile"),
    "sparsity.spy_export_s": ("sparsity.spy_export",),
}

# Counts a workload's outputs determine; a layer the workload does not run
# reports 0.
OUTPUT_COUNTS = (
    "gmsh_io.read_bytes", "gmsh_io.write_bytes",
    "partition.dual_edges", "partition.edge_cut", "partition.imbalance",
    "distribute.sf_leaves", "distribute.owned_points", "distribute.ghost_ratio",
    "distribute.overlap_ratio", "distribute.bytes_topology",
    "distribute.bytes_coordinates", "distribute.bytes_migrated",
    "renumber.bandwidth_ratio",
    "sparsity.nnz", "sparsity.bandwidth_after", "sparsity.profile_after",
)

ROOT_SPAN = "pipeline"


def setup(workload: str, seed: int, dest: Path) -> dict:
    """Time import, generation, shuffle and write of one seeded input."""
    t0 = time.perf_counter()
    import plexmesh as pm
    t1 = time.perf_counter()
    from perfbench.workloads import WORKLOADS, shuffle_mesh
    wl = WORKLOADS[workload]
    t2 = time.perf_counter()
    mesh = wl.make_mesh()
    t3 = time.perf_counter()
    mesh = shuffle_mesh(mesh, seed)
    t4 = time.perf_counter()
    pm.write_gmsh_file(mesh, dest)
    t5 = time.perf_counter()
    import_s, generate_s, shuffle_s, write_s = t1 - t0, t3 - t2, t4 - t3, t5 - t4
    return {"import_s": import_s, "generate_s": generate_s, "shuffle_s": shuffle_s,
            "write_s": write_s, "total_s": import_s + generate_s + shuffle_s + write_s,
            "plexmesh_file": pm.__file__}


def recorded_digest(workload: str, seed: int) -> str | None:
    return json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed))


def _layer_metrics(samples: list[dict]) -> dict:
    """Per-iteration medians of the traced quantities."""
    def med(fn):
        return statistics.median(fn(s) for s in samples)

    out = {metric: med(lambda s, names=names: sum(s["self_s"].get(n, 0.0) for n in names))
           for metric, names in SELF_TIME_SPANS.items()}
    out["plex.plex_inits"] = med(lambda s: s["calls"].get("plex.Plex.__init__", 0))
    out["plex.points_built"] = med(lambda s: s["points_built"])
    out["plex.closure_calls"] = med(lambda s: s["calls"].get("plex.Plex.closure", 0))
    out["plex.closure_reuse"] = med(lambda s: s["closure_reuse"])
    out["trace.glue_s"] = med(lambda s: s["self_s"][ROOT_SPAN])
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool,
            src: Path, out_dir: Path) -> dict:
    """Run and check the pipeline repeatedly for about `seconds` seconds.

    A new iteration starts only while the time left covers the previous one,
    so a run ends close to `seconds`; at least two iterations run, three when
    tracing.  In a traced run, traced and untraced iterations alternate
    after an untraced first one, which warms up and is left out of the
    tracing overhead (the median difference between a traced iteration and
    the untraced one that follows it).  The span
    wrappers are installed for the traced iterations only; checks and
    digests always run untraced.  Without tracing, the reference kernel runs
    right after every iteration; the end-to-end time is the median, over
    every iteration but the first (a warm-up), of the iteration's time divided
    by the mean of the reference runs just before and after it.
    """
    import plexmesh as pm
    from perfbench.reference import reference_kernel
    from perfbench.tracing import Tracer, instrument
    from perfbench.workloads import WORKLOADS

    wl = WORKLOADS[workload]
    tracer = Tracer()

    def gather(locals_, sf):
        with tracer.recording("verify"):
            return pm.gather_to_root(locals_, sf)

    def time_reference():
        ref_started = time.perf_counter()
        reference_kernel()
        refs.append(time.perf_counter() - ref_started)

    expected = recorded_digest(workload, seed)
    walls, refs, traced_walls, samples, gather_s = [], [], [], [], []
    attempted = failed = 0
    peak_rss_mb = counts = digest = None
    problems_seen: list[str] = []
    deadline = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        if trace and attempted % 2 == 1:
            with instrument(tracer), tracer.recording(ROOT_SPAN):
                out = wl.pipeline(wl, src, out_dir)
            traced_walls.append(time.perf_counter() - started)
            samples.append(tracer.collect())
        else:
            out = wl.pipeline(wl, src, out_dir)
            walls.append(time.perf_counter() - started)
        if peak_rss_mb is None:
            # Sampled before any check runs, so it is the pipeline's peak.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if not trace:
            time_reference()

        problems = wl.check(out, gather)
        gather_s.append(tracer.collect()["total_s"].get("verify", 0.0))
        digest = wl.digest(out)
        expected = expected or digest
        if digest != expected:
            problems.append(f"output digest {digest} differs from {expected}")
        if counts is None:
            counts = wl.counts(out)
        attempted += 1
        failed += bool(problems)
        problems_seen.extend(p for p in problems if p not in problems_seen)

        now = time.perf_counter()
        if len(walls) > 1 and now + (now - started) > deadline:
            break

    if trace:
        metrics = dict.fromkeys(OUTPUT_COUNTS, 0)
        metrics.update(counts)
        metrics.update(_layer_metrics(samples))
        metrics["distribute.gather_to_root_s"] = statistics.median(gather_s)
        metrics["trace.wall_s"] = statistics.median(traced_walls)
        # Each traced iteration against the untraced one right after it: the
        # machine's speed drifts over seconds, so neighbours compare best.
        metrics["trace.overhead_s"] = statistics.median(
            t - u for t, u in zip(traced_walls, walls[1:]))
    else:
        metrics = {"wall_ref_ratio": statistics.median(
                       wall / ((before + after) / 2)
                       for wall, before, after in zip(walls[1:], refs, refs[1:])),
                   "peak_rss_mb": peak_rss_mb}
    return {"attempted": attempted, "failed": failed, "problems": problems_seen,
            "digest": digest, "walls": walls, "refs": refs, "traced_walls": traced_walls,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench-worker")
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("setup")
    p.add_argument("workload")
    p.add_argument("seed", type=int)
    p.add_argument("input", type=Path)
    p = sub.add_parser("measure")
    p.add_argument("workload")
    p.add_argument("seed", type=int)
    p.add_argument("seconds", type=float)
    p.add_argument("trace", type=int, choices=(0, 1))
    p.add_argument("input", type=Path)
    p.add_argument("out_dir", type=Path)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        result = setup(args.workload, args.seed, args.input)
    else:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                         args.input, args.out_dir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # In place of this script's directory: plexmesh from the checkout's
    # sources, the benchmark as the perfbench package.
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    sys.exit(main())

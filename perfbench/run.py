"""plexmesh benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The runner itself imports neither numpy
nor plexmesh: it sets up the seeded input in a fresh process, measures the
workload in another fresh, single-threaded process, then times the set-up
SETUP_RUNS more times, each in a fresh process, and prints one JSON object
as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json, with
--trace 1 its per-layer metrics.  Diagnostics (seed, output digest, sample
count, problems found) go to standard error.  Without the plexmesh sources
at src/plexmesh the runner exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "plexmesh"
WORK = ROOT / ".perfbench_work"
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_RUNS = 7
# Every run must end within this many seconds, set-up included.
RUN_LIMIT_S = 170

# One thread per process: BLAS pools would add threads the pipeline does not
# need and make timings depend on what else runs on the machine.
SINGLE_THREAD = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


class BenchError(RuntimeError):
    pass


def _child(args: list[str], deadline: float) -> dict:
    timeout = deadline - time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT,
                              env={**os.environ, **SINGLE_THREAD},
                              stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args[0]} ran past the {RUN_LIMIT_S} s limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def result_line(spec: dict, setups: list[dict], measured: dict, trace: bool) -> dict:
    """The runner's JSON result, with each metric's unit from BENCHMARK.json."""
    values = dict(measured["metrics"])
    if trace:
        values["meshgen.generate_s"] = statistics.median(s["generate_s"] for s in setups)
        declared = spec["per_layer"]
    else:
        values["setup_s"] = statistics.median(s["total_s"] for s in setups)
        declared = spec["end_to_end"]
    names = {m["name"] for m in declared}
    if names != set(values):
        raise BenchError(f"metrics {sorted(names ^ set(values))} do not match "
                         "BENCHMARK.json")
    return {"correct": measured["failed"] == 0, "attempted": measured["attempted"],
            "failed": measured["failed"],
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in declared}}


def run(spec: dict, workload: str, seed: int, seconds: float, trace: bool,
        work: Path) -> dict:
    deadline = time.perf_counter() + RUN_LIMIT_S
    src = work / "input.msh"
    out_dir = work / "out"
    out_dir.mkdir(parents=True)

    setup = ["setup", workload, str(seed), str(src)]
    loaded = Path(_child(setup, deadline)["plexmesh_file"]).resolve()
    if loaded.parent != SOURCE.resolve():
        raise BenchError(f"plexmesh was imported from {loaded}, not from {SOURCE}")
    measured = _child(["measure", workload, str(seed), str(seconds), str(int(trace)),
                       str(src), str(out_dir)], deadline)
    # The timed set-ups come after the measurement: right after an idle
    # spell the host runs them up to twice as slow, and the first few of a
    # series are the slowest.
    setups = [_child(setup, deadline) for _ in range(SETUP_RUNS)]

    print(f"perfbench: {workload} seed {seed}: {measured['failed']}/"
          f"{measured['attempted']} failed, digest {measured['digest']}, pipeline "
          f"seconds {[round(w, 3) for w in measured['walls']]}, reference seconds "
          f"{[round(w, 4) for w in measured['refs']]}, traced "
          f"{[round(w, 3) for w in measured['traced_walls']]}", file=sys.stderr)
    for problem in measured["problems"]:
        print(f"perfbench: {workload} seed {seed}: {problem}", file=sys.stderr)
    return result_line(spec, setups, measured, trace)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SOURCE / "__init__.py").is_file():
        print(f"perfbench: no plexmesh sources at {SOURCE}; run from the root of "
              "a plexmesh checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = run(spec, args.workload, args.seed, args.seconds, bool(args.trace),
                     work)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the uavclass pipeline: one workload, one seed, one run.

Run from the repository root:

    python3 perfbench/run.py --workload kfold-desk --seed 1 --seconds 20 --trace 0

The run builds its inputs from the seed (set-up, repeated and timed apart),
then runs the workload's job in a closed loop with one client until the next
job would end after --seconds (always at least one job), and checks the
outputs. With --trace 0 it reports the end-to-end metrics; with --trace 1 it
alternates untraced and traced jobs and reports the per-layer metrics, the
tracing overhead included. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. Metric names and
units are those of BENCHMARK.json at the repository root; perfbench/README.md
says what each one measures.
"""

from __future__ import annotations

import os
import sys

# BLAS threads are fixed before numpy loads so that results do not depend on
# the library default. One thread keeps every workload single-core.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, "perfbench-work")
SETUP_REPEATS = 3


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment():
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.restype = ctypes.c_int
                threads = fn()
                break
    cpu = ""
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.partition(":")[2].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_requested": BLAS_THREADS,
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


def peak_rss_mb():
    """Peak resident set of this process plus its largest waited-for child."""
    kib = sum(resource.getrusage(who).ru_maxrss
              for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kib / 1024.0


def run(args, spec):
    import tracing
    from workloads import WORKLOADS, code_digest

    work = os.path.join(WORK, args.workload)
    os.makedirs(work, exist_ok=True)
    workload = WORKLOADS[args.workload](work, args.seed, code_digest(ROOT))
    tracer = tracing.Tracer() if args.trace else None

    setup_walls, setup_layers = [], []
    for i in range(SETUP_REPEATS):
        run_id = tracer.begin_run(f"setup{i}") if tracer else None
        with tracer or contextlib.nullcontext():
            start = perf_counter()
            workload.setup()
            setup_walls.append(perf_counter() - start)
        if tracer:
            setup_layers.append(tracing.setup_layer_metrics(
                tracer.spans, tracing.spans_of_run(tracer.spans, run_id)))

    jobs, untraced, traced = [], [], []  # traced: (job, layer metrics, span count)
    began = perf_counter()
    while True:
        if tracer and len(untraced) > len(traced):
            run_id = tracer.begin_run(f"job{len(jobs)}")
            with tracer:
                job = workload.job()
            ids = tracing.spans_of_run(tracer.spans, run_id)
            traced.append((job, tracing.job_layer_metrics(
                tracer.spans, ids, workload.messages_by_source()), len(ids)))
        else:
            job = workload.job()
            untraced.append(job)
        jobs.append(job)
        if tracer and not traced:
            continue
        if perf_counter() - began + job.wall > args.seconds:
            break

    peak_mb = peak_rss_mb()  # before the checks, which hold extra copies of the outputs
    correct, notes, info = workload.finish(jobs)
    for note in notes:
        print(f"check failed: {note}", file=sys.stderr)
    if tracer:
        metrics = tracing.median_metrics([m for _, m, _ in traced])
        metrics.update(tracing.median_metrics(setup_layers))
        metrics["trace.overhead_s"] = (statistics.median(j.wall for j, _, _ in traced)
                                       - statistics.median(j.wall for j in untraced))
        metrics["trace.spans"] = statistics.median(n for _, _, n in traced)
        os.makedirs(os.path.join(WORK, "spans"), exist_ok=True)
        tracer.write_jsonl(os.path.join(WORK, "spans", f"{args.workload}-seed{args.seed}.jsonl"))
        wanted = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        # work done correctly per second over the whole timed loop: a median
        # of per-job rates would snap to whichever machine speed most jobs saw
        metrics = {
            "setup_s": statistics.median(setup_walls),
            "items_per_s": sum(j.items for j in jobs) / sum(j.wall for j in jobs),
            "peak_rss_mb": peak_mb,
        }
        wanted = [m["name"] for m in spec["end_to_end"]]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if set(metrics) != set(wanted) or not set(wanted) <= set(units):
        raise RuntimeError(f"metric set mismatch: {sorted(set(metrics) ^ set(wanted))}")
    if not all(math.isfinite(v) for v in metrics.values()):
        raise RuntimeError(f"non-finite metric in {metrics}")

    result = {
        "correct": bool(correct),
        "attempted": sum(j.attempted for j in jobs),
        "failed": sum(j.failed for j in jobs),
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in wanted},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(), "setup_walls": setup_walls,
        "job_walls": [j.wall for j in jobs], "job_items": [j.items for j in jobs],
        "info": info, "notes": notes, "result": result,
    }
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    print("jobs " + json.dumps({"wall_s": record["job_walls"], "items": record["job_items"]}))
    for name, value in info.items():
        print(f"{name:40s} {value:>16}")
    for name in wanted:
        print(f"{name:40s} {metrics[name]:>16.6f} {units[name]}")
    print(json.dumps(result))


def main(argv=None):
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "uavclass", "__init__.py")):
        print("error: src/uavclass not found; run from a full checkout of the repository",
              file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    run(args, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())

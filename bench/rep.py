"""One repetition of one workload, in a fresh interpreter.

    python3 bench/rep.py WORKLOAD SEED WORKDIR RESULT_JSON [--trace]

Builds the workload's inputs, times its operations, optionally under the
tracer, then checks every output and writes a JSON result.  ``run.py``
starts one of these per repetition so that each repetition pays its own
imports and allocations and reports its own CPU time and peak memory.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402


def setting() -> dict:
    """Where the numbers were measured."""
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError):
        blas = "unknown"
    try:
        llc = int(subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"],
                                 capture_output=True, text=True,
                                 check=True).stdout)
    except (OSError, ValueError, subprocess.CalledProcessError):
        llc = 0
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": {k: os.environ.get(k, "unset") for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "llc_bytes": llc,
    }


def load_reference(workload: str, seed: int):
    """Values recorded from the seed code, or None for an unrecorded seed."""
    path = os.path.join(BENCH, "reference.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["workloads"].get(workload, {}).get(str(seed))


def run_rep(workload: str, seed: int, workdir: str, traced: bool,
            reference) -> dict:
    ops = workloads.WORKLOADS[workload](seed, workdir)
    tracer = spans.Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    raws = []
    try:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for op in ops:
            if tracer is not None:
                tracer.op = op.name
            t0 = time.perf_counter()
            try:
                raw, error = op.run(), None
            except Exception as exc:  # counted as a failed operation
                raw, error = None, f"{type(exc).__name__}: {exc}"
            raws.append((raw, error, time.perf_counter() - t0))
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        if tracer is not None:
            tracer.uninstall()

    results = []
    for op, (raw, error, latency) in zip(ops, raws):
        values, digest, problems = {}, "", []
        if error is not None:
            problems.append(error)
        else:
            try:
                values, digest, problems = op.check(raw)
            except Exception as exc:  # an unparsable artifact is a failure
                problems.append(f"check raised {type(exc).__name__}: {exc}")
            if reference is not None and not problems:
                problems += workloads.compare(values, reference[op.name])
        results.append({"name": op.name, "latency_s": latency,
                        "digest": digest, "values": values,
                        "problems": problems})
    out = {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak_rss_mb,
           "reference": reference is not None, "ops": results,
           "setting": setting()}
    if tracer is not None:
        out["layers"] = spans.layer_metrics(tracer.spans)
    return out


def main(argv) -> int:
    workload, seed, workdir, result_path = argv[:4]
    seed = int(seed)
    result = run_rep(workload, seed, workdir, "--trace" in argv[4:],
                     load_reference(workload, seed))
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

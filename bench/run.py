"""dynpan benchmark: one workload, several fresh-process repetitions.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py`` and ``BENCHMARK.json``): ``scan-beta-1m``,
``scan-rho-multi`` and ``cli-batch``.  Every input comes from ``--seed``.

With ``--trace 0`` the run repeats the workload in a fresh process each
time, as often as fits in ``--seconds`` but at least three times, and
reports the medians of the end-to-end metrics.  Before each
repetition it times a few fresh interpreters importing ``dynpan.cli``;
``setup_s`` is the median of those samples.  With ``--trace 1`` it
alternates untraced and traced repetitions and reports the per-layer
metrics of the traced ones, plus the tracing overhead (traced minus
untraced ``wall_s``).  Every repetition checks its outputs; traced and
untraced repetitions must produce bit-identical outputs.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print the
same metrics as a table, with the measurement setting.  The exit status is
non-zero when an output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from spans import median_metrics

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".bench_work")

WORKLOADS = ("scan-beta-1m", "scan-rho-multi", "cli-batch")

#: Usable observations per pooled array (n_firms x 3 usable periods).
USABLE_OBS = {"scan-beta-1m": 600_000, "scan-rho-multi": 120_000,
              "cli-batch": 120_000}

#: setup_s samples taken before each untraced repetition, so that the
#: median spans the whole run rather than its first second.
SETUP_SAMPLES = 4
MIN_REPS = 3
#: A repetition is not started if it could end past this many seconds.
DEADLINE_S = 150.0
REP_TIMEOUT_S = 120.0

SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "import dynpan.cli; dynpan.cli.build_parser()")

#: Every measured process runs its BLAS on one thread.  The machine gives
#: the benchmark two shared cores; a BLAS pool spread over both of them
#: measures the other tenants' load more than the program (on the skinny
#: products here one thread is within 5% of two in wall time, at half the
#: CPU time).  Threads the program starts itself, such as the pool of
#: ``cli figure``, still run and still show in ``cpu_s``.
CHILD_ENV = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                 MKL_NUM_THREADS="1")


def setup_samples(n: int) -> list[float]:
    """Wall times of fresh interpreters importing dynpan.cli."""
    cmd = [sys.executable, "-c", SETUP_CODE, SRC]
    samples = []
    for _ in range(n):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, env=CHILD_ENV)
        samples.append(time.perf_counter() - t0)
    return samples


def run_rep(workload: str, seed: int, traced: bool) -> dict:
    workdir = tempfile.mkdtemp(dir=WORKDIR)
    try:
        result_path = os.path.join(workdir, "result.json")
        cmd = [sys.executable, os.path.join(BENCH, "rep.py"), workload,
               str(seed), workdir, result_path] + (["--trace"] if traced
                                                    else [])
        proc = subprocess.run(cmd, timeout=REP_TIMEOUT_S, env=CHILD_ENV)
        if proc.returncode != 0:
            raise RuntimeError(f"repetition exited with {proc.returncode}")
        with open(result_path, encoding="utf-8") as fh:
            return json.load(fh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def quantile(values, q: int) -> float:
    """The q-th percentile (q in 1..99), interpolating between samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    os.makedirs(WORKDIR, exist_ok=True)
    setup_samples(1)  # untimed: writes the bytecode cache
    start = time.perf_counter()
    setup = []
    plain, traced = [], []
    rounds = []
    while True:
        t0 = time.perf_counter()
        for is_traced in ((False, True) if trace else (False,)):
            if not trace:
                setup += setup_samples(SETUP_SAMPLES)
            (traced if is_traced else plain).append(
                run_rep(workload, seed, is_traced))
        rounds.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if elapsed + max(rounds) > DEADLINE_S:
            break
        # a round is started only if it should end inside the window, so
        # a run lasts about --seconds however long its repetitions take
        if ((trace or len(plain) >= MIN_REPS)
                and elapsed + statistics.median(rounds) > seconds):
            break

    reps = plain + traced
    attempted = failed = 0
    problems = []
    # every repetition of one seed must give the same outputs, bit for bit
    digests = {}
    for r in reps:
        for op in r["ops"]:
            attempted += 1
            expected = digests.setdefault(op["name"], op["digest"])
            if op["digest"] != expected:
                op["problems"].append("outputs differ between repetitions")
            if op["problems"]:
                failed += 1
                problems += [f"{op['name']}: {p}" for p in op["problems"]]

    lines = [f"workload {workload}  seed {seed}  trace {int(trace)}  "
             f"repetitions {len(plain)} untraced, {len(traced)} traced"]
    metrics = {}
    if trace:
        layers = median_metrics([r["layers"] for r in traced])
        layers["trace.wall_s"] = (
            statistics.median(r["wall_s"] for r in traced), "s")
        # each traced repetition runs right after an untraced one; the
        # median of the pairwise differences is less exposed to drift in
        # machine speed than a difference of medians
        layers["trace.overhead_s"] = (statistics.median(
            t["wall_s"] - p["wall_s"] for p, t in zip(plain, traced)), "s")
        metrics = layers
    else:
        latencies = sorted(op["latency_s"] for r in plain for op in r["ops"])
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (statistics.median(r["wall_s"] for r in plain), "s"),
            "cpu_s": (statistics.median(r["cpu_s"] for r in plain), "s"),
            "peak_rss_mb": (statistics.median(
                r["peak_rss_mb"] for r in plain), "MB"),
            "op_p50_s": (statistics.median(latencies), "s"),
            "op_p90_s": (quantile(latencies, 90), "s"),
        }
        lines.append(f"  operations per repetition "
                     f"{len(plain[0]['ops'])}; latency samples "
                     f"{len(latencies)}")
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:<48} {value:>16.6f} {unit}")
    lines.append(f"  {'ops_failed_frac':<48} {failed / attempted:>16.6f} "
                 "fraction")
    setting = reps[0]["setting"]
    obs = USABLE_OBS[workload]
    llc = setting["llc_bytes"]
    lines.append("# setting " + json.dumps(setting, sort_keys=True))
    lines.append(
        f"# working set: {obs} usable obs x 8 B = {obs * 8 / 1e6:.2f} MB "
        f"per array against a {llc / 2 ** 20:.0f} MiB last-level cache: "
        "cache-resident, not a bandwidth measurement")
    lines.append("# reference values: " + (
        "compared" if reps[0]["reference"] else
        f"none recorded for seed {seed}; range checks only"))
    for p in problems[:20]:
        lines.append(f"# FAILED {p}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dynpan", "cli.py")):
        print(f"dynpan sources not found under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

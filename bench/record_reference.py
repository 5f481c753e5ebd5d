"""Record the reference values that later runs are compared against.

    python3 bench/record_reference.py [FIRST_SEED LAST_SEED]

Runs every workload once per seed (0 to 23 by default) and writes
``bench/reference.json``.  Run it only on the commit whose outputs define
correct; the file in the repository was recorded from the seed code,
dynpan 0.1.0, before any optimisation.  A seed whose output fails a range
check is reported and left out.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import rep
import workloads


def _rounded(value):
    """Twelve significant digits: far inside the comparison tolerance."""
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_rounded(v) for v in value]
    if isinstance(value, float):
        return float(f"{value:.12g}")
    return value


def main(argv) -> int:
    first, last = (int(v) for v in argv) if argv else (0, 23)
    out = {"recorded_with": "dynpan 0.1.0 (seed code)",
           "setting": rep.setting(), "workloads": {}}
    scratch = os.path.join(rep.ROOT, ".bench_work")
    os.makedirs(scratch, exist_ok=True)
    status = 0
    for name in workloads.WORKLOADS:
        recorded = out["workloads"][name] = {}
        for seed in range(first, last + 1):
            workdir = tempfile.mkdtemp(dir=scratch)
            try:
                result = rep.run_rep(name, seed, workdir, False, None)
            finally:
                shutil.rmtree(workdir)
            problems = [p for op in result["ops"] for p in op["problems"]]
            if problems:
                print(f"{name} seed {seed}: not recorded: {problems}",
                      file=sys.stderr)
                status = 1
                continue
            recorded[str(seed)] = {op["name"]: _rounded(op["values"])
                                   for op in result["ops"]}
            print(f"{name} seed {seed}: {result['wall_s']:.2f} s",
                  file=sys.stderr)
    with open(os.path.join(rep.BENCH, "reference.json"), "w",
              encoding="utf-8") as fh:
        json.dump(out, fh, indent=None, separators=(",", ":"))
        fh.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env bash
# The steps of the CI workflow (.github/workflows/tests.yml), one function
# each.  The workflow runs every step as `bash tools/ci.sh <step>`, so each
# step is written down here only, and a local run executes the same commands.
#
#   bash tools/ci.sh <step>   run one step
#   bash tools/ci.sh all      run every step, in workflow order
#   bash tools/ci.sh list     print the step names, in workflow order
#
# Run from any directory; the steps run at the repository root and write
# their command outputs under ci/ (ignored by git).  Every step after
# `install` expects the `dynpan` console script on PATH.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

STEPS=(install tier1 unclosed_files moment_bits_one_blas_thread
       reproduce_diagnose reproduce_estimate reproduce_scan reproduce_figure
       reproduce_simulate failed_run_leaves_nothing out_file_must_be_plain
       nonfinite_config_rejected bench_tests
       bench_scan_rho_multi bench_scan_beta_1m bench_cli_batch)

install() {
    pip install -e '.[test]'
}

tier1() {
    PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q \
        --continue-on-collection-errors
}

# A test of the CLI or the simulator that leaves a file open fails: pytest's
# own -W turns the ResourceWarning, and the unraisable-exception warning
# pytest reports it as, into errors.  (python -W alone only prints it.)
unclosed_files() {
    PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -X dev -m pytest -q \
        -W error::ResourceWarning \
        -W error::pytest.PytestUnraisableExceptionWarning \
        tests/test_cli.py tests/test_simulate.py
}

# tier1 runs with the runner's default BLAS thread count; the pinned moment
# and panel bits must also hold with BLAS on one thread.
moment_bits_one_blas_thread() {
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} \
        python -m pytest -q \
        tests/test_estimate.py::test_moments_match_their_recorded_hashes \
        tests/test_simulate.py::TestPinnedBits
}

# Each reproduce step runs a command, reruns it from its manifest and
# compares the artifacts byte for byte.
reproduce_diagnose() {
    rm -rf ci/a ci/b
    dynpan diagnose --seed 1 --n-firms 2000 --out-dir ci/a
    dynpan diagnose --config ci/a/run.manifest --out-dir ci/b
    cmp ci/a/run.manifest ci/b/run.manifest
}

reproduce_estimate() {
    rm -rf ci/e ci/f
    dynpan estimate --seed 1 --n-firms 2000 --out-dir ci/e
    dynpan estimate --config ci/e/run.manifest --out-dir ci/f
    cmp ci/e/run.manifest ci/f/run.manifest
}

reproduce_scan() {
    rm -rf ci/s ci/t
    dynpan scan --seed 1 --n-firms 2000 --grid 0:2:0.05 --out-dir ci/s
    dynpan scan --config ci/s/run.manifest --out-dir ci/t
    cmp ci/s/curve.csv ci/t/curve.csv
    cmp ci/s/run.manifest ci/t/run.manifest
}

reproduce_figure() {
    rm -rf ci/g ci/h
    dynpan figure --which 5 --seed 1 --n-firms 2000 --grid 0:2.2:0.1 \
        --out-dir ci/g
    dynpan figure --config ci/g/run.manifest --out-dir ci/h
    for f in ci/g/figure5_*.csv ci/g/run.manifest; do
        cmp "$f" "ci/h/$(basename "$f")"
    done
}

reproduce_simulate() {
    rm -rf ci/u ci/v
    dynpan simulate --seed 1 --n-firms 2000 --out-dir ci/u
    dynpan simulate --config ci/u/run.manifest --out-dir ci/v
    cmp ci/u/panel.csv ci/v/panel.csv
    cmp ci/u/run.manifest ci/v/run.manifest
}

failed_run_leaves_nothing() {
    rm -rf ci/bad
    if dynpan estimate --n-periods 2 --out-dir ci/bad; then exit 1; fi
    test ! -e ci/bad
}

# An output file name with a directory part is rejected before any write.
out_file_must_be_plain() {
    rm -rf ci/o ci/p.csv
    for name in x/ a/b.csv ../p.csv; do
        if dynpan simulate --n-firms 10 --out "$name" --out-dir ci/o; then
            exit 1
        fi
        test ! -e ci/o
    done
    test ! -e ci/p.csv
}

# A non-finite number in a config file exits 1 with one JSON error record
# that names its key, before any write.
nonfinite_config_rejected() {
    mkdir -p ci
    rm -rf ci/n ci/nonfinite.cfg ci/nonfinite.err
    local case command line status
    for case in "simulate:dgp.theta = inf" "estimate:dgp.beta = nan"; do
        command=${case%%:*}
        line=${case#*:}
        printf '%s\n' "$line" > ci/nonfinite.cfg
        status=0
        dynpan "$command" --config ci/nonfinite.cfg --out-dir ci/n \
            2> ci/nonfinite.err || status=$?
        test "$status" -eq 1
        test "$(wc -l < ci/nonfinite.err)" -eq 1
        python3 -c 'import json, sys
record = json.loads(open(sys.argv[1]).read())
assert record["error"] == "ValidationError", record
assert record["message"].startswith(sys.argv[2] + ": "), record' \
            ci/nonfinite.err "${line%% =*}"
        test ! -e ci/n
    done
}

bench_tests() {
    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
}

bench_scan_rho_multi() {
    python3 bench/run.py --workload scan-rho-multi --seed 0 --seconds 1
}

bench_scan_beta_1m() {
    python3 bench/run.py --workload scan-beta-1m --seed 0 --seconds 1
}

bench_cli_batch() {
    python3 bench/run.py --workload cli-batch --seed 0 --seconds 1
}

main() {
    case "${1:-}" in
        all)
            for step in "${STEPS[@]}"; do
                echo "== $step"
                "$step"
            done ;;
        list)
            printf '%s\n' "${STEPS[@]}" ;;
        *)
            local step
            for step in "${STEPS[@]}"; do
                if [[ "${1:-}" == "$step" ]]; then
                    "$step"
                    return
                fi
            done
            echo "usage: bash tools/ci.sh all|list|<step>;" \
                 "steps: ${STEPS[*]}" >&2
            exit 2 ;;
    esac
}

main "$@"

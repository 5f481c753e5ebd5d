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
# their command outputs under ci/ (ignored by git).  The steps after
# `install` call the `dynpan` console script; in a checkout where it is not
# on PATH, `dynpan` runs the package's CLI module from src/ instead.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

if ! command -v dynpan > /dev/null; then
    dynpan() {
        PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python3 -m dynpan.cli "$@"
    }
fi

STEPS=(install tier1 unclosed_files moment_bits_one_blas_thread
       pins_across_kernels
       reproduce_diagnose reproduce_estimate reproduce_scan reproduce_figure
       reproduce_simulate panel_csv_matches_oracle batch_matches_commands failed_run_leaves_nothing out_file_must_be_plain
       nonfinite_config_rejected bad_value_rejected_alike
       one_firm_panels_exit_cleanly long_scan_holds_no_fits bench_tests
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

# tier1 runs with the runner's default BLAS thread count; the pinned moment,
# panel and artifact bits must also hold with BLAS on one thread.
moment_bits_one_blas_thread() {
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} \
        python -m pytest -q \
        tests/test_estimate.py::test_moments_match_their_recorded_hashes \
        tests/test_simulate.py::TestPinnedBits \
        tests/test_cli.py::test_artifacts_match_their_recorded_hashes
}

# tests/conftest.py runs the suite under one kernel baseline, overwriting
# whatever the environment asks for, so the pins hold under every outer
# OpenBLAS kernel (SkylakeX only on a host with AVX-512), with and without
# numpy's dispatch targets above X86_V3 disabled.
pins_across_kernels() {
    local core cores=(Haswell Zen) features
    if grep -qw avx512f /proc/cpuinfo; then
        cores+=(SkylakeX)
    fi
    for core in "${cores[@]}"; do
        for features in "" "X86_V4 AVX512_ICL AVX512_SPR"; do
            echo "== OPENBLAS_CORETYPE=$core NPY_DISABLE_CPU_FEATURES='$features'"
            env -u NPY_DISABLE_CPU_FEATURES OPENBLAS_CORETYPE="$core" \
                ${features:+NPY_DISABLE_CPU_FEATURES="$features"} \
                PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q \
                tests/test_kernel_baseline.py \
                tests/test_estimate.py::test_moments_match_their_recorded_hashes \
                tests/test_simulate.py::TestPinnedBits \
                tests/test_cli.py::test_artifacts_match_their_recorded_hashes
        done
    done
}

# Each reproduce step runs a command into ci/<first>, reruns it from its
# manifest into ci/<second> and compares the two directories, every
# artifact and the manifest, byte for byte.
#
#   reproduce <first> <second> <command> [<flag>...]
reproduce() {
    local first=ci/$1 second=ci/$2 command=$3
    shift 3
    rm -rf "$first" "$second"
    dynpan "$command" "$@" --out-dir "$first"
    dynpan "$command" --config "$first/run.manifest" --out-dir "$second"
    diff -r "$first" "$second"
}

reproduce_diagnose() {
    reproduce a b diagnose --seed 1 --n-firms 2000
}

reproduce_estimate() {
    reproduce e f estimate --seed 1 --n-firms 2000
}

reproduce_scan() {
    reproduce s t scan --seed 1 --n-firms 2000 --grid 0:2:0.05
}

reproduce_figure() {
    reproduce g h figure --which 5 --seed 1 --n-firms 2000 --grid 0:2.2:0.1
}

reproduce_simulate() {
    reproduce u v simulate --seed 1 --n-firms 2000
}

# A 40,000-firm panel CSV equals, byte for byte, the panel written one repr
# per value by tests/oracles.py.  Panels this size hold values on both sides
# of repr's switches to exponent notation (below 1e-4, from 1e16 up), which
# the writer hands to repr itself.  arma_x's eps is all zeros unless its
# scale is set.
panel_csv_matches_oracle() {
    rm -rf ci/csv ci/sigma_eps.cfg
    mkdir -p ci
    printf 'dgp.ext.sigma_eps = 0.5\n' > ci/sigma_eps.cfg
    dynpan simulate --variant benchmark --n-firms 40000 \
        --out-dir ci/csv/benchmark
    dynpan simulate --variant multi_input --n-firms 40000 \
        --out-dir ci/csv/multi_input
    dynpan simulate --config ci/sigma_eps.cfg --variant arma_x \
        --n-firms 40000 --out-dir ci/csv/arma_x
    PYTHONPATH=src:tests${PYTHONPATH:+:$PYTHONPATH} python3 -c 'import sys
from dynpan.cli import config_to_spec, parse_config_text, resolve_config
from dynpan.simulate import draw_panel
from oracles import panel_csv_text
for run in sys.argv[1:]:
    with open(run + "/run.manifest") as fh:
        cfg = resolve_config(parse_config_text(fh.read()), {})
    with open(run + "/" + cfg["out.file"], "rb") as fh:
        got = fh.read()
    if got != panel_csv_text(draw_panel(config_to_spec(cfg))).encode():
        sys.exit(run + ": panel CSV differs from the repr oracle")' \
        ci/csv/benchmark ci/csv/multi_input ci/csv/arma_x
}

# Three commands on one panel write the same bytes as three processes and
# as one batch in one process, where they share the panel.
batch_matches_commands() {
    rm -rf ci/m ci/w ci/pseudo.cfg
    mkdir -p ci
    printf 'diagnose.point = pseudo\n' > ci/pseudo.cfg
    dynpan estimate --seed 1 --n-firms 2000 --out-dir ci/m/estimate
    dynpan diagnose --seed 1 --n-firms 2000 --out-dir ci/m/truth
    dynpan diagnose --config ci/pseudo.cfg --seed 1 --n-firms 2000 \
        --out-dir ci/m/pseudo
    PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python3 -c 'import sys
from dynpan.cli import main
for out, argv in (("estimate", ["estimate"]), ("truth", ["diagnose"]),
                  ("pseudo", ["diagnose", "--config", "ci/pseudo.cfg"])):
    argv += ["--seed", "1", "--n-firms", "2000", "--out-dir", "ci/w/" + out]
    if main(argv) != 0:
        sys.exit(1)'
    for f in ci/m/*/*; do
        cmp "$f" "ci/w/${f#ci/m/}"
    done
    test "$(ls ci/m/*/* | wc -l)" -eq "$(ls ci/w/*/* | wc -l)"
}

# A panel too short to estimate, and one too large to allocate (numpy
# refuses 10**15 x 5 doubles before it reserves any memory), exit 1 and
# leave no output directory; the second writes one error record, not a
# traceback.
failed_run_leaves_nothing() {
    rm -rf ci/bad
    mkdir -p ci
    if dynpan estimate --n-periods 2 --out-dir ci/bad; then exit 1; fi
    test ! -e ci/bad
    local status=0
    dynpan simulate --n-firms 1000000000000000 --out-dir ci/bad \
        2> ci/bad.err || status=$?
    test "$status" -eq 1
    test "$(wc -l < ci/bad.err)" -eq 1
    test ! -e ci/bad
}

# An output file name with a directory part, and a string value its
# manifest line could not carry back (a '#', or a byte that is not UTF-8),
# are rejected before any write.
out_file_must_be_plain() {
    rm -rf ci/o ci/p.csv
    for name in x/ a/b.csv ../p.csv 'a#b.csv' $'\xff.csv'; do
        if dynpan simulate --n-firms 10 --out "$name" --out-dir ci/o; then
            exit 1
        fi
        test ! -e ci/o
    done
    test ! -e ci/p.csv
    if dynpan simulate --n-firms 10 --grid '0:2:0.1#x' --out-dir ci/o; then
        exit 1
    fi
    test ! -e ci/o
}

# rejected <key> <dynpan argument>...: the run exits 1 with one JSON error
# record whose message starts with <key>, and writes no output directory.
rejected() {
    local key=$1 status=0
    shift
    rm -rf ci/n
    dynpan "$@" --out-dir ci/n 2> ci/rejected.err || status=$?
    test "$status" -eq 1
    test "$(wc -l < ci/rejected.err)" -eq 1
    python3 -c 'import json, sys
record = json.loads(open(sys.argv[1]).read())
assert record["error"] == "ValidationError", record
assert record["message"].startswith(sys.argv[2] + ": "), record' \
        ci/rejected.err "$key"
    test ! -e ci/n
}

# A non-finite number in a config file is rejected by its key.
nonfinite_config_rejected() {
    local case command line
    mkdir -p ci
    for case in "simulate:dgp.theta = inf" "estimate:dgp.beta = nan"; do
        command=${case%%:*}
        line=${case#*:}
        printf '%s\n' "$line" > ci/nonfinite.cfg
        rejected "${line%% =*}" "$command" --config ci/nonfinite.cfg
    done
}

# A value a key cannot take is rejected by its key alike from a flag and
# from a config file, also by a command that does not read the key, so no
# manifest records it.
bad_value_rejected_alike() {
    local case command flag key value
    mkdir -p ci
    for case in simulate:--seed:dgp.seed:abc \
                simulate:--variant:dgp.variant:bogus \
                scan:--sign-theta:estimate.sign:sideways \
                simulate:--which:figure.which:9 \
                estimate:--method:estimate.method:two-step \
                simulate:--grid:scan.grid:foo; do
        IFS=: read -r command flag key value <<< "$case"
        rejected "$key" "$command" "$flag" "$value"
        printf '%s = %s\n' "$key" "$value" > ci/bad_value.cfg
        rejected "$key" "$command" --config ci/bad_value.cfg
    done
}

# Tiny panels report a degenerate reduced form instead of failing.  One firm
# at five periods pools as many rows as the reduced form has coefficients
# (an exact fit); one firm at six periods (seed 8) and two firms at four
# (seed 22) fit, but invert to a non-stationary branch.  Estimate writes the
# diagnosis and diagnose still reports.
one_firm_panels_exit_cleanly() {
    rm -rf ci/one
    local run firms periods seed
    for run in 1:5:1 1:5:2 1:6:8 2:4:22; do
        IFS=: read -r firms periods seed <<< "$run"
        dynpan estimate --n-firms "$firms" --n-periods "$periods" \
            --seed "$seed" --out-dir "ci/one/e$firms-$periods-$seed"
        grep -q '^# degenerate,' "ci/one/e$firms-$periods-$seed/estimate.csv"
    done
    dynpan diagnose --n-firms 1 --seed 2 --out-dir ci/one/d2
}

# A scan keeps its moments and one concentration plan, not a fit per grid
# point.  Run in two fresh interpreters, a 100,001-point scan of a
# 2,000-firm panel peaks less than 100 MB above a 1,001-point one; a fit
# kept per point (about 2.3 KB each) took it about 280 MB above.
long_scan_holds_no_fits() {
    local grid peak=()
    rm -rf ci/scan
    for grid in 0:2:0.002 0:2:0.00002; do
        peak+=("$(PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python3 -c '
import resource, sys
from dynpan.cli import main
if main(["scan", "--n-firms", "2000", "--grid", sys.argv[1],
         "--out-dir", sys.argv[2]]) != 0:
    sys.exit(1)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)' \
            "$grid" "ci/scan/${#peak[@]}")")
    done
    echo "peak RSS: ${peak[0]} KB at 1,001 points, ${peak[1]} KB at 100,001"
    test $((peak[1] - peak[0])) -lt $((100 * 1024))
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

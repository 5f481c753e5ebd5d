"""Tests of the benchmark itself, on small panels.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import math
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import spans  # noqa: E402
import workloads  # noqa: E402
from dynpan import cli, diagnostics, identify  # noqa: E402

SMALL = {
    "scan-beta-1m": dict(n_firms=4_000, grid="0:2:0.05"),
    "scan-rho-multi": dict(n_firms=4_000, grid="-0.9:0.9:0.05"),
    "cli-batch": dict(n_firms=3_000, n_seeds=2),
}

BINDINGS = {
    identify: ("beta_scan_evaluator", "concentrate_rho", "fit_reduced_form"),
    diagnostics: ("two_sls",),
    cli: ("draw_panel", "write_panel_csv", "scan_curve", "find_zeros",
          "find_local_minima", "two_step_estimator", "residual_sign_test",
          "moment_inequality", "ar_order_test"),
}


def _run(name, workdir, tracer=None):
    ops = workloads.WORKLOADS[name](1, str(workdir), **SMALL[name])
    if tracer is not None:
        tracer.install()
    try:
        raws = []
        for op in ops:
            if tracer is not None:
                tracer.op = op.name
            raws.append(op.run())
    finally:
        if tracer is not None:
            tracer.uninstall()
    return ops, raws


def test_every_binding_is_wrapped_and_restored():
    originals = {(m, a): getattr(m, a) for m, names in BINDINGS.items()
                 for a in names}
    tracer = spans.Tracer()
    tracer.install()
    try:
        for (module, attr), fn in originals.items():
            wrapped = getattr(module, attr)
            assert wrapped is not fn, f"{module.__name__}.{attr}"
            assert wrapped.__wrapped__ is fn
    finally:
        tracer.uninstall()
    for (module, attr), fn in originals.items():
        assert getattr(module, attr) is fn


@pytest.mark.parametrize("name", ["scan-beta-1m", "scan-rho-multi"])
def test_span_counts_match_outputs(name, tmp_path):
    tracer = spans.Tracer()
    _, (raw,) = _run(name, tmp_path, tracer)
    curve = raw[0] if isinstance(raw, tuple) else raw

    def evals(parent_name):
        return sum(1 for s in tracer.spans if s.name in spans.EVALUATORS
                   and s.parent is not None and s.parent.name == parent_name)

    assert evals("identify.scan_curve") == curve.grid.size
    # a bisection step that raises ends its root early without counting
    early_breaks = sum(1 for r in curve.zeros if math.isnan(r.m_value))
    assert evals("identify.find_zeros") == \
        sum(r.iterations for r in curve.zeros) + early_breaks
    assert evals("identify.find_local_minima") == len(curve.minima)
    layers = spans.layer_metrics(tracer.spans)
    assert layers["identify.find_zeros.roots"][0] == len(curve.zeros)
    assert layers["identify.scan_curve.points"][0] == curve.grid.size
    if name == "scan-rho-multi":
        # the multi_input rho curve has poles: sign changes that bisection
        # cannot converge on, reported as roots, not as failures
        assert early_breaks > 0
        assert layers["identify.find_zeros.roots_converged"][0] < \
            layers["identify.find_zeros.roots"][0]
        assert layers["identify.warm_start_pipeline.evals"][0] > 0


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_outputs_are_bit_identical(name, tmp_path):
    digests = []
    for traced in (False, True):
        workdir = tmp_path / str(traced)
        workdir.mkdir()
        ops, raws = _run(name, workdir, spans.Tracer() if traced else None)
        checked = [op.check(raw) for op, raw in zip(ops, raws)]
        digests.append([(values, digest) for values, digest, _ in checked])
    assert digests[0] == digests[1]


def test_cli_batch_traces_every_command(tmp_path):
    tracer = spans.Tracer()
    ops, raws = _run("cli-batch", tmp_path, tracer)
    assert raws == [0] * len(ops)
    layers = spans.layer_metrics(tracer.spans)
    for command in spans.CLI_COMMANDS:
        assert layers[f"cli.{command}.s"][0] > 0
    assert layers["simulate.write_panel_csv.bytes"][0] == os.path.getsize(
        tmp_path / "simulate" / "panel.csv")
    assert layers["cli.figure.parallel_ratio"][0] > 0
    assert layers["estimate.two_sls.calls"][0] > 0


def test_benchmark_json_names_every_layer_metric():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    produced = set(spans.layer_metrics([])) | {"trace.wall_s",
                                               "trace.overhead_s"}
    assert declared == produced


def test_compare_flags_drift_beyond_tolerance():
    want = {"m": [1.0, -0.5, 1e-12], "zeros": [[0.6, True]]}
    assert workloads.compare(want, want) == []
    near = {"m": [1.0 + 1e-10, -0.5, 2e-12], "zeros": [[0.6 + 1e-6, True]]}
    assert workloads.compare(near, want) == []
    far = {"m": [1.0 + 1e-6, -0.5, 1e-12], "zeros": [[0.6, False]]}
    assert len(workloads.compare(far, want)) == 2

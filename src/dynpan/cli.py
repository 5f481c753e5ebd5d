"""Batch command-line interface.

Commands: ``simulate`` (panel CSV), ``scan`` (objective-curve CSV),
``estimate`` (two-branch reduced-form estimate CSV), ``diagnose``
(residual-sign, moment-inequality, and input-AR-order reports), and
``figure`` (the five preset scan batteries over model-variant grids).

Configuration is flat ``key = value`` text with dotted sections (see
``CONFIG_SCHEMA``); ``#`` starts a comment.  Unknown keys are rejected.
Every run writes ``run.manifest`` into the output directory: the resolved
configuration (defaults included) in the same format, plus the build
identifier and the SHA-256 of each artifact as trailing comments, so a run
can be reproduced byte-for-byte from its manifest alone with
``dynpan <command> --config run.manifest``.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import functools
import hashlib
import json
import os
import pathlib
import sys
import tempfile

import numpy as np

from . import __version__
from .errors import DynpanError, ValidationError
from .estimate import _fmt
from .model import ParamPoint, StructuralParams, _theta_sign, pseudo_point
from .simulate import (
    DgpSpec,
    VARIANTS,
    VariantParams,
    draw_panel,
    write_panel_csv,
)
from .identify import (
    find_local_minima,
    find_zeros,
    scan_curve,
    two_step_estimator,
    write_curve_csv,
    write_estimate_csv,
)
from .diagnostics import (
    ar_order_test,
    moment_inequality,
    residual_sign_test,
    write_diagnostic_csv,
)

_STRUCT_FIELDS = ("beta", "theta", "rho_omega", "rho_x", "alpha", "pi",
                  "sigma_xi", "sigma_u", "sigma_eta")
_EXT_FIELDS = tuple(f.name for f in dataclasses.fields(VariantParams))

#: key -> (type, default).  The resolved mapping is the whole run state.
CONFIG_SCHEMA = {
    "command": (str, ""),
    "out.dir": (str, "."),
    "out.file": (str, "panel.csv"),
    "dgp.variant": (str, "benchmark"),
    "dgp.n_firms": (int, 40_000),
    "dgp.n_periods": (int, 5),
    "dgp.seed": (int, 0),
    "scan.axis": (str, "beta"),
    "scan.grid": (str, "0:2:0.005"),
    "scan.family": (str, "quasi_diff"),
    "estimate.method": (str, "two_step"),
    "estimate.sign": (str, "positive"),
    "diagnose.point": (str, "truth"),
    "diagnose.sign": (str, "positive"),
    "diagnose.alpha": (float, 0.0),
    "diagnose.beta": (float, 0.0),
    "diagnose.rho": (float, 0.0),
    "figure.which": (int, 1),
}
for _name, _default in (("beta", 0.6), ("theta", 1.0), ("rho_omega", 0.7),
                        ("rho_x", 0.5), ("alpha", 1.0), ("pi", 0.0),
                        ("sigma_xi", 1.0), ("sigma_u", 1.0),
                        ("sigma_eta", 1.0)):
    CONFIG_SCHEMA[f"dgp.{_name}"] = (float, _default)
for _f in dataclasses.fields(VariantParams):
    CONFIG_SCHEMA[f"dgp.ext.{_f.name}"] = (float, _f.default)

#: Figure presets: (variant, swept ext field, values).  The first value of
#: each sweep reproduces the benchmark member of the family.
FIGURE_PRESETS = {
    1: ("nonlinear_omega_input", "theta2", (0.0, 0.5, 1.0)),
    2: ("logistic_kappa", "theta2", (0.5, 0.75)),
    3: ("ar2_kappa", "rho2_x", (0.02, 0.1, 0.2, 0.3, 0.4, 0.5)),
    4: ("arma_x", "sigma_eps",
        (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)),
    5: ("reversed_curvature", None, (None,)),
}


def parse_config_text(text: str) -> dict:
    """Parse flat key = value lines; '#' starts a comment."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"line {lineno}: expected key = value",
                                  field="config")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def resolve_config(file_values: dict, overrides: dict) -> dict:
    """Defaults, then config file, then command-line overrides; typed."""
    resolved = {k: default for k, (_, default) in CONFIG_SCHEMA.items()}
    for source in (file_values, overrides):
        for key, value in source.items():
            if key not in CONFIG_SCHEMA:
                raise ValidationError(f"unknown configuration key {key!r}",
                                      field=key)
            kind = CONFIG_SCHEMA[key][0]
            try:
                resolved[key] = kind(value)
            except (TypeError, ValueError) as exc:
                raise ValidationError(
                    f"cannot read {key} = {value!r} as {kind.__name__}",
                    field=key) from exc
            if kind is float and not np.isfinite(resolved[key]):
                raise ValidationError(f"must be a finite number, got "
                                      f"{value!r}", field=key)
    name = resolved["out.file"]
    if name in ("", ".", "..") or "/" in name or os.sep in name:
        raise ValidationError(f"must be a plain file name, got {name!r}",
                              field="out.file")
    return resolved


def config_to_spec(cfg: dict) -> DgpSpec:
    structural = StructuralParams(
        **{name: cfg[f"dgp.{name}"] for name in _STRUCT_FIELDS})
    ext = VariantParams(**{name: cfg[f"dgp.ext.{name}"]
                           for name in _EXT_FIELDS})
    return DgpSpec(variant=cfg["dgp.variant"], structural=structural,
                   n_firms=cfg["dgp.n_firms"], n_periods=cfg["dgp.n_periods"],
                   seed=cfg["dgp.seed"], ext=ext)


#: Largest grid a scan accepts; each point is one moment evaluation.
MAX_GRID_POINTS = 1_000_000


def parse_grid(text: str) -> np.ndarray:
    try:
        lo, hi, step = (float(v) for v in text.split(":"))
    except ValueError as exc:
        raise ValidationError(f"grid must be lo:hi:step, got {text!r}",
                              field="scan.grid") from exc
    if not np.isfinite((lo, hi, step)).all():
        raise ValidationError(f"grid bounds and step must be finite, got "
                              f"{text!r}", field="scan.grid")
    if step <= 0 or hi <= lo:
        raise ValidationError("grid needs hi > lo and step > 0",
                              field="scan.grid")
    if (hi - lo) / step + 0.5 > MAX_GRID_POINTS:
        raise ValidationError(f"grid {text!r} has more than "
                              f"{MAX_GRID_POINTS} points", field="scan.grid")
    grid = np.round(np.arange(lo, hi + 0.5 * step, step), 10)
    if np.any(np.diff(grid) <= 0):
        raise ValidationError(f"grid step {step!r} is too fine: rounding "
                              "to 1e-10 merges points", field="scan.grid")
    return grid


class _Outputs:
    """Collects artifacts so the manifest can record their hashes; the
    first artifact write makes the directory, so a failed run leaves none."""

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.files: list[str] = []

    def write(self, name: str, writer) -> None:
        """Write artifact ``name`` with the path-taking ``writer``."""
        self.files.append(name)
        _atomic_via(writer, os.path.join(self.out_dir, name))

    def write_manifest(self, cfg: dict) -> None:
        lines = ["# dynpan run manifest; reusable via --config"]
        for key in sorted(cfg):
            if key == "out.dir":  # destination is not run content
                continue
            lines.append(f"{key} = {cfg[key]}")
        lines.append(f"# build: dynpan {__version__}")
        for name in sorted(self.files):
            with open(os.path.join(self.out_dir, name), "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            lines.append(f"# sha256 {name} {digest}")
        _atomic_via(_lines_writer(lines),
                    os.path.join(self.out_dir, "run.manifest"))


def _atomic_via(writer, final_path) -> None:
    """Run a path-taking writer against a sibling temp file, then rename;
    the file's directory is made if missing."""
    directory = os.path.dirname(os.path.abspath(final_path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    os.close(fd)
    try:
        writer(tmp)
        os.replace(tmp, final_path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _lines_writer(lines):
    """A path-taking writer of ``lines`` as LF-terminated UTF-8 text."""
    text = "".join(f"{line}\n" for line in lines)
    return lambda path: pathlib.Path(path).write_text(
        text, encoding="utf-8", newline="\n")


def _cmd_simulate(cfg: dict, out: _Outputs) -> None:
    panel = draw_panel(config_to_spec(cfg))
    out.write(cfg["out.file"], lambda path: write_panel_csv(panel, path))


def _scan_one(spec: DgpSpec, cfg: dict):
    panel = draw_panel(spec)
    curve = scan_curve(panel, cfg["scan.axis"], parse_grid(cfg["scan.grid"]),
                       family=cfg["scan.family"])
    find_zeros(curve)
    find_local_minima(curve)
    return curve


def _cmd_scan(cfg: dict, out: _Outputs) -> None:
    curve = _scan_one(config_to_spec(cfg), cfg)
    out.write("curve.csv", lambda path: write_curve_csv(curve, path))


def _sign_label(cfg_value: str, field: str) -> str:
    label = f"theta_{cfg_value}"
    _theta_sign(label, field)
    return label


def _cmd_estimate(cfg: dict, out: _Outputs) -> None:
    if cfg["estimate.method"] != "two_step":
        raise ValidationError("only estimate.method = two_step is available",
                              field="estimate.method")
    panel = draw_panel(config_to_spec(cfg))
    result = two_step_estimator(
        panel, _sign_label(cfg["estimate.sign"], "estimate.sign"))
    out.write("estimate.csv", lambda path: write_estimate_csv(result, path))


def _cmd_diagnose(cfg: dict, out: _Outputs) -> None:
    spec = config_to_spec(cfg)
    panel = draw_panel(spec)
    which = cfg["diagnose.point"]
    if which == "truth":
        point = ParamPoint(spec.structural.alpha, spec.structural.beta,
                           spec.structural.rho_omega)
    elif which == "pseudo":
        point = pseudo_point(spec.structural)
    elif which == "custom":
        point = ParamPoint(cfg["diagnose.alpha"], cfg["diagnose.beta"],
                           cfg["diagnose.rho"])
    else:
        raise ValidationError(
            "diagnose.point must be truth, pseudo, or custom",
            field="diagnose.point")
    sign = _sign_label(cfg["diagnose.sign"], "diagnose.sign")
    for name, report in (
            ("diagnose_sign.csv", residual_sign_test(panel, point, sign)),
            ("diagnose_inequality.csv",
             moment_inequality(panel, point, sign)),
            ("diagnose_ar_order.csv", ar_order_test(panel))):
        out.write(name, lambda path, rep=report:
                  write_diagnostic_csv(rep, path))


def _cmd_figure(cfg: dict, out: _Outputs) -> None:
    which = cfg["figure.which"]
    if which not in FIGURE_PRESETS:
        raise ValidationError("figure.which must be 1..5",
                              field="figure.which")
    variant, sweep_field, values = FIGURE_PRESETS[which]
    base = dict(cfg)
    base["dgp.variant"] = variant

    jobs = []
    for value in values:
        sub = dict(base)
        label = variant if sweep_field is None else \
            f"{sweep_field}_{value:g}"
        if sweep_field is not None:
            sub[f"dgp.ext.{sweep_field}"] = value
        jobs.append((label, sub))

    def run_job(job):
        label, sub = job
        try:
            spec = config_to_spec(sub)
            spec.validate()
        except ValidationError as exc:
            return (label, None, f"rejected: {exc}")
        return (label, _scan_one(spec, sub), "ok")

    with concurrent.futures.ThreadPoolExecutor(
            max_workers=min(4, len(jobs))) as pool:
        results = list(pool.map(run_job, jobs))

    curves = [(label, curve) for label, curve, status in results
              if curve is not None]
    if not curves:
        raise ValidationError("every sub-model of the preset was rejected",
                              field="figure.which")

    # raw per-sub-model curve files
    for label, curve in curves:
        out.write(f"figure{which}_{label}.csv",
                  lambda path, c=curve: write_curve_csv(c, path))

    # plot file with objectives rescaled to agree at the lowest grid point
    ref = curves[0][1]
    ref_at_zero = ref.msq[0]
    header = ["axis_value"] + [label for label, _ in curves]
    rows = [",".join(header)]
    factors = []
    for _, curve in curves:
        base_val = curve.msq[0]
        factors.append(ref_at_zero / base_val
                       if np.isfinite(base_val) and base_val != 0.0 else 1.0)
    for i, g in enumerate(ref.grid):
        cells = [_fmt(g)]
        for (label, curve), factor in zip(curves, factors):
            cells.append(_fmt(curve.msq[i] * factor))
        rows.append(",".join(cells))
    out.write(f"figure{which}_plot.csv", _lines_writer(rows))

    # zeros/minima summary, including rejected sub-models
    lines = ["sub_model,status,zeros,minima"]
    status_by_label = {label: status for label, _, status in results}
    for label, _, status in results:
        if status != "ok":
            lines.append(f"{label},{status},,")
    for label, curve in curves:
        zeros = ";".join(_fmt(z.location) for z in curve.zeros if z.converged)
        minima = ";".join(_fmt(m.location) for m in curve.minima)
        lines.append(f"{label},{status_by_label[label]},{zeros},{minima}")
    out.write(f"figure{which}_summary.csv", _lines_writer(lines))


_COMMANDS = {
    "simulate": _cmd_simulate,
    "scan": _cmd_scan,
    "estimate": _cmd_estimate,
    "diagnose": _cmd_diagnose,
    "figure": _cmd_figure,
}


def run(cfg: dict) -> int:
    """Execute one resolved configuration; returns the exit status."""
    command = cfg["command"]
    if command not in _COMMANDS:
        raise ValidationError(
            f"command must be one of {', '.join(_COMMANDS)}",
            field="command")
    if cfg["dgp.variant"] not in VARIANTS:
        raise ValidationError(f"unknown variant {cfg['dgp.variant']!r}",
                              field="dgp.variant")
    out = _Outputs(cfg["out.dir"])
    _COMMANDS[command](cfg, out)
    out.write_manifest(cfg)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynpan",
        description="Simulation and estimation toolkit for dynamic-panel "
                    "pseudo-solutions")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="flat key = value configuration file")
        p.add_argument("--seed", type=int)
        p.add_argument("--out-dir")
        p.add_argument("--out", help="output file name (simulate)")
        p.add_argument("--method", help="estimator (two-step)")
        p.add_argument("--grid", help="scan grid as lo:hi:step")
        p.add_argument("--sign-theta", choices=("positive", "negative"))
        p.add_argument("--which", type=int, help="figure preset 1..5")
        p.add_argument("--n-firms", type=int)
        p.add_argument("--n-periods", type=int)
        p.add_argument("--variant", choices=VARIANTS)
    return parser


@functools.cache
def _main_parser() -> argparse.ArgumentParser:
    """The parser :func:`main` reads argv with, built once per process
    (parsing leaves it unchanged); :func:`build_parser` stays fresh."""
    return build_parser()


def _overrides_from_args(args) -> dict:
    flags = {"seed": "dgp.seed", "out_dir": "out.dir", "grid": "scan.grid",
             "sign_theta": "estimate.sign", "which": "figure.which",
             "n_firms": "dgp.n_firms", "n_periods": "dgp.n_periods",
             "variant": "dgp.variant", "out": "out.file"}
    out = {key: getattr(args, attr) for attr, key in flags.items()
           if getattr(args, attr, None) is not None}
    if getattr(args, "sign_theta", None) is not None:
        out["diagnose.sign"] = args.sign_theta
    if getattr(args, "method", None) is not None:
        out["estimate.method"] = args.method.replace("-", "_")
    return out


def main(argv=None) -> int:
    args = _main_parser().parse_args(argv)
    try:
        file_values = {}
        if args.config:
            try:
                with open(args.config, encoding="utf-8") as fh:
                    file_values = parse_config_text(fh.read())
            except UnicodeDecodeError as exc:
                raise ValidationError(f"{args.config} is not UTF-8 text: "
                                      f"{exc}", field="config") from exc
        cfg = resolve_config(file_values, _overrides_from_args(args))
        if cfg["command"] and cfg["command"] != args.command:
            raise ValidationError(
                f"config command {cfg['command']!r} conflicts with "
                f"subcommand {args.command!r}", field="command")
        cfg["command"] = args.command
        return run(cfg)
    except (DynpanError, OSError) as exc:
        record = {"error": type(exc).__name__, "message": str(exc),
                  "module": type(exc).__module__}
        print(json.dumps(record), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

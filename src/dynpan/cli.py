"""Batch command-line interface.

Commands: ``simulate`` (panel CSV), ``scan`` (objective-curve CSV),
``estimate`` (two-branch reduced-form estimate CSV), ``diagnose``
(residual-sign, moment-inequality, and input-AR-order reports), and
``figure`` (the five preset scan batteries over model-variant grids).

Configuration is flat ``key = value`` text with dotted sections (see
``CONFIG_SCHEMA``); ``#`` starts a comment.  ``resolve_config`` judges
every value once, where it enters, by the schema: unknown keys, values of
the wrong type and values outside a key's closed set are rejected alike
from a flag and from a file, whether or not the command reads the key.
Every run writes ``run.manifest`` into the output directory: the resolved
configuration (defaults included) in the same format, plus the build
identifier and the SHA-256 of each artifact as trailing comments, so a run
can be reproduced byte-for-byte from its manifest alone with
``dynpan <command> --config run.manifest``.

Commands run in one process (successive :func:`main` calls) reuse the
previous command's panel, and the moments cached on it, when their resolved
``dgp.*`` spec is identical (``repr``-equal, so ``-0.0`` is not ``0.0``).
Between commands the CLI holds at most that one panel, and releases it
before it draws another or starts a figure; no artifact byte changes.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import hashlib
import json
import os
import pathlib
import re
import sys
import tempfile

import numpy as np

from . import __version__
from .errors import DynpanError, ValidationError
from .model import ParamPoint, StructuralParams, pseudo_point
from .simulate import (
    DgpSpec,
    VARIANTS,
    VariantParams,
    draw_panel,
    write_panel_csv,
)
from .estimate import _FAMILIES
from .identify import (
    DEFAULT_BOUNDS,
    find_local_minima,
    find_zeros,
    scan_curve,
    two_step_estimator,
)
from .diagnostics import (
    ar_order_test,
    moment_inequality,
    residual_sign_test,
)

#: The structural parameters, each with its CLI default (``dgp.<name>``).
_STRUCT_DEFAULTS = {"beta": 0.6, "theta": 1.0, "rho_omega": 0.7, "rho_x": 0.5,
                    "alpha": 1.0, "pi": 0.0, "sigma_xi": 1.0, "sigma_u": 1.0,
                    "sigma_eta": 1.0}

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

#: key -> (type, default) or (type, default, values): a key with values
#: takes no other.  The resolved mapping is the whole run state.
CONFIG_SCHEMA = {
    "command": (str, ""),
    "out.dir": (str, "."),
    "out.file": (str, "panel.csv"),
    "dgp.variant": (str, "benchmark", VARIANTS),
    "dgp.n_firms": (int, 40_000),
    "dgp.n_periods": (int, 5),
    "dgp.seed": (int, 0),
    "scan.axis": (str, "beta", tuple(DEFAULT_BOUNDS)),
    "scan.grid": (str, "0:2:0.005"),
    "scan.family": (str, "quasi_diff", tuple(_FAMILIES)),
    "estimate.method": (str, "two_step", ("two_step",)),
    "estimate.sign": (str, "positive", ("positive", "negative")),
    "diagnose.point": (str, "truth", ("truth", "pseudo", "custom")),
    "diagnose.sign": (str, "positive", ("positive", "negative")),
    "diagnose.alpha": (float, 0.0),
    "diagnose.beta": (float, 0.0),
    "diagnose.rho": (float, 0.0),
    "figure.which": (int, 1, tuple(FIGURE_PRESETS)),
    **{f"dgp.{name}": (float, v) for name, v in _STRUCT_DEFAULTS.items()},
    **{f"dgp.ext.{f.name}": (float, f.default)
       for f in dataclasses.fields(VariantParams)},
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
    """Defaults, then config file, then command-line overrides; typed, and
    judged where they enter, alike from a flag or a file."""
    resolved = {k: entry[1] for k, entry in CONFIG_SCHEMA.items()}
    for source in (file_values, overrides):
        for key, value in source.items():
            if key not in CONFIG_SCHEMA:
                raise ValidationError(f"unknown configuration key {key!r}",
                                      field=key)
            kind, _, *closed = CONFIG_SCHEMA[key]
            try:
                resolved[key] = kind(value)
            except (TypeError, ValueError) as exc:
                raise ValidationError(
                    f"cannot read {key} = {value!r} as {kind.__name__}",
                    field=key) from exc
            if kind is float and not np.isfinite(resolved[key]):
                raise ValidationError(f"must be a finite number, got "
                                      f"{value!r}", field=key)
            if closed and resolved[key] not in closed[0]:
                raise ValidationError(
                    f"must be one of {', '.join(map(str, closed[0]))}, got "
                    f"{value!r}", field=key)
    grid = parse_grid(resolved["scan.grid"])
    lo, hi = DEFAULT_BOUNDS[resolved["scan.axis"]]
    if grid[0] < lo or grid[-1] > hi:  # scan_curve's check, for every command
        raise ValidationError(f"grid [{grid[0]}, {grid[-1]}] outside bounds "
                              f"[{lo}, {hi}]", field="scan.grid")
    name = resolved["out.file"]
    if name in ("", ".", "..") or "/" in name or os.sep in name:
        raise ValidationError(f"must be a plain file name, got {name!r}",
                              field="out.file")
    for key, entry in CONFIG_SCHEMA.items():
        # the manifest records the value as its own key = value line
        if entry[0] is str and key != "out.dir" and not _reads_back(
                key, resolved[key]):
            raise ValidationError(
                f"{resolved[key]!r} would not read back from the manifest: "
                "it holds a '#', a line break, surrounding whitespace or "
                "text that is not UTF-8", field=key)
    return resolved


def _reads_back(key: str, value: str) -> bool:
    """Whether ``key = value`` is UTF-8 that parses back to that pair."""
    try:
        f"{key} = {value}".encode("utf-8")
        return parse_config_text(f"{key} = {value}") == {key: value}
    except (UnicodeEncodeError, ValidationError):
        return False


def config_to_spec(cfg: dict) -> DgpSpec:
    structural = StructuralParams(
        **{name: cfg[f"dgp.{name}"] for name in _STRUCT_DEFAULTS})
    ext = VariantParams(**{f.name: cfg[f"dgp.ext.{f.name}"]
                           for f in dataclasses.fields(VariantParams)})
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
    # the half-step margin keeps a rounded hi; drop the point past it
    grid = np.round(np.arange(lo, hi + 0.5 * step, step), 10)
    grid = grid[grid <= np.round(hi, 10)]
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


def _fmt(value) -> str:
    """The float format of every artifact: ``repr``, the shortest decimal
    that round-trips the double.  ``write_panel_csv`` writes the panel in
    the same text, through orjson where its notation agrees with ``repr``."""
    return repr(float(value))


def _curve_lines(curve) -> list[str]:
    """axis_value,m,objective rows, the objective being m^2, plus a
    trailing comment block with the located zeros and minima."""
    return (["axis_value,m,objective"]
            + [",".join(map(_fmt, row))
               for row in zip(curve.grid, curve.m, curve.m * curve.m)]
            + [f"# axis,{curve.axis}"]
            + [f"# zero,{_fmt(root.location)},m={_fmt(root.m_value)},"
               f"converged={root.converged}" for root in curve.zeros]
            + [f"# minimum,{_fmt(mn.location)},objective={_fmt(mn.value)}"
               for mn in curve.minima])


def _estimate_lines(result) -> list[str]:
    """Both branches with labels; a degenerate result records its
    diagnosis."""
    lines = ["branch,selected,beta,theta,rho_omega,rho_x,alpha,pi"]
    if not result.degenerate:
        for br, selected in ((result.chosen, 1), (result.rejected, 0)):
            p = br.params
            values = (p.beta, p.theta, p.rho_omega, p.rho_x, p.alpha, p.pi)
            lines.append(f"{br.branch_sign},{selected},"
                         + ",".join(map(_fmt, values)))
    lines += [f"# selection_rule,{result.selection_rule}",
              f"# provenance,{result.provenance}"]
    if result.degenerate:
        lines.append(f"# degenerate,{result.diagnosis}")
    return lines


def _report_lines(report) -> list[str]:
    """name,value rows including the rule text."""
    rows = (("statistic", _fmt(report.statistic)),
            ("standard_error", _fmt(report.standard_error)),
            ("verdict", report.verdict),
            ("rule_applied", report.rule_applied))
    return ["name,value"] + [f'{name},"{value}"' if "," in value
                             else f"{name},{value}" for name, value in rows]


#: (repr of a spec, its panel): the panel the last command drew.
_held = (None, None)


def _panel(spec: DgpSpec):
    """The panel of ``spec``: the held one if its spec is the same, else a
    fresh draw, held in its place (the old one is let go first)."""
    global _held
    held, panel = _held  # one read: a concurrent main costs a draw at most
    key = repr(spec)  # not ==, which takes -0.0 for 0.0
    if held == key:
        return panel
    _held = (None, None)
    del panel  # the old panel goes before the new one is drawn
    panel = draw_panel(spec)
    _held = (key, panel)
    return panel


def _cmd_simulate(cfg: dict, out: _Outputs) -> None:
    panel = _panel(config_to_spec(cfg))
    out.write(cfg["out.file"], lambda path: write_panel_csv(panel, path))


def _scan_one(panel, cfg: dict):
    curve = scan_curve(panel, cfg["scan.axis"], parse_grid(cfg["scan.grid"]),
                       family=cfg["scan.family"])
    find_zeros(curve)
    find_local_minima(curve)
    return curve


def _cmd_scan(cfg: dict, out: _Outputs) -> None:
    curve = _scan_one(_panel(config_to_spec(cfg)), cfg)
    out.write("curve.csv", _lines_writer(_curve_lines(curve)))


def _cmd_estimate(cfg: dict, out: _Outputs) -> None:
    result = two_step_estimator(_panel(config_to_spec(cfg)),
                                f"theta_{cfg['estimate.sign']}")
    out.write("estimate.csv", _lines_writer(_estimate_lines(result)))


def _cmd_diagnose(cfg: dict, out: _Outputs) -> None:
    spec = config_to_spec(cfg)
    which = cfg["diagnose.point"]
    if which == "truth":
        point = ParamPoint(spec.structural.alpha, spec.structural.beta,
                           spec.structural.rho_omega)
    elif which == "pseudo":
        point = pseudo_point(spec.structural)
    else:  # custom
        point = ParamPoint(cfg["diagnose.alpha"], cfg["diagnose.beta"],
                           cfg["diagnose.rho"])
    sign = f"theta_{cfg['diagnose.sign']}"
    panel = _panel(spec)  # drawn once the point is known
    for name, report in (
            ("diagnose_sign.csv", residual_sign_test(panel, point, sign)),
            ("diagnose_inequality.csv",
             moment_inequality(panel, point, sign)),
            ("diagnose_ar_order.csv", ar_order_test(panel))):
        out.write(name, _lines_writer(_report_lines(report)))


def _cmd_figure(cfg: dict, out: _Outputs) -> None:
    global _held
    which = cfg["figure.which"]
    variant, sweep_field, values = FIGURE_PRESETS[which]

    def run_job(value):
        sub, label = {**cfg, "dgp.variant": variant}, variant
        if sweep_field is not None:
            label = f"{sweep_field}_{value:g}"
            sub[f"dgp.ext.{sweep_field}"] = value
        try:
            panel = draw_panel(config_to_spec(sub))  # validates the spec
        except ValidationError as exc:
            return (label, None, f"rejected: {exc}")
        return (label, _scan_one(panel, sub), "ok")

    _held = (None, None)  # the jobs draw their own panels, several at once
    with concurrent.futures.ThreadPoolExecutor(
            max_workers=min(4, len(values))) as pool:
        results = list(pool.map(run_job, values))

    curves = [result for result in results if result[1] is not None]
    if not curves:
        raise ValidationError("every sub-model of the preset was rejected",
                              field="figure.which")

    # raw per-sub-model curve files
    for label, curve, _ in curves:
        out.write(f"figure{which}_{label}.csv",
                  _lines_writer(_curve_lines(curve)))

    # plot file with objectives rescaled to agree at the lowest grid point
    msqs = [curve.m * curve.m for _, curve, _ in curves]
    scaled = [msq * (msqs[0][0] / msq[0] if np.isfinite(msq[0])
                     and msq[0] != 0.0 else 1.0) for msq in msqs]
    rows = [",".join(["axis_value"] + [label for label, _, _ in curves])]
    rows += [",".join(map(_fmt, (g, *column)))
             for g, *column in zip(curves[0][1].grid, *scaled)]
    out.write(f"figure{which}_plot.csv", _lines_writer(rows))

    # zeros/minima summary, including rejected sub-models
    lines = ["sub_model,status,zeros,minima"]
    lines += [f"{label},{status},," for label, curve, status in results
              if curve is None]
    for label, curve, status in curves:
        zeros = ";".join(_fmt(z.location) for z in curve.zeros if z.converged)
        minima = ";".join(_fmt(m.location) for m in curve.minima)
        lines.append(f"{label},{status},{zeros},{minima}")
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
    out = _Outputs(cfg["out.dir"])
    _COMMANDS[command](cfg, out)
    out.write_manifest(cfg)
    return 0


#: Each command-line flag (after ``--config``): the configuration keys its
#: value sets, and its argparse options.  Its value is kept under the first
#: key, which ``--help`` shows unless the key takes a closed set.
_FLAGS = {
    "--seed": (("dgp.seed",), {}),
    "--out-dir": (("out.dir",), {}),
    "--out": (("out.file",), dict(help="output file name (simulate)")),
    "--method": (("estimate.method",), dict(help="estimator")),
    "--grid": (("scan.grid",), dict(help="scan grid as lo:hi:step")),
    "--sign-theta": (("estimate.sign", "diagnose.sign"), {}),
    "--which": (("figure.which",), dict(help="figure preset")),
    "--n-firms": (("dgp.n_firms",), {}),
    "--n-periods": (("dgp.n_periods",), {}),
    "--variant": (("dgp.variant",), {}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynpan",
        description="Simulation and estimation toolkit for dynamic-panel "
                    "pseudo-solutions")
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", help="flat key = value configuration file")
    for flag, (keys, options) in _FLAGS.items():
        _, _, *closed = CONFIG_SCHEMA[keys[0]]
        if closed:  # --help lists the values
            options = dict(options, metavar="{%s}" % ",".join(
                map(str, closed[0])))
        parser.add_argument(flag, dest=keys[0], **options)
    return parser


#: The parser :func:`main` reads argv with (parsing leaves it unchanged).
_PARSER = build_parser()


def _overrides_from_args(args) -> dict:
    out = {}
    for keys, _ in _FLAGS.values():
        value = getattr(args, keys[0])
        if value is not None:
            out.update(dict.fromkeys(keys, value))
    return out


def _glued(argv) -> list:
    """``argv`` with each flag's value that starts like a negative number,
    such as the grid -0.5:2:0.05, joined to it as ``--flag=value``:
    argparse takes such a token for a flag of its own."""
    out = []
    for arg in argv:
        if out and out[-1] in _FLAGS and re.match(r"-\.?[0-9]", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    args = _PARSER.parse_args(
        _glued(sys.argv[1:] if argv is None else argv))
    try:
        file_values = {}
        if args.config:
            try:
                with open(args.config, encoding="utf-8-sig") as fh:
                    file_values = parse_config_text(fh.read())
            except UnicodeDecodeError as exc:
                raise ValidationError(f"{args.config} is not UTF-8 text: "
                                      f"{exc}", field="config") from exc
        cfg = resolve_config(file_values, _overrides_from_args(args))
        if cfg["command"] and cfg["command"] != args.command:
            raise ValidationError(
                f"config command {cfg['command']!r} conflicts with "
                f"the command line's {args.command!r}", field="command")
        cfg["command"] = args.command
        return run(cfg)
    except (DynpanError, OSError, MemoryError) as exc:
        record = {"error": type(exc).__name__, "message": str(exc),
                  "module": type(exc).__module__}
        print(json.dumps(record), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's three workloads, their inputs and their output checks.

A workload is a list of :class:`Op`.  ``run`` is the timed part and calls
dynpan the way a user would; ``check`` runs after the clock stops, parses
what ``run`` produced and returns the values compared against the reference
recorded from the seed code, a digest of the full outputs (traced and
untraced repetitions must agree on it bit for bit), and any problems.  An
operation that raises or has a problem counts as failed.

Every input is generated from the benchmark seed.  Model parameters are the
CLI defaults (beta 0.6, theta 1, rho_omega 0.7, rho_x 0.5), so the true slope
is 0.6 and the spurious zero sits near 1.6.
"""

from __future__ import annotations

import csv
import hashlib
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from dynpan import cli, identify, simulate

#: Absolute tolerance, relative to the largest value of its group, for
#: values compared against the reference.  Locations of zeros, minima and
#: the warm start come from bisection or a parabola on the grid, so they
#: get the bisection width instead.
VALUE_RTOL = 1e-8
LOCATION_RTOL = 1e-5
LOCATION_KEYS = ("zeros", "minima", "warm_start")

#: Chosen-branch slope band for cli-batch estimates.  At 40k firms the
#: chosen slope has a sampling SD of about 0.049 (300 seeds), so a band of
#: 0.1 would fail about 5% of estimates on sampling noise alone; 0.25 is
#: about five SDs and still far from the rejected branch near 1.6.
ESTIMATE_BAND = 0.25

#: Grid points kept in the reference (every M_STRIDE-th).
M_STRIDE = 20


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], tuple[dict, str, list[str]]]


def panel_spec(variant: str, n_firms: int, seed: int):
    """DgpSpec with the CLI's default structural parameters."""
    cfg = cli.resolve_config({}, {"dgp.variant": variant,
                                  "dgp.n_firms": n_firms, "dgp.seed": seed})
    return cli.config_to_spec(cfg)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def _curve_values(curve) -> dict:
    return {"zeros": [[r.location, r.converged] for r in curve.zeros],
            "minima": [m.location for m in curve.minima],
            "m": [float(v) for v in curve.m[::M_STRIDE]],
            "nan_points": int(np.isnan(curve.m).sum())}


def _curve_arrays(curve):
    zeros = [(r.location, r.m_value, r.iterations, r.converged)
             for r in curve.zeros]
    minima = [(m.location, m.value) for m in curve.minima]
    return curve.m, curve.ses, np.array(zeros, dtype=float).ravel(), \
        np.array(minima, dtype=float).ravel()


def _scan(panel, axis, grid, family="quasi_diff"):
    curve = identify.scan_curve(panel, axis, cli.parse_grid(grid),
                                family=family)
    identify.find_zeros(curve)
    identify.find_local_minima(curve)
    return curve


def _converged(curve) -> list[float]:
    return [r.location for r in curve.zeros if r.converged]


# --- scan-beta-1m ----------------------------------------------------------

def scan_beta_ops(seed: int, workdir: str, n_firms: int = 200_000,
                  grid: str = "0:2:0.01") -> list[Op]:
    spec = panel_spec("benchmark", n_firms, seed)

    def run():
        return _scan(simulate.draw_panel(spec), "beta", grid)

    def check(curve):
        zeros = _converged(curve)
        problems = []
        if not (len(zeros) == 2 and abs(zeros[0] - 0.6) <= 0.1
                and abs(zeros[1] - 1.6) <= 0.1):
            problems.append(f"converged zeros {zeros}: want one in 0.6+-0.1 "
                            "and one in 1.6+-0.1")
        return _curve_values(curve), _digest(*_curve_arrays(curve)), problems

    return [Op("scan-beta", run, check)]


# --- scan-rho-multi --------------------------------------------------------

def scan_rho_ops(seed: int, workdir: str, n_firms: int = 40_000,
                 grid: str = "-0.9:0.9:0.01") -> list[Op]:
    multi = panel_spec("multi_input", n_firms, seed)
    predetermined = panel_spec("predetermined", n_firms, seed)

    def run():
        curve = _scan(simulate.draw_panel(multi), "rho", grid,
                      family="multi_input")
        start = identify.warm_start_pipeline(
            simulate.draw_panel(predetermined), "predetermined_start")
        return curve, start

    def check(raw):
        curve, start = raw
        zeros = _converged(curve)
        point = [start.point.alpha, start.point.beta, float(start.point.rho)]
        problems = []
        for target in (0.7, 0.5):
            if not any(abs(z - target) <= 0.05 for z in zeros):
                problems.append(f"no converged root within 0.05 of {target}: "
                                f"{zeros}")
        if abs(point[2] - 0.7) > 0.05:
            problems.append(f"warm-start rho {point[2]} not within 0.05 of "
                            "0.7")
        values = dict(_curve_values(curve), warm_start=point)
        return values, _digest(*_curve_arrays(curve), point), problems

    return [Op("scan-rho", run, check)]


# --- cli-batch -------------------------------------------------------------

def _read_csv_rows(path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(line for line in fh
                               if not line.startswith("#")))


def _check_manifest(out_dir: str) -> tuple[str, list[str]]:
    """Digest of every artifact; problems if the manifest disagrees."""
    manifest = os.path.join(out_dir, "run.manifest")
    with open(manifest, encoding="utf-8") as fh:
        listed = dict(line.split()[2:4] for line in fh
                      if line.startswith("# sha256 "))
    problems = []
    on_disk = sorted(n for n in os.listdir(out_dir) if n != "run.manifest")
    if sorted(listed) != on_disk:
        problems.append(f"manifest lists {sorted(listed)}, directory holds "
                        f"{on_disk}")
    whole = hashlib.sha256()
    for name in on_disk + ["run.manifest"]:
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        digest = hashlib.sha256(data).hexdigest()
        whole.update(digest.encode())
        if name in listed and listed[name] != digest:
            problems.append(f"{name}: sha256 differs from the manifest")
    return whole.hexdigest(), problems


def _parse_simulate(out_dir: str, n_rows: int) -> tuple[dict, list[str]]:
    path = os.path.join(out_dir, "panel.csv")
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    problems = []
    if data.shape != (n_rows, len(header)):
        problems.append(f"panel.csv has shape {data.shape}, want "
                        f"({n_rows}, {len(header)})")
    values = {"header": header,
              "sums": [float(v) for v in data[:, 2:].sum(axis=0)],
              "first": [float(v) for v in data[0]],
              "last": [float(v) for v in data[-1]]}
    return values, problems


def _parse_estimate(out_dir: str) -> tuple[dict, list[str]]:
    rows = _read_csv_rows(os.path.join(out_dir, "estimate.csv"))
    header, body = rows[0], rows[1:]
    branches = {int(r[1]): dict(zip(header[2:], map(float, r[2:])))
                for r in body}
    chosen, rejected = branches[1], branches[0]
    problems = []
    if abs(chosen["beta"] - 0.6) > ESTIMATE_BAND:
        problems.append(f"chosen beta {chosen['beta']} not within "
                        f"{ESTIMATE_BAND} of 0.6")
    if abs(chosen["beta"] - 0.6) >= abs(rejected["beta"] - 0.6):
        problems.append("the rejected branch is nearer the true slope")
    values = {"chosen": [chosen[k] for k in ("beta", "theta", "rho_omega",
                                             "rho_x")],
              "rejected_beta": rejected["beta"]}
    return values, problems


VERDICTS = ("consistent_with_truth", "pseudo_suspected", "inconclusive",
            "equal_rho_warning")


def _parse_diagnose(out_dir: str) -> tuple[dict, list[str]]:
    statistics, problems = [], []
    for name in ("sign", "inequality", "ar_order"):
        rows = dict((r[0], r[1]) for r in _read_csv_rows(
            os.path.join(out_dir, f"diagnose_{name}.csv"))[1:])
        statistics.append(float(rows["statistic"]))
        float(rows["standard_error"])  # raises if the field does not parse
        if rows["verdict"] not in VERDICTS:
            problems.append(f"{name}: unknown verdict {rows['verdict']!r}")
    return {"statistics": statistics}, problems


def _parse_figure(out_dir: str, which: int) -> tuple[dict, list[str]]:
    rows = _read_csv_rows(os.path.join(out_dir, f"figure{which}_summary.csv"))
    problems = [f"sub-model {r[0]} status {r[1]}" for r in rows[1:]
                if r[1] != "ok"]

    def locations(cell):
        return [float(v) for v in cell.split(";") if v]

    plot = _read_csv_rows(os.path.join(out_dir, f"figure{which}_plot.csv"))
    curves = np.array([[float(v) for v in row] for row in plot[1:]])
    values = {"zeros": {r[0]: locations(r[2]) for r in rows[1:]},
              "minima": {r[0]: locations(r[3]) for r in rows[1:]},
              "plot_shape": list(curves.shape)}
    return values, problems


def cli_batch_ops(seed: int, workdir: str, n_firms: int = 40_000,
                  n_seeds: int = 34, figure2_grid: str = "0:2:0.02",
                  figure5_grid: str = "0:2.2:0.02") -> list[Op]:
    """One simulate, then estimate and diagnose (truth and pseudo point)
    over ``n_seeds`` seeds drawn from the benchmark seed, then figures 2
    and 5: 3 * n_seeds + 3 commands, all through ``dynpan.cli.main``."""
    pseudo_cfg = os.path.join(workdir, "pseudo.cfg")
    with open(pseudo_cfg, "w", encoding="utf-8") as fh:
        fh.write("diagnose.point = pseudo\n")
    sub_seeds = np.random.SeedSequence(seed).generate_state(n_seeds)
    ops = []

    def command(name, argv, parse):
        out_dir = os.path.join(workdir, name)
        argv = argv + ["--n-firms", str(n_firms), "--out-dir", out_dir]

        def run():
            return cli.main(argv)

        def check(status):
            if status != 0:
                return {}, "", [f"exit status {status}"]
            digest, problems = _check_manifest(out_dir)
            values, more = parse(out_dir)
            return values, digest, problems + more

        ops.append(Op(name, run, check))

    command("simulate", ["simulate", "--seed", str(seed)],
            lambda d: _parse_simulate(d, n_firms * 5))
    for k, s in enumerate(int(v) for v in sub_seeds):
        command(f"estimate-{k}", ["estimate", "--seed", str(s)],
                _parse_estimate)
        command(f"diagnose-truth-{k}", ["diagnose", "--seed", str(s)],
                _parse_diagnose)
        command(f"diagnose-pseudo-{k}",
                ["diagnose", "--config", pseudo_cfg, "--seed", str(s)],
                _parse_diagnose)
    command("figure-2", ["figure", "--which", "2", "--grid", figure2_grid,
                         "--seed", str(seed)],
            lambda d: _parse_figure(d, 2))
    command("figure-5", ["figure", "--which", "5", "--grid", figure5_grid,
                         "--seed", str(seed)],
            lambda d: _parse_figure(d, 5))
    return ops


WORKLOADS = {
    "scan-beta-1m": scan_beta_ops,
    "scan-rho-multi": scan_rho_ops,
    "cli-batch": cli_batch_ops,
}

# --- reference comparison ---------------------------------------------------

def compare(got, want, rtol=VALUE_RTOL, scale=0.0, path="") -> list[str]:
    """Differences between parsed values and the reference.

    Floats agree within ``rtol`` of the larger of their own size and the
    largest value in their list, so entries of a curve near a zero are
    judged on the curve's scale.  Everything else must be equal.
    """
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        out = []
        for key in want:
            tol = LOCATION_RTOL if key in LOCATION_KEYS else rtol
            out += compare(got[key], want[key], tol, 0.0, f"{path}/{key}")
        return out
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: {got} != {want}"]
        floats = [abs(w) for w in want if isinstance(w, float)]
        scale = max(floats, default=0.0)
        out = []
        for i, (g, w) in enumerate(zip(got, want)):
            out += compare(g, w, rtol, scale, f"{path}[{i}]")
        return out
    if isinstance(want, float) and not isinstance(got, bool):
        if want != want:
            return [] if got != got else [f"{path}: {got} != nan"]
        if abs(got - want) <= rtol * max(abs(want), scale):
            return []
        return [f"{path}: {got!r} differs from reference {want!r}"]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]

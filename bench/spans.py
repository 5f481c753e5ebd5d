"""Span tracing of dynpan from outside the package.

:class:`Tracer` replaces every public function of the six dynpan modules,
in every dynpan namespace that binds it (``identify`` imports
``concentrate_rho`` by name, ``cli`` imports ``draw_panel``, and so on),
with a wrapper that records a span: name, start, end, parent span and the
benchmark operation running at the time.  The parent stack is kept
per thread because ``cli figure`` scans its sub-models on a thread pool.
Spans stay in memory until :func:`layer_metrics` reduces them.  Nothing in
``src/`` changes; :meth:`Tracer.uninstall` restores every original binding.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import sys
import threading
import time

MODULES = ("simulate", "estimate", "identify", "diagnostics", "model", "cli")

#: Variants the three workloads draw; each gets its own draw_panel counters.
VARIANTS = ("benchmark", "multi_input", "predetermined", "logistic_kappa",
            "reversed_curvature")

#: Spans that are one evaluation of a scanned moment.
EVALUATORS = ("estimate.beta_eval", "estimate.concentrate_rho")

CLI_COMMANDS = ("simulate", "estimate", "diagnose", "figure")


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "attrs", "error")

    def __init__(self, name, parent, op):
        self.name = name
        self.parent = parent
        self.op = op
        self.attrs = {}
        self.error = None
        self.start = self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def has_ancestor(self, name: str) -> bool:
        p = self.parent
        while p is not None:
            if p.name == name:
                return True
            p = p.parent
        return False


# --- hooks: record counts where the work happens -------------------------
# Each hook runs after the wrapped call returns and may replace its result.

def _after_draw_panel(tracer, span, args, kwargs, result):
    spec = result.spec
    span.attrs["variant"] = spec.variant
    span.attrs["obs"] = spec.n_firms * spec.n_periods
    return result


def _after_write_panel_csv(tracer, span, args, kwargs, result):
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    span.attrs["bytes"] = os.path.getsize(path)
    return result


def _after_beta_scan_evaluator(tracer, span, args, kwargs, result):
    # the returned closure is what scan_curve and bisection call per point
    return tracer.wrap("estimate.beta_eval", result, _after_n_obs)


def _after_n_obs(tracer, span, args, kwargs, result):
    span.attrs["obs"] = result.n_obs
    return result


def _after_scan_curve(tracer, span, args, kwargs, result):
    span.attrs["points"] = int(result.grid.size)
    span.attrs["nan_points"] = int(sum(1 for v in result.m if v != v))
    return result


def _after_find_zeros(tracer, span, args, kwargs, result):
    span.attrs["roots"] = len(result)
    span.attrs["roots_converged"] = sum(1 for r in result if r.converged)
    return result


def _after_cli_main(tracer, span, args, kwargs, result):
    argv = kwargs.get("argv", args[0] if args else None)
    span.attrs["command"] = argv[0]
    return result


def _after_write_manifest(tracer, span, args, kwargs, result):
    out = args[0]
    names = list(out.files) + ["run.manifest"]
    span.attrs["bytes"] = sum(
        os.path.getsize(os.path.join(out.out_dir, n)) for n in names)
    return result


HOOKS = {
    "simulate.draw_panel": _after_draw_panel,
    "simulate.write_panel_csv": _after_write_panel_csv,
    "estimate.beta_scan_evaluator": _after_beta_scan_evaluator,
    "estimate.concentrate_rho": _after_n_obs,
    "identify.scan_curve": _after_scan_curve,
    "identify.find_zeros": _after_find_zeros,
    "cli.main": _after_cli_main,
    "cli.write_manifest": _after_write_manifest,
}


class Tracer:
    """Wraps dynpan's public functions and collects their spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = ""                 # set by the benchmark between operations
        self._local = threading.local()
        self._originals: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = Span(name, stack[-1] if stack else None, tracer.op)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = exc
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                # list.append is atomic under the interpreter lock, so the
                # figure command's worker threads can share the list
                tracer.spans.append(span)
            if after is not None:
                result = after(tracer, span, args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr, replacement) -> None:
        self._originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap each public function at every binding callers reach it by."""
        import dynpan
        import dynpan.cli  # noqa: F401  (imports the other five modules)

        modules = [sys.modules[f"dynpan.{m}"] for m in MODULES]
        namespaces = [dynpan] + modules
        for home in modules:
            short = home.__name__.rpartition(".")[2]
            for attr, fn in list(vars(home).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != home.__name__):
                    continue
                name = f"{short}.{attr}"
                traced = self.wrap(name, fn, HOOKS.get(name))
                for ns in namespaces:
                    for binding, value in list(vars(ns).items()):
                        if value is fn:
                            self._patch(ns, binding, traced)
        outputs = dynpan.cli._Outputs
        self._patch(outputs, "write_manifest",
                    self.wrap("cli.write_manifest", outputs.write_manifest,
                              HOOKS["cli.write_manifest"]))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()


# --- reduction to per-layer metrics ----------------------------------------

def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from one traced run: name -> (value, unit).

    Layers the workload does not reach report zero.
    """
    from dynpan.errors import RankDeficiencyError

    by_name: dict[str, list[Span]] = {}
    child_time: dict[int, float] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        if s.parent is not None:
            key = id(s.parent)
            child_time[key] = child_time.get(key, 0.0) + s.duration

    def named(name):
        return by_name.get(name, [])

    def busy(name):
        return sum(s.duration for s in named(name))

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in named(name))

    def ns_per_obs(group):
        obs = sum(s.attrs.get("obs", 0) for s in group)
        return sum(s.duration for s in group) * 1e9 / obs if obs else 0.0

    def evals_under(ancestor):
        return sum(1 for name in EVALUATORS for s in named(name)
                   if s.parent is not None
                   and s.parent.name not in EVALUATORS
                   and s.has_ancestor(ancestor))

    def ratio(num, den):
        return num / den if den else 0.0

    out: dict[str, tuple[float, str]] = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    put("estimate.beta_scan_evaluator.s",
        busy("estimate.beta_scan_evaluator"), "s")
    for short in ("beta_eval", "concentrate_rho"):
        name = f"estimate.{short}"
        put(f"{name}.calls", len(named(name)), "count")
        put(f"{name}.s", busy(name), "s")
        put(f"{name}.ns_per_obs", ns_per_obs(named(name)), "ns/obs")
    put("estimate.two_sls.calls", len(named("estimate.two_sls")), "count")
    put("estimate.two_sls.s", busy("estimate.two_sls"), "s")
    put("estimate.fit_reduced_form.s", busy("estimate.fit_reduced_form"), "s")
    # one failing solve unwinds through several spans; count it once
    rank = {id(s.error) for s in spans
            if isinstance(s.error, RankDeficiencyError)}
    put("estimate.rank_deficiency.count", len(rank), "count")

    scans = named("identify.scan_curve")
    points = attr_sum("identify.scan_curve", "points")
    nan_points = attr_sum("identify.scan_curve", "nan_points")
    put("identify.scan_curve.s", busy("identify.scan_curve"), "s")
    put("identify.scan_curve.self_s",
        sum(s.duration - child_time.get(id(s), 0.0) for s in scans), "s")
    put("identify.scan_curve.points", points, "count")
    put("identify.scan_curve.nan_points", nan_points, "count")
    put("identify.grid_ok_ratio", ratio(points - nan_points, points), "ratio")
    roots = attr_sum("identify.find_zeros", "roots")
    converged = attr_sum("identify.find_zeros", "roots_converged")
    put("identify.find_zeros.s", busy("identify.find_zeros"), "s")
    put("identify.find_zeros.evals", evals_under("identify.find_zeros"),
        "count")
    put("identify.find_zeros.roots", roots, "count")
    put("identify.find_zeros.roots_converged", converged, "count")
    put("identify.converged_ratio", ratio(converged, roots), "ratio")
    put("identify.find_local_minima.evals",
        evals_under("identify.find_local_minima"), "count")
    put("identify.warm_start_pipeline.s",
        busy("identify.warm_start_pipeline"), "s")
    put("identify.warm_start_pipeline.evals",
        evals_under("identify.warm_start_pipeline"), "count")
    put("identify.two_step_estimator.s",
        busy("identify.two_step_estimator"), "s")

    for short in ("residual_sign_test", "moment_inequality", "ar_order_test"):
        put(f"diagnostics.{short}.s", busy(f"diagnostics.{short}"), "s")
    put("model.invert_reduced_form.calls",
        len(named("model.invert_reduced_form")), "count")
    put("model.invert_reduced_form.s", busy("model.invert_reduced_form"), "s")

    draws = named("simulate.draw_panel")
    put("simulate.draw_panel.calls", len(draws), "count")
    put("simulate.draw_panel.s", busy("simulate.draw_panel"), "s")
    put("simulate.draw_panel.ns_per_obs", ns_per_obs(draws), "ns/obs")
    for variant in VARIANTS:
        group = [s for s in draws if s.attrs.get("variant") == variant]
        prefix = f"simulate.draw_panel.{variant}"
        put(f"{prefix}.calls", len(group), "count")
        put(f"{prefix}.s", sum(s.duration for s in group), "s")
        put(f"{prefix}.ns_per_obs", ns_per_obs(group), "ns/obs")
    csv_s = busy("simulate.write_panel_csv")
    csv_bytes = attr_sum("simulate.write_panel_csv", "bytes")
    put("simulate.write_panel_csv.s", csv_s, "s")
    put("simulate.write_panel_csv.bytes", csv_bytes, "bytes")
    put("simulate.write_panel_csv.mb_per_s", ratio(csv_bytes / 1e6, csv_s),
        "MB/s")

    mains = named("cli.main")
    for command in CLI_COMMANDS:
        put(f"cli.{command}.s", sum(s.duration for s in mains
                                    if s.attrs.get("command") == command),
            "s")
    put("cli.write_manifest.s", busy("cli.write_manifest"), "s")
    put("cli.artifact_bytes", attr_sum("cli.write_manifest", "bytes"),
        "bytes")
    # figure scans its sub-models on worker threads, whose spans have no
    # parent there; the benchmark's operation label ties them to the figure
    figure_wall = sum(s.duration for s in mains
                      if s.attrs.get("command") == "figure")
    figure_busy = sum(s.duration for s in scans
                      if s.op.startswith("figure"))
    put("cli.figure.parallel_ratio", ratio(figure_busy, figure_wall), "ratio")
    return out


def median_metrics(runs: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-metric median over several traced runs of one workload."""
    return {name: (statistics.median(r[name][0] for r in runs), unit)
            for name, (_, unit) in runs[0].items()}

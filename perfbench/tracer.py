"""Outside-in layer tracing for one program process.

``install`` wraps the package's public entry points in the running
process. Each wrapped call records a span (name, start, end, parent
span) in memory; the model's ``mu`` and ``f`` callbacks, called tens of
thousands of times per trajectory, are counted and timed per enclosing
span instead. ``Tracer.dump`` writes everything out once, when the
process ends. ``layer_metrics`` turns one or more dumps into the
per-layer metrics of BENCHMARK.json.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import time

ROOT_SPAN = "-"  # context of callbacks made outside every span

# span names whose time counts as checkpoint analysis inside a study
_CHECKPOINT_SPANS = (
    "estimator.fit_ls",
    "analysis.empirical_design",
    "analysis.normality_stat",
    "analysis.d_efficiency",
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name id, start, end, parent index or -1]
        self._stack: list[int] = []
        self.calls: dict[tuple[int, str], list] = {}  # (context id, callback) -> [count, s]
        self.output_bytes = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn):
        nid, spans, stack, clock = self._id(name), self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [nid, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return wrapper

    def counted(self, kind: str, fn):
        root, spans, stack, calls, clock = self._id(ROOT_SPAN), self.spans, self._stack, self.calls, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                key = (spans[stack[-1]][0] if stack else root, kind)
                entry = calls.get(key)
                if entry is None:
                    entry = calls[key] = [0, 0.0]
                entry[0] += 1
                entry[1] += dt

        return wrapper

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "spans": self.spans,
                    "calls": [[self.names[c], k, n, s] for (c, k), (n, s) in self.calls.items()],
                    "output_bytes": self.output_bytes,
                },
                fh,
            )


def install() -> Tracer:
    """Wrap the package's entry points in this process; returns the tracer."""
    import adwynn
    from adwynn import adaptive, analysis, cli, design, estimator, model

    tracer = Tracer()
    modules = (adwynn, adaptive, analysis, cli, design, estimator, model)

    def function(module, attr: str, name: str) -> None:
        original = getattr(module, attr)
        wrapped = tracer.span(name, original)
        for m in modules:  # replace every re-export too
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapped)

    def method(cls, attr: str, name: str) -> None:
        setattr(cls, attr, tracer.span(name, getattr(cls, attr)))

    method(adaptive.WynnState, "compute_info", "adaptive.info")
    method(adaptive.LSAdaptiveEstimator, "update", "estimator.update")
    method(adaptive.LSAdaptiveEstimator, "estimate", "estimator.refit")
    method(adaptive.SimulatedSource, "observe", "noise.observe")
    method(cli.SessionSource, "observe", "cli.session_wait")
    function(adaptive, "wynn_step", "adaptive.step")
    function(adaptive, "build_initial_design", "adaptive.init")
    function(adaptive, "simulate_trajectory", "analysis.replicate")
    function(estimator, "fit_ls", "estimator.fit_ls")
    function(design, "solve_locally_d_optimal", "design.oracle")
    function(design, "d_efficiency", "analysis.d_efficiency")
    function(analysis, "empirical_design", "analysis.empirical_design")
    function(analysis, "normality_stat", "analysis.normality_stat")
    function(analysis, "run_study", "analysis.run_study")
    for attr in ("calibrate_window_diameter", "window_mass_curve", "extract_clusters"):
        function(analysis, attr, "analysis.diagnostics")
    function(cli, "load_config", "cli.config")

    for attr in ("write_json", "write_csv"):
        timed = tracer.span("cli.write", getattr(cli, attr))

        def write(path, *args, _timed=timed):
            _timed(path, *args)
            tracer.output_bytes += os.path.getsize(path)

        setattr(cli, attr, write)

    def traced_bundle(factory):
        @functools.wraps(factory)
        def build(**kwargs):
            bundle = factory(**kwargs)
            spec = dataclasses.replace(
                bundle.model,
                mu=tracer.counted("mu", bundle.model.mu),
                f=tracer.counted("f", bundle.model.f),
            )
            return dataclasses.replace(bundle, model=spec)

        return build

    for key, factory in list(model.BUILTIN_MODELS.items()):
        model.BUILTIN_MODELS[key] = traced_bundle(factory)
    return tracer


# --------------------------------------------------------------------------
# Reduction of dumps to per-layer metrics
# --------------------------------------------------------------------------


def layer_metrics(dumps: list[dict]) -> dict[str, float]:
    """Per-layer totals over the traced processes of one run."""
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    count: dict[str, int] = {}
    checkpoint = 0.0
    callbacks = {"mu": [0, 0.0], "f": [0, 0.0]}
    in_refit = {"mu": 0, "f": 0}
    output_bytes = 0
    for dump in dumps:
        names = dump["names"]
        spans = dump["spans"]
        children = [0.0] * len(spans)
        for nid, t0, t1, parent in spans:
            if parent >= 0:
                children[parent] += t1 - t0
        for i, (nid, t0, t1, parent) in enumerate(spans):
            name = names[nid]
            total[name] = total.get(name, 0.0) + (t1 - t0)
            self_time[name] = self_time.get(name, 0.0) + (t1 - t0 - children[i])
            count[name] = count.get(name, 0) + 1
            if name in _CHECKPOINT_SPANS and _in_study_outside_replicate(spans, names, parent):
                checkpoint += t1 - t0
        for ctx, kind, n, seconds in dump["calls"]:
            callbacks[kind][0] += n
            callbacks[kind][1] += seconds
            if ctx == "estimator.refit":
                in_refit[kind] += n
        output_bytes += dump["output_bytes"]

    refits = count.get("estimator.refit", 0)

    def per_refit(v: int) -> float:
        return v / refits if refits else 0.0

    return {
        "adaptive.steps": count.get("adaptive.step", 0),
        "adaptive.select_s": self_time.get("adaptive.step", 0.0),
        "adaptive.info_s": total.get("adaptive.info", 0.0),
        "adaptive.init_s": total.get("adaptive.init", 0.0),
        "design.oracle_s": total.get("design.oracle", 0.0),
        "cli.config_s": total.get("cli.config", 0.0),
        "noise.observe_s": total.get("noise.observe", 0.0),
        "estimator.refit_s": total.get("estimator.refit", 0.0),
        "estimator.refits": refits,
        "estimator.sse_evals_per_refit": per_refit(in_refit["mu"] - in_refit["f"]),
        "estimator.gn_iterations_per_refit": per_refit(in_refit["f"]),
        "estimator.update_s": total.get("estimator.update", 0.0),
        "estimator.final_fit_s": total.get("estimator.fit_ls", 0.0),
        "model.mu_calls": callbacks["mu"][0],
        "model.f_calls": callbacks["f"][0],
        "model.callback_s": callbacks["mu"][1] + callbacks["f"][1],
        "analysis.replicate_s": total.get("analysis.replicate", 0.0),
        "analysis.checkpoint_s": checkpoint,
        "analysis.reduce_s": self_time.get("analysis.run_study", 0.0),
        "analysis.diagnostics_s": total.get("analysis.diagnostics", 0.0),
        "cli.write_s": total.get("cli.write", 0.0),
        "cli.output_bytes": output_bytes,
    }


def _in_study_outside_replicate(spans: list, names: list[str], parent: int) -> bool:
    in_study = False
    while parent >= 0:
        name = names[spans[parent][0]]
        if name == "analysis.replicate" or name == "design.oracle":
            return False
        in_study = in_study or name == "analysis.run_study"
        parent = spans[parent][3]
    return in_study

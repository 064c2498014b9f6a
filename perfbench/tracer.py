"""Outside-in tracing of calckit's layers.

``Tracer.install()`` replaces every public function of the traced calckit
modules with a timing wrapper, in every module that binds it (so the
``from .x import y`` copies such as ``mech.lu_solve`` are caught too). Each
wrapped call, apart from a few hot leaves, is a span (name, start, end,
parent span, command id); spans stay in memory until ``write_spans``. Self
time is a call's duration minus its wrapped children, accumulated per
function name as calls return.

Work counts are taken without touching the program: callables handed to
the solvers are wrapped in counters, the model zoo factories return models
whose energies count their calls, and iteration counts are read from the
returned result objects. The energies are the hottest callables (about 90k
calls per simulated second), so they are counted but not timed.
"""

from __future__ import annotations

import dataclasses
import gzip
import importlib
import inspect
import os
from array import array
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("funcexpr", "quad", "signals", "odo", "svgplot", "opt", "diffnum",
          "linalg", "mech", "odesolve", "lti", "poly", "cli")

# Leaf functions called up to ~1e5 times per command: timed and counted, but
# kept out of the span record so a traced run's memory and span file stay
# bounded.
_NO_SPAN = {"funcexpr.evaluate", "diffnum.partial_derivative", "linalg.as_vec",
            "linalg.as_mat", "linalg.norm_inf", "linalg.lu_factor"}


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.command = -1
        self.names: list[str] = []
        self._stack: list[list] = []      # [span id, seconds spent in children]
        self._next_span = 0
        # span columns: name index, span id, parent span id, command, start, end
        self._cols = (array("i"), array("q"), array("q"), array("i"), array("d"), array("d"))

    # ------------------------------------------------------------ wrappers

    def _timed(self, name: str, fn):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        record = name not in _NO_SPAN
        name_id = len(self.names)
        self.names.append(name)
        c_name, c_span, c_parent, c_cmd, c_start, c_end = self._cols

        def span(*args, **kwargs):
            parent = stack[-1] if stack else None
            if record:
                span_id = self._next_span
                self._next_span += 1
            else:       # children of an unrecorded leaf attach to its caller
                span_id = parent[0] if parent is not None else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                calls[name] += 1
                self_s[name] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                if record:
                    c_name.append(name_id)
                    c_span.append(span_id)
                    c_parent.append(parent[0] if parent is not None else -1)
                    c_cmd.append(self.command)
                    c_start.append(start)
                    c_end.append(end)
        return span

    def _counted(self, key: str, fn):
        """fn with each call counted under key; idempotent, so nested entry
        points (gradient -> partial_derivative) count an evaluation once."""
        if getattr(fn, "_counted_as", None) == key:
            return fn
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        counted._counted_as = key
        return counted

    def _points(self, fn):
        """Integrand wrapper counting the abscissae it was evaluated at."""
        if getattr(fn, "_counted_as", None) == "quad.points":
            return fn
        counts = self.counts

        def integrand(x, *args, **kwargs):
            y = fn(x, *args, **kwargs)
            counts["quad.points"] += np.size(x)
            return y
        integrand._counted_as = "quad.points"
        return integrand

    def _adapter(self, layer: str, attr: str, fn):
        """Counting adapter for the functions whose arguments or results
        carry work counts; None for the rest."""
        counts = self.counts
        if layer == "diffnum" and attr in ("derivative", "partial_derivative", "gradient",
                                           "jacobian", "hessian"):
            def diff(f, *args, **kwargs):
                return fn(self._counted("diffnum.f_evals", f), *args, **kwargs)
            return diff
        if layer == "quad" and attr in ("riemann_sum", "darboux_bounds", "trapezoid",
                                        "simpson", "volume_of_revolution"):
            def rule(f, *args, **kwargs):
                return fn(self._points(f), *args, **kwargs)
            return rule
        if layer == "opt" and attr == "constrained_descent":
            def descent(prob, *args, **kwargs):
                prob = dataclasses.replace(
                    prob, objective=self._counted("opt.objective_evals", prob.objective),
                    constraints=self._counted("opt.constraint_evals", prob.constraints))
                res = fn(prob, *args, **kwargs)
                counts["opt.iterations"] += res.iterations
                counts["opt.results"] += 1
                counts["opt.converged"] += bool(res.converged)
                return res
            return descent
        if layer == "opt" and attr == "gradient_descent":
            def unconstrained(f, *args, **kwargs):
                res = fn(self._counted("opt.objective_evals", f), *args, **kwargs)
                counts["opt.iterations"] += res.iterations
                counts["opt.results"] += 1
                counts["opt.converged"] += bool(res.converged)
                return res
            return unconstrained
        if layer == "odesolve" and attr in ("rk4_solve", "euler_solve"):
            def march(prob, *args, **kwargs):
                prob = dataclasses.replace(prob, rhs=self._counted("odesolve.rhs_calls", prob.rhs))
                sig = fn(prob, *args, **kwargs)
                counts["odesolve.steps"] += len(sig) - 1
                return sig
            return march
        if layer == "mech" and attr == "simulate":
            def simulate(*args, **kwargs):
                before = counts["mech.energy_evals"]
                sig = fn(*args, **kwargs)
                counts["mech.sim_energy_evals"] += counts["mech.energy_evals"] - before
                counts["mech.sim_steps"] += len(sig) - 1
                return sig
            return simulate
        if layer == "signals" and attr == "read_csv":
            def read(*args, **kwargs):
                sig = fn(*args, **kwargs)
                counts["signals.rows_read"] += len(sig)
                return sig
            return read
        if layer == "signals" and attr == "write_csv":
            def write(sig, path, *args, **kwargs):
                fn(sig, path, *args, **kwargs)
                counts["signals.rows_written"] += len(sig)
                counts["signals.bytes_written"] += os.path.getsize(path)
            return write
        if layer == "odo" and attr == "bias_corrected_odometry":
            def odometry(trace, measurements, *args, **kwargs):
                counts["odo.samples"] += len(trace)
                counts["odo.events"] += len(measurements)
                return fn(trace, measurements, *args, **kwargs)
            return odometry
        if layer == "svgplot" and attr == "line_chart":
            def chart(path, title, t, series, *args, **kwargs):
                counts["svgplot.points"] += sum(len(y) for _, y in series)
                return fn(path, title, t, series, *args, **kwargs)
            return chart
        return None

    def _energy_model(self, factory):
        """Zoo factory whose models count kinetic and potential evaluations."""
        def build(*args, **kwargs):
            model = factory(*args, **kwargs)
            return dataclasses.replace(
                model, kinetic=self._counted("mech.energy_evals", model.kinetic),
                potential=self._counted("mech.energy_evals", model.potential))
        return build

    # ------------------------------------------------------------ install

    def install(self) -> None:
        """Patch the calckit modules loaded in this process. Irreversible."""
        modules = {layer: importlib.import_module(f"calckit.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                inner = self._adapter(layer, attr, obj) or obj
                wrapped[obj] = self._timed(f"{layer}.{attr}", inner)
        for mod in list(modules.values()) + [importlib.import_module("calckit")]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
        zoo = modules["mech"].MODEL_ZOO
        for key, factory in zoo.items():
            zoo[key] = self._energy_model(wrapped.get(factory, factory))

    # ------------------------------------------------------------ results

    def snapshot(self) -> dict:
        """Every counter and self time so far, keyed by metric-style names."""
        snap = {f"{k}.calls": v for k, v in self.calls.items()}
        snap.update({f"{k}.self_s": v for k, v in self.self_s.items()})
        snap.update(self.counts)
        snap["trace.spans"] = self._next_span
        return snap

    def write_spans(self, path) -> int:
        """Write every recorded span as gzipped CSV; returns the span count.

        The parent of a top-level span is -1; start/end are seconds since
        the first span started."""
        c_name, c_span, c_parent, c_cmd, c_start, c_end = self._cols
        origin = min(c_start) if len(c_start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span,name,parent,command,start_s,end_s\n")
            names = self.names
            for i in range(len(c_name)):
                fh.write(f"{c_span[i]},{names[c_name[i]]},{c_parent[i]},{c_cmd[i]},"
                         f"{c_start[i] - origin:.9f},{c_end[i] - origin:.9f}\n")
        return len(c_name)


def layer_metrics(delta: dict) -> dict:
    """Per-layer metrics of one pass from the difference of two snapshots:
    the snapshot keys themselves plus the module sums and ratios. A layer
    the pass never reached has no key."""
    m = dict(delta)
    m["cli.commands"] = delta.get("cli.main.calls", 0)
    for layer in ("quad", "cli"):
        m[f"{layer}.self_s"] = sum(v for k, v in delta.items()
                                   if k.startswith(layer + ".") and k.endswith(".self_s"))
    results = delta.get("opt.results", 0)
    m["opt.converged_ratio"] = delta.get("opt.converged", 0) / results if results else 0.0
    steps = delta.get("mech.sim_steps", 0)
    m["mech.energy_evals_per_step"] = (delta.get("mech.sim_energy_evals", 0) / steps
                                       if steps else 0.0)
    return m

"""Layer timing from outside the package.

``Tracer.install`` replaces the public entry points of each antago module
with timing wrappers, wherever a module namespace holds a reference to them,
and ``Tracer.uninstall`` puts the originals back. Nothing under ``src/`` is
edited. Two kinds of wrapper exist:

* boundary spans (``cli.main``, scenario and CSV I/O, ``simulate``,
  ``diagnostics``, ``simulate_open_loop``, ``validate_gains`` and the five
  verification suites) are stored one span per call:
  ``[name, start, end, parent, op, child_s, extra]``;
* the scalar plant and controller functions that ``engine`` and ``verify``
  import run thousands of times per simulation, so their calls are stored as
  one aggregate span per (parent span, name) holding the call count and the
  summed duration. They call no wrapped function, so the aggregate gives
  exact self times.

A span's self time is its duration minus ``child_s``, the time covered by
its direct children. ``ForceModel.__call__`` gets a counter but no span; the
closed-loop right-hand side calls it once per evaluation.
"""

from __future__ import annotations

import json
import math
import os
import types
from time import perf_counter

import antago
import antago.cli
import antago.controller
import antago.engine
import antago.observer
import antago.plant
import antago.scenario_io
import antago.verify

_MODULES = (antago, antago.cli, antago.controller, antago.engine, antago.observer,
            antago.plant, antago.scenario_io, antago.verify)

# (span name, defining module, attribute)
_BOUNDARY = (
    ("cli.main", antago.cli, "main"),
    ("scenario_io.load_preset", antago.scenario_io, "load_preset"),
    ("scenario_io.parse_scenario", antago.scenario_io, "parse_scenario"),
    ("scenario_io.save_trajectory_csv", antago.scenario_io, "save_trajectory_csv"),
    ("scenario_io.trajectory_from_csv", antago.scenario_io, "trajectory_from_csv"),
    ("engine.simulate", antago.engine, "simulate"),
    ("engine.diagnostics", antago.engine, "diagnostics"),
    ("engine.simulate_open_loop", antago.engine, "simulate_open_loop"),
    ("controller.validate_gains", antago.controller, "validate_gains"),
)
# Modules whose imports from plant/controller/observer get leaf wrappers.
_LEAF_CALLERS = (antago.engine, antago.verify)
_LEAF_LAYERS = {"antago.plant": "plant", "antago.controller": "controller",
                "antago.observer": "controller"}
# Engine-side calls that start building the record inside simulate.
_RECORD_MARKERS = ("geometry_terms", "control_flows", "sigma", "desired_energy")


def rk4_steps(t: list[float], fixed_step: float) -> int:
    """Fixed-step count of an rk4 run over the sample times ``t``.

    Mirrors the engine's subdivision of each output interval; exact for runs
    that end with status "ok".
    """
    return sum(max(1, math.ceil((tb - ta) / fixed_step - 1e-12))
               for ta, tb in zip(t[:-1], t[1:]))


class Tracer:
    """Spans and counters for one traced phase; see the module docstring."""

    def __init__(self):
        self.spans: list[list] = []
        # (name, {parent span: [calls, seconds, first start, last end, op]})
        self.leaves: list[tuple[str, dict[int, list]]] = []
        self.stack: list[int] = []
        self.op = 0
        self.force_calls = 0
        self.pending_record: int | None = None          # simulate span awaiting its record mark
        self._saved: list[tuple] = []

    # -- wrappers -----------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self.stack[-1] if self.stack else -1
        span = [name, perf_counter(), 0.0, parent, self.op, 0.0, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = perf_counter()
        self.stack.pop()
        if span[3] >= 0:
            self.spans[span[3]][5] += span[2] - span[1]

    def _boundary(self, name: str, fn):
        tracer = self
        after = {"engine.simulate": self._after_simulate,
                 "scenario_io.save_trajectory_csv": self._after_save,
                 "scenario_io.trajectory_from_csv": self._after_parse}.get(name)
        # simulate also arms the mark that splits integration from record building
        arms_record = name == "engine.simulate"

        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            calls0 = tracer.force_calls
            if arms_record:
                tracer.pending_record = tracer.stack[-1]
            returned = False
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                if arms_record:
                    tracer.pending_record = None
                tracer._close(span)
                if after is not None and returned:
                    after(span, args, kwargs, result, tracer.force_calls - calls0)
        return wrapper

    def _leaf(self, name: str, fn, marks_record: bool):
        tracer = self
        spans, stack = self.spans, self.stack
        by_parent: dict[int, list] = {}
        self.leaves.append((name, by_parent))

        def leaf(*args, **kwargs):
            t0 = perf_counter()
            if marks_record and tracer.pending_record is not None:
                spans[tracer.pending_record][6] = {"record_start": t0}
                tracer.pending_record = None
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                parent = stack[-1] if stack else -1
                agg = by_parent.get(parent)
                if agg is None:
                    by_parent[parent] = [1, t1 - t0, t0, t1, tracer.op]
                else:
                    agg[0] += 1
                    agg[1] += t1 - t0
                    agg[3] = t1
                if parent >= 0:
                    spans[parent][5] += t1 - t0
        return leaf

    # -- per-call details, taken after the span has closed -------------------

    def _after_simulate(self, span, args, kwargs, record, force_calls):
        scenario = args[0] if args else kwargs["scenario"]
        samples = len(record)
        if scenario.solver.method == "rk4":
            evals = 4 * rk4_steps(record["t"].tolist(), scenario.solver.fixed_step)
        else:
            evals = force_calls - samples   # the record calls the force once per sample
        extra = span[6] or {"record_start": span[2]}
        extra.update(samples=samples, rhs_evals=evals)
        span[6] = extra

    def _after_save(self, span, args, kwargs, result, force_calls):
        record = args[0] if args else kwargs["record"]
        path = args[1] if len(args) > 1 else kwargs["path"]
        span[6] = {"rows": len(record), "bytes": os.path.getsize(path)}

    def _after_parse(self, span, args, kwargs, result, force_calls):
        text = args[0] if args else kwargs["text"]
        span[6] = {"bytes": len(text.encode())}

    # -- install / uninstall ------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        for module in _MODULES:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        for name, module, attr in _BOUNDARY:
            original = getattr(module, attr)
            self._replace_everywhere(original, self._boundary(name, original))
        boundary_names = {attr for _, _, attr in _BOUNDARY}
        for caller in _LEAF_CALLERS:
            for attr, value in list(vars(caller).items()):
                layer = _LEAF_LAYERS.get(getattr(value, "__module__", None))
                if (layer is None or attr in boundary_names
                        or not isinstance(value, types.FunctionType)):
                    continue
                marks = caller is antago.engine and attr in _RECORD_MARKERS
                self._saved.append((caller, attr, value))
                setattr(caller, attr, self._leaf(f"{layer}.{attr}", value, marks))
        suites = antago.verify.SUITES
        for suite, fn in list(suites.items()):
            self._saved.append((suites, suite, fn))
            suites[suite] = self._boundary(f"verify.{suite}", fn)
        force_model = antago.engine.ForceModel
        call = force_model.__call__

        def counted_call(force, x, xdot):
            self.force_calls += 1
            return call(force, x, xdot)

        self._saved.append((force_model, "__call__", call))
        force_model.__call__ = counted_call

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._saved):
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)
        self._saved.clear()

    # -- results ------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time per layer (first part of the span name), in seconds."""
        out: dict[str, float] = {}
        for name, start, end, _, _, child_s, _ in self.spans:
            layer = name.partition(".")[0]
            out[layer] = out.get(layer, 0.0) + (end - start) - child_s
        for name, by_parent in self.leaves:
            layer = name.partition(".")[0]
            out[layer] = out.get(layer, 0.0) + sum(agg[1] for agg in by_parent.values())
        return out

    def layer_metrics(self, passes: int, fail_verdicts: int,
                      overhead_frac: float) -> dict[str, tuple[float, str]]:
        """The per-layer metrics, per pass of the workload, with their units."""
        totals: dict[str, list] = {}   # span name -> [calls, total_s, self_s]
        extra: dict[str, float] = {}
        for name, start, end, _, _, child_s, info in self.spans:
            row = totals.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child_s
            if not info or "samples" not in info and name == "engine.simulate":
                continue    # the call raised
            if name == "engine.simulate":
                extra["integrate_s"] = extra.get("integrate_s", 0.0) + info["record_start"] - start
                extra["record_s"] = extra.get("record_s", 0.0) + end - info["record_start"]
                extra["rhs_evals"] = extra.get("rhs_evals", 0) + info["rhs_evals"]
                extra["samples"] = extra.get("samples", 0) + info["samples"]
            elif name == "scenario_io.save_trajectory_csv":
                extra["rows_out"] = extra.get("rows_out", 0) + info["rows"]
                extra["bytes_out"] = extra.get("bytes_out", 0) + info["bytes"]
            elif name == "scenario_io.trajectory_from_csv":
                extra["bytes_in"] = extra.get("bytes_in", 0) + info["bytes"]
        leaf = {"plant": [0, 0.0], "controller": [0, 0.0]}
        for name, by_parent in self.leaves:
            row = leaf[name.partition(".")[0]]
            for calls, total, *_ in by_parent.values():
                row[0] += calls
                row[1] += total

        def calls(name):
            return totals.get(name, [0, 0.0, 0.0])[0]

        def seconds(name):
            return totals.get(name, [0, 0.0, 0.0])[1]

        n = max(passes, 1)
        rhs_evals = extra.get("rhs_evals", 0)
        samples = extra.get("samples", 0)
        integrate_s = extra.get("integrate_s", 0.0)
        record_s = extra.get("record_s", 0.0)
        m = {
            "cli.commands": (calls("cli.main") / n, "count"),
            "cli.self_s": (totals.get("cli.main", [0, 0.0, 0.0])[2] / n, "s"),
            "scenario_io.parse_calls": (calls("scenario_io.parse_scenario") / n, "count"),
            "scenario_io.parse_s": (seconds("scenario_io.parse_scenario") / n, "s"),
            "scenario_io.csv_render_s": (seconds("scenario_io.save_trajectory_csv") / n, "s"),
            "scenario_io.csv_rows_out": (extra.get("rows_out", 0) / n, "count"),
            "scenario_io.csv_bytes_out": (extra.get("bytes_out", 0) / n, "bytes"),
            "scenario_io.csv_parse_s": (seconds("scenario_io.trajectory_from_csv") / n, "s"),
            "scenario_io.csv_bytes_in": (extra.get("bytes_in", 0) / n, "bytes"),
            "engine.simulations": (calls("engine.simulate") / n, "count"),
            "engine.simulate_s": (seconds("engine.simulate") / n, "s"),
            "engine.integrate_s": (integrate_s / n, "s"),
            "engine.rhs_evals": (rhs_evals / n, "count"),
            "engine.rhs_us_per_eval": (1e6 * integrate_s / rhs_evals if rhs_evals else 0.0, "us"),
            "engine.record_s": (record_s / n, "s"),
            "engine.samples": (samples / n, "count"),
            "engine.record_us_per_sample": (1e6 * record_s / samples if samples else 0.0, "us"),
            "engine.diagnostics_s": (seconds("engine.diagnostics") / n, "s"),
            "engine.open_loop_s": (seconds("engine.simulate_open_loop") / n, "s"),
            "plant.calls": (leaf["plant"][0] / n, "count"),
            "plant.s": (leaf["plant"][1] / n, "s"),
            "controller.calls": ((leaf["controller"][0] + calls("controller.validate_gains")) / n,
                                 "count"),
            "controller.s": ((leaf["controller"][1] + seconds("controller.validate_gains")) / n,
                             "s"),
            "controller.validate_gains_s": (seconds("controller.validate_gains") / n, "s"),
        }
        for suite in antago.verify.SUITES:
            m[f"verify.{suite}_s"] = (seconds(f"verify.{suite}") / n, "s")
        m["verify.fail_verdicts"] = (fail_verdicts / n, "count")
        m["trace.overhead_frac"] = (overhead_frac, "ratio")
        return m

    def write(self, path) -> None:
        """Write every span, one JSON object per line."""
        with open(path, "w") as fh:
            for idx, (name, start, end, parent, op, child_s, info) in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "child_s": child_s,
                                     **(info or {})}) + "\n")
            for name, by_parent in self.leaves:
                for parent, (count, total, first, last, op) in by_parent.items():
                    fh.write(json.dumps({"name": name, "start": first, "end": last,
                                         "parent": parent, "op": op, "calls": count,
                                         "total_s": total}) + "\n")

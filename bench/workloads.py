"""The benchmark's workloads: seeded inputs, timed operations and their checks.

Each workload is a cycle of operations ("a pass") that the runner repeats
until its time is up. The runner times an operation's ``run``, which calls
the program and returns the outputs to check; ``check`` runs outside the
timed interval and returns a list of problems (empty when the outputs are
right).
Only ``antago.cli.main`` and public functions are called, always through
their module attribute so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import random
from dataclasses import replace
from pathlib import Path

import antago.cli
import antago.controller
import antago.engine
import antago.scenario_io
from antago.plant import PlantState

DEFAULT_SEED = 0

# A trajectory read back must match its stored reference to this fraction of
# each channel's largest magnitude: two orders of magnitude below the
# solver's rel_tol = 1e-8, loose enough for last-digit (ulp) changes.
TRAJECTORY_TOL = 1e-10
# A sweep table row must match the scalar run of the same variant this well.
SWEEP_TOL = 1e-9

PRESETS = ("fig2-F1", "fig2-F2", "fig2-F3", "multistep")
SUITES = ("matching", "observer-decay", "lyapunov", "gradients", "gains")



def _call_cli(argv: list[str]) -> tuple[int, str]:
    """Run one CLI command in-process; return its exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = antago.cli.main(argv)
    return rc, out.getvalue()


def _close(a: float, b: float, tol: float, floor: float = 0.0) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= tol * max(abs(a), abs(b)) + floor


# --------------------------------------------------------------------------
# Stored trajectory references.

def reference_indices(n: int, stride: int) -> list[int]:
    idx = list(range(0, n, stride))
    if idx[-1] != n - 1:
        idx.append(n - 1)
    return idx


def trajectory_reference(record, channels, stride: int = 50) -> dict:
    """Compact reference of a record: every ``stride``-th sample plus the last,
    and per-channel sums over all samples."""
    idx = reference_indices(len(record), stride)
    return {
        "status": record.status,
        "samples": len(record),
        "stride": stride,
        "channels": {ch: [float(record[ch][i]) for i in idx] for ch in channels},
        "sums": {ch: float(record[ch].sum()) for ch in channels},
        "abs_sums": {ch: float(abs(record[ch]).sum()) for ch in channels},
    }


def compare_trajectory(record, ref: dict, label: str) -> list[str]:
    if record.status != ref["status"]:
        return [f"{label}: status {record.status!r}, expected {ref['status']!r}"]
    if len(record) != ref["samples"]:
        return [f"{label}: {len(record)} samples, expected {ref['samples']}"]
    idx = reference_indices(len(record), ref["stride"])
    problems = []
    for ch, expected in ref["channels"].items():
        got = record[ch]
        scale = max(abs(v) for v in expected)
        worst = max(abs(float(got[i]) - e) for i, e in zip(idx, expected))
        if worst > TRAJECTORY_TOL * scale:
            problems.append(f"{label}: channel {ch} off by {worst:.3e} "
                            f"(tolerance {TRAJECTORY_TOL * scale:.3e})")
        total = float(got.sum())
        if abs(total - ref["sums"][ch]) > TRAJECTORY_TOL * ref["abs_sums"][ch]:
            problems.append(f"{label}: channel {ch} sum {total!r}, "
                            f"expected {ref['sums'][ch]!r}")
    return problems


# --------------------------------------------------------------------------
# Operations.

class Op:
    kind = ""
    label = ""
    points = 1      # sweep points an op completes

    def prepare(self) -> None:
        """Untimed work done once per run, such as computing reference outputs."""


class RunOp(Op):
    """``antago run <preset> --out <csv>``, then read the CSV back."""

    kind = "run"

    def __init__(self, preset: str, out: Path, ref: dict):
        self.label = f"run {preset}"
        self.preset, self.out, self.ref = preset, out, ref

    def run(self):
        rc, _ = _call_cli(["run", self.preset, "--out", str(self.out)])
        return rc, antago.scenario_io.load_trajectory_csv(self.out)

    def check(self, payload) -> list[str]:
        rc, record = payload
        problems = compare_trajectory(record, self.ref, self.label)
        expected_rc = 0 if self.ref["status"] == "ok" else 1
        if rc != expected_rc:
            problems.append(f"{self.label}: exit code {rc}, expected {expected_rc}")
        return problems


class VerifyOp(Op):
    """``antago verify <suite>``. Verdicts are counted, never gated on: the
    lyapunov suite fails on fig2-F3 by design (acceptance criterion 4)."""

    kind = "verify"

    def __init__(self, suite: str, seed: int):
        self.label = f"verify {suite}"
        self.argv = ["verify", suite, "--seed", str(seed)]
        self.fail_verdicts = 0

    def run(self):
        return _call_cli(self.argv)

    def check(self, payload) -> list[str]:
        rc, text = payload
        passes, fails = text.count("-> PASS"), text.count("-> FAIL")
        self.fail_verdicts = fails
        if passes + fails == 0:
            return [f"{self.label}: printed no verdict"]
        if rc != (1 if fails else 0):
            return [f"{self.label}: exit code {rc} with {fails} FAIL verdicts"]
        return []


SWEEP_COLUMNS = ("value", "valid", "positive_definite", "rate_bound_ok",
                 "condition_product", "status", "x_error", "settle_time",
                 "max_psi_increment", "psi_max", "zeta_rate")


def scalar_sweep_row(base, param: str, value: float) -> dict:
    """What a sweep table row must say: validate_gains, simulate and
    diagnostics of the variant, called one by one."""
    variant = replace(base, gains=replace(base.gains, **{param: value}))
    report = antago.controller.validate_gains(variant.params, variant.gains)
    record = antago.engine.simulate(variant)
    summary = antago.engine.diagnostics(record, variant.gains, variant.params)
    return {
        "value": value,
        "valid": report.positive_definite and report.rate_bound_ok,
        "positive_definite": report.positive_definite,
        "rate_bound_ok": report.rate_bound_ok,
        "condition_product": report.condition_product,
        "status": record.status,
        "x_error": summary.x_error,
        "settle_time": summary.settle_time,
        "max_psi_increment": summary.max_psi_increment,
        "psi_max": summary.psi_max,
        "zeta_rate": summary.zeta_rate,
    }


def parse_sweep_table(text: str) -> list[dict]:
    rows = list(csv.DictReader(io.StringIO(text)))
    out = []
    for row in rows:
        parsed = {}
        for key in SWEEP_COLUMNS:
            val = row[key]
            if key == "status":
                parsed[key] = val
            elif val in ("true", "false"):
                parsed[key] = val == "true"
            else:
                parsed[key] = float(val)
        out.append(parsed)
    return out


def compare_sweep_rows(got: list[dict], expected: list[dict], label: str) -> list[str]:
    if len(got) != len(expected):
        return [f"{label}: {len(got)} table rows, expected {len(expected)}"]
    problems = []
    for g, e in zip(got, expected):
        # Psi increments are differences of Psi: compare them on Psi's scale.
        floors = {"max_psi_increment": SWEEP_TOL * abs(e["psi_max"])}
        for key in SWEEP_COLUMNS:
            a, b = g[key], e[key]
            same = (_close(a, b, SWEEP_TOL, floors.get(key, 0.0))
                    if isinstance(b, float) else a == b)
            if not same:
                problems.append(f"{label} value {e['value']!r}: {key} = {a!r}, expected {b!r}")
    return problems


class SweepOp(Op):
    """``antago sweep <param> <preset> --values ... --out <csv>``."""

    kind = "sweep"

    def __init__(self, param: str, preset: str, values: list[float], out: Path):
        self.label = f"sweep {param} {preset}"
        self.param, self.preset, self.values, self.out = param, preset, values, out
        self.argv = ["sweep", param, preset, "--values", ",".join(map(repr, values)),
                     "--out", str(out)]
        self.points = len(values)
        self.expected: list[dict] = []
        self.stored: list[dict] | None = None

    def prepare(self) -> None:
        base = antago.scenario_io.load_preset(self.preset)
        self.expected = [scalar_sweep_row(base, self.param, v) for v in self.values]

    def run(self):
        return _call_cli(self.argv)[0]

    def check(self, rc) -> list[str]:
        rows = parse_sweep_table(self.out.read_text())
        problems = compare_sweep_rows(rows, self.expected, self.label)
        if self.stored is not None:
            problems += compare_sweep_rows(rows, self.stored, self.label + " (stored)")
        expected_rc = 0 if all(r["status"] == "ok" for r in self.expected) else 1
        if rc != expected_rc:
            problems.append(f"{self.label}: exit code {rc}, expected {expected_rc}")
        return problems


ORACLE_FIXED_STEP = 1e-4
CROSS_CHECK_BOUND = 1e-5    # rk23 against rk4, max |dx| / max |x|
LOSSLESS_DRIFT_BOUND = 1e-8  # max |H - H0| / H0 with R = 0


def rk4_scenario(preset: str):
    scenario = antago.scenario_io.load_preset(preset)
    return replace(scenario, solver=replace(scenario.solver, method="rk4",
                                            fixed_step=ORACLE_FIXED_STEP))


class FixedStepOp(Op):
    """``simulate`` with rk4 at h = 1e-4, cross-checked against rk23."""

    kind = "sim"

    def __init__(self, preset: str, ref: dict):
        self.label = f"rk4 {preset}"
        self.preset, self.ref = preset, ref
        self.rk23_x = None

    def prepare(self) -> None:
        self.rk23_x = antago.engine.simulate(antago.scenario_io.load_preset(self.preset))["x"]

    def run(self):
        return antago.engine.simulate(rk4_scenario(self.preset))

    def check(self, record) -> list[str]:
        problems = compare_trajectory(record, self.ref, self.label)
        if problems:
            return problems
        x = record["x"]
        err = float(abs(x - self.rk23_x).max() / abs(self.rk23_x).max())
        if not err < CROSS_CHECK_BOUND:
            problems.append(f"{self.label}: rk23 vs rk4 x(t) rel err {err:.2e} "
                            f">= {CROSS_CHECK_BOUND:g}")
        return problems


def open_loop_run():
    params = antago.scenario_io.load_preset("fig2-F1").params
    solver = antago.engine.SolverSettings(method="rk4", fixed_step=6e-7, sample_dt=1e-3)
    return antago.engine.simulate_open_loop(
        params, PlantState(x=5e-4, p=0.0, P1=2e4, P2=1e4), 0.1, solver, R_override=0.0)


class OpenLoopOp(Op):
    """Lossless ``simulate_open_loop``, rk4 at h = 6e-7 over 0.1 s."""

    kind = "sim"
    label = "lossless open loop"

    def __init__(self, ref: dict):
        self.ref = ref

    def run(self):
        return open_loop_run()

    def check(self, result) -> list[str]:
        _, states, H = result
        drift = float(abs(H - H[0]).max() / H[0])
        problems = []
        if not drift < LOSSLESS_DRIFT_BOUND:
            problems.append(f"{self.label}: energy drift {drift:.2e} >= {LOSSLESS_DRIFT_BOUND:g}")
        expected = self.ref["H"]
        if len(H) != len(expected):
            return problems + [f"{self.label}: {len(H)} samples, expected {len(expected)}"]
        worst = max(abs(float(h) - e) for h, e in zip(H, expected))
        if worst > TRAJECTORY_TOL * max(expected):
            problems.append(f"{self.label}: energy off the stored reference by {worst:.3e}")
        end = [float(v) for v in states[-1]]
        for got, want in zip(end, self.ref["final_state"]):
            if not _close(got, want, TRAJECTORY_TOL):
                problems.append(f"{self.label}: final state {end}, expected {self.ref['final_state']}")
                break
        return problems


# --------------------------------------------------------------------------
# Workloads.

def stratified(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """One value drawn in each of n equal bins of [lo, hi], rounded to 4 decimals.

    Bins keep the count of domain-exit points (large alpha) nearly the same on
    every seed, so the cost of a command does not swing with the draw.
    """
    width = (hi - lo) / n
    return [round(lo + width * (i + rng.random()), 4) for i in range(n)]


def sweep_commands(seed: int) -> list[tuple[str, str, list[float]]]:
    rng = random.Random(seed)
    return [("alpha", "fig2-F1", stratified(rng, 1.0, 25.0, 32)),
            ("k_m", "fig2-F2", stratified(rng, 0.5, 4.0, 32))]


class Workload:
    """One pass is ``ops`` in order.

    ``reason`` records why the workload exists. The seed changes the inputs,
    never what the workload stresses, so a claim made on one seed can be
    re-checked on a second one.
    """

    name = ""
    reason = ""
    scenarios: tuple[str, ...] = ()   # parsed by the set-up probe
    uses_cli = True
    ops: list[Op]

    def prepare(self) -> None:
        for op in self.ops:
            op.prepare()


class Study(Workload):
    name = "study"
    reason = ("paper-reproduction path: antago run of each preset plus CSV read-back, and "
              "the five verify suites; the only workload where CSV I/O and per-sample "
              "record building outweigh integration")
    scenarios = PRESETS

    def __init__(self, seed: int, tmp: Path, refs: dict):
        start = seed % len(PRESETS)
        order = PRESETS[start:] + PRESETS[:start]
        self.ops = ([RunOp(p, tmp / f"{p}.csv", refs["study"][p]) for p in order]
                    + [VerifyOp(s, seed) for s in SUITES])


class Sweep(Workload):
    name = "sweep"
    reason = ("batch gain exploration: one scenario parse per command, no trajectory CSV, "
              "a validate_gains call per point; 32 points per command sit above the "
              "~25-lane break-even of a lane-batched sweep, which study bypasses")
    scenarios = ("fig2-F1", "fig2-F2")

    def __init__(self, seed: int, tmp: Path, refs: dict):
        self.ops = [SweepOp(param, preset, values, tmp / f"sweep-{param}.csv")
                    for param, preset, values in sweep_commands(seed)]
        if seed == DEFAULT_SEED:
            for op, stored in zip(self.ops, refs["sweep"]["rows"]):
                op.stored = stored


class Oracle(Workload):
    name = "oracle"
    reason = ("independent cross-checks: RHS evaluation and the integrator dominate (400k+ "
              "evaluations, at most 2001 samples per run), so a per-sample optimisation "
              "must leave it unchanged; the only workload running the open-loop geometry")
    scenarios = ("fig2-F1", "fig2-F3")
    uses_cli = False

    def __init__(self, seed: int, tmp: Path, refs: dict):
        ops = [FixedStepOp("fig2-F1", refs["oracle"]["fig2-F1"]),
               FixedStepOp("fig2-F3", refs["oracle"]["fig2-F3"]),
               OpenLoopOp(refs["oracle"]["open_loop"])]
        start = seed % len(ops)
        self.ops = ops[start:] + ops[:start]


WORKLOADS = {cls.name: cls for cls in (Study, Sweep, Oracle)}

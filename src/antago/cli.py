"""Command-line front end.

Subcommands::

    antago run SCENARIO [--out out.csv] [--method rk23|rk4] [--rel-tol ...]
    antago verify {matching|observer-decay|lyapunov|gradients|gains} [--seed N]
    antago sweep PARAM --values 1,5,10 SCENARIO [--out out.csv]
    antago presets

SCENARIO is either a scenario file path or the name of a bundled preset
(override the preset directory with the ``ANTAGO_PRESET_DIR`` environment
variable; ``verify`` always checks the bundled presets). Exit status is
nonzero when a run terminates early or a verification bound is violated.
Every bad input reaches :func:`main` as a ``ValueError`` (``ScenarioError``
and ``DomainError`` are ones), which it prints as one ``error:`` line before
exiting 1, as it does an ``ArithmeticError`` (finite, accepted inputs whose
run overflows or divides by zero, such as ``Gamma0 = 1e-300``), an
``OSError`` (an unreadable scenario, an unwritable ``--out``, a full disk)
and a ``WorkerError`` (a forked worker that died); the old ``--out`` stays.
An early end of a run is the record's status.

Inputs are rejected before any work: an ``--out`` that is empty, a
directory or under a regular file, a negative ``--seed``, a scenario path
that names a directory unless it is also a preset's name, and ``--values``
text that is neither a number list nor a range, naming it, or that asks for
more than ``MAX_SWEEP_POINTS`` points, counted before any is read. ``sweep``
checks every point before it simulates any, then runs the points on
:func:`antago.workers.forked_imap` (an ``epsilon`` sweep simulates its one
scenario once, here). Its table and progress lines do not depend on how many
workers ran.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .controller import validate_gains
from .engine import (
    SETTLE_TOL,
    STEPPERS,
    ScenarioConfig,
    diagnostics,
    simulate_summary,
)
from .errors import ScenarioError, WorkerError
from .scenario_io import (
    _SECTIONS,
    _atomic_write,
    list_presets,
    load_preset,
    load_scenario,
    run_trajectory_csv,
)
from .workers import forked_imap

_SWEEP_PLANT_KEYS = ("R", "m")
_SWEEP_KEYS = (*_SECTIONS["gains"], *_SWEEP_PLANT_KEYS, "epsilon")
# Most points --values may ask for, as a number list or a 'start:stop:count'
# range; checked before any value is read. The benchmark sweeps 32 points per
# command.
MAX_SWEEP_POINTS = 10**4
# The names of antago.verify.SUITES, sorted; that module loads only for `verify`.
_VERIFY_SUITES = ("gains", "gradients", "lyapunov", "matching", "observer-decay")


def _resolve_scenario(ref: str) -> ScenarioConfig:
    path = Path(ref)
    if path.is_file():
        return load_scenario(path)
    if path.is_dir() and ref not in list_presets():
        raise ScenarioError(f"scenario {ref!r} is a directory, not a file")
    if path.suffix:
        raise ScenarioError(f"scenario file not found: {ref}")
    return load_preset(ref)


def _apply_solver_flags(scenario: ScenarioConfig, args) -> ScenarioConfig:
    changes = {key: getattr(args, key) for key in ("rel_tol", "abs_tol", "method")
               if getattr(args, key) is not None}
    if not changes:
        return scenario
    return replace(scenario, solver=replace(scenario.solver, **changes))


def _print_summary(summary) -> None:
    print(f"status: {summary.status}")
    print(f"samples: {summary.samples}")
    print(f"final x - x*: {summary.x_error:.6e} m")
    print(f"final sigma: {summary.sigma_final:.6e}")
    print(f"force-balance residual: {summary.force_balance_residual:.6e} N")
    print(f"settle time (|x - x*| > {SETTLE_TOL:g}): {summary.settle_time:.4f} s")
    print(f"max Psi increment: {summary.max_psi_increment:.6e} (Psi max {summary.psi_max:.6e})")
    print(f"fitted zeta decay rate: {summary.zeta_rate:.6f} "
          f"(rel. err vs gain {summary.zeta_rate_rel_err:.3e})")


def _out_path(text: str) -> Path:
    """The ``--out`` file, checked before any work that would be lost on it."""
    if not text:
        raise ScenarioError("--out is empty, not a file name")
    path = Path(text)
    if path.is_dir():
        raise ScenarioError(f"--out {text!r} is a directory, not a file")
    parent = path.parent
    while not parent.exists():   # the writer creates the missing directories
        parent = parent.parent
    if not parent.is_dir():
        raise ScenarioError(f"--out {text!r} lies under {str(parent)!r}, which is not a directory")
    return path


def _cmd_run(args) -> int:
    scenario = _apply_solver_flags(_resolve_scenario(args.scenario), args)
    out = _out_path(f"{scenario.name or 'trajectory'}.csv" if args.out is None else args.out)
    record = run_trajectory_csv(scenario, out)
    summary = diagnostics(record, scenario.gains, scenario.params)
    print(f"wrote {len(record)} samples to {out}")
    _print_summary(summary)
    if record.status != "ok":
        print(f"error: {record.detail}", file=sys.stderr)
        return 1
    return 0


def _cmd_verify(args) -> int:
    if args.seed < 0:
        raise ValueError("expected non-negative integer")
    from .verify import SUITES

    suite = SUITES[args.suite]
    report = suite(seed=args.seed) if args.suite in ("matching", "gradients") else suite()
    for line in report.lines:
        print(line)
    return 0 if report.ok else 1


def _parse_values(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) not in (1, 3):
        raise ScenarioError("range values must be 'start:stop:count'")
    if len(parts) == 1 and text.count(",") >= MAX_SWEEP_POINTS:
        raise ScenarioError(f"value list exceeds the budget of {MAX_SWEEP_POINTS} points")
    try:
        if len(parts) == 1:
            return [float(v) for v in text.split(",")]
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ScenarioError(f"--values {text!r} is not a number list '1,5,10' "
                            "or a range 'start:stop:count'") from None
    if n < 1:
        raise ScenarioError("range count must be at least 1")
    if n > MAX_SWEEP_POINTS:
        raise ScenarioError(f"range count exceeds the budget of {MAX_SWEEP_POINTS} points")
    if n == 1:
        return [lo]
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _sweep_variant(scenario: ScenarioConfig, param: str, value: float) -> ScenarioConfig:
    if param in _SECTIONS["gains"]:
        return replace(scenario, gains=replace(scenario.gains, **{param: value}))
    if param in _SWEEP_PLANT_KEYS:
        return replace(scenario, params=replace(scenario.params, **{param: value}))
    return scenario   # epsilon only enters the gain analysis, not the dynamics


def _cmd_sweep(args) -> int:
    base = _apply_solver_flags(_resolve_scenario(args.scenario), args)
    values = _parse_values(args.values)
    out = None if args.out is None else _out_path(args.out)
    scenarios = [_sweep_variant(base, args.parameter, value) for value in values]
    epsilon_sweep = args.parameter == "epsilon"
    reports = [validate_gains(s.params, s.gains, epsilon=value if epsilon_sweep else 0.0)
               for s, value in zip(scenarios, values)]
    # every epsilon variant is the base scenario: simulate it once
    summaries = ([simulate_summary(base)] * len(values) if epsilon_sweep
                 else forked_imap(simulate_summary, scenarios))
    header = ("value,valid,positive_definite,rate_bound_ok,condition_product,"
              "status,x_error,settle_time,max_psi_increment,psi_max,zeta_rate")
    rows = [header]
    worst_exit = 0
    # strict: runs the summaries to their end, which reaps the workers
    for value, report, summary in zip(values, reports, summaries, strict=True):
        valid = report.positive_definite and report.rate_bound_ok
        if summary.status != "ok":
            worst_exit = 1
        rows.append(",".join([
            repr(value), str(valid).lower(), str(report.positive_definite).lower(),
            str(report.rate_bound_ok).lower(), repr(report.condition_product),
            summary.status, repr(summary.x_error), repr(summary.settle_time),
            repr(summary.max_psi_increment), repr(summary.psi_max),
            repr(summary.zeta_rate),
        ]))
        print(f"{args.parameter} = {value:g}: valid={valid} "
              f"product={report.condition_product:.4f} status={summary.status}")
    if out is not None:
        _atomic_write(out, ("\n".join(rows) + "\n",))
        print(f"wrote {len(values)} rows to {args.out}")
    return worst_exit


def _cmd_presets(args) -> int:
    names = list_presets()
    if not names:
        print("no presets found")
        return 1
    for name in names:
        print(name)
    return 0


def _add_solver_flags(sub) -> None:
    sub.add_argument("--rel-tol", type=float, default=None,
                     help="adaptive solver relative tolerance")
    sub.add_argument("--abs-tol", type=float, default=None,
                     help="adaptive solver absolute tolerance")
    sub.add_argument("--method", choices=sorted(STEPPERS), default=None,
                     help="integration method")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="antago",
        description="Simulation and verification of an antagonistic "
                    "soft-hydraulic actuator pair under energy-shaping control.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario and write a trajectory CSV")
    p_run.add_argument("scenario", help="scenario file path or preset name")
    p_run.add_argument("--out", help="output CSV path (default: <scenario>.csv)")
    _add_solver_flags(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_verify = sub.add_parser("verify", help="run a numerical verification suite")
    p_verify.add_argument("suite", choices=_VERIFY_SUITES)
    p_verify.add_argument("--seed", type=int, default=0,
                          help="seed for the randomized suites")
    p_verify.set_defaults(func=_cmd_verify)

    p_sweep = sub.add_parser("sweep", help="sweep one parameter and tabulate diagnostics")
    p_sweep.add_argument("parameter", choices=sorted(_SWEEP_KEYS))
    p_sweep.add_argument("scenario", help="scenario file path or preset name")
    p_sweep.add_argument("--values", required=True,
                         help="comma list '1,5,10' or range 'start:stop:count'")
    p_sweep.add_argument("--out", help="output CSV path")
    _add_solver_flags(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_presets = sub.add_parser("presets", help="list bundled scenario presets")
    p_presets.set_defaults(func=_cmd_presets)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, WorkerError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        print(f"error: {type(exc).__name__} in the run: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

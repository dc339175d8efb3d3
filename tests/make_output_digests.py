"""Regenerate ``data/output_digests.json``: SHA-256 digests of every
user-visible output of the command line, of each preset's scenario text, and
of the records of three runs the command line does not make: a two-segment
domain exit, a step underflow and a three-segment rk4 run, and of the times,
states and energies of two unforced open-loop runs: a lossless rk23 run and
a damped rk4 run.

Run from the repository root::

    python3 tests/make_output_digests.py           # rewrite the stored file
    python3 tests/make_output_digests.py --check   # only list what would move

``test_output_digests.py`` recomputes the digests and compares them exactly.
Regenerate only when a change of an output is intended, and name each digest
that moved, and why, in CHANGES.md; the script prints the key of each digest
that differs from the stored file. With ``--check`` it writes nothing and
exits 1 if any digest differs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
DIGEST_FILE = HERE / "data" / "output_digests.json"
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from antago.cli import main  # noqa: E402
from antago.engine import SolverSettings, simulate, simulate_open_loop  # noqa: E402
from antago.plant import PlantState  # noqa: E402
from antago.scenario_io import load_preset, serialize_scenario  # noqa: E402
from antago.verify import SUITES  # noqa: E402

PRESETS = ("fig2-F1", "fig2-F2", "fig2-F3", "multistep")
SWEEPS = (
    ("alpha", "fig2-F1", "1:25:13"),
    ("k_m", "fig2-F2", "0.5:4:8"),
    ("epsilon", "fig2-F1", "0,5,6.5,6.526662755303724,7,10,50"),
)
# Each command with the files it writes, relative to the working directory.
COMMANDS = (
    *((["run", name, "--out", "out.csv"], ("out.csv",)) for name in PRESETS),
    *((["sweep", param, preset, "--values", values, "--out", "out.csv"], ("out.csv",))
      for param, preset, values in SWEEPS),
    *((["verify", suite], ()) for suite in sorted(SUITES)),
    (["presets"], ()),
    (["--help"], ()),
    *(([command, "--help"], ()) for command in ("run", "verify", "sweep", "presets")),
)


def table_runs() -> dict:
    """The scenarios whose records are digested, by name: runs of
    ``test_unrolled_steppers_match_tuple_loops`` that end early after a
    finished segment, or step with rk4 over three segments."""
    study, multistep = load_preset("fig2-F1"), load_preset("multistep")
    return {
        "domain-exit": replace(multistep, setpoints=((0.0, 0.0), (2.0, 3e-3)), duration=6.0,
                               gains=replace(multistep.gains, alpha=20.0)),
        "step-underflow": replace(study, duration=0.5, solver=replace(
            study.solver, rel_tol=1e-30, abs_tol=1e-300)),
        "rk4-multistep": replace(
            multistep, solver=replace(multistep.solver, method="rk4", fixed_step=1e-4),
            setpoints=((0.0, 1e-3), (0.08, 2e-3), (0.14, -1e-3)), duration=0.2),
    }


def open_runs() -> dict:
    """The open-loop runs whose outputs are digested, by name: 10 ms of the
    fig2-F1 plant from a pressurised rest, lossless under rk23 and with its
    own damping under rk4, each as ``simulate_open_loop``'s arguments."""
    params, init = load_preset("fig2-F1").params, PlantState(5e-4, 0.0, 2e4, 1e4)
    return {
        "rk23-lossless": (params, init, 0.01, SolverSettings(
            method="rk23", rel_tol=1e-10, abs_tol=1e-12, sample_dt=1e-3, max_step=1e-4), 0.0),
        "rk4": (params, init, 0.01, SolverSettings(
            method="rk4", fixed_step=1e-6, sample_dt=1e-3), None),
    }


def environment() -> dict:
    """What the digests depend on besides the code: the last bit of a libm
    function and the layout of argparse's help may change with these."""
    return {"python": platform.python_version(), "numpy": np.__version__,
            "libc": " ".join(platform.libc_ver())}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _run(argv: list[str], files: tuple[str, ...]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:   # --help
            code = exc.code
    entry = {"exit": code, "stdout": _sha(out.getvalue()), "stderr": _sha(err.getvalue())}
    for name in files:
        entry[name] = _sha(Path(name).read_text())
        os.remove(name)
    return entry


def digests() -> dict:
    """The digest of each output, keyed by the command that made it.

    Runs in a fresh temporary directory, with the bundled presets and an
    80-column help layout, and restores the working directory and the
    environment it changed.
    """
    saved_env = {k: os.environ.get(k) for k in ("COLUMNS", "ANTAGO_PRESET_DIR")}
    cwd = os.getcwd()
    os.environ["COLUMNS"] = "80"
    os.environ.pop("ANTAGO_PRESET_DIR", None)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                result = {" ".join(argv): _run(argv, files) for argv, files in COMMANDS}
            finally:
                os.chdir(cwd)
        for name in PRESETS:
            result[f"serialize_scenario {name}"] = {
                "text": _sha(serialize_scenario(load_preset(name)))}
        for name, scenario in table_runs().items():
            record = simulate(scenario)
            result[f"simulate {name}"] = {
                "status": _sha(record.status), "detail": _sha(record.detail),
                "table": hashlib.sha256(record.table.tobytes()).hexdigest()}
        for name, args in open_runs().items():
            result[f"simulate_open_loop {name}"] = {
                key: hashlib.sha256(np.ascontiguousarray(value).tobytes()).hexdigest()
                for key, value in zip(("times", "states", "H"), simulate_open_loop(*args))}
    finally:
        for key, value in saved_env.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    return result


def moved(stored: dict, result: dict) -> list[str]:
    """The keys whose digests differ between ``stored`` and ``result``, sorted."""
    return sorted(key for key in stored.keys() | result.keys()
                  if stored.get(key) != result.get(key))


def regenerate(argv: list[str]) -> int:
    """Rewrite the stored digests and print the keys that moved, or, given
    ``["--check"]``, only print them and return 1 if there are any."""
    check = argv == ["--check"]
    if argv and not check:
        print(f"usage: {Path(__file__).name} [--check]", file=sys.stderr)
        return 2
    stored = json.loads(DIGEST_FILE.read_text())["digests"] if DIGEST_FILE.is_file() else {}
    result = digests()
    if not check:
        DIGEST_FILE.parent.mkdir(exist_ok=True)
        DIGEST_FILE.write_text(json.dumps({"environment": environment(), "digests": result},
                                          indent=1) + "\n")
        print(f"wrote {DIGEST_FILE}")
    changed = moved(stored, result)
    for key in changed:
        print(f"changed: {key}")
    print(f"{len(changed)} of {len(result)} digests {'differ' if check else 'changed'}")
    return 1 if check and changed else 0


if __name__ == "__main__":
    sys.exit(regenerate(sys.argv[1:]))

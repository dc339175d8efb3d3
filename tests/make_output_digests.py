"""Regenerate ``data/output_digests.json``: SHA-256 digests of every
user-visible output of the command line and of each preset's scenario text.

Run from the repository root::

    python3 tests/make_output_digests.py

``test_output_digests.py`` recomputes the digests and compares them exactly.
Regenerate only when a change of an output is intended, and name each digest
that moved, and why, in CHANGES.md; the script prints the key of each digest
that differs from the stored file.
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
from pathlib import Path

HERE = Path(__file__).resolve().parent
DIGEST_FILE = HERE / "data" / "output_digests.json"
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from antago.cli import main  # noqa: E402
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
    finally:
        for key, value in saved_env.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    return result


if __name__ == "__main__":
    stored = json.loads(DIGEST_FILE.read_text())["digests"] if DIGEST_FILE.is_file() else {}
    result = digests()
    DIGEST_FILE.parent.mkdir(exist_ok=True)
    DIGEST_FILE.write_text(json.dumps({"environment": environment(), "digests": result},
                                      indent=1) + "\n")
    print(f"wrote {DIGEST_FILE}")
    changed = sorted(key for key in stored.keys() | result.keys()
                     if stored.get(key) != result.get(key))
    for key in changed:
        print(f"changed: {key}")
    print(f"{len(changed)} of {len(result)} digests changed")

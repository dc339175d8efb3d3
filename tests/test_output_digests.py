"""Every user-visible output is pinned to the last byte: the CLI's stdout,
stderr, written files and exit codes, each preset's scenario text and the
records of three early-ending or rk4 runs."""

import json
import os
import subprocess
import sys

import pytest

import make_output_digests as pin

# Runs the CLI on argv in a process that has not loaded numpy before the
# command; with NPY_DISABLE_CPU_FEATURES set, checks that numpy ran none of its
# CPU-dispatched code.
_FRESH = """\
import os
import sys
import antago.cli
assert "numpy" not in sys.modules
code = antago.cli.main(sys.argv[1:])
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
assert "NPY_DISABLE_CPU_FEATURES" not in os.environ or not any(
    __cpu_features__[target] for target in __cpu_dispatch__)
sys.exit(code)
"""


def _stored() -> dict:
    stored = json.loads(pin.DIGEST_FILE.read_text())
    if stored["environment"] != pin.environment():
        pytest.skip(f"digests were made under {stored['environment']}, this is "
                    f"{pin.environment()}; libm and argparse may differ in the last byte")
    return stored["digests"]


def test_outputs_match_stored_digests():
    stored = _stored()
    actual = pin.digests()
    moved = sorted(key for key in stored.keys() | actual.keys()
                   if stored.get(key) != actual.get(key))
    assert not moved, f"outputs moved: {moved}; see tests/make_output_digests.py"


_FRESH_COMMANDS = (*(f"run {name} --out out.csv" for name in pin.PRESETS),
                   "sweep alpha fig2-F1 --values 1:25:13 --out out.csv")


@pytest.mark.parametrize("command, dispatch", [
    *(pytest.param(command, True, id=command) for command in _FRESH_COMMANDS),
    *(pytest.param(command, False, id=f"{command} dispatch-off") for command in _FRESH_COMMANDS),
])
def test_fresh_process_outputs_match_stored_digests(tmp_path, command, dispatch):
    """A command whose process first imports numpy inside the command writes
    the same bytes as the in-process runs the digests were made from, also
    with numpy's CPU dispatch switched off for every target it was built with:
    no output rests on which code numpy picks for this CPU."""
    from numpy._core._multiarray_umath import __cpu_dispatch__

    stored = _stored()[command]
    env = {k: v for k, v in os.environ.items()
           if k not in ("ANTAGO_PRESET_DIR", "NPY_DISABLE_CPU_FEATURES")}
    env["PYTHONPATH"] = str(pin.HERE.parent / "src")
    if not dispatch:
        env["NPY_DISABLE_CPU_FEATURES"] = " ".join(__cpu_dispatch__)
    proc = subprocess.run([sys.executable, "-c", _FRESH, *command.split()], cwd=tmp_path,
                          capture_output=True, text=True, env=env, timeout=120)
    assert {"exit": proc.returncode, "stdout": pin._sha(proc.stdout),
            "stderr": pin._sha(proc.stderr),
            "out.csv": pin._sha((tmp_path / "out.csv").read_text())} == stored

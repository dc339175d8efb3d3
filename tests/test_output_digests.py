"""Every user-visible output is pinned to the last byte: the CLI's stdout,
stderr, written files and exit codes, and each preset's scenario text."""

import json
import os
import subprocess
import sys

import pytest

import make_output_digests as pin

# Runs the CLI on argv in a process that has not loaded numpy before the command.
_FRESH = """\
import sys
import antago.cli
assert "numpy" not in sys.modules
sys.exit(antago.cli.main(sys.argv[1:]))
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


@pytest.mark.parametrize("command", [
    "run fig2-F1 --out out.csv",
    "sweep alpha fig2-F1 --values 1:25:13 --out out.csv",
])
def test_fresh_process_outputs_match_stored_digests(tmp_path, command):
    """A command whose process first imports numpy inside the command writes
    the same bytes as the in-process runs the digests were made from."""
    stored = _stored()[command]
    env = {k: v for k, v in os.environ.items() if k != "ANTAGO_PRESET_DIR"}
    env["PYTHONPATH"] = str(pin.HERE.parent / "src")
    proc = subprocess.run([sys.executable, "-c", _FRESH, *command.split()], cwd=tmp_path,
                          capture_output=True, text=True, env=env, timeout=120)
    assert {"exit": proc.returncode, "stdout": pin._sha(proc.stdout),
            "stderr": pin._sha(proc.stderr),
            "out.csv": pin._sha((tmp_path / "out.csv").read_text())} == stored

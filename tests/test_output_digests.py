"""Every user-visible output is pinned to the last byte: the CLI's stdout,
stderr, written files and exit codes, each preset's scenario text, the
records of three early-ending or rk4 runs and the outputs of two open-loop
runs."""

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
    moved = pin.moved(stored, pin.digests())
    assert not moved, f"outputs moved: {moved}; see tests/make_output_digests.py"


def test_check_lists_moved_digests_and_writes_nothing(tmp_path, monkeypatch, capsys):
    """``make_output_digests.py --check`` prints each digest that would move
    and exits 1 without touching the stored file; with none moved it exits
    0, and the script without ``--check`` writes the file."""
    digest_file = tmp_path / "output_digests.json"
    digest_file.write_text(json.dumps({"digests": {"a": {"x": "1"}, "b": {"x": "2"}}}))
    before = digest_file.read_text()
    monkeypatch.setattr(pin, "DIGEST_FILE", digest_file)
    monkeypatch.setattr(pin, "digests", lambda: {"a": {"x": "1"}, "b": {"x": "3"}, "c": {}})
    assert pin.regenerate(["--check"]) == 1
    assert capsys.readouterr().out == "changed: b\nchanged: c\n2 of 3 digests differ\n"
    assert digest_file.read_text() == before
    assert pin.regenerate(["--bogus"]) == 2 and digest_file.read_text() == before
    assert pin.regenerate([]) == 0
    assert json.loads(digest_file.read_text())["digests"] == pin.digests()
    assert pin.regenerate(["--check"]) == 0
    assert capsys.readouterr().out.endswith("0 of 3 digests differ\n")


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

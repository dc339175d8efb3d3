"""Every user-visible output is pinned to the last byte: the CLI's stdout,
stderr, written files and exit codes, and each preset's scenario text."""

import json

import pytest

import make_output_digests as pin


def test_outputs_match_stored_digests():
    stored = json.loads(pin.DIGEST_FILE.read_text())
    if stored["environment"] != pin.environment():
        pytest.skip(f"digests were made under {stored['environment']}, this is "
                    f"{pin.environment()}; libm and argparse may differ in the last byte")
    actual = pin.digests()
    moved = sorted(key for key in stored["digests"].keys() | actual.keys()
                   if stored["digests"].get(key) != actual.get(key))
    assert not moved, f"outputs moved: {moved}; see tests/make_output_digests.py"

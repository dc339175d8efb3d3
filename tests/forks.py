"""Fork helpers for the tests of the forked paths: record the children
forked while a test runs, and check that each was reaped."""

import os

import pytest


def _record_forks(monkeypatch) -> list[int]:
    """The pids of the children forked from here on."""
    pids = []
    fork = os.fork

    def fork_and_record():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork_and_record)
    return pids


def _assert_reaped(pids):
    assert pids
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)   # a child not yet reaped would still exist, as a zombie

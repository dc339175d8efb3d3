"""Forked workers: item order, who computes what, clean-up, and outputs that do
not depend on how many workers ran."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import antago
from antago.verify import check_lyapunov
from antago.workers import forked_imap


def _cores(monkeypatch, cores):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores, raising=False)


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


def _item_and_pid(i):
    return i, os.getpid()


def test_items_keep_their_order_and_this_process_computes_its_share(monkeypatch):
    _cores(monkeypatch, {0, 1, 2})
    forks = _record_forks(monkeypatch)
    results = list(forked_imap(_item_and_pid, range(8)))
    assert [i for i, _ in results] == list(range(8))
    assert [pid for _, pid in results] == [os.getpid(), *forks] * 2 + [os.getpid(), forks[0]]
    _assert_reaped(forks)


def test_one_busy_worker_runs_in_process(monkeypatch):
    _cores(monkeypatch, {0})
    forks = _record_forks(monkeypatch)
    assert list(forked_imap(_item_and_pid, range(3))) == [(i, os.getpid()) for i in range(3)]
    _cores(monkeypatch, {0, 1, 2})
    assert list(forked_imap(_item_and_pid, [7])) == [(7, os.getpid())]
    assert list(forked_imap(_item_and_pid, [])) == []
    assert forks == []


def test_closed_after_first_item_reaps_every_child(monkeypatch):
    _cores(monkeypatch, {0, 1, 2})
    forks = _record_forks(monkeypatch)
    results = forked_imap(_item_and_pid, range(9))
    assert next(results) == (0, os.getpid())
    results.close()
    assert len(forks) == 2
    _assert_reaped(forks)


def test_error_in_this_process_reaps_every_child(monkeypatch):
    _cores(monkeypatch, {0, 1, 2})
    forks = _record_forks(monkeypatch)

    def fail_on_three(i):   # with three workers, item 3 is this process's second
        if i == 3:
            raise ZeroDivisionError("item 3")
        return i

    results = forked_imap(fail_on_three, range(9))
    with pytest.raises(ZeroDivisionError, match="item 3"):
        list(results)
    assert len(forks) == 2
    _assert_reaped(forks)


def test_lyapunov_report_does_not_depend_on_worker_count(tmp_path, monkeypatch):
    """Three presets on two cores: this process simulates the first and the
    third, one child the second; the report equals the in-process one."""
    import antago.verify

    simulate = antago.verify.simulate
    pids = tmp_path / "pids.txt"

    def simulate_and_log(scenario):
        with open(pids, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return simulate(scenario)

    monkeypatch.setattr(antago.verify, "simulate", simulate_and_log)
    ran, reports = {}, {}
    for cores in ({0}, {0, 1}):
        _cores(monkeypatch, cores)
        pids.write_text("")
        reports[len(cores)] = check_lyapunov()
        ran[len(cores)] = pids.read_text().split()
    assert reports[2].lines == reports[1].lines and reports[2].checks == reports[1].checks
    me = str(os.getpid())
    assert ran[1] == [me] * 3
    assert len(ran[2]) == 3 and ran[2].count(me) == 2 and len(set(ran[2])) == 2


# Runs one job that imports nothing on two items with the given cores, in a
# fresh interpreter, and prints whether numpy was loaded where each item ran.
_NUMPY_IN_JOBS = """\
import json, os, sys
from antago.workers import forked_imap
os.sched_getaffinity = lambda pid: set(range(int(sys.argv[1])))
print(json.dumps(list(forked_imap(lambda i: (os.getpid(), "numpy" in sys.modules), [0, 1]))))
"""


@pytest.mark.parametrize("cores", [1, 2])
def test_forked_workers_share_numpy_and_in_process_items_import_nothing(cores):
    """Two cores: forked_imap loads numpy before it forks, so the child has it
    though its job never imports it. One core: numpy stays unloaded."""
    src = str(Path(antago.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _NUMPY_IN_JOBS, str(cores)],
                          capture_output=True, text=True, check=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    (pid0, numpy0), (pid1, numpy1) = json.loads(proc.stdout)
    assert (pid1 != pid0, numpy0, numpy1) == (cores == 2, cores == 2, cores == 2)

"""Forked workers: item order, who computes what, clean-up, and outputs that do
not depend on how many workers ran."""

import ast
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import antago
from antago.verify import check_lyapunov
from antago.errors import WorkerError
from antago.workers import forked_ahead, forked_imap
from forks import _assert_reaped, _record_forks


def _cores(monkeypatch, cores):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores, raising=False)


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


def _sink_to(path):
    """A forked_ahead sink that appends each result to ``path``, one line each."""
    def sink(result):
        with open(path, "a") as fh:
            fh.write(f"{json.dumps(result)}\n")
    return sink


def _lines(path, count, timeout=30.0):
    """The first ``count`` lines of ``path``, waiting up to ``timeout`` s for them."""
    deadline = time.monotonic() + timeout
    while (len(lines := path.read_text().splitlines()) < count
           and time.monotonic() < deadline):
        time.sleep(0.001)
    return [tuple(json.loads(line)) for line in lines]


def test_ahead_child_takes_ready_items_and_splits_the_rest(tmp_path, monkeypatch):
    """The child takes each item as it is counted ready, in order, and hands
    it to the sink in its own process; the rest are yielded here in order,
    this process computing the first of them and every second one after it,
    and the child is reaped."""
    _cores(monkeypatch, {0, 1})
    forks = _record_forks(monkeypatch)
    sunk = tmp_path / "sunk.txt"
    sunk.write_text("")
    with forked_ahead(_item_and_pid, range(9), _sink_to(sunk)) as ahead:
        ahead.ready(3)
        assert _lines(sunk, 3) == [(i, forks[0]) for i in range(3)]
        rest = list(ahead.rest())
    assert [i for i, _ in rest] == list(range(3, 9))
    assert [pid for _, pid in rest] == [os.getpid(), forks[0]] * 3
    assert len(forks) == 1
    _assert_reaped(forks)


def _fail_on_two(i):
    if i == 2:
        raise ZeroDivisionError("item 2")
    return i


def test_ahead_error_or_death_in_the_child_is_raised_at_rest(tmp_path, monkeypatch):
    """An exception the child meets while it works ahead, in its job or its
    sink, is raised again by ``rest``, as is a child's death, as WorkerError;
    the child is reaped either way."""
    _cores(monkeypatch, {0, 1})
    forks = _record_forks(monkeypatch)
    with pytest.raises(ZeroDivisionError, match="item 2"):
        with forked_ahead(_fail_on_two, range(5), lambda result: None) as ahead:
            ahead.ready(5)
            list(ahead.rest())
    with pytest.raises(WorkerError, match=r"worker process \d+ was killed by SIGKILL"):
        with forked_ahead(_item_and_pid, range(5),
                          lambda result: os.kill(os.getpid(), 9)) as ahead:
            ahead.ready(1)
            time.sleep(0.05)
            ahead.ready(2)   # to a dead child: no error until rest
            list(ahead.rest())
    assert len(forks) == 2
    _assert_reaped(forks)


def test_lyapunov_report_does_not_depend_on_worker_count(tmp_path, monkeypatch):
    """Three presets on two cores: this process simulates the first and the
    third, one child the second; the report equals the in-process one."""
    import antago.verify

    simulate_summary = antago.verify.simulate_summary
    pids = tmp_path / "pids.txt"

    def simulate_and_log(scenario):
        with open(pids, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return simulate_summary(scenario)

    monkeypatch.setattr(antago.verify, "simulate_summary", simulate_and_log)
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


def _sites(found) -> set[tuple[str, str, str]]:
    """Each ``(module, function, name)`` of ``src/antago`` such that
    ``found`` gives ``name`` for a node of the module's code, with the
    dotted names of the definitions that enclose the node."""
    sites = set()

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, module, (*scope, child.name))
                continue
            sites.update((module, ".".join(scope), name) for name in found(child))
            visit(child, module, scope)

    for path in sorted(Path(antago.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, ())
    return sites


def _fork_sites() -> set[tuple[str, str, str]]:
    """The sites that name ``forked_imap`` or ``forked_ahead`` (an import
    excepted)."""
    def found(node):
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute) else None)
        return (name,) if name in ("forked_imap", "forked_ahead") else ()

    return _sites(found)


def _imports(node) -> tuple[str, ...]:
    """The top-level modules that an import statement ``node`` loads."""
    if isinstance(node, ast.Import):
        return tuple(alias.name.partition(".")[0] for alias in node.names)
    if isinstance(node, ast.ImportFrom) and not node.level:
        return (node.module.partition(".")[0],)
    return ()


def test_only_the_three_documented_users_fork():
    """The module docstring's three users are the only code in the package
    that names ``forked_imap`` or ``forked_ahead``, so a new fork site comes
    with a line there."""
    assert _fork_sites() == {("cli", "_cmd_sweep", "forked_imap"),
                             ("verify", "check_lyapunov", "forked_imap"),
                             ("scenario_io", "run_trajectory_csv", "forked_ahead")}
    for user in ("cli._cmd_sweep", "verify.check_lyapunov", "scenario_io.run_trajectory_csv"):
        assert f"``{user}``" in antago.workers.__doc__, user


def test_only_the_csv_writer_shares_rows():
    """Only ``scenario_io.run_trajectory_csv`` imports ``mmap``: every run
    writes its rows into one ``array("d")``, and the CSV writer alone copies
    them into a mapping that its forked renderer reads."""
    assert {site for site in _sites(_imports) if site[2] == "mmap"} == {
        ("scenario_io", "run_trajectory_csv", "mmap")}

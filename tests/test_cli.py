"""Command-line interface: run, verify, sweep, presets."""

import errno
import json
import math
import os
import re
import stat
import subprocess
import sys
import tempfile
import threading
from dataclasses import replace
from pathlib import Path

import pytest

import antago
import make_output_digests as pin
from antago.cli import MAX_SWEEP_POINTS, _parse_values, main
from antago.controller import validate_gains
from antago.engine import (
    MAX_RK4_STEPS,
    MAX_SAMPLES,
    ForceModel,
    diagnostics,
    simulate,
    simulate_summary,
)
from antago.errors import ScenarioError
from antago.scenario_io import (
    load_preset,
    load_trajectory_csv,
    load_scenario,
    save_scenario,
    serialize_scenario,
    trajectory_to_csv,
)
from antago.verify import SUITES
from test_workers import _assert_reaped, _record_forks

_SRC = str(Path(antago.__file__).resolve().parents[1])


@pytest.fixture()
def short_scenario_file(tmp_path, study):
    """A fast-running scenario file for flag tests."""
    scenario = replace(study, duration=0.2)
    path = tmp_path / "short.ini"
    save_scenario(scenario, path)
    return path


def test_run_preset_writes_csv_and_summary(tmp_path, capsys):
    out = tmp_path / "f1.csv"
    assert main(["run", "fig2-F1", "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "status: ok" in captured
    assert "settle time" in captured
    record = load_trajectory_csv(out)
    assert record.status == "ok"
    assert len(record) == 2001
    # converged run: final position at the target, estimate at the true force
    assert abs(record["x"][-1] - 1e-3) < 1e-5
    assert abs(record["F_tilde"][-1]) < 1e-3


def test_run_scenario_file(short_scenario_file, tmp_path, capsys):
    out = tmp_path / "short.csv"
    assert main(["run", str(short_scenario_file), "--out", str(out)]) == 0
    assert out.is_file()


def test_run_solver_flags(short_scenario_file, tmp_path):
    out = tmp_path / "short.csv"
    rc = main(["run", str(short_scenario_file), "--out", str(out),
               "--method", "rk4", "--rel-tol", "1e-7", "--abs-tol", "1e-9"])
    assert rc == 0


def test_run_missing_scenario_errors(capsys):
    assert main(["run", "no-such-preset"]) == 1
    assert "error" in capsys.readouterr().err


def test_run_malformed_key_names_expected(tmp_path, study, capsys):
    text = serialize_scenario(study).replace("Gamma0 =", "gamma0 =")
    bad = tmp_path / "bad.ini"
    bad.write_text(text)
    assert main(["run", str(bad)]) == 1
    assert "Gamma0" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("k_p", "nan"), ("alpha", "inf"),
                                        ("rel_tol", "nan"), ("sample_dt", "inf"),
                                        ("duration", "inf"), ("duration", "nan"),
                                        ("value", "nan"), ("R", "inf"), ("rho", "inf"),
                                        ("m", "inf"), ("Gamma0", "inf"), ("L0", "inf"),
                                        ("K0", "nan"), ("x", "nan"), ("P2", "inf"),
                                        ("F_hat", "nan")])
def test_run_non_finite_input_is_one_line_error(tmp_path, study, capsys, key, value):
    # F_hat0 = 0 writes an F_hat key, so that it can be edited too.
    text = re.sub(rf"^{key} = .*$", f"{key} = {value}",
                  serialize_scenario(replace(study, F_hat0=0.0)), flags=re.MULTILINE)
    bad = tmp_path / "bad.ini"
    bad.write_text(text)
    assert main(["run", str(bad), "--out", str(tmp_path / "bad.csv")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "finite" in err[0]


@pytest.mark.parametrize("old, new, words", [
    ("x_star = 0.001", "x_star = 0.0:0.001, inf:0.002", ("setpoint times", "finite")),
    ("duration = 10.0", "duration = 1000000000.0", ("sample_dt", "budget")),
    # a zero scale divided by zero in the right-hand side; a negative one
    # reversed the pair and ran to "ok"
    ("K0 = 2.8e-06\n", "K0 = 0.0\n", ("volume scale K0", "positive")),
    ("K0 = 2.8e-06\n", "K0 = -2.8e-06\n", ("volume scale K0", "positive")),
    ("K0 = 2.8e-06\n", "K0 = nan\n", ("volume scale K0", "finite")),
    # a negative L0, and one whose square (the curvatures divide by L0 * L0)
    # overflows or underflows
    *(("L0 = 0.03\n", f"L0 = {value}\n", ("L0 * L0", "positive"))
      for value in ("-0.03", "1e200", "1e-200")),
    # setpoint times within rounding of 0, of each other and of the duration
    # ended the run "step-underflow"
    ("x_star = 0.001", "x_star = 0.0:0.001, 1e-17:0.002",
     ("setpoint time 0.0", "1e-17", "within rounding")),
    ("x_star = 0.001", "x_star = 0.0:0.001, 4.002:0.002, 4.00200000000002:0.001",
     ("setpoint time 4.002", "4.00200000000002", "within rounding")),
    ("x_star = 0.001", "x_star = 0.0:0.001, 9.999999999999998:0.002",
     ("9.999999999999998", "the duration 10.0", "within rounding")),
    # a sample spacing, or an rk23 max_step, within rounding of the run's
    # times wrote a one-row CSV ending "step-underflow" at t = 0
    ("sample_dt = 0.005\n\n[schedule]\nduration = 10.0\n",
     "sample_dt = 1e-15\n\n[schedule]\nduration = 1e-11\n",
     ("sample spacing duration / 10000 = 9.999999999999999e-16", "within rounding",
      "at or below 1e-12")),
    ("max_step = 0.01\nfixed_step = 1e-05\nsample_dt = 0.005\n\n[schedule]\nduration = 10.0\n",
     "max_step = 1e-15\nfixed_step = 1e-05\nsample_dt = 0.005\n\n[schedule]\nduration = 1e-08\n",
     ("max_step = 1e-15", "within rounding", "at or below 1e-12")),
])
def test_run_bad_plant_or_schedule_is_one_line_error(tmp_path, study, capsys, monkeypatch,
                                                     old, new, words):
    def no_grid(*args):
        raise AssertionError("a rejected scenario reached the sample grid")

    monkeypatch.setattr("antago.engine._sample_grid", no_grid)
    text = serialize_scenario(study)
    assert old in text
    bad = tmp_path / "bad.ini"
    bad.write_text(text.replace(old, new))
    assert main(["run", str(bad), "--out", str(tmp_path / "bad.csv")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert all(word in err[0] for word in words), err[0]


def test_run_non_finite_solver_flag_is_one_line_error(short_scenario_file, tmp_path, capsys):
    assert main(["run", str(short_scenario_file), "--out", str(tmp_path / "out.csv"),
                 "--rel-tol", "nan"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "finite" in err[0]


def test_run_non_utf8_scenario_is_one_line_error(tmp_path, study, capsys):
    """A Latin-1 'µ' in a comment names the scenario file, and no --out is written."""
    bad = tmp_path / "bad.ini"
    bad.write_bytes(b"; 5 \xb5m stroke\n" + serialize_scenario(study).encode())
    out = tmp_path / "bad.csv"
    assert main(["run", str(bad), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (f"error: scenario file {str(bad)!r} is not UTF-8 text "
                                       "(byte 0xb5: invalid start byte)\n")
    assert not out.exists()


def _refused(*args, **kwargs):
    raise PermissionError(errno.EACCES, "Permission denied")


def _no_space(*args, **kwargs):
    raise OSError(errno.ENOSPC, "No space left on device")


def _fdopen_on_full_disk(fdopen):
    """``os.fdopen`` whose files fail every write as a full disk does."""
    def full(fd, *args, **kwargs):
        fh = fdopen(fd, *args, **kwargs)
        fh.writelines = _no_space
        return fh
    return full


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("fault", ["unwritable", "full"])
def test_unwritable_or_full_out_is_one_line_error(tmp_path, short_scenario_file, capsys,
                                                  monkeypatch, command, fault):
    """An --out whose temporary file cannot be made, or a disk that fills
    while it is written, is one error: line and exit 1; the old file stays
    and no temporary file is left."""
    out = tmp_path / "out.csv"
    out.write_text("old\n")
    argv = (["run", str(short_scenario_file)] if command == "run" else
            ["sweep", "alpha", str(short_scenario_file), "--values", "5"])
    if fault == "unwritable":
        monkeypatch.setattr(tempfile, "mkstemp", _refused)
    else:
        monkeypatch.setattr(os, "fdopen", _fdopen_on_full_disk(os.fdopen))
    assert main([*argv, "--out", str(out)]) == 1
    reason = "Permission denied" if fault == "unwritable" else "No space left on device"
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and reason in err[0], err
    assert out.read_text() == "old\n"
    assert sorted(os.listdir(tmp_path)) == ["out.csv", "short.ini"]


def test_unreadable_scenario_is_one_line_error(tmp_path, short_scenario_file, capsys,
                                               monkeypatch):
    """A scenario file that cannot be read is one error: line and exit 1."""
    monkeypatch.setattr(Path, "read_text", _refused)
    out = tmp_path / "out.csv"
    assert main(["run", str(short_scenario_file), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: [Errno 13] Permission denied\n"
    assert not out.exists()


def test_sweep_out_gets_the_mode_open_gives(tmp_path, short_scenario_file):
    """``sweep --out`` leaves the mode ``open(path, "w")`` would: 0o666 less
    the umask for a new file, and a replaced file's own."""
    out, probe = tmp_path / "sweep.csv", tmp_path / "probe"
    argv = ["sweep", "alpha", str(short_scenario_file), "--values", "5", "--out", str(out)]
    old = os.umask(0o022)
    try:
        open(probe, "w").close()
        assert main(argv) == 0
        assert stat.S_IMODE(out.stat().st_mode) == stat.S_IMODE(probe.stat().st_mode) == 0o644
        out.chmod(0o604)
        assert main(argv) == 0
        assert stat.S_IMODE(out.stat().st_mode) == 0o604
    finally:
        os.umask(old)


def test_over_budget_request_is_one_line_error(tmp_path, study, capsys, monkeypatch):
    """An rk4 run or sweep, or a sweep range, over its cost budget, a sweep
    epsilon that is not finite, and ``--values`` text that is not a number list
    or a range, exit 1 with one error line before any sample grid is built."""
    def no_grid(*args):
        raise AssertionError("an over-budget request reached the sample grid")

    monkeypatch.setattr("antago.engine._sample_grid", no_grid)
    tiny_step = tmp_path / "tiny.ini"
    save_scenario(replace(study, duration=0.2,
                          solver=replace(study.solver, fixed_step=1e-12)), tiny_step)
    for argv, words in (
            (["run", str(tiny_step), "--method", "rk4"], ("fixed_step", "budget")),
            (["sweep", "alpha", str(tiny_step), "--values", "1,2", "--method", "rk4"],
             ("fixed_step", "budget")),
            (["sweep", "alpha", str(tiny_step), "--values", f"1:25:{MAX_SWEEP_POINTS + 1}"],
             ("range count", "budget")),
            (["sweep", "alpha", str(tiny_step), "--values", "1" + ",1" * MAX_SWEEP_POINTS],
             ("value list", "budget")),
            (["sweep", "epsilon", "fig2-F1", "--values", "nan,inf"], ("epsilon", "finite")),
            (["sweep", "epsilon", "fig2-F1", "--values", "inf"], ("epsilon", "finite")),
            *((["sweep", "alpha", "fig2-F1", "--values", text], ("--values", repr(text)))
              for text in ("abc", "1:25:abc", "1:25:2.5", "1,,2"))):
        assert main(argv + ["--out", str(tmp_path / "out.csv")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert all(word in err[0] for word in words), err[0]


def test_rk4_step_budget_boundary(tmp_path, study, capsys, monkeypatch):
    """An rk4 run of exactly ``MAX_RK4_STEPS`` steps validates; one step more
    raises ``ScenarioError``, and ``antago run`` prints one error line and
    exits 1 before any sample grid is built."""
    step = 2.0**-20   # duration / step is exact for both durations below
    rk4 = replace(study.solver, method="rk4", fixed_step=step)
    at_budget = replace(study, solver=rk4, duration=MAX_RK4_STEPS * step)
    over = (MAX_RK4_STEPS + 1) * step
    with pytest.raises(ScenarioError, match=f"budget of {MAX_RK4_STEPS} rk4 steps"):
        replace(at_budget, duration=over)

    def no_grid(*args):
        raise AssertionError("an over-budget request reached the sample grid")

    monkeypatch.setattr("antago.engine._sample_grid", no_grid)
    path = tmp_path / "over.ini"
    save_scenario(replace(at_budget, duration=over, solver=replace(rk4, method="rk23")), path)
    assert main(["run", str(path), "--method", "rk4", "--out", str(tmp_path / "out.csv")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "rk4 steps" in err[0], err


def test_rk23_max_step_budget_boundary(tmp_path, study, capsys, monkeypatch):
    """An rk23 run whose ``max_step`` forces exactly ``MAX_RK4_STEPS`` steps
    validates; one step more raises ``ScenarioError``, and ``antago run`` of a
    file with ``max_step = 1e-12`` prints one error line and exits 1 before any
    sample grid is built."""
    step = 2.0**-20   # duration / step is exact for both durations below
    at_budget = replace(study, solver=replace(study.solver, max_step=step),
                        duration=MAX_RK4_STEPS * step)
    with pytest.raises(ScenarioError, match=re.escape(
            f"duration / max_step exceeds the budget of {MAX_RK4_STEPS} rk23 steps")):
        replace(at_budget, duration=(MAX_RK4_STEPS + 1) * step)

    def no_grid(*args):
        raise AssertionError("an over-budget request reached the sample grid")

    monkeypatch.setattr("antago.engine._sample_grid", no_grid)
    path = tmp_path / "tiny.ini"
    text = serialize_scenario(study)
    assert "max_step = 0.01\n" in text
    path.write_text(text.replace("max_step = 0.01\n", "max_step = 1e-12\n"))
    assert main(["run", str(path), "--out", str(tmp_path / "out.csv")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "rk23 steps" in err[0], err


def test_setpoint_budget_boundary(tmp_path, study, capsys, monkeypatch):
    """A schedule whose samples plus setpoints come to exactly ``MAX_SAMPLES``
    validates; one setpoint more raises ``ScenarioError``, and ``antago run``
    prints one error line and exits 1 before any sample grid is built."""
    step = 2.0**-10   # duration / step is exact for the duration below
    setpoints = ((0.0, 1e-3), (1.0, 2e-3))
    at_budget = replace(study, solver=replace(study.solver, sample_dt=step),
                        setpoints=setpoints, duration=(MAX_SAMPLES - len(setpoints)) * step)
    with pytest.raises(ScenarioError, match=f"setpoint count exceeds the budget of {MAX_SAMPLES}"):
        replace(at_budget, setpoints=(*setpoints, (2.0, 1e-3)))

    def no_grid(*args):
        raise AssertionError("an over-budget request reached the sample grid")

    monkeypatch.setattr("antago.engine._sample_grid", no_grid)
    path = tmp_path / "over.ini"
    text = serialize_scenario(at_budget)
    assert "x_star = 0.0:0.001, 1.0:0.002\n" in text
    path.write_text(text.replace("1.0:0.002", "1.0:0.002, 2.0:0.001"))
    assert main(["run", str(path), "--out", str(tmp_path / "out.csv")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "setpoint count" in err[0], err


def test_out_directory_is_one_line_error(tmp_path, short_scenario_file, capsys,
                                        monkeypatch):
    """An ``--out`` that names a directory, or lies under a regular file, is
    rejected before any sample grid is built, for both subcommands that write
    a file."""
    def no_grid(*args):
        raise AssertionError("a rejected --out reached the sample grid")

    monkeypatch.setattr("antago.engine._sample_grid", no_grid)
    for out in (tmp_path, short_scenario_file / "x.csv", short_scenario_file / "sub" / "x.csv"):
        for argv in (["run", str(short_scenario_file)],
                     ["sweep", "alpha", str(short_scenario_file), "--values", "1,2,3"]):
            assert main(argv + ["--out", str(out)]) == 1
            captured = capsys.readouterr()
            err = captured.err.splitlines()
            assert len(err) == 1 and err[0].startswith("error: ")
            assert "--out" in err[0] and "directory" in err[0], err[0]
            assert captured.out == ""
    assert list(tmp_path.iterdir()) == [short_scenario_file]


def test_empty_out_is_one_line_error(tmp_path, capsys, monkeypatch):
    """An empty ``--out`` names no file: one error line naming ``--out`` and
    exit 1, before any sample grid is built, for both subcommands that write
    a file; nothing is written."""
    def no_grid(*args):
        raise AssertionError("a rejected --out reached the sample grid")

    monkeypatch.setattr("antago.engine._sample_grid", no_grid)
    monkeypatch.chdir(tmp_path)   # a run without --out writes <scenario>.csv here
    for argv in (["run", "multistep"], ["sweep", "alpha", "fig2-F1", "--values", "5"]):
        assert main(argv + ["--out", ""]) == 1
        assert capsys.readouterr() == ("", "error: --out is empty, not a file name\n")
    assert list(tmp_path.iterdir()) == []


def test_scenario_directory_is_one_line_error(tmp_path, capsys, monkeypatch):
    """A scenario path that names a directory, with a suffix or a trailing
    slash, is one error: line naming it as one, and exit 1, for both
    subcommands that read a scenario; a directory that shares a preset's
    name leaves the preset to be read."""
    monkeypatch.chdir(tmp_path)
    for ref in ("dir.ini", "dir/", "fig2-F1/"):
        (tmp_path / ref).mkdir(exist_ok=True)
        for argv in (["run", ref], ["sweep", "alpha", ref, "--values", "1,2"]):
            assert main(argv + ["--out", "out.csv"]) == 1
            captured = capsys.readouterr()
            assert captured.err == f"error: scenario {ref!r} is a directory, not a file\n"
            assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "dir.ini", "fig2-F1"]
    assert main(["run", "fig2-F1", "--out", "out.csv"]) == 0
    assert len(load_trajectory_csv(tmp_path / "out.csv")) == 2001


def test_values_parse_to_list_or_scenario_error():
    """Drawn ``--values`` text (number lists, ranges, arbitrary text) gives a
    list of floats or raises ScenarioError, never another exception."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    cell = st.one_of(st.floats().map(repr), st.integers(-10**5, 10**5).map(str),
                     st.text(max_size=5))
    cells = st.lists(cell, min_size=1, max_size=4)
    texts = st.one_of(st.text(max_size=20), cells.map(",".join), cells.map(":".join))

    @hypothesis.settings(derandomize=True, max_examples=400, deadline=None, database=None)
    @hypothesis.given(text=texts)
    def check(text):
        try:
            values = _parse_values(text)
        except ScenarioError:
            return
        assert isinstance(values, list) and all(isinstance(v, float) for v in values)

    check()


def test_value_list_obeys_the_point_budget():
    """A number list, like a range, holds at most ``MAX_SWEEP_POINTS`` values:
    exactly that many parse, and one more is a ScenarioError raised before
    any item is read, so a bad item after the budget is never reached."""
    at_budget = ",".join(["2.5"] * MAX_SWEEP_POINTS)
    assert _parse_values(at_budget) == [2.5] * MAX_SWEEP_POINTS
    for over in (at_budget + ",1", at_budget + ",abc"):
        with pytest.raises(ScenarioError, match=("^value list exceeds the budget of "
                                                 f"{MAX_SWEEP_POINTS} points$")):
            _parse_values(over)


def test_drawn_argv_returns_or_exits(tmp_path, study, monkeypatch):
    """Drawn argv into ``main`` (each subcommand, preset names, scenario
    paths, ``--values``, ``--method``, ``--rel-tol`` and ``--out`` naming a
    directory or lying under a file) returns an exit status or raises
    SystemExit, never another exception. The presets are shortened copies
    so that every drawn run and sweep point simulates in milliseconds."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    presets = tmp_path / "presets"
    presets.mkdir()
    for name in ("fig2-F1", "fig2-F2", "fig2-F3", "multistep"):
        save_scenario(replace(load_preset(name), duration=0.02), presets / f"{name}.ini")
    monkeypatch.setenv("ANTAGO_PRESET_DIR", str(presets))
    monkeypatch.chdir(tmp_path)   # a run without --out writes <scenario>.csv here
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("not a scenario\n")
    short = tmp_path / "short.ini"
    save_scenario(replace(study, duration=0.02), short)
    scenarios = st.sampled_from(["fig2-F1", "fig2-F3", "multistep", str(short), "nope", "",
                                 str(tmp_path / "file"), str(tmp_path / "dir"),
                                 str(tmp_path / "missing.ini")])
    outs = st.sampled_from([str(tmp_path / "new" / "sub" / "x.csv"), str(tmp_path / "dir"),
                            str(tmp_path / "file" / "x.csv")])
    # moderate numbers only: a stiff tuning runs long, and adaptive runs
    # have no cost budget yet
    edges = st.sampled_from(["nan", "inf", "-inf", "0", "-1", "1e308", "5e-324", "abc", ""])
    values = st.floats(-100.0, 100.0).map(repr) | edges | st.sampled_from(
        ["1,5", "1:5:2", "1:5:0", "1:5", "0:1:100001", "1,,2", "2:1:3"])
    options = {
        "--out": outs,
        "--method": st.sampled_from(["rk23", "rk4", "euler"]),
        "--rel-tol": st.floats(1e-12, 1.0).map(repr) | edges,
        "--values": values,
        "--seed": st.integers(-2, 2**70).map(str) | st.just("x"),
    }
    run_flags = st.lists(st.sampled_from(["--out", "--method", "--rel-tol"]), unique=True)
    # (positional arguments, the flags the command takes)
    commands = {
        "run": (st.tuples(scenarios), run_flags),
        "sweep": (st.tuples(st.sampled_from(["alpha", "k_m", "R", "epsilon", "beta"]),
                            scenarios, st.just("--values"), values), run_flags),
        "verify": (st.tuples(st.sampled_from(["matching", "gains", "gradients", "nope"])),
                   st.lists(st.just("--seed"), max_size=1)),
        "presets": (st.tuples(), st.just([])),
        "walk": (st.tuples(), st.just([])),
    }

    @hypothesis.settings(derandomize=True, max_examples=80, deadline=None, database=None)
    @hypothesis.given(data=st.data())
    def check(data):
        command = data.draw(st.sampled_from(("run", "run", "sweep", "sweep", "verify",
                                             "presets", "walk")))
        positional, own = commands[command]
        argv = [command, *data.draw(positional)]
        flags = list(data.draw(own))
        if data.draw(st.integers(0, 4)) == 0:   # sometimes any flag, taken or not
            flags.append(data.draw(st.sampled_from(sorted(options))))
        for flag in flags:
            argv += [flag, data.draw(options[flag])]
        try:
            assert isinstance(main(argv), int), argv
        except SystemExit:
            pass

    check()


def test_run_domain_exit_is_nonzero(tmp_path, study, capsys):
    exploding = replace(study, duration=2.0,
                        force=replace(study.force, kind="constant", value=0.5))
    path = tmp_path / "push.ini"
    save_scenario(exploding, path)
    out = tmp_path / "push.csv"
    assert main(["run", str(path), "--out", str(out)]) == 1
    assert "domain-exit" in capsys.readouterr().out
    assert load_trajectory_csv(out).status == "domain-exit"


def test_verify_matching_and_gains(capsys):
    assert main(["verify", "matching", "--seed", "7"]) == 0
    assert "PASS" in capsys.readouterr().out
    assert main(["verify", "gains"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "gains: condition product (R - alpha*M)*alpha*k_m = 49.3740 (threshold 0.2500) -> PASS",
        "gains: damping bound alpha < R/M = 19.7527",
        "gains: positive-definiteness flips at alpha = 19.7277",
        "note: the reference study states 80 for this product; the parameters it lists "
        "give 49.37",
    ]


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_verify_negative_seed_is_one_line_error(suite, capsys):
    assert main(["verify", suite, "--seed", "-1"]) == 1
    assert capsys.readouterr() == ("", "error: expected non-negative integer\n")


def test_verify_reads_the_bundled_presets(tmp_path, monkeypatch):
    """``ANTAGO_PRESET_DIR`` does not reach ``verify``, whose bounds are fixed
    for the bundled presets: with it naming an empty directory, every suite
    reports the lines it reports without it."""
    expected = {name: suite().lines for name, suite in SUITES.items()}
    monkeypatch.setenv("ANTAGO_PRESET_DIR", str(tmp_path))
    with pytest.raises(ScenarioError, match="unknown preset 'fig2-F1'"):
        load_preset("fig2-F1")
    assert {name: suite().lines for name, suite in SUITES.items()} == expected


def test_verify_gradients_and_observer(capsys):
    assert main(["verify", "gradients"]) == 0
    assert main(["verify", "observer-decay"]) == 0


def test_presets_listing(tmp_path, capsys, monkeypatch):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out.split()
    assert out == ["fig2-F1", "fig2-F2", "fig2-F3", "multistep"]
    monkeypatch.setenv("ANTAGO_PRESET_DIR", str(tmp_path))
    assert main(["presets"]) == 1
    assert capsys.readouterr() == ("no presets found\n", "")


def test_sweep_alpha_validity_flip(tmp_path, short_scenario_file, capsys):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "alpha", str(short_scenario_file),
               "--values", "15,18,21", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    valid = [r["valid"] for r in rows]
    # validity flips between 18 and 21 (damping bound near 19.75)
    assert valid == ["true", "true", "false"]


def test_sweep_epsilon_bound(tmp_path, short_scenario_file):
    out = tmp_path / "eps.csv"
    rc = main(["sweep", "epsilon", str(short_scenario_file),
               "--values", "0,6,7,49,50", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    # positive definiteness under the perturbed matrix fails past ~6.53
    assert [r["positive_definite"] for r in rows] == \
        ["true", "true", "false", "false", "false"]
    # the solvability bound fails past ~49.37
    assert [r["rate_bound_ok"] for r in rows] == \
        ["true", "true", "true", "true", "false"]


def test_gain_validation_edge_values_give_rows(tmp_path, short_scenario_file, params, gains):
    """Values where the principal minors and the eigenvalues once disagreed
    give a table row and the status exit code: the epsilon at which the
    determinant rounds to zero. R or k_i near the float limit, where the
    stability matrix is positive definite, is certified."""
    out = tmp_path / "flip.csv"
    assert main(["sweep", "epsilon", str(short_scenario_file),
                 "--values", "6.526662755303724", "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert len(rows) == 2 and rows[1].startswith("6.526662755303724,"), rows
    huge_R = validate_gains(replace(params, R=1e308), gains)
    assert huge_R.condition_product == math.inf and huge_R.positive_definite
    assert validate_gains(params, replace(gains, k_i=1e308)).positive_definite


def test_sweep_single_value_matches_run(tmp_path, short_scenario_file):
    out = tmp_path / "one.csv"
    assert main(["sweep", "alpha", str(short_scenario_file),
                 "--values", "10", "--out", str(out)]) == 0
    row = out.read_text().splitlines()[1].split(",")
    header = out.read_text().splitlines()[0].split(",")
    swept = dict(zip(header, row))
    scenario = load_scenario(short_scenario_file)
    summary = diagnostics(simulate(scenario), scenario.gains, scenario.params)
    assert float(swept["x_error"]) == summary.x_error
    assert float(swept["settle_time"]) == summary.settle_time


@pytest.mark.parametrize("values, expected", [("5:15:3", [5.0, 10.0, 15.0]), ("5:15:1", [5.0])])
def test_sweep_range_syntax(tmp_path, short_scenario_file, values, expected):
    out = tmp_path / "rng.csv"
    assert main(["sweep", "k_i", str(short_scenario_file),
                 "--values", values, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == len(expected) + 1
    assert [float(ln.split(",")[0]) for ln in lines[1:]] == expected


_SWEEP_HEADER = ("value,valid,positive_definite,rate_bound_ok,condition_product,"
                 "status,x_error,settle_time,max_psi_increment,psi_max,zeta_rate")


def _in_process_sweep(scenario, param, values, out):
    """The table and progress lines of the sweep of ``param``, a gain or a
    plant parameter, one point at a time in this process: validate_gains,
    simulate and diagnostics on each variant."""
    rows, lines = [_SWEEP_HEADER], []
    for value in values:
        if param in ("R", "m"):
            variant = replace(scenario, params=replace(scenario.params, **{param: value}))
        else:
            variant = replace(scenario, gains=replace(scenario.gains, **{param: value}))
        report = validate_gains(variant.params, variant.gains)
        record = simulate(variant)
        summary = diagnostics(record, variant.gains, variant.params)
        valid = report.positive_definite and report.rate_bound_ok
        rows.append(",".join([
            repr(value), str(valid).lower(), str(report.positive_definite).lower(),
            str(report.rate_bound_ok).lower(), repr(report.condition_product),
            record.status, repr(summary.x_error), repr(summary.settle_time),
            repr(summary.max_psi_increment), repr(summary.psi_max),
            repr(summary.zeta_rate)]))
        lines.append(f"{param} = {value:g}: valid={valid} "
                     f"product={report.condition_product:.4f} status={record.status}")
    lines.append(f"wrote {len(values)} rows to {out}")
    return "\n".join(rows) + "\n", "\n".join(lines) + "\n"


def _record_pids(monkeypatch, path):
    """Make every sweep point's simulation in antago.cli, forked workers
    included, append its process id to ``path``."""
    def simulate_and_log(scenario):
        with open(path, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return simulate_summary(scenario)

    monkeypatch.setattr("antago.cli.simulate_summary", simulate_and_log)


@pytest.mark.parametrize("param, values, exit_code", [
    ("alpha", [5.0, 10.0, 15.0, 1000.0, 20.0, 25.0, 30.0], 1),
    ("R", [0.5, 1.0, 2.5, 5.0, 10.0, 50.0, 100.0], 0),
    ("m", [0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 5.0], 0),
])
def test_parallel_sweep_matches_in_process_rows(tmp_path, study, capsys, monkeypatch,
                                                param, values, exit_code):
    """More points than workers, of a gain with one point a domain exit and of
    each plant parameter: the CSV and the progress lines are byte-identical to
    the points run here one by one."""
    scenario = replace(study, duration=0.2)
    path = tmp_path / "short.ini"
    save_scenario(scenario, path)
    out = tmp_path / "sweep.csv"
    table, progress = _in_process_sweep(load_scenario(path), param, values, out)
    assert (",domain-exit," in table) == bool(exit_code) and ",ok," in table

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    pids = tmp_path / "pids.txt"
    _record_pids(monkeypatch, pids)
    assert main(["sweep", param, str(path), "--values", ",".join(map(repr, values)),
                 "--out", str(out)]) == exit_code
    assert out.read_text() == table
    assert capsys.readouterr().out == progress
    simulated_in = pids.read_text().split()
    assert len(simulated_in) == len(values)
    # three workers: this process simulates points 0, 3 and 6, two children the rest
    assert simulated_in.count(str(os.getpid())) == 3 and len(set(simulated_in)) == 3


def test_worker_error_is_one_line_error(tmp_path, short_scenario_file, capsys, monkeypatch):
    def fail_on_large_alpha(scenario):
        if scenario.gains.alpha > 100.0:
            raise ScenarioError("rejected in a worker")
        return simulate_summary(scenario)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr("antago.cli.simulate_summary", fail_on_large_alpha)
    assert main(["sweep", "alpha", str(short_scenario_file), "--values", "5,1000,10",
                 "--out", str(tmp_path / "out.csv")]) == 1
    assert capsys.readouterr().err == "error: rejected in a worker\n"
    assert not (tmp_path / "out.csv").exists()


# Finite values the parser accepts at which the H channel's
# Gamma0 * expm1(P_i / Gamma0) overflows; the record's H reads inf there.
_H_OVERFLOW_EDITS = {
    "Gamma0": {"Gamma0": "1e-300"},
    "K0": {"K0": "1e-300"},
    "P1": {"P1": "1e300"},
}


def _edited_scenario(study, path, edit):
    """``study`` shortened to 0.5 s with the keys of ``edit`` replaced, written to ``path``."""
    text = serialize_scenario(replace(study, duration=0.5))
    for key, value in edit.items():
        text, n = re.subn(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
        assert n == 1, key
    path.write_text(text)
    return path


def _one_error_line(argv, out, capsys):
    """Run ``argv`` with ``--out out``, an existing file, and return its one
    error line, after checking exit 1 and that ``out`` stays as it was."""
    out.write_text("old\n")
    assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err, err
    assert out.read_text() == "old\n"
    return err


class _DividingForce(ForceModel):
    """A load whose law divides by zero at every evaluation."""

    def __call__(self, x, xdot):
        return self.value / 0.0


def test_arithmetic_error_is_one_line_error(tmp_path, study, capsys, monkeypatch):
    """A run whose arithmetic raises (here its load divides by zero) on one
    core, where no renderer is forked, ends the command with one error line
    and exit 1, and ``--out`` stays as it was; the two-core case is
    ``test_failed_forked_run_reaps_its_renderer``."""
    monkeypatch.setattr(antago.cli, "_resolve_scenario",
                        lambda ref: replace(study, force=_DividingForce("constant", 1.0),
                                            duration=0.5))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    forks = _record_forks(monkeypatch)
    err = _one_error_line(["run", "fig2-F1"], tmp_path / "out.csv", capsys)
    assert err == "error: ZeroDivisionError in the run: float division by zero\n"
    assert not forks and os.listdir(tmp_path) == ["out.csv"]


@pytest.mark.parametrize("edit", _H_OVERFLOW_EDITS)
def test_overflowing_H_ends_run_and_sweep_alike(tmp_path, study, capsys, monkeypatch, edit):
    """Where ``Gamma0 * expm1(P_i / Gamma0)`` overflows, ``antago run``
    ends with the status that ``antago sweep`` gives the same scenario (whose
    summary reads no H): the record's H reads inf there, and no error is
    raised."""
    path = _edited_scenario(study, tmp_path / "edge.ini", _H_OVERFLOW_EDITS[edit])
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    code = main(["run", str(path), "--out", str(tmp_path / "run.csv")])
    run_status = re.search(r"^status: (.*)$", capsys.readouterr().out, flags=re.M)[1]
    assert main(["sweep", "alpha", str(path), "--values", repr(study.gains.alpha),
                 "--out", str(tmp_path / "sweep.csv")]) == code
    assert re.search(r" status=(.*)$", capsys.readouterr().out, flags=re.M)[1] == run_status
    assert code == (run_status != "ok")
    H = load_trajectory_csv(tmp_path / "run.csv")["H"].tolist()
    assert any(map(math.isinf, H)) and not any(map(math.isnan, H)), H


def test_arithmetic_error_in_a_sweep_worker_is_one_line_error(tmp_path, short_scenario_file,
                                                              capsys, monkeypatch):
    """A sweep point whose run divides by zero in the forked worker, the
    second of two on two cores, ends the sweep with that error as one line
    and exit 1; ``--out`` stays as it was and the worker is reaped."""
    sweep_variant = antago.cli._sweep_variant

    def dividing_at_ten(scenario, param, value):
        point = sweep_variant(scenario, param, value)
        return replace(point, force=_DividingForce("constant", 1.0)) if value == 10.0 else point

    monkeypatch.setattr(antago.cli, "_sweep_variant", dividing_at_ten)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    forks = _record_forks(monkeypatch)
    err = _one_error_line(["sweep", "alpha", str(short_scenario_file), "--values", "5,10"],
                          tmp_path / "out.csv", capsys)
    assert err == "error: ZeroDivisionError in the run: float division by zero\n"
    assert len(forks) == 1
    _assert_reaped(forks)


def _error_before_the_run(tmp_path, study, capsys, monkeypatch, command, edit):
    """The one error line of ``command`` on ``study`` with the keys of
    ``edit`` replaced, which must simulate nothing."""
    path = _edited_scenario(study, tmp_path / "edge.ini", edit)

    def not_simulated(scenario, *args):
        raise AssertionError("simulated")

    monkeypatch.setattr("antago.scenario_io.simulate", not_simulated)
    monkeypatch.setattr("antago.cli.simulate_summary", not_simulated)
    argv = ["run", str(path)] if command == "run" else ["sweep", "alpha", str(path),
                                                          "--values", "5,10"]
    return _one_error_line(argv, tmp_path / "out.csv", capsys)


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_zero_area_scale_is_one_line_error_before_the_run(tmp_path, study, capsys,
                                                          monkeypatch, command):
    """K0 = 5e-324 with L0 = 1000, where both areas would underflow to zero
    and the kernel divide by them, is rejected when the scenario is read: one
    error line naming K0 / L0 and exit 1, with nothing simulated."""
    err = _error_before_the_run(tmp_path, study, capsys, monkeypatch, command,
                                {"K0": "5e-324", "L0": "1000.0"})
    assert err == ("error: area scale K0 / L0 = 0.0 is below the smallest normal float "
                   "2.2250738585072014e-308\n")


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_subnormal_k_m_is_one_line_error_before_the_run(tmp_path, study, capsys,
                                                        monkeypatch, command):
    """k_m = 5e-324 with m = 1e-3, where 2 * k_m * M would underflow to zero
    and H_d, which a sweep's summary kernel computes too, divide by it, is
    rejected when the scenario is read: one error line naming 2 * k_m * m
    and exit 1, with nothing simulated."""
    err = _error_before_the_run(tmp_path, study, capsys, monkeypatch, command,
                                {"k_m": "5e-324", "m": "1e-3"})
    assert err == ("error: 2 * k_m * m = 0.0 is below the smallest normal float "
                   "2.2250738585072014e-308\n")


# Runs the CLI on argv, with two cores and with a sweep point that kills its own
# process, as the OOM killer would, when a forked worker meets alpha > 100.
_KILL_LARGE_ALPHA_WORKER = """\
import os, signal, sys
import antago.cli
os.sched_getaffinity = lambda pid: {0, 1}
parent, simulate_summary = os.getpid(), antago.cli.simulate_summary
def simulate_or_die(scenario):
    if scenario.gains.alpha > 100.0 and os.getpid() != parent:
        os.kill(os.getpid(), signal.SIGKILL)
    return simulate_summary(scenario)
antago.cli.simulate_summary = simulate_or_die
sys.exit(antago.cli.main(sys.argv[1:]))
"""


def test_dead_worker_is_one_line_error(tmp_path, short_scenario_file):
    """A worker killed by a signal ends the sweep with one error line naming it,
    after the progress line of the point before; the sweep does not hang."""
    out = tmp_path / "out.csv"
    proc = subprocess.run(
        [sys.executable, "-c", _KILL_LARGE_ALPHA_WORKER, "sweep", "alpha",
         str(short_scenario_file), "--values", "5,1000,10", "--out", str(out)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": _SRC}, timeout=60)
    assert proc.returncode == 1
    assert re.fullmatch(r"error: worker process \d+ was killed by SIGKILL "
                        r"before sending its result\n", proc.stderr), proc.stderr
    assert proc.stdout.startswith("alpha = 5: ") and proc.stdout.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("cores", [{0}, {0, 1}], ids=["in-process", "forked"])
def test_failed_render_leaves_out_file_untouched(tmp_path, monkeypatch, capsys, cores):
    """A render that raises on its second block of rows, here or in a worker,
    ends the run as one error line and leaves the existing --out file as it
    was, with no temporary file beside it."""
    import antago.scenario_io

    render_block = antago.scenario_io._csv_block

    def fail_second_block(table, start):
        if start:
            raise ScenarioError("render failed")
        return render_block(table, start)

    monkeypatch.setattr(antago.scenario_io, "_csv_block", fail_second_block)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores, raising=False)
    out = tmp_path / "out.csv"
    out.write_text("old\n")
    assert main(["run", "fig2-F1", "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", "error: render failed\n")
    assert out.read_text() == "old\n" and os.listdir(tmp_path) == ["out.csv"]


# Runs the CLI on argv, with two cores and with a CSV block render that kills
# its own process when it runs in a forked worker.
_KILL_CSV_WORKER = """\
import os, signal, sys
import antago.cli, antago.scenario_io
os.sched_getaffinity = lambda pid: {0, 1}
parent, render_block = os.getpid(), antago.scenario_io._csv_block
def render_or_die(table, start):
    if os.getpid() != parent:
        os.kill(os.getpid(), signal.SIGKILL)
    return render_block(table, start)
antago.scenario_io._csv_block = render_or_die
sys.exit(antago.cli.main(sys.argv[1:]))
"""


def test_dead_csv_worker_is_one_line_error(tmp_path):
    """A worker killed while the CSV streams to the file ends the run with one
    error line naming it, and the existing --out file stays as it was."""
    out = tmp_path / "out.csv"
    out.write_text("old\n")
    proc = subprocess.run(
        [sys.executable, "-c", _KILL_CSV_WORKER, "run", "fig2-F1", "--out", str(out)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": _SRC}, timeout=60)
    assert proc.returncode == 1
    assert re.fullmatch(r"error: worker process \d+ was killed by SIGKILL "
                        r"before sending its result\n", proc.stderr), proc.stderr
    assert proc.stdout == ""
    assert out.read_text() == "old\n" and os.listdir(tmp_path) == ["out.csv"]


def _run_cases(study):
    """The scenarios whose ``antago run`` CSV is checked against the finished
    record's: the presets, a domain exit that keeps one row and one that
    keeps 401 (four blocks), rk4 (401 rows), and fig2-F1 tables of 101, 201
    and 301 rows: one, two and three blocks."""
    cases = {name: load_preset(name) for name in ("fig2-F1", "fig2-F2", "fig2-F3", "multistep")}
    cases["alpha=22"] = replace(study, gains=replace(study.gains, alpha=22.0))
    cases["domain-exit"] = pin.table_runs()["domain-exit"]
    cases["rk4"] = replace(study, solver=replace(study.solver, method="rk4", fixed_step=1e-4),
                           duration=2.0)
    for blocks in (1, 2, 3):
        cases[f"{blocks} blocks"] = replace(study, duration=0.5 * blocks)
    return cases


@pytest.mark.parametrize("cores", [1, 2])
def test_run_writes_the_csv_of_the_finished_record(tmp_path, study, capsys, monkeypatch,
                                                   cores):
    """``antago run`` writes the bytes ``trajectory_to_csv(simulate(s))``
    gives, on one core and two. On two cores a run whose grid has two
    blocks or more forks one child, which is reaped, and a one-block grid
    forks none; the domain exits' grids fork, and their files are written
    again in this process, so a run that keeps four blocks forks no second
    child."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
    path, out = tmp_path / "case.ini", tmp_path / "out.csv"
    for name, scenario in _run_cases(study).items():
        record = simulate(scenario)
        expected = trajectory_to_csv(record).encode()
        save_scenario(scenario, path)
        with monkeypatch.context() as patch:
            forks = _record_forks(patch)
            assert main(["run", str(path), "--out", str(out)]) == (record.status != "ok"), name
        assert out.read_bytes() == expected, name
        blocks = math.ceil(round(scenario.duration / scenario.solver.sample_dt + 1) / 128)
        assert len(forks) == (cores == 2 and blocks >= 2), (name, blocks, forks)
        if forks:
            _assert_reaped(forks)
    capsys.readouterr()


@pytest.mark.parametrize("cores, duration", [(1, 10.0), (2, 0.5)], ids=["one-core", "one-block"])
def test_unforked_run_maps_nothing(tmp_path, study, monkeypatch, capsys, cores, duration):
    """An ``antago run`` that forks no renderer, on one core or for a grid of
    one block, makes no shared ``mmap``: it writes the finished record as
    ``save_trajectory_csv`` does."""
    import mmap

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
    maps, make_map = [], mmap.mmap

    def record_map(*args):
        maps.append(args)
        return make_map(*args)

    monkeypatch.setattr(mmap, "mmap", record_map)
    forks = _record_forks(monkeypatch)
    path, out = tmp_path / "case.ini", tmp_path / "out.csv"
    scenario = replace(study, duration=duration)
    save_scenario(scenario, path)
    assert main(["run", str(path), "--out", str(out)]) == 0
    assert maps == [] and forks == []
    assert out.read_text() == trajectory_to_csv(simulate(scenario))


def test_run_in_threaded_process_forks_nothing(tmp_path, monkeypatch, capsys):
    """A process with a second thread renders the CSV after the run, here:
    no fork, the same bytes."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    forks = _record_forks(monkeypatch)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait, args=(30.0,))
    waiter.start()
    try:
        assert main(["run", "fig2-F1", "--out", str(tmp_path / "f1.csv")]) == 0
    finally:
        release.set()
        waiter.join(timeout=30.0)
    assert not waiter.is_alive() and forks == []
    assert (tmp_path / "f1.csv").read_text() == trajectory_to_csv(simulate(load_preset("fig2-F1")))


def test_run_holds_about_one_block_of_text(tmp_path, monkeypatch, capsys):
    """While ``antago run fig2-F1`` renders on two cores, this process holds
    about one block of text at a time, never the whole 688 kB: a tracemalloc
    peak of 0.46-0.48 MB (five runs, Python 3.11, numpy 2.4), under the 1.0e6
    bound of ``test_csv_save_and_load_never_hold_the_whole_text``. Of that,
    the run's 272 kB row array is a Python allocation; the 272 kB mapping
    that the renderer reads is not, so tracemalloc does not count it."""
    import tracemalloc

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    out = tmp_path / "f1.csv"
    assert main(["run", "fig2-F1", "--out", str(out)]) == 0   # the first run imports
    forks = _record_forks(monkeypatch)
    tracemalloc.start()
    try:
        assert main(["run", "fig2-F1", "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.0e6, peak
    assert len(forks) == 1
    _assert_reaped(forks)


def test_failed_forked_run_reaps_its_renderer(tmp_path, study, capsys, monkeypatch):
    """A run that divides by zero while its renderer child waits, and a full
    disk in the child's own writes, each end ``antago run`` with one error
    line and exit 1; the child is reaped, the existing ``--out`` stays as it
    was and no temporary file is left."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    parent, fdopen = os.getpid(), os.fdopen

    def full_in_a_child(fd, *args, **kwargs):
        fh = fdopen(fd, *args, **kwargs)
        write = fh.write
        fh.write = lambda text: write(text) if os.getpid() == parent else _no_space()
        return fh

    out = tmp_path / "out.csv"
    for fault, message in (("divide", "ZeroDivisionError in the run: float division by zero"),
                           ("full", "[Errno 28] No space left on device")):
        with monkeypatch.context() as patch:
            if fault == "divide":
                patch.setattr(antago.cli, "_resolve_scenario",
                              lambda ref: replace(study, force=_DividingForce("constant", 1.0)))
            else:
                patch.setattr(os, "fdopen", full_in_a_child)
            forks = _record_forks(patch)
            assert _one_error_line(["run", "fig2-F1"], out, capsys) == f"error: {message}\n"
        assert len(forks) == 1 and os.listdir(tmp_path) == ["out.csv"], fault
        _assert_reaped(forks)


def test_run_and_observer_decay_never_call_lstsq(tmp_path, monkeypatch):
    """The decay fit is closed form: ``run`` and the observer-decay suite
    complete with numpy's least-squares solver made to raise under every
    name numpy binds it to, np.polyfit's included."""
    import numpy as np

    solver = np.linalg.lstsq

    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg.lstsq was called")

    for name, module in list(sys.modules.items()):
        if name.startswith("numpy") and getattr(module, "lstsq", None) is solver:
            monkeypatch.setattr(module, "lstsq", refuse)
    assert main(["run", "fig2-F1", "--out", str(tmp_path / "f1.csv")]) == 0
    assert main(["verify", "observer-decay"]) == 0


def test_sweep_in_threaded_process_runs_in_process(tmp_path, short_scenario_file,
                                                  monkeypatch):
    """A process with a second thread is not forked: every point runs here."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    pids = tmp_path / "pids.txt"
    _record_pids(monkeypatch, pids)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait, args=(30.0,))
    waiter.start()
    try:
        assert main(["sweep", "alpha", str(short_scenario_file), "--values", "5,10,15",
                     "--out", str(tmp_path / "out.csv")]) == 0
    finally:
        release.set()
        waiter.join(timeout=30.0)
    assert not waiter.is_alive()
    assert pids.read_text().split() == [str(os.getpid())] * 3


def test_epsilon_sweep_simulates_once(tmp_path, short_scenario_file, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    pids = tmp_path / "pids.txt"
    _record_pids(monkeypatch, pids)
    assert main(["sweep", "epsilon", str(short_scenario_file), "--values", "0,1,2,3",
                 "--out", str(tmp_path / "eps.csv")]) == 0
    assert pids.read_text().split() == [str(os.getpid())]


# Imports the package, then the CLI, then runs argv on two cores. Prints one JSON
# object: the exit status; the multiprocessing and numpy.random modules loaded
# after the imports and after the command; whether numpy was loaded after
# `import antago`, after `import antago.cli` and after the command; whether
# antago.verify was loaded after `import antago.cli` and after the command; and,
# for each fork, whether numpy was loaded when it was made.
_LOADED_MODULES = """\
import contextlib, io, json, os, sys
import antago
numpy = {"import antago": "numpy" in sys.modules}
import antago.cli
numpy["import antago.cli"] = "numpy" in sys.modules
verify = {"import antago.cli": "antago.verify" in sys.modules}
def loaded():
    return sorted(m for m in sys.modules
                  if "multiprocessing" in m or m.startswith("numpy.random"))
after_import = loaded()
os.sched_getaffinity = lambda pid: {0, 1}
fork, forks = os.fork, []
os.fork = lambda: forks.append("numpy" in sys.modules) or fork()
with contextlib.redirect_stdout(io.StringIO()):
    code = antago.cli.main(sys.argv[1:])
numpy["command"] = "numpy" in sys.modules
verify["command"] = "antago.verify" in sys.modules
print(json.dumps({"exit": code, "after_import": after_import, "after_command": loaded(),
                  "numpy": numpy, "verify": verify, "forks": forks}))
"""


def _modules_loaded_by(argv, cwd):
    """What running ``argv`` in a fresh process loaded, as ``_LOADED_MODULES``
    prints it, with the command's stderr under ``"stderr"``."""
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_MODULES, *argv], cwd=cwd,
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": _SRC}, check=True,
        timeout=60)
    return {**json.loads(proc.stdout), "stderr": proc.stderr}


def test_cli_import_does_not_load_multiprocessing(tmp_path, short_scenario_file):
    """Neither importing the CLI nor a sweep on forked workers loads multiprocessing
    or numpy.random."""
    seen = _modules_loaded_by(["sweep", "alpha", str(short_scenario_file), "--values", "5,10",
                               "--out", "out.csv"], tmp_path)
    assert (seen["exit"], seen["after_import"], len(seen["forks"]), seen["after_command"]) \
        == (0, [], 1, [])


def test_verify_choices_are_the_suites():
    """The parser names the suites without loading antago.verify."""
    assert antago.cli._VERIFY_SUITES == tuple(sorted(SUITES))


# Imports the CLI, then runs argv through it on one core, so that no fork shuts
# OpenBLAS's threads down, when there is an argv. Prints one JSON object:
# OPENBLAS_NUM_THREADS after the import and after the command, whether numpy
# was loaded, and how many threads the process has (null where /proc/self/task
# does not exist).
_BLAS_THREADS = """\
import contextlib, io, json, os, sys
import antago.cli
os.sched_getaffinity = lambda pid: {0}
seen = {"import": os.environ.get("OPENBLAS_NUM_THREADS")}
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert antago.cli.main(sys.argv[1:]) == 0
seen["command"] = os.environ.get("OPENBLAS_NUM_THREADS")
seen["numpy"] = "numpy" in sys.modules
seen["threads"] = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
print(json.dumps(seen))
"""


@pytest.mark.parametrize("given, argv, expected", [
    (None, ["run", "fig2-F1", "--out", "out.csv"], "1"),
    ("3", ["run", "fig2-F1", "--out", "out.csv"], "3"),
    (None, [], None),
], ids=["unset-becomes-1", "given-is-kept", "import-sets-nothing"])
def test_cli_asks_for_one_blas_thread(tmp_path, given, argv, expected):
    """In a fresh process, ``antago run`` sets OPENBLAS_NUM_THREADS to 1 when
    it is unset, before numpy loads, so that the process ends with no thread
    but its own (two on a 2-core VM without the setting); it keeps a value
    the caller gave; and importing the package and its CLI sets nothing."""
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    if given is not None:
        env["OPENBLAS_NUM_THREADS"] = given
    proc = subprocess.run([sys.executable, "-c", _BLAS_THREADS, *argv], cwd=tmp_path,
                          capture_output=True, text=True, env={**env, "PYTHONPATH": _SRC},
                          check=True, timeout=60)
    seen = json.loads(proc.stdout)
    assert (seen["import"], seen["command"], seen["numpy"]) == (given, expected, bool(argv))
    if expected == "1" and seen["threads"] is not None:
        assert seen["threads"] == 1


@pytest.mark.parametrize("argv, loads", [(["run", "fig2-F1"], False),
                                         (["verify", "matching"], True)])
def test_only_verify_loads_the_verify_suites(tmp_path, argv, loads):
    seen = _modules_loaded_by(argv, tmp_path)
    assert (seen["exit"], seen["verify"]) == (0, {"import antago.cli": False, "command": loads})


@pytest.mark.parametrize("argv, forks", [
    (["verify", "matching"], 0),
    (["verify", "gradients", "--seed", "3"], 0),
    (["run", "fig2-F1"], 1),    # the CSV renders beside the run, on one forked child
])
def test_commands_do_not_load_numpy_random(tmp_path, argv, forks):
    """The seeded suites draw their samples without numpy.random."""
    seen = _modules_loaded_by(argv, tmp_path)
    assert (seen["exit"], seen["after_import"], len(seen["forks"]), seen["after_command"]) \
        == (0, [], forks, [])


@pytest.mark.parametrize("argv, code", [
    (["presets"], 0),
    (["verify", "matching"], 0),
    (["verify", "gradients", "--seed", "3"], 0),
    (["verify", "gains"], 0),
    (["run", "no-such-preset"], 1),
])
def test_array_free_commands_do_not_load_numpy(tmp_path, argv, code):
    """Neither the imports nor a command that builds no array load numpy."""
    seen = _modules_loaded_by(argv, tmp_path)
    assert seen["exit"] == code
    assert seen["numpy"] == {"import antago": False, "import antago.cli": False,
                             "command": False}
    if code:
        assert len(seen["stderr"].splitlines()) == 1
        assert seen["stderr"].startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["run", "fig2-F1"],
    ["sweep", "alpha", "SHORT", "--values", "5,10"],
    ["verify", "lyapunov"],
], ids=["run", "sweep", "lyapunov"])
def test_every_fork_happens_with_numpy_loaded(tmp_path, short_scenario_file, argv):
    """A command that builds arrays on forked workers loads numpy before the
    first fork, so that the workers do not each import it."""
    argv = [str(short_scenario_file) if arg == "SHORT" else arg for arg in argv]
    seen = _modules_loaded_by(argv, tmp_path)
    assert seen["numpy"] == {"import antago": False, "import antago.cli": False,
                             "command": True}
    assert seen["forks"] == [True]

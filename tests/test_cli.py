"""Command-line interface: run, verify, sweep, presets."""

import json
import math
import os
import re
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import pytest

import antago
from antago.cli import MAX_SWEEP_POINTS, _parse_values, main
from antago.controller import validate_gains
from antago.engine import MAX_RK4_STEPS, MAX_SAMPLES, diagnostics, simulate
from antago.errors import ScenarioError
from antago.scenario_io import (
    load_preset,
    load_trajectory_csv,
    load_scenario,
    save_scenario,
    serialize_scenario,
)
from antago.verify import SUITES

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
    # F_hat0 = 0 writes an [initial] section, so the initial state can be edited.
    text = re.sub(rf"^{key} = .*$", f"{key} = {value}",
                  serialize_scenario(replace(study, F_hat0=0.0)), flags=re.MULTILINE)
    bad = tmp_path / "bad.ini"
    bad.write_text(text)
    assert main(["run", str(bad), "--out", str(tmp_path / "bad.csv")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "finite" in err[0]


@pytest.mark.parametrize("old, new, words", [
    ("n_L = 3\n", "n_L = 3.5\n", ("n_L", "integer")),
    ("n_L = 3\n", "n_L = 0\n", ("n_L", "integer")),
    ("x_star = 0.001", "x_star = 0.0:0.001, inf:0.002", ("setpoint times", "finite")),
    ("duration = 10.0", "duration = 1000000000.0", ("sample_dt", "budget")),
    # a zero scale divided by zero in the right-hand side; a negative one
    # reversed the pair and ran to "ok"
    ("k0 = 1.0370370370370372\nK0 = 2.8e-06\n", "K0 = 0.0\n", ("k0 and K0", "positive")),
    ("k0 = 1.0370370370370372\nK0 = 2.8e-06\n", "K0 = -2.8e-06\n", ("k0 and K0", "positive")),
    # setpoint times within rounding of 0, of each other and of the duration
    # ended the run "step-underflow"
    ("x_star = 0.001", "x_star = 0.0:0.001, 1e-17:0.002",
     ("setpoint time 0.0", "1e-17", "within rounding")),
    ("x_star = 0.001", "x_star = 0.0:0.001, 4.002:0.002, 4.00200000000002:0.001",
     ("setpoint time 4.002", "4.00200000000002", "within rounding")),
    ("x_star = 0.001", "x_star = 0.0:0.001, 9.999999999999998:0.002",
     ("9.999999999999998", "the duration 10.0", "within rounding")),
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


@pytest.mark.parametrize("suite", ["matching", "gradients"])
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


def test_presets_listing(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out.split()
    assert out == ["fig2-F1", "fig2-F2", "fig2-F3", "multistep"]


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


def test_sweep_range_syntax(tmp_path, short_scenario_file):
    out = tmp_path / "rng.csv"
    assert main(["sweep", "k_i", str(short_scenario_file),
                 "--values", "5:15:3", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 4
    assert [float(ln.split(",")[0]) for ln in lines[1:]] == [5.0, 10.0, 15.0]


_SWEEP_HEADER = ("value,valid,positive_definite,rate_bound_ok,condition_product,"
                 "status,x_error,settle_time,max_psi_increment,psi_max,zeta_rate")


def _in_process_sweep(scenario, values, out):
    """The alpha sweep's table and progress lines, one point at a time in this
    process: validate_gains, simulate and diagnostics on each variant."""
    rows, lines = [_SWEEP_HEADER], []
    for value in values:
        variant = replace(scenario, gains=replace(scenario.gains, alpha=value))
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
        lines.append(f"alpha = {value:g}: valid={valid} "
                     f"product={report.condition_product:.4f} status={record.status}")
    lines.append(f"wrote {len(values)} rows to {out}")
    return "\n".join(rows) + "\n", "\n".join(lines) + "\n"


def _record_pids(monkeypatch, path):
    """Make every simulate call in antago.cli, forked workers included,
    append its process id to ``path``."""
    def simulate_and_log(scenario):
        with open(path, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return simulate(scenario)

    monkeypatch.setattr("antago.cli.simulate", simulate_and_log)


def test_parallel_sweep_matches_in_process_rows(tmp_path, study, capsys, monkeypatch):
    """More points than workers, one of them a domain exit: the CSV and the
    progress lines are byte-identical to the points run here one by one."""
    scenario = replace(study, duration=0.2)
    path = tmp_path / "short.ini"
    save_scenario(scenario, path)
    values = [5.0, 10.0, 15.0, 1000.0, 20.0, 25.0, 30.0]
    out = tmp_path / "sweep.csv"
    table, progress = _in_process_sweep(load_scenario(path), values, out)
    assert ",domain-exit," in table and ",ok," in table

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    pids = tmp_path / "pids.txt"
    _record_pids(monkeypatch, pids)
    assert main(["sweep", "alpha", str(path), "--values", ",".join(map(repr, values)),
                 "--out", str(out)]) == 1
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
        return simulate(scenario)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr("antago.cli.simulate", fail_on_large_alpha)
    assert main(["sweep", "alpha", str(short_scenario_file), "--values", "5,1000,10",
                 "--out", str(tmp_path / "out.csv")]) == 1
    assert capsys.readouterr().err == "error: rejected in a worker\n"
    assert not (tmp_path / "out.csv").exists()


# Runs the CLI on argv, with two cores and with a simulate that kills its own
# process, as the OOM killer would, when a forked worker meets alpha > 100.
_KILL_LARGE_ALPHA_WORKER = """\
import os, signal, sys
import antago.cli
os.sched_getaffinity = lambda pid: {0, 1}
parent, simulate = os.getpid(), antago.cli.simulate
def simulate_or_die(scenario):
    if scenario.gains.alpha > 100.0 and os.getpid() != parent:
        os.kill(os.getpid(), signal.SIGKILL)
    return simulate(scenario)
antago.cli.simulate = simulate_or_die
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
# `import antago`, after `import antago.cli` and after the command; and, for each
# fork, whether numpy was loaded when it was made.
_LOADED_MODULES = """\
import contextlib, io, json, os, sys
import antago
numpy = {"import antago": "numpy" in sys.modules}
import antago.cli
numpy["import antago.cli"] = "numpy" in sys.modules
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
print(json.dumps({"exit": code, "after_import": after_import, "after_command": loaded(),
                  "numpy": numpy, "forks": forks}))
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


@pytest.mark.parametrize("argv, forks", [
    (["verify", "matching"], 0),
    (["verify", "gradients", "--seed", "3"], 0),
    (["run", "fig2-F1"], 1),    # 2,001 rows render as two CSV blocks, one forked
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

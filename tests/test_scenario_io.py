"""Scenario files, CSV emission and the preset library."""

import argparse
import configparser
import math
import os
import re
import stat
import threading
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

import antago.scenario_io
from antago.cli import build_parser
from antago.controller import ControllerGains
from antago.engine import (
    CHANNELS,
    FORCE_KINDS,
    STATUSES,
    _COLLISION_FRACTION,
    ForceModel,
    SolverSettings,
    TrajectoryRecord,
    simulate,
)
from antago.errors import ScenarioError
from antago.plant import ActuatorGeometry, FluidParams, PlantParams, PlantState
from antago.scenario_io import (
    list_presets,
    load_preset,
    load_trajectory_csv,
    parse_scenario,
    run_trajectory_csv,
    save_scenario,
    save_trajectory_csv,
    serialize_scenario,
    trajectory_from_csv,
    trajectory_to_csv,
)
from test_workers import _assert_reaped, _record_forks

PRESETS = ("fig2-F1", "fig2-F2", "fig2-F3", "multistep")


def test_preset_listing():
    assert list(PRESETS) == list_presets()


def test_presets_parse_and_validate():
    for name in PRESETS:
        scenario = load_preset(name)
        assert replace(scenario) == scenario   # constructing it again checks it again
        assert scenario.name == name
        assert scenario.params.geometry.K0 == pytest.approx(2.8e-6)
        assert scenario.duration == 10.0


def test_unknown_preset_lists_available():
    with pytest.raises(ScenarioError, match="fig2-F1"):
        load_preset("nope")


def test_preset_names_do_not_reach_outside_the_preset_directory(tmp_path, monkeypatch):
    """A preset is a name that ``list_presets`` gives; a relative path to an
    INI file outside the preset directory is an unknown preset, as it is for
    ``antago run``."""
    presets = tmp_path / "presets"
    presets.mkdir()
    (presets / "custom.ini").write_text(serialize_scenario(load_preset("fig2-F1")))
    (tmp_path / "outside.ini").write_text(serialize_scenario(load_preset("fig2-F2")))
    monkeypatch.setenv("ANTAGO_PRESET_DIR", str(presets))
    for name in ("../outside", "./custom", "custom.ini", ""):
        with pytest.raises(ScenarioError, match=r"^unknown preset .*; available: custom$"):
            load_preset(name)
    assert load_preset("custom").name == "custom"


def test_preset_dir_override(tmp_path, monkeypatch):
    src = serialize_scenario(load_preset("fig2-F1"))
    (tmp_path / "custom.ini").write_text(src)
    monkeypatch.setenv("ANTAGO_PRESET_DIR", str(tmp_path))
    assert list_presets() == ["custom"]
    assert load_preset("custom").duration == 10.0
    with pytest.raises(ScenarioError):
        load_preset("fig2-F1")


# --------------------------------------------------------------------------
# Round-trip and validation of scenario text.

def test_round_trip_is_exact():
    """Each preset comes back equal, and so does it started at x = -0.0, whose
    sign ``==`` cannot see: the parsed position keeps it."""
    for name in PRESETS:
        preset = load_preset(name)
        for scenario in (preset, replace(preset, initial=PlantState(-0.0, 0.0, 0.0, 0.0))):
            again = parse_scenario(serialize_scenario(scenario), name=scenario.name)
            assert again == scenario
            assert math.copysign(1.0, again.initial.x) == math.copysign(1.0, scenario.initial.x)


def test_round_trip_with_initial_state_and_schedule(study):
    scenario = replace(
        study,
        initial=PlantState(x=2.5e-4, p=-1e-3, P1=123.456, P2=-7.89),
        F_hat0=0.0123,
        setpoints=((0.0, 1e-3), (2.5, -5e-4)),
        force=ForceModel("spring", -3.21),
    )
    text = serialize_scenario(scenario)
    assert parse_scenario(text, name=scenario.name) == scenario
    # numpy floats are floats too, and are written as plain numbers
    f64 = np.float64
    from_numpy = replace(
        scenario,
        gains=replace(study.gains, k_p=f64(2.0), alpha=f64(12.5)),
        params=replace(study.params, m=f64(0.25), R=f64(3.5)),
        setpoints=((f64(0.0), f64(1e-3)), (f64(2.5), f64(-5e-4))),
        F_hat0=f64(0.0123),
    )
    for numpy_scenario in (from_numpy, replace(from_numpy, setpoints=((0.0, f64(1e-3)),))):
        text = serialize_scenario(numpy_scenario)
        assert "np." not in text, text
        assert parse_scenario(text, name=scenario.name) == numpy_scenario


def test_round_trip_property(study):
    """Drawn valid scenarios on the fig2-F1 plant (gains, load, a setpoint
    schedule inside the admissible range, solver settings within budget,
    initial state and estimate) survive serialize then parse unchanged."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    lo, hi = study.params.geometry.position_bounds()
    positive = st.floats(min_value=1e-9, max_value=1e6)
    finite = st.floats(allow_nan=False, allow_infinity=False)
    inside = st.floats(min_value=lo, max_value=hi, exclude_min=True, exclude_max=True)
    later = st.lists(st.floats(min_value=0.0, max_value=1e3, exclude_min=True),
                     unique=True, max_size=3).map(sorted)

    @hypothesis.settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @hypothesis.given(data=st.data())
    def check(data):
        times = [0.0, *data.draw(later)]
        gains = ControllerGains(*(data.draw(positive) for _ in range(4)))
        force = ForceModel(data.draw(st.sampled_from(FORCE_KINDS)), data.draw(finite))
        setpoints = tuple((t, data.draw(inside)) for t in times)
        duration = data.draw(st.floats(min_value=1e-3, max_value=10.0))
        # Run times within rounding of each other make no valid schedule.
        ends = [t for t in times if t < duration] + [duration]
        hypothesis.assume(all(b - a > _COLLISION_FRACTION * max(b, 1.0)
                              for a, b in zip(ends, ends[1:])))
        scenario = replace(
            study, gains=gains, force=force, setpoints=setpoints, duration=duration,
            solver=SolverSettings(
                method=data.draw(st.sampled_from(("rk23", "rk4"))),
                rel_tol=data.draw(positive), abs_tol=data.draw(positive),
                max_step=data.draw(st.floats(min_value=1e-6, max_value=1e6)),
                fixed_step=data.draw(st.floats(min_value=1e-6, max_value=1.0)),
                sample_dt=data.draw(st.floats(min_value=1e-4, max_value=1.0))),
            initial=PlantState(data.draw(inside), data.draw(finite),
                               data.draw(finite), data.draw(finite)),
            F_hat0=data.draw(st.none() | finite),
        )
        assert parse_scenario(serialize_scenario(scenario)) == replace(scenario, name="")

    check()


# One valid value, other than fig2-F1's, for each field a scenario file holds;
# PlantParams' geometry and fluid are the two types above it.
FIELD_CHANGES = {
    ActuatorGeometry: {"L0": 0.031, "K0": 3e-6, "V0": 2e-7, "x0": 3.5e-3, "x_M": 7e-3},
    FluidParams: {"Gamma0": 1.5e9, "rho": 900.0},
    PlantParams: {"m": 0.3, "R": 4.0},
    ControllerGains: {"k_p": 2.0, "k_m": 3.0, "k_i": 5.0, "alpha": 20.0},
    ForceModel: {"kind": "spring", "value": 0.5},
    SolverSettings: {"method": "rk4", "rel_tol": 1e-7, "abs_tol": 1e-9, "max_step": 5e-3,
                     "fixed_step": 2e-5, "sample_dt": 1e-2},
}


def _with_field(study, cls, name, value):
    """``study`` with one field of one of its model types set to ``value``."""
    params = study.params
    if cls in (ActuatorGeometry, FluidParams):
        part = "geometry" if cls is ActuatorGeometry else "fluid"
        changed = replace(getattr(params, part), **{name: value})
        return replace(study, params=replace(params, **{part: changed}))
    if cls is PlantParams:
        return replace(study, params=replace(params, **{name: value}))
    owner = {ControllerGains: "gains", ForceModel: "force", SolverSettings: "solver"}[cls]
    return replace(study, **{owner: replace(getattr(study, owner), **{name: value})})


def test_every_field_survives_the_round_trip(study):
    """Each field of the model types a scenario file holds, set alone to
    another valid value, changes the text and survives serialize then parse;
    each ``[plant]`` key also changes a 0.05 s run, so the model reads it."""
    text = serialize_scenario(study)
    short = replace(study, duration=0.05)
    record = simulate(short)
    for cls, changes in FIELD_CHANGES.items():
        assert set(changes) == {f.name for f in fields(cls)} - {"geometry", "fluid"}, cls
        for name, value in changes.items():
            scenario = _with_field(study, cls, name, value)
            changed = serialize_scenario(scenario)
            assert changed != text, name
            assert parse_scenario(changed, name=study.name) == scenario, name
            if cls in (ActuatorGeometry, FluidParams, PlantParams):
                assert simulate(_with_field(short, cls, name, value)) != record, name


def test_scenario_format_named_once(study):
    """The scenario format names its keys once, after the model types: the
    ``sweep`` parameters are the ``ControllerGains`` fields plus ``m``, ``R``
    and ``epsilon``, and ``serialize_scenario`` writes, in each section and in
    field order, the field names of the types it holds, which are exactly the
    keys ``parse_scenario`` accepts there."""
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    parameter = next(a for a in commands["sweep"]._actions if a.dest == "parameter")
    gains = [f.name for f in fields(ControllerGains)]
    assert sorted(parameter.choices) == sorted([*gains, "m", "R", "epsilon"])

    def names(*types):
        return [f.name for cls in types for f in fields(cls)]

    expected = {
        "plant": [*names(ActuatorGeometry, FluidParams), "m", "R"],
        "gains": names(ControllerGains),
        "force": names(ForceModel),
        "solver": names(SolverSettings),
        "schedule": ["duration", "x_star"],
        "initial": [*names(PlantState), "F_hat"],
    }
    text = serialize_scenario(replace(study, initial=PlantState(1e-4, 0.0, 0.0, 0.0),
                                      F_hat0=0.0))
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    cp.read_string(text)
    written = {section: list(cp[section]) for section in cp.sections()}
    assert list(written.items()) == list(expected.items())
    every_key = {key for keys in written.values() for key in keys}
    for section, keys in written.items():
        for key in sorted(every_key - set(keys)):
            edited = text.replace(f"[{section}]\n", f"[{section}]\n{key} = 1\n")
            with pytest.raises(ScenarioError,
                               match=re.escape(f"unknown key {key!r} in section [{section}]")):
                parse_scenario(edited)


def test_unknown_key_suggests_expected_case(study):
    text = serialize_scenario(study).replace("Gamma0 =", "gamma0 =")
    with pytest.raises(ScenarioError, match="'Gamma0'"):
        parse_scenario(text)


def test_leftover_k0_names_the_conversion(study):
    """A leftover ``k0`` is answered with the conversion to the volume scale
    K0 in m^3, not with the key K0: the dimensionless k0 differs from it only
    by case."""
    text = serialize_scenario(study).replace("[plant]\n", "[plant]\nk0 = 1.0\n")
    with pytest.raises(ScenarioError) as info:
        parse_scenario(text)
    assert str(info.value) == ("unknown key 'k0' in section [plant]; give the volume scale "
                               "K0 = k0*(L0^2/n_L)*(d_c/3 + D_s/2), in m^3, instead")


def test_unknown_key_close_match_suggestion(study):
    text = serialize_scenario(study).replace("alpha =", "alhpa =")
    with pytest.raises(ScenarioError, match="'alpha'"):
        parse_scenario(text)


def test_unknown_section_rejected(study):
    text = serialize_scenario(study) + "\n[solvers]\nmethod = rk4\n"
    with pytest.raises(ScenarioError, match=r"\[solver\]"):
        parse_scenario(text)


def test_missing_required_pieces(study):
    """A required section must be there, and so must every key of it."""
    text = serialize_scenario(study)
    without_gains = re.sub(r"\[gains\][^\[]*", "", text)
    with pytest.raises(ScenarioError, match=r"\[gains\]"):
        parse_scenario(without_gains)
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    cp.read_string(text)
    for section in ("plant", "gains", "force", "schedule"):
        for key in cp[section]:
            without = re.sub(rf"^{key} = .*\n", "", text, flags=re.MULTILINE)
            with pytest.raises(ScenarioError, match=re.escape(
                    f"missing key {key!r} in section [{section}]")):
                parse_scenario(without)


def test_unparsable_number(study):
    text = serialize_scenario(study).replace("rho = 1000.0", "rho = heavy")
    with pytest.raises(ScenarioError, match="rho"):
        parse_scenario(text)
    text = serialize_scenario(study).replace("R = 5.0\n", "R = inf\n")
    with pytest.raises(ScenarioError, match="finite"):
        parse_scenario(text)
    # one whose square (the curvatures divide by L0 * L0) overflows or
    # underflows, and a negative one
    for value in ("1e200", "1e-200", "-0.03"):
        text = serialize_scenario(study).replace("L0 = 0.03\n", f"L0 = {value}\n")
        with pytest.raises(ScenarioError, match=re.escape("L0, L0 * L0 and V0 must be")):
            parse_scenario(text)
    text = serialize_scenario(study).replace("x_star = 0.001", "x_star = abc")
    with pytest.raises(ScenarioError, match="'x_star'"):
        parse_scenario(text)


@pytest.mark.parametrize("scale", ["K0 = 0.0", "K0 = -2.8e-06", "K0 = nan"])
def test_non_positive_volume_scale_is_scenario_error(study, scale):
    """A zero, a negative and a NaN volume scale are rejected when the
    geometry is built."""
    text = serialize_scenario(study)
    assert "K0 = 2.8e-06\n" in text
    with pytest.raises(ScenarioError, match="volume scale K0 must be positive and finite"):
        parse_scenario(text.replace("K0 = 2.8e-06\n", scale + "\n"))


def test_subnormal_area_scale_is_scenario_error(study):
    """A positive K0 whose ratio to L0 is below the smallest normal float,
    where both areas underflow to zero, is rejected when the geometry is built."""
    text = serialize_scenario(study).replace("K0 = 2.8e-06\n", "K0 = 5e-324\n")
    with pytest.raises(ScenarioError) as info:
        parse_scenario(text.replace("L0 = 0.03\n", "L0 = 1000.0\n"))
    assert str(info.value) == ("area scale K0 / L0 = 0.0 is below the smallest normal "
                               "float 2.2250738585072014e-308")


def test_invalid_gain_is_scenario_error(study):
    for value in ("-1", "nan", "0"):
        text = re.sub(r"^k_p = .*$", f"k_p = {value}", serialize_scenario(study),
                      flags=re.MULTILINE)
        with pytest.raises(ScenarioError, match="gains"):
            parse_scenario(text)


def test_parse_raises_only_scenario_error():
    """Any one value of a preset's text replaced by drawn text (floats with
    NaN and infinities, huge integers, words, nothing, a comment sign) either
    parses or raises ScenarioError, never another exception."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    presets = {}
    for name in PRESETS:
        lines = serialize_scenario(load_preset(name)).splitlines()
        presets[name] = (lines, [i for i, ln in enumerate(lines) if " = " in ln])
    values = st.one_of(
        st.floats().map(repr),
        st.integers(min_value=-10**450, max_value=10**450).map(str),
        st.from_regex(r"[A-Za-z_]{1,10}", fullmatch=True),
        st.sampled_from(["", ";", "; 1.0", "rk4", "spring", "1:2:3", "0:0.001, x"]),
    )

    @hypothesis.settings(derandomize=True, max_examples=400, deadline=None, database=None)
    @hypothesis.given(data=st.data())
    def check(data):
        lines, assignments = presets[data.draw(st.sampled_from(PRESETS))]
        i = data.draw(st.sampled_from(assignments))
        edited = list(lines)
        edited[i] = f"{lines[i].partition(' = ')[0]} = {data.draw(values)}"
        try:
            parse_scenario("\n".join(edited))
        except ScenarioError:
            pass

    check()


def test_parse_edited_text_raises_only_scenario_error():
    """A preset's text edited beyond one value (lines inserted, deleted or
    duplicated, key and section names recased or misspelt, ``key = value``
    lines added under a random section) either parses or raises
    ScenarioError, never another exception."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    presets = {name: serialize_scenario(load_preset(name)).splitlines() for name in PRESETS}
    names = sorted({ln.partition(" = ")[0].strip("[]") for lines in presets.values()
                    for ln in lines if " = " in ln or ln.startswith("[")})
    values = st.one_of(
        st.floats().map(repr),
        st.integers(min_value=-10**30, max_value=10**30).map(str),
        st.sampled_from(["", ";", "rk4", "euler", "spring", "1:2:3", "0:0.001, 1.0:0.002"]),
    )
    texts = st.one_of(
        st.text(alphabet="[]=:;# \tabkxK0.-", max_size=12),
        st.sampled_from(["[plant]", "[initial]", "[gains]", "[solver]", "[]", "  5", "x = 1e-3"]),
        st.builds("{} = {}".format, st.sampled_from(names), values),
    )

    def rename(name, data):
        how = data.draw(st.sampled_from(("upper", "lower", "swapcase", "title", "misspell")))
        if how != "misspell" or not name:
            return getattr(name, how)()
        i = data.draw(st.integers(0, len(name) - 1))
        return name[:i] + data.draw(st.sampled_from(["", "_", "x", name[i] * 2])) + name[i + 1:]

    def edit(lines, data):
        kind = data.draw(st.sampled_from(("insert", "delete", "duplicate", "rename", "add")))
        i = data.draw(st.integers(0, len(lines) - 1))
        if kind == "insert":
            lines.insert(i, data.draw(texts))
        elif kind == "delete":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "rename":
            named = [j for j, ln in enumerate(lines) if " = " in ln or ln.startswith("[")]
            j = data.draw(st.sampled_from(named))
            if lines[j].startswith("["):
                lines[j] = f"[{rename(lines[j].strip('[]'), data)}]"
            else:
                key, _, value = lines[j].partition(" = ")
                lines[j] = f"{rename(key, data)} = {value}"
        else:
            headers = [j for j, ln in enumerate(lines) if ln.startswith("[")]
            j = data.draw(st.sampled_from(headers))
            lines.insert(j + 1, f"{data.draw(st.sampled_from(names))} = {data.draw(values)}")

    @hypothesis.settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @hypothesis.given(data=st.data())
    def check(data):
        lines = list(presets[data.draw(st.sampled_from(PRESETS))])
        for _ in range(data.draw(st.integers(1, 3))):
            edit(lines, data)
        try:
            parse_scenario("\n".join(lines))
        except ScenarioError:
            pass

    check()


def test_bad_schedule_entry(study):
    text = serialize_scenario(study).replace(
        "x_star = 0.001", "x_star = 0:0.001, later:0.002")
    with pytest.raises(ScenarioError, match="time:x_star"):
        parse_scenario(text)


def test_out_of_range_setpoint_rejected(study):
    text = serialize_scenario(study).replace("x_star = 0.001", "x_star = 0.03")
    with pytest.raises(ScenarioError):
        parse_scenario(text)


def test_save_scenario_round_trips(tmp_path, study):
    """A saved scenario loads equal; one started at x = -0.0, whose sign ``==``
    cannot see, loads to a run whose first CSV row is byte for byte the same."""
    from antago.scenario_io import load_scenario

    path = tmp_path / "sc.ini"
    save_scenario(study, path)
    assert load_scenario(path) == replace(study, name="sc")
    signed = replace(study, initial=PlantState(-0.0, 0.0, 0.0, 0.0), duration=0.01, name="sc")
    save_scenario(signed, path)
    rows = [trajectory_to_csv(simulate(s)).splitlines()[2] for s in (signed, load_scenario(path))]
    assert rows[0].startswith("0.0,-0.0,") and rows[1] == rows[0], rows


def test_scenario_file_is_read_as_utf8(tmp_path, study):
    """A 'µ' in a comment reads as UTF-8 whatever the locale; in Latin-1 it is
    a ScenarioError naming the file."""
    from antago.scenario_io import load_scenario

    text = "; stroke in \u00b5m\n" + serialize_scenario(study)
    path = tmp_path / "sc.ini"
    path.write_bytes(text.encode("utf-8"))
    assert load_scenario(path) == replace(study, name="sc")
    path.write_bytes(text.encode("latin-1"))
    with pytest.raises(ScenarioError) as info:
        load_scenario(path)
    assert str(info.value) == (f"scenario file {str(path)!r} is not UTF-8 text "
                               "(byte 0xb5: invalid start byte)")


# --------------------------------------------------------------------------
# Trajectory CSV.

def _row(*tail):
    """A data row of 0.5 that ends in the cells ``tail``."""
    return ",".join(["0.5"] * (len(CHANNELS) - len(tail)) + list(tail))


_HEADER = ",".join(CHANNELS)
_ROW = _row()


@pytest.fixture(scope="module")
def short_record(study):
    return simulate(replace(study, duration=0.1))


def test_csv_round_trip(short_record):
    text = trajectory_to_csv(short_record)
    again = trajectory_from_csv(text)
    assert again == short_record


def test_csv_is_deterministic_and_lf(short_record, tmp_path):
    a = trajectory_to_csv(short_record)
    b = trajectory_to_csv(short_record)
    assert a == b
    path = tmp_path / "out.csv"
    save_trajectory_csv(short_record, path)
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert load_trajectory_csv(path) == short_record


def test_csv_layout(short_record):
    lines = trajectory_to_csv(short_record).splitlines()
    assert lines[0] == "# status: ok"
    header = lines[1].split(",")
    assert header[0] == "t" and "Psi" in header
    first = lines[2].split(",")
    assert len(first) == len(header)
    assert float(first[0]) == 0.0


def test_csv_preserves_status_detail(study):
    pushed = replace(study, force=ForceModel("constant", 0.5), duration=2.0)
    record = simulate(pushed)
    assert record.status == "domain-exit"
    again = trajectory_from_csv(trajectory_to_csv(record))
    assert again.status == "domain-exit"
    assert "actuator" in again.detail


def test_csv_without_header_rejected():
    with pytest.raises(ScenarioError, match="no header row"):
        trajectory_from_csv("# status: ok\n")
    # a header without a time column, with a repeated name or an empty name
    for header in ("x", "t,t", "t,,x", "t,x,"):
        with pytest.raises(ScenarioError, match=f"line 1: header {re.escape(repr(header))}"):
            trajectory_from_csv(header + "\n1" + ",1" * header.count(",") + "\n")
    # a ragged row and a cell that is not a number name their line
    for bad in (f"{_ROW[4:]}\n{_ROW[4:]}", _ROW + ",0.5", _row("abc", "0.5")):
        text = f"# status: ok\n\n{_HEADER}\n{_ROW}\n{bad}\n"
        with pytest.raises(ScenarioError, match=f"line 5: expected {len(CHANNELS)} numbers"):
            trajectory_from_csv(text)


@pytest.mark.parametrize("header", [
    ",".join(("x", "t") + CHANNELS[2:]),   # two columns swapped
    ",".join(CHANNELS[1:] + CHANNELS[:1]),  # the time column last
    ",".join(CHANNELS[:-1]),                # one channel missing
    _HEADER + ",extra",                     # one column extra
    ",".join(CHANNELS[:-1] + ("t",)),       # a channel repeated in place of another
    _HEADER.replace(",", ", "),             # spaces after the commas
], ids=["swapped", "rotated", "missing", "extra", "repeated", "spaced"])
def test_csv_header_is_exactly_the_writers(header):
    """The reader takes one header, the channel names in ``CHANNELS`` order;
    any other is a ScenarioError naming its line and the expected header,
    whatever rows follow."""
    for rows in ("", f"{_ROW}\n", "0.5\n"):
        with pytest.raises(ScenarioError) as info:
            trajectory_from_csv(f"# status: ok\n{header}\n{rows}")
        assert str(info.value) == (f"trajectory CSV line 2: header {header!r} "
                                   f"is not the expected {_HEADER!r}")


def test_csv_round_trips_preset_and_domain_exit_records(fig2_runs):
    """The four presets' records and a record that ends in a domain exit
    after its first setpoint segment read back equal to the simulated ones,
    each as one C-contiguous float64 table whose channels are views of it."""
    multistep = load_preset("multistep")
    exiting = replace(multistep, setpoints=((0.0, 0.0), (2.0, 3e-3)), duration=6.0,
                      gains=replace(multistep.gains, alpha=20.0))
    records = [record for _, record in fig2_runs.values()]
    records += [simulate(multistep), simulate(exiting)]
    assert records[-1].status == "domain-exit" and len(records[-1]) > 100
    for record in records:
        again = trajectory_from_csv(trajectory_to_csv(record))
        assert again == record
        assert again.table.dtype == np.float64 and again.table.flags.c_contiguous
        assert all(np.shares_memory(again[name], again.table) for name in CHANNELS)


def test_csv_missing_record_channels_rejected():
    """A header with a time column but not every record channel is not the
    writer's header: ScenarioError naming the header line and the expected
    channels, instead of a record that diagnostics cannot read."""
    with pytest.raises(ScenarioError, match="line 1: .*x_star") as info:
        trajectory_from_csv("t,x\n0,0\n")
    assert "xdot" in str(info.value) and "Psi" in str(info.value)


def test_atomic_write_leaves_no_temp_files(tmp_path, short_record):
    save_trajectory_csv(short_record, tmp_path / "traj.csv")
    assert sorted(os.listdir(tmp_path)) == ["traj.csv"]


@pytest.mark.parametrize("umask", [0o022, 0o027, 0o002], ids=lambda u: f"umask-{u:03o}")
def test_written_files_get_the_mode_open_gives(tmp_path, short_record, study, umask):
    """A new trajectory CSV or scenario file gets the mode ``open(path, "w")``
    gives under the umask, not the temporary file's 0o600, and a replaced
    file keeps its own mode."""
    writers = {"traj.csv": lambda path: save_trajectory_csv(short_record, path),
               "scenario.ini": lambda path: save_scenario(study, path)}
    old = os.umask(umask)
    try:
        probe = tmp_path / "probe"
        open(probe, "w").close()
        expected = stat.S_IMODE(probe.stat().st_mode)
        assert expected == 0o666 & ~umask
        for name, write in writers.items():
            path = tmp_path / name
            write(path)
            assert stat.S_IMODE(path.stat().st_mode) == expected, name
            path.chmod(0o640)
            write(path)
            assert stat.S_IMODE(path.stat().st_mode) == 0o640, name
    finally:
        os.umask(old)


@pytest.mark.parametrize("status", ["bogus", "OK", "", "domain exit"])
def test_csv_status_is_one_the_engine_writes(status):
    """A status that simulate never gives is a ScenarioError naming its line
    before the header; among the rows a status line is a bad row. Each status
    it gives reads back."""
    with pytest.raises(ScenarioError) as info:
        trajectory_from_csv(f"# status: {status}\n{_HEADER}\n{_ROW}\n")
    assert str(info.value) == (f"trajectory CSV line 1: status {status!r} is not "
                               "one of ok, domain-exit, step-underflow")
    with pytest.raises(ScenarioError) as info:
        trajectory_from_csv(f"{_HEADER}\n{_ROW}\n# status: {status}\n{_ROW}\n")
    assert str(info.value) == (f"trajectory CSV line 3: expected {len(CHANNELS)} numbers, "
                               f"got '# status: {status}'")
    for status in STATUSES:
        assert trajectory_from_csv(f"# status: {status}\n{_HEADER}\n").status == status


def test_csv_save_and_load_never_hold_the_whole_text(fig2_runs, tmp_path, monkeypatch):
    """Writing the 2,001-row fig2-F1 record holds one rendered block of rows
    at a time, and reading it back the table beside the text stream's buffer,
    never the whole 688 kB text: tracemalloc peaks of 0.10 MB and 0.344 MB
    (Python 3.11, numpy 2.4), where holding the whole text took 1.38 MB and
    1.88 MB. One core: every block is rendered where tracemalloc sees it."""
    import tracemalloc

    record = fig2_runs["fig2-F1"][1]
    path = tmp_path / "f1.csv"
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    save_trajectory_csv(record, path)   # the first calls import what they use
    assert load_trajectory_csv(path) == record
    peaks = []
    for step in (lambda: save_trajectory_csv(record, path), lambda: load_trajectory_csv(path)):
        tracemalloc.start()
        try:
            step()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 1.0e6 and peaks[1] < 0.4e6, peaks


def test_csv_text_is_read_without_a_wide_copy(fig2_runs):
    """Reading the fig2-F1 CSV from a string holds its UTF-8 bytes beside the
    table, not a copy at 4 bytes per character: a tracemalloc peak of 1.03 MB,
    1.5 bytes per character, for the 687,810-character text (Python 3.11,
    numpy 2.4), where an ``io.StringIO`` of it took 3.08 MB."""
    import tracemalloc

    record = fig2_runs["fig2-F1"][1]
    text = trajectory_to_csv(record)
    assert trajectory_from_csv(text) == record   # the first call imports what it uses
    tracemalloc.start()
    try:
        trajectory_from_csv(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.6 * len(text), (peak, len(text))


# --------------------------------------------------------------------------
# The CSV writer and reader against reference copies: the per-value renderer
# and the per-line parser, one ``float`` call per cell.

def _reference_trajectory_to_csv(record):
    """Per-value form of ``trajectory_to_csv`` (single-line details)."""
    lines = [f"# status: {record.status}"]
    if record.detail:
        lines.append(f"# detail: {record.detail}")
    lines.append(",".join(CHANNELS))
    columns = [record[name] for name in CHANNELS]
    for row in zip(*columns):
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def _reference_trajectory_from_csv(text):
    """Whole-text, per-cell form of ``trajectory_from_csv``: the record, or
    the ScenarioError message. The text's lines end at "\\r\\n", "\\r" and
    "\\n", numbered from 1. Before the header, status and detail lines are
    read, and other comment and blank lines skipped; after it, each nonempty
    line is a row of one ``float`` per channel, stripped, with no ``_``."""
    status, details, header, rows = "ok", [], False, []
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for number, ln in enumerate(lines, start=1):
        if header:
            cells = ln.split(",")
            try:
                if len(cells) != len(CHANNELS) or "_" in ln:
                    raise ValueError
                rows.append([float(v.strip()) for v in cells])
            except ValueError:
                if ln:
                    return (f"trajectory CSV line {number}: expected {len(CHANNELS)} "
                            f"numbers, got {ln!r}")
        elif ln.startswith("# status:"):
            status = ln.partition(":")[2].strip()
            if status not in STATUSES:
                return (f"trajectory CSV line {number}: status {status!r} is not "
                        f"one of {', '.join(STATUSES)}")
        elif ln.startswith("# detail:"):
            details.append(ln.removeprefix("# detail:").removeprefix(" "))
        elif ln.startswith("#") or not ln.strip():
            continue
        elif ln != _HEADER:
            return (f"trajectory CSV line {number}: header {ln!r} is not "
                    f"the expected {_HEADER!r}")
        else:
            header = True
    if not header:
        return "trajectory CSV has no header row"
    table = np.array(rows, dtype=float).reshape(len(rows), len(CHANNELS))
    return TrajectoryRecord(table, status, "\n".join(details))


# Lines the property test puts anywhere in a CSV: blank, comment, status and
# detail lines, and lines that are a bad row, or a bad header, where they land.
_EXTRA_LINES = ("", " \t", "# note", "# status: domain-exit", "# status: bogus",
                "# detail: more", "0.5", _ROW, _HEADER)
# Every line break str.splitlines knows.
_LINE_BREAKS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                "\u2028", "\u2029")


def _read_text_and_file(text, path):
    """What trajectory_from_csv makes of ``text``, and load_trajectory_csv of
    a file holding it: each a record, or the ScenarioError's message."""
    path.write_text(text, newline="")
    results = []
    for read, source in ((trajectory_from_csv, text), (load_trajectory_csv, path)):
        try:
            results.append(read(source))
        except ScenarioError as exc:
            results.append(str(exc))
    return results


def test_csv_matches_reference_property(tmp_path):
    """Drawn records (0, 1 or many rows; a float64, float32, int or bool
    table; signed zeros, subnormals, infinities, NaN and 1e+-308) render
    byte for byte as the reference renders them, parse as the reference
    parses them, and survive the round trip. Their text with drawn line
    breaks and lines added anywhere reads the same from a file as from the
    text: an equal record or an equal error."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan]
    edges64 = st.sampled_from(specials + [5e-324, -2.2250738585072014e-308, 1e308,
                                          -1e-308, 1.7976931348623157e308])
    edges32 = st.sampled_from(specials + [1e-45, -1.1754943508222875e-38,
                                          3.4028234663852886e38])
    values = {
        "float64": edges64 | st.floats(),
        "float32": edges32 | st.floats(width=32),
        "int64": st.integers(-2**53, 2**53),
        "bool": st.booleans(),
    }
    # one line: the details the reference writer can carry
    plain = st.sampled_from(["", "x = 0.0299 left the actuator domain at t = 6.0",
                             "step size underflow"])
    # any text without a "\r", "\x0c" or "\u2028" say among the rest: the details
    # the format carries
    texts = (st.text(st.characters(blacklist_characters="\r"), max_size=20)
             | st.text(st.sampled_from("a \n\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"),
                       max_size=6))

    @hypothesis.settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @hypothesis.given(data=st.data())
    def check(data):
        n = data.draw(st.sampled_from((0, 1, 2, 12)))
        dtype = data.draw(st.sampled_from(tuple(values)))
        size = n * len(CHANNELS)
        cells = data.draw(st.lists(values[dtype], min_size=size, max_size=size))
        table = np.array(cells, dtype=dtype).reshape(n, len(CHANNELS))
        status = data.draw(st.sampled_from(("ok", "domain-exit", "step-underflow")))
        detail = data.draw(plain | texts)
        record = TrajectoryRecord(table, status, detail)
        text = trajectory_to_csv(record)
        assert trajectory_from_csv(text) == record
        assert trajectory_from_csv(text) == _reference_trajectory_from_csv(text)
        if "\n" not in detail:
            assert text == _reference_trajectory_to_csv(record)
        lines = text.splitlines()
        for extra in data.draw(st.lists(st.sampled_from(_EXTRA_LINES), max_size=3)):
            lines.insert(data.draw(st.integers(0, len(lines))), extra)
        ends = data.draw(st.lists(st.sampled_from(_LINE_BREAKS), min_size=len(lines),
                                  max_size=len(lines)))
        by_text, by_file = _read_text_and_file(
            "".join(map(str.__add__, lines, ends)), tmp_path / "drawn.csv")
        assert by_text == by_file

    check()


# Lines the reader's property test puts before or after the header.
_PROSE_LINES = ("", " ", " \t ", "# note", "# status: domain-exit", "# status: bogus",
                "# detail: a", "# detail:", "#")
# A row that does not hold one number per channel, one per way of failing.
_BAD_ROWS = (_ROW[4:], _ROW + ",0.5", _row(""), _row("abc"), _row("1", "2 # c"),
             _row("1_0"), "0.5")
# The line breaks str.splitlines knows besides "\n" and "\r": ordinary
# characters to the reader.
_OTHER_BREAKS = _LINE_BREAKS[3:]


def test_csv_reader_matches_the_whole_text_reference(tmp_path):
    """Drawn texts read the same from their string and from a file as the
    whole-text reference reads them: an equal record or an equal error
    message, line number included. The texts draw comment, blank and
    whitespace-only lines before and after the header, "\\n", "\\r\\n" and
    lone "\\r" line endings, the other breaks ``str.splitlines`` knows inside
    lines and at their ends, zero or more rows and one bad row or none."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    cells = st.sampled_from(["0.5", "-1e-300", "nan", "-inf", " 2.5 ", "1e308", "-0.0", "7"])
    rows = st.lists(cells, min_size=len(CHANNELS), max_size=len(CHANNELS)).map(",".join)
    prose = st.lists(st.sampled_from(_PROSE_LINES), max_size=2)
    outcomes = set()

    @hypothesis.settings(derandomize=True, max_examples=400, deadline=None, database=None)
    @hypothesis.given(data=st.data())
    def check(data):
        body = data.draw(st.lists(rows, max_size=4))
        bad = data.draw(st.none() | st.sampled_from(_BAD_ROWS))
        for extra in data.draw(prose) + ([bad] if bad else []):
            body.insert(data.draw(st.integers(0, len(body))), extra)
        lines = data.draw(prose) + [_HEADER] + body
        for _ in range(data.draw(st.sampled_from((0, 0, 1, 2)))):
            i = data.draw(st.integers(0, len(lines) - 1))
            at = data.draw(st.integers(0, len(lines[i])))
            lines[i] = lines[i][:at] + data.draw(st.sampled_from(_OTHER_BREAKS)) + lines[i][at:]
        ends = data.draw(st.lists(st.sampled_from(("\n", "\n", "\r\n", "\r")),
                                  min_size=len(lines), max_size=len(lines)))
        if data.draw(st.booleans()):
            ends[-1] = ""
        text = "".join(map(str.__add__, lines, ends))
        expected = _reference_trajectory_from_csv(text)
        by_text, by_file = _read_text_and_file(text, tmp_path / "drawn.csv")
        assert by_text == expected and by_file == expected
        outcomes.add(expected.split(": ")[1].split()[0] if isinstance(expected, str)
                     else min(len(expected), 2))

    check()
    assert outcomes == {0, 1, 2, "status", "header", "expected"}, outcomes


def test_csv_breaks_across_the_file_buffer_read_as_in_the_text(tmp_path):
    """The file is decoded 8,192 bytes at a time. Slid across that boundary a
    byte at a time, over 40 bytes of "\\r\\n" pairs, lone "\\r"s and blank
    lines among the detail lines before the header, and among the rows after
    it, it reads to the record its text reads to."""
    details = "# detail: a\r\n\r# detail: b\r\r\n"
    rows = f"{_ROW}\r\n\r{_ROW}\r"
    path = tmp_path / "breaks.csv"
    for shift in range(-2, 38):   # the boundary falls ``shift`` characters into a block
        pad = 8192 - 2 - shift
        # padded by a comment line, or by the leading spaces of a row
        before = "# " + "x" * (pad - 2) + "\r\n" + details * 3 + f"{_HEADER}\n" + rows * 3
        head = details * 3 + f"{_HEADER}\n"
        after = head + " " * (pad - len(head) - len(_ROW)) + f"{_ROW}\r\n" + rows * 3
        for text, samples in ((before, 6), (after, 7)):
            by_text, by_file = _read_text_and_file(text, path)
            assert by_text == by_file
            assert len(by_text) == samples and by_text.detail == "a\nb\n" * 2 + "a\nb"


def test_non_utf8_csv_file_names_it_after_one_scan(tmp_path, monkeypatch):
    """A Latin-1 byte before the header, or in a row past the first 8,192
    bytes, is a ScenarioError naming the file, raised by the first scan. A
    scan starts when ``_read_prefix`` reads the stream from its start through
    the header."""
    scans = []
    read_prefix = antago.scenario_io._read_prefix

    def counted_prefix(fh):
        scans.append(1)
        return read_prefix(fh)

    monkeypatch.setattr(antago.scenario_io, "_read_prefix", counted_prefix)
    path = tmp_path / "latin1.csv"
    for text in (f"# detail: 5 \u00b5m\n{_HEADER}\n{_ROW}\n",
                 f"{_HEADER}\n" + f"{_ROW}\n" * 200 + _row("\u00b5") + "\n"):
        path.write_bytes(text.encode("latin-1"))
        scans.clear()
        with pytest.raises(ScenarioError) as info:
            load_trajectory_csv(path)
        assert str(info.value) == (f"trajectory CSV {str(path)!r} is not UTF-8 text "
                                   "(byte 0xb5: invalid start byte)")
        assert scans == [1]


def test_csv_detail_round_trips():
    """A detail with line breaks, surrounding spaces or characters that
    ``str.splitlines`` splits at but a file's lines do not end at reads back
    as written; a single-line detail keeps its one ``# detail:`` line."""
    table = np.zeros((2, len(CHANNELS)))
    for detail in ("a\nb", "  padded  ", "a\n", "\n", "x = 0.03 outside (0, 0.029)",
                   "a\x0cb", "a\u2028b", "x\x85"):
        record = TrajectoryRecord(table, "domain-exit", detail)
        assert trajectory_from_csv(trajectory_to_csv(record)) == record
    lines = trajectory_to_csv(TrajectoryRecord(table, "domain-exit", "a\nb")).splitlines()
    assert lines[:4] == ["# status: domain-exit", "# detail: a", "# detail: b", _HEADER]
    lines = trajectory_to_csv(TrajectoryRecord(table, "domain-exit", "one")).splitlines()
    assert lines[:3] == ["# status: domain-exit", "# detail: one", _HEADER]


def test_csv_edge_shapes_raise_no_warning(tmp_path):
    """A header-only CSV gives 0 samples, from its text or its file, and a
    one-row CSV 1 sample per channel; empty lines between rows are skipped,
    and a comment or whitespace-only line there is a bad row naming its line."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        empty, from_file = _read_text_and_file(f"# status: ok\n{_HEADER}\n",
                                               tmp_path / "empty.csv")
        assert empty == from_file and empty.table.shape == (0, len(CHANNELS))
        assert all(empty[name].shape == (0,) and empty[name].dtype == float
                   for name in CHANNELS)
        one = trajectory_from_csv(f"{_HEADER}\n{_ROW}\n")
        assert all(one[name].tolist() == [0.5] for name in CHANNELS)
        spaced = trajectory_from_csv(f"{_HEADER}\n\n{_ROW}\n\n\n{_ROW}\n\n")
        assert spaced == trajectory_from_csv(f"{_HEADER}\n{_ROW}\n{_ROW}\n")
        for line in ("# note", " \t"):
            with pytest.raises(ScenarioError) as info:
                trajectory_from_csv(f"{_HEADER}\n{_ROW}\n\n{line}\n{_ROW}\n")
            assert str(info.value) == (f"trajectory CSV line 4: expected {len(CHANNELS)} "
                                       f"numbers, got {line!r}")


@pytest.mark.parametrize("bad", [
    _ROW[4:],             # one cell short
    _ROW + ",0.5",        # one cell long
    _row(""),             # an empty cell
    _row("abc"),
    _row("1", "2 # c"),   # a comment inside the row
    _row("1_0"),          # float() takes it, the reader does not
], ids=["short", "long", "empty", "abc", "comment", "underscore"])
def test_csv_bad_row_names_its_line(bad):
    width = len(CHANNELS)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for before in (0, 1, 3):
            text = "# status: ok\n" + _HEADER + "\n" + f"{_ROW}\n" * before + bad
            text += f"\n{_ROW}\n"
            with pytest.raises(ScenarioError, match=(f"^trajectory CSV line {before + 3}: "
                                                     f"expected {width} numbers, got ")):
                trajectory_from_csv(text)


def test_csv_header_reported_before_ragged_rows():
    width = len(CHANNELS)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ScenarioError, match="line 1: header 't,x'"):
            trajectory_from_csv("t,x\n0,0\n1\n")
        with pytest.raises(ScenarioError, match=f"line 3: expected {width} numbers"):
            trajectory_from_csv(f"{_HEADER}\n{_ROW}\n0.5\n")
        # rows that agree with each other but not with the header
        with pytest.raises(ScenarioError, match=f"line 2: expected {width} numbers"):
            trajectory_from_csv(f"{_HEADER}\n{_ROW},0.5\n{_ROW},0.5\n")


@pytest.mark.parametrize("dtype", ["int64", "bool", "float32", "float16"])
def test_csv_renders_every_dtype_as_float(dtype):
    """A record whose table holds a non-float64 dtype prints each value as
    ``repr(float(value))``, as the reference does."""
    column = np.array([0, 1, 3, 7], dtype=dtype)
    record = TrajectoryRecord(np.repeat(column[:, None], len(CHANNELS), axis=1))
    assert trajectory_to_csv(record) == _reference_trajectory_to_csv(record)


def test_csv_render_does_not_depend_on_worker_count(fig2_runs, tmp_path, monkeypatch):
    """2001 rows are sixteen blocks: ``run_trajectory_csv`` renders each
    once, all in this process on one core, and on two split between this
    process and one child, which takes blocks while the run integrates; the
    file equals the per-value reference of the record either way."""
    import antago.scenario_io

    scenario, record = fig2_runs["fig2-F1"]
    assert len(record) == 2001
    render_block = antago.scenario_io._csv_block
    pids = tmp_path / "pids.txt"

    def render_and_log(table, start):
        with open(pids, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return render_block(table, start)

    monkeypatch.setattr(antago.scenario_io, "_csv_block", render_and_log)
    expected = _reference_trajectory_to_csv(record)
    out = tmp_path / "out.csv"
    me = str(os.getpid())
    for cores in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores, raising=False)
        pids.write_text("")
        assert run_trajectory_csv(scenario, out) == record
        assert out.read_text() == expected
        ran = pids.read_text().split()
        assert len(ran) == 16 and me in ran and len(set(ran)) == len(cores)


def test_csv_render_forks_from_two_blocks(study, tmp_path, monkeypatch):
    """On two cores ``run_trajectory_csv`` of a grid of one 128-row block
    (128 rows) renders in this process, since ``worker_count`` gives one
    block one worker, and of two (129 rows) forks one child, which is
    reaped; the file is the per-value reference of the record either way."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    out, step = tmp_path / "out.csv", 2.0**-8   # (rows - 1) * step / step is exact
    for rows, forked in ((128, 0), (129, 1)):
        scenario = replace(study, solver=replace(study.solver, sample_dt=step),
                           duration=(rows - 1) * step)
        with monkeypatch.context() as patch:
            forks = _record_forks(patch)
            record = run_trajectory_csv(scenario, out)
        assert len(record) == rows and record.status == "ok"
        assert out.read_text() == _reference_trajectory_to_csv(record)
        assert len(forks) == forked, rows
        if forks:
            _assert_reaped(forks)


def test_finished_record_csv_forks_nothing_on_two_cores(fig2_runs, tmp_path, monkeypatch):
    """On two cores ``trajectory_to_csv`` and ``save_trajectory_csv`` of the
    2001-row fig2-F1 record, sixteen blocks, render in this process: no
    fork, and the per-value reference text."""
    record = fig2_runs["fig2-F1"][1]
    assert len(record) == 2001
    expected = _reference_trajectory_to_csv(record)
    path = tmp_path / "r.csv"
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    forks = _record_forks(monkeypatch)
    assert trajectory_to_csv(record) == expected
    save_trajectory_csv(record, path)
    assert path.read_text() == expected
    assert forks == []


# --------------------------------------------------------------------------
# The one-call reader: after the header, one call of numpy's reader reads
# every row in this process, on any number of cores, and only a call that
# fails reads the stream again, to name the bad line.

def _read_on_cores(read, source, cores, monkeypatch):
    """``read(source)`` with ``cores`` cores: the record or the ScenarioError's
    message, the pids of the children forked, and the number of calls of
    ``_read_rows``."""
    read_rows = antago.scenario_io._read_rows
    calls = []

    def counted_rows(lines):
        calls.append(1)
        return read_rows(lines)

    with monkeypatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
        patch.setattr(antago.scenario_io, "_read_rows", counted_rows)
        forks = _record_forks(patch)
        try:
            return read(source), forks, len(calls)
        except ScenarioError as exc:
            return str(exc), forks, len(calls)


@pytest.mark.parametrize("cores", [1, 2])
def test_split_reader_reads_the_presets_as_one_call(fig2_runs, short_record, tmp_path,
                                                    monkeypatch, cores):
    """The four presets' files, 630-690 kB, and the 68 kB short record's:
    from the file and from the text, on one core or two, the record equals
    the simulated one, read by one call of ``_read_rows`` with no fork."""
    records = [record for _, record in fig2_runs.values()]
    records += [simulate(load_preset("multistep")), short_record]
    path = tmp_path / "record.csv"
    for record in records:
        save_trajectory_csv(record, path)
        text = path.read_text()
        for read, source in ((load_trajectory_csv, path), (trajectory_from_csv, text)):
            again, forks, calls = _read_on_cores(read, source, cores, monkeypatch)
            assert again == record and forks == [] and calls == 1
            assert again.table.dtype == np.float64 and again.table.flags.c_contiguous


def test_split_reader_names_a_bad_row_or_byte_in_the_childs_part(fig2_runs, tmp_path,
                                                                  monkeypatch):
    """A bad row on line 1,800 or on the last line of the fig2-F1 file, and a
    Latin-1 byte on line 1,801, give the error, with no fork on one core or
    two: the row's line number, or the file named after one scan of its
    prefix."""
    text = trajectory_to_csv(fig2_runs["fig2-F1"][1])
    lines = text.split("\n")
    path = tmp_path / "bad.csv"
    for number in (1800, len(lines) - 1):   # the 1,800th line and the last row
        bad = lines.copy()
        bad[number - 1] = bad[number - 1].replace(",", ";", 1)
        bad_text = "\n".join(bad)
        path.write_text(bad_text)
        expected = (f"trajectory CSV line {number}: expected {len(CHANNELS)} numbers, "
                    f"got {bad[number - 1]!r}")
        for read, source in ((load_trajectory_csv, path), (trajectory_from_csv, bad_text)):
            for cores in (1, 2):
                message, forks, _ = _read_on_cores(read, source, cores, monkeypatch)
                assert message == expected and forks == []
    scans = []
    read_prefix = antago.scenario_io._read_prefix

    def counted_prefix(fh):
        scans.append(1)
        return read_prefix(fh)

    path.write_bytes(text.replace(lines[1800], _row("\u00b5"), 1).encode("latin-1"))
    monkeypatch.setattr(antago.scenario_io, "_read_prefix", counted_prefix)
    for cores in (1, 2):
        scans.clear()
        message, forks, _ = _read_on_cores(load_trajectory_csv, path, cores, monkeypatch)
        assert message == (f"trajectory CSV {str(path)!r} is not UTF-8 text "
                           "(byte 0xb5: invalid start byte)")
        assert scans == [1] and forks == []


@pytest.mark.parametrize("ends", ["\n", "\r\n", "\r", "\n\n", "\r\n\r\n", "\r\n\n\r"],
                         ids=["lf", "crlf", "cr", "blank-lf", "blank-crlf", "mixed"])
def test_split_reader_cuts_only_after_a_line_feed(tmp_path, monkeypatch, ends):
    """Rows whose lines end in "\\r\\n", in lone "\\r"s, or with blank lines
    between them read as the whole-text reference reads them, from the file
    and the text, on two cores, in one call of ``_read_rows`` and with no
    fork; a bad row among them is named by its line number."""
    rows = [_row(repr(i / 7)) for i in range(9)]
    text = f"# status: ok{ends}{_HEADER}{ends}" + ends.join(rows) + ends
    expected = _reference_trajectory_from_csv(text)
    assert isinstance(expected, TrajectoryRecord) and len(expected) == 9
    bad = text.replace(rows[6], rows[6] + ",0.5")
    expected_bad = _reference_trajectory_from_csv(bad)
    assert expected_bad.startswith("trajectory CSV line ")
    path = tmp_path / "ends.csv"
    for source, result in ((text, expected), (bad, expected_bad)):
        path.write_text(source, newline="")
        for read, arg in ((load_trajectory_csv, path), (trajectory_from_csv, source)):
            again, forks, calls = _read_on_cores(read, arg, 2, monkeypatch)
            assert again == result, read
            assert forks == []
            assert calls == 1 or result is expected_bad


def test_csv_reader_forks_nothing_on_two_cores(fig2_runs, tmp_path, monkeypatch):
    """On two cores, each preset's 630-690 kB file is read in this process,
    from the file and from its text: no fork, and the record the run gave,
    a C-contiguous float64 table."""
    records = [record for _, record in fig2_runs.values()]
    records.append(simulate(load_preset("multistep")))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    path = tmp_path / "record.csv"
    for record in records:
        save_trajectory_csv(record, path)
        text = path.read_text()
        with monkeypatch.context() as patch:
            forks = _record_forks(patch)
            again = [load_trajectory_csv(path), trajectory_from_csv(text)]
        assert forks == []
        for read in again:
            assert read == record
            assert read.table.dtype == np.float64 and read.table.flags.c_contiguous


def test_csv_from_a_pipe_reads_as_its_text(fig2_runs, tmp_path):
    """A named pipe, which cannot seek back, gives the record, or the bad
    row's line number, that its text gives: the fig2-F1 file, and the same
    with a bad row on its line 1,801."""
    text = trajectory_to_csv(fig2_runs["fig2-F1"][1])
    lines = text.split("\n")
    lines[1800] = lines[1800].replace(",", ";", 1)
    fifo = tmp_path / "record.csv"
    os.mkfifo(fifo)
    for source in (text, "\n".join(lines)):
        writer = threading.Thread(target=fifo.write_text, args=(source,))
        writer.start()
        try:
            again = load_trajectory_csv(fifo)
        except ScenarioError as exc:
            again = str(exc)
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert again == _reference_trajectory_from_csv(source)


def test_csv_file_that_changes_size_while_read_is_an_error(short_record, tmp_path,
                                                          monkeypatch):
    """A row appended to the file after its size was taken is not cut off
    silently: the read is a ScenarioError naming the file."""
    path = tmp_path / "growing.csv"
    save_trajectory_csv(short_record, path)
    read_rows = antago.scenario_io._read_rows

    def append_and_read_rows(lines):
        if not appended:
            appended.append(1)
            with path.open("a") as fh:
                fh.write(_ROW + "\n")
        return read_rows(lines)

    appended = []
    monkeypatch.setattr(antago.scenario_io, "_read_rows", append_and_read_rows)
    with pytest.raises(ScenarioError) as info:
        load_trajectory_csv(path)
    assert str(info.value) == f"trajectory CSV {str(path)!r} changed size while it was read"
    assert appended == [1]

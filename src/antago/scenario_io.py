"""Scenario files, trajectory CSV emission and the bundled preset library.

Scenario files are plain sectioned key=value text (INI) with sections
``[plant]``, ``[gains]``, ``[force]``, ``[solver]``, ``[schedule]`` and an
optional ``[initial]``. One table, ``_SECTIONS``, names each section's keys in
file order: a model section's keys are the field names of the types it
builds, in field order, and each value is read as its field's type. Keys are
case-sensitive; unknown keys are rejected with a suggestion when a
case-insensitive or near match exists. ``[solver]`` and ``[initial]`` may be
left out, and a key of a model section may be left out exactly when its field
has a default: ``P_atm``, and either volume scale, ``k0`` or ``K0``, which the
geometry derives from the other.
``parse_scenario`` and ``serialize_scenario`` round-trip exactly: floats are
written with their shortest exact decimal representation. ``parse_scenario``
raises only ``ScenarioError``: one boundary turns every ``ValueError`` of the
model into one, with its message.

A trajectory CSV is the record's table, comma-separated with '.' decimals, LF
line endings and one header, the names of :data:`~antago.engine.CHANNELS`;
the run status is carried in leading ``#`` comment lines so the table itself
stays consumable by any CSV reader. Neither side holds the whole text:
``save_trajectory_csv`` writes each block of rows into the file as it is
rendered, and ``load_trajectory_csv`` passes the data rows to numpy's reader
as it reads the file's lines. One reader takes a text stream: the open file,
or the string's UTF-8 bytes behind an ``io.TextIOWrapper``. Files are read
and written as UTF-8. numpy is imported by the functions that render or read
the table, not by this module, so that parsing a scenario does not load it.
"""

from __future__ import annotations

import configparser
import io
import os
import tempfile
from collections.abc import Iterable, Iterator
from dataclasses import MISSING, fields
from functools import partial
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, TextIO

from .controller import ControllerGains
from .engine import (
    CHANNELS,
    STATUSES,
    ForceModel,
    ScenarioConfig,
    SolverSettings,
    TrajectoryRecord,
)
from .errors import ScenarioError
from .plant import ActuatorGeometry, FluidParams, PlantParams, PlantState
from .workers import forked_imap

if TYPE_CHECKING:
    import numpy as np


def _keys(*types) -> tuple[str, ...]:
    return tuple(f.name for cls in types for f in fields(cls))


# Each section's keys, in file order.
_SECTIONS = {
    "plant": (*_keys(ActuatorGeometry, FluidParams), "m", "R"),
    "gains": _keys(ControllerGains),
    "force": _keys(ForceModel),
    "solver": _keys(SolverSettings),
    "schedule": ("duration", "x_star"),
    "initial": (*_keys(PlantState), "F_hat"),
}
_OPTIONAL_SECTIONS = ("solver", "initial")
# Keys a required section may leave out: the model fields that have a default.
_DEFAULTED = frozenset(
    f.name for cls in (ActuatorGeometry, FluidParams, ControllerGains, ForceModel)
    for f in fields(cls) if f.default is not MISSING)


def _reject_unknown(section: str, keys, expected) -> None:
    for key in keys:
        if key in expected:
            continue
        import difflib   # here, so that a valid scenario does not load it

        hint = ""
        by_case = [k for k in expected if k.lower() == key.lower()]
        close = by_case or difflib.get_close_matches(key, expected, n=1)
        if close:
            hint = f"; expected {close[0]!r}"
        raise ScenarioError(f"unknown key {key!r} in section [{section}]{hint}")


def _number(sec, key: str, default: float | None = None, kind=float):
    """``kind`` of the text under ``key``, or ``default`` when the key is absent."""
    if key not in sec:
        return default
    try:
        return kind(sec[key])
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ScenarioError(f"key {key!r}: could not parse {sec[key]!r} as {noun}") from None


def _values(sec, cls) -> dict:
    """The keys of ``sec`` that name fields of ``cls``, in file order, each read
    as its field's type: an ``int`` or ``str`` field as such, any other as float."""
    kinds = {f.name: {"int": int, "str": str}.get(f.type, float) for f in fields(cls)}
    return {key: _number(sec, key, kind=kinds[key]) for key in sec if key in kinds}


def _parse_schedule(sched) -> tuple[tuple[float, float], ...]:
    text = sched["x_star"]
    if ":" not in text:
        return ((0.0, _number(sched, "x_star")),)
    entries = []
    for item in text.split(","):
        t_s, _, x_s = item.partition(":")
        try:
            entries.append((float(t_s), float(x_s)))
        except ValueError:
            raise ScenarioError(
                f"schedule entry {item.strip()!r} is not 'time:x_star'") from None
    return tuple(entries)


def parse_scenario(text: str, name: str = "") -> ScenarioConfig:
    """Parse a scenario document into a validated :class:`ScenarioConfig`.

    Raises only :class:`ScenarioError`: the sections and keys are checked
    first, and every ``ValueError`` the model types raise while they are
    built, each checking itself, becomes a ``ScenarioError`` with its message.
    """
    cp = configparser.ConfigParser(interpolation=None,
                                   inline_comment_prefixes=(";",))
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ScenarioError(f"scenario parse error: {exc}") from None

    known = set(_SECTIONS)
    for section in cp.sections():
        if section not in known:
            import difflib

            close = difflib.get_close_matches(section, known, n=1)
            hint = f"; expected [{close[0]}]" if close else ""
            raise ScenarioError(f"unknown section [{section}]{hint}")
        _reject_unknown(section, cp[section], _SECTIONS[section])
    for section, keys in _SECTIONS.items():
        if section in _OPTIONAL_SECTIONS:
            continue
        if section not in cp:
            raise ScenarioError(f"missing required section [{section}]")
        for key in keys:
            if key not in cp[section] and key not in _DEFAULTED:
                raise ScenarioError(f"missing key {key!r} in section [{section}]")
    plant, sched = cp["plant"], cp["schedule"]
    try:
        geometry = ActuatorGeometry(**_values(plant, ActuatorGeometry))
        fluid = FluidParams(**_values(plant, FluidParams))
        params = PlantParams(geometry=geometry, fluid=fluid,
                             m=_number(plant, "m"), R=_number(plant, "R"))
        gains = ControllerGains(**_values(cp["gains"], ControllerGains))
        force = ForceModel(**_values(cp["force"], ForceModel))
        solver = SolverSettings(**_values(cp["solver"] if "solver" in cp else {}, SolverSettings))
        init = cp["initial"] if "initial" in cp else {}
        scenario = ScenarioConfig(
            params=params, gains=gains, setpoints=_parse_schedule(sched), force=force,
            duration=_number(sched, "duration"), solver=solver,
            initial=PlantState(*(_number(init, k, 0.0) for k in _keys(PlantState))),
            F_hat0=_number(init, "F_hat"), name=name)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None
    return scenario


def _not_utf8(role: str, path: str | os.PathLike, exc: UnicodeDecodeError) -> ScenarioError:
    return ScenarioError(f"{role} {str(path)!r} is not UTF-8 text "
                         f"(byte {exc.object[exc.start]:#04x}: {exc.reason})")


def load_scenario(path: str | os.PathLike) -> ScenarioConfig:
    """The scenario in the UTF-8 file ``path``, named after its stem."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise _not_utf8("scenario file", path, exc) from None
    return parse_scenario(text, name=path.stem)


def _field_values(*objects) -> dict:
    return {f.name: getattr(obj, f.name) for obj in objects for f in fields(obj)}


def serialize_scenario(scenario: ScenarioConfig) -> str:
    """Render a scenario as sectioned key=value text, in the order of
    ``_SECTIONS``; inverse of parse. A zero state without ``F_hat`` is left out.
    A float is written as ``repr(float(v))``: a numpy float's repr names its type."""
    params, init = scenario.params, scenario.initial
    if len(scenario.setpoints) == 1:
        x_star = repr(float(scenario.setpoints[0][1]))
    else:
        x_star = ", ".join(f"{float(t)!r}:{float(x)!r}" for t, x in scenario.setpoints)
    values = {
        "plant": {**_field_values(params.geometry, params.fluid), "m": params.m, "R": params.R},
        "gains": _field_values(scenario.gains),
        "force": _field_values(scenario.force),
        "solver": _field_values(scenario.solver),
        "schedule": {"duration": scenario.duration, "x_star": x_star},
    }
    if init != PlantState(0.0, 0.0, 0.0, 0.0) or scenario.F_hat0 is not None:
        values["initial"] = {**_field_values(init), "F_hat": scenario.F_hat0}
    out = io.StringIO()
    for section, keys in _SECTIONS.items():
        if section not in values:
            continue
        out.write(f"[{section}]\n")
        for key in keys:
            val = values[section][key]
            if val is not None:   # an unset F_hat
                out.write(f"{key} = {repr(float(val)) if isinstance(val, float) else val}\n")
        out.write("\n")
    return out.getvalue()


def save_scenario(scenario: ScenarioConfig, path: str | os.PathLike) -> None:
    _atomic_write(Path(path), (serialize_scenario(scenario),))


# --------------------------------------------------------------------------
# Trajectory CSV.

def _atomic_write(path: Path, chunks: Iterable[str]) -> None:
    """Write the text ``chunks`` to ``path`` atomically: each chunk goes into a
    temporary file beside ``path`` as it arrives, ``path`` is replaced only
    once the last is written, and the temporary file is removed when a chunk
    fails to arrive or to be written. A one-piece text is passed as
    ``(text,)``, since ``writelines`` writes a str a character at a time."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


_CSV_HEADER = ",".join(CHANNELS)
# Rows per block of the CSV renderer: a block is one job of forked_imap,
# whose module docstring weighs the fork cost against the per-row cost.
_CSV_BLOCK_ROWS = 1024


def _csv_chunks(record: TrajectoryRecord) -> Iterator[str]:
    """The CSV text of ``record`` in pieces: its comment lines and header, then
    each block of rows as :func:`~antago.workers.forked_imap` yields it."""
    import numpy as np

    lines = [f"# status: {record.status}"]
    if record.detail:
        # split where the reader splits; the added newline keeps a trailing empty line
        lines.extend(f"# detail: {part}" for part in (record.detail + "\n").splitlines())
    lines.append(_CSV_HEADER)
    yield "\n".join(lines) + "\n"
    table = np.asarray(record.table, dtype=float)
    yield from forked_imap(partial(_csv_block, table), range(0, len(table), _CSV_BLOCK_ROWS))


def trajectory_to_csv(record: TrajectoryRecord) -> str:
    """Render a trajectory as CSV text (comma, '.' decimal, LF, header row).

    The run status travels in leading '#' comment lines, keeping the table
    itself plain CSV: ``# status: <status>``, then one ``# detail: <line>``
    per line of a nonempty detail. Each value of ``record.table`` is written
    as the shortest ``repr`` of its float64 value. The rows are rendered in
    blocks of ``_CSV_BLOCK_ROWS``, spread over forked workers by
    :func:`~antago.workers.forked_imap`; the text does not depend on how many
    ran.
    """
    return "".join(_csv_chunks(record))


def _csv_block(table: np.ndarray, start: int) -> str:
    """Rows ``start`` to ``start + _CSV_BLOCK_ROWS`` of ``table`` as CSV lines."""
    import numpy as np

    # one row's floats at a time: a whole-table tolist() raises the peak memory
    rows = map(np.ndarray.tolist, table[start:start + _CSV_BLOCK_ROWS])
    return "\n".join(",".join(map(repr, row)) for row in rows) + "\n"


def save_trajectory_csv(record: TrajectoryRecord, path: str | os.PathLike) -> None:
    """Write :func:`trajectory_to_csv` of ``record`` to ``path`` atomically,
    each block of rows as soon as it is rendered, so that the whole text is
    never held at once. A block that fails to render, or a worker that dies,
    leaves ``path`` as it was."""
    _atomic_write(Path(path), _csv_chunks(record))


class _CsvScan:
    """One pass over the lines of a trajectory CSV, numbered from 1.

    :meth:`rows` yields each data row of a text stream from its start. It
    splits each line of the stream with ``str.splitlines``, which splits as
    on the whole text: the stream has turned "\\r\\n" and "\\r" into "\\n",
    and ends each line at one. The ``# status:`` and ``# detail:`` lines it
    passes set ``status`` and add to ``details``, and ``number`` is the line
    number of the last row it yielded.
    """

    def __init__(self) -> None:
        self.status, self.details, self.number = "ok", [], 0

    def rows(self, fh: TextIO) -> Iterator[str]:
        fh.seek(0)
        header_seen = False
        for number, ln in enumerate(chain.from_iterable(map(str.splitlines, fh)), start=1):
            if ln.startswith("#"):
                if ln.startswith("# status:"):
                    self.status = ln.partition(":")[2].strip()
                    if self.status not in STATUSES:
                        raise ScenarioError(
                            f"trajectory CSV line {number}: status {self.status!r} is not "
                            f"one of {', '.join(STATUSES)}")
                elif ln.startswith("# detail:"):
                    self.details.append(ln.removeprefix("# detail:").removeprefix(" "))
            elif not ln.strip():
                continue
            elif header_seen:
                self.number = number
                yield ln
            elif ln != _CSV_HEADER:
                raise ScenarioError(f"trajectory CSV line {number}: header {ln!r} is not "
                                    f"the expected {_CSV_HEADER!r}")
            else:
                header_seen = True
        if not header_seen:
            raise ScenarioError("trajectory CSV has no header row")


def _read_table(rows: Iterable[str]) -> np.ndarray | None:
    """``rows`` as one float table with a column per channel, or None when
    numpy's compiled reader fails on them or finds another width. A
    ``ScenarioError`` or ``UnicodeDecodeError`` that the iteration of ``rows``
    raises goes through."""
    import numpy as np

    try:
        table = np.loadtxt(rows, delimiter=",", dtype=float, ndmin=2, comments=None)
    except (ScenarioError, UnicodeDecodeError):
        raise
    except ValueError:
        return None
    return table if table.shape[1] == len(CHANNELS) else None


def _read_csv(fh: TextIO) -> TrajectoryRecord:
    """The record in the trajectory CSV text stream ``fh``, read from its start.

    The data rows go from the scan straight into one call of numpy's compiled
    reader, so that neither the text nor a list of its lines is held. Only
    when that fails, or gives another width, is the stream scanned again and
    each row read alone, to name the first bad line. Zero rows skip the
    reader, which warns on empty input.
    """
    import numpy as np

    scan = _CsvScan()
    rows = scan.rows(fh)
    first = next(rows, None)
    table = (np.empty((0, len(CHANNELS))) if first is None
             else _read_table(chain((first,), rows)))
    if table is None:   # some row fails alone: rows that each read at this width read together
        again = _CsvScan()
        ln = next(ln for ln in again.rows(fh) if _read_table((ln,)) is None)
        raise ScenarioError(f"trajectory CSV line {again.number}: expected {len(CHANNELS)} "
                            f"numbers, got {ln!r}")
    return TrajectoryRecord(table, scan.status, "\n".join(scan.details))


def trajectory_from_csv(text: str) -> TrajectoryRecord:
    """Parse CSV text produced by :func:`trajectory_to_csv`.

    The text is split into lines as ``str.splitlines`` splits it. Lines
    starting with ``#`` carry the run status (``# status:``, one of
    :data:`~antago.engine.STATUSES`) and the detail: the text after each
    ``# detail: `` verbatim, the lines joined with newlines. Blank lines are
    skipped. A number is what numpy's compiled text reader accepts: the ASCII
    decimal syntax of Python's ``float``, signed or not, with ``nan``,
    ``inf`` and ``infinity`` in any case and surrounding whitespace allowed,
    but without ``_`` digit separators (``1_0`` is an error).

    The first other line must be the writer's header; any other, a status
    the engine does not write, and a row that does not hold one number per
    channel raise :class:`ScenarioError` with the line number. The record
    holds the parsed float64 table itself.
    """
    # The UTF-8 bytes, not an io.StringIO, which keeps 4 bytes per character;
    # surrogatepass carries any str both ways, and newline=None turns "\r\n"
    # and "\r" into "\n", as open does.
    data = io.BytesIO(text.encode("utf-8", "surrogatepass"))
    return _read_csv(io.TextIOWrapper(data, encoding="utf-8", errors="surrogatepass",
                                      newline=None))


def load_trajectory_csv(path: str | os.PathLike) -> TrajectoryRecord:
    """Read a trajectory CSV file as :func:`trajectory_from_csv` reads its
    text, to the same record or the same error, a line of the file at a time
    instead of from the whole text. A file that is not UTF-8 is a
    :class:`ScenarioError` naming it."""
    with open(path, encoding="utf-8") as fh:
        try:
            return _read_csv(fh)
        except UnicodeDecodeError as exc:
            raise _not_utf8("trajectory CSV", path, exc) from None


# --------------------------------------------------------------------------
# Presets.

PRESET_ENV_VAR = "ANTAGO_PRESET_DIR"
# The presets shipped with the package, which PRESET_ENV_VAR may replace for
# load_preset and list_presets.
BUNDLED_PRESET_DIR = Path(__file__).resolve().parent / "presets"


def _preset_dir() -> Path:
    return Path(os.environ.get(PRESET_ENV_VAR) or BUNDLED_PRESET_DIR)


def list_presets() -> list[str]:
    """Names of the available scenario presets (sorted)."""
    directory = _preset_dir()
    if not directory.is_dir():
        return []
    return sorted(p.stem for p in directory.glob("*.ini"))


def load_preset(name: str) -> ScenarioConfig:
    """The preset ``name``, one of :func:`list_presets`: a name that is not
    one, such as a path out of the preset directory, is unknown."""
    known = list_presets()
    path = _preset_dir() / f"{name}.ini"
    if name not in known or not path.is_file():
        raise ScenarioError(f"unknown preset {name!r}; available: "
                            f"{', '.join(known) or '(none found)'}")
    return load_scenario(path)

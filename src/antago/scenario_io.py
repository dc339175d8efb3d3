"""Scenario files, trajectory CSV emission and the bundled preset library.

Scenario files are plain sectioned key=value text (INI) with sections
``[plant]``, ``[gains]``, ``[force]``, ``[solver]``, ``[schedule]`` and an
optional ``[initial]``. One table, ``_SECTIONS``, names each section's keys in
file order: a model section's keys are the field names of the types it
builds, in field order, and each value is read as its field's type: a ``str``
field as text, any other as a float. Keys are case-sensitive; unknown keys are
rejected with a suggestion when a case-insensitive or near match exists.
``[solver]`` and ``[initial]``, and any key of theirs, may be left out; every
other key is required. ``[plant]`` holds one volume scale, ``K0`` in m³, and
no atmospheric pressure: all pressures are gauge.
``parse_scenario`` and ``serialize_scenario`` round-trip exactly: floats are
written with their shortest exact decimal representation. ``parse_scenario``
raises only ``ScenarioError``: one boundary turns every ``ValueError`` of the
model into one, with its message.

A trajectory CSV is the record's table, comma-separated with '.' decimals, LF
line endings and one header, the names of :data:`~antago.engine.CHANNELS`.
Its grammar: leading ``#`` lines, which carry the run status, and blank lines;
the header; then one row per line, a line ending as ``open`` ends it. So the
table itself stays consumable by any CSV reader. Neither side holds the whole
text. The writer renders blocks of ``_CSV_BLOCK_ROWS`` rows, each written into
the file as it comes, and renders a finished record's blocks in this process.
:func:`run_trajectory_csv`, which ``antago run`` calls, renders while the run
integrates when :func:`~antago.workers.worker_count` gives its grid's blocks
two workers, and else writes the finished record. It forks a child
(:func:`~antago.workers.forked_ahead`) before the run and copies each finished
slice of the run's ``array("d")`` into a shared ``mmap`` of its own, from which
the child renders each block and writes it into the file itself; the blocks
left when the run ends are split between the two processes. The reader reads
one text stream, of the open file (a pipe, which cannot seek back, is read
whole first) or of the string's UTF-8 bytes, through the header, and hands the
rest of it to one call of numpy's compiled reader; only a call that fails
reads the stream again, to name the bad line.
A record round-trips exactly, a multi-line detail included (a ``\r`` in it
comes back as ``\n``). Files are read and written as UTF-8. numpy is
imported by the functions that render or read the table, not by this module,
so that parsing a scenario does not load it.
"""

from __future__ import annotations

import configparser
import io
import os
import stat
import tempfile
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from dataclasses import fields
from functools import partial
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, TextIO

from .controller import ControllerGains
from .engine import (
    CHANNELS,
    SLICE_SAMPLES,
    STATUSES,
    ForceModel,
    ScenarioConfig,
    SolverSettings,
    TrajectoryRecord,
    sample_count,
    simulate,
)
from .errors import ScenarioError
from .plant import ActuatorGeometry, FluidParams, PlantParams, PlantState
from .workers import forked_ahead, worker_count

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


def _reject_unknown(section: str, keys, expected) -> None:
    for key in keys:
        if key in expected:
            continue
        import difflib   # here, so that a valid scenario does not load it

        hint = ""
        by_case = [k for k in expected if k.lower() == key.lower()]
        close = by_case or difflib.get_close_matches(key, expected, n=1)
        if section == "plant" and key == "k0":
            # Not K0, which differs from the dimensionless k0 only by case.
            hint = "; give the volume scale K0 = k0*(L0^2/n_L)*(d_c/3 + D_s/2), in m^3, instead"
        elif close:
            hint = f"; expected {close[0]!r}"
        raise ScenarioError(f"unknown key {key!r} in section [{section}]{hint}")


def _number(sec, key: str, default: float | None = None) -> float | None:
    """The float under ``key``, or ``default`` when the key is absent."""
    if key not in sec:
        return default
    try:
        return float(sec[key])
    except ValueError:
        raise ScenarioError(f"key {key!r}: could not parse {sec[key]!r} as a number") from None


def _values(sec, cls) -> dict:
    """The keys of ``sec`` that name fields of ``cls``, in file order, each read
    as its field's type: a ``str`` field as text, any other as a float."""
    types = {f.name: f.type for f in fields(cls)}
    return {key: sec[key] if types[key] == "str" else _number(sec, key)
            for key in sec if key in types}


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
            if key not in cp[section]:
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
    ``_SECTIONS``; inverse of parse. An unset ``F_hat`` is left out.
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
        "initial": {**_field_values(init), "F_hat": scenario.F_hat0},
    }
    out = io.StringIO()
    for section, keys in _SECTIONS.items():
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

@contextmanager
def _atomic_file(path: Path) -> Iterator[TextIO]:
    """A UTF-8 text file with LF line ends to write ``path`` through,
    atomically: it is a temporary file beside ``path``, which replaces
    ``path`` once the block ends, and which is removed when the block
    fails. The file gets the mode ``open(path, "w")`` would leave: an
    existing file's own, or else ``0o666`` less the umask."""
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        # Read by setting it: a file made meanwhile gets 0o077, never looser.
        umask = os.umask(0o077)
        os.umask(umask)
        mode = 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            os.fchmod(fh.fileno(), mode)
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _atomic_write(path: Path, chunks: Iterable[str]) -> None:
    """Write the text ``chunks`` to ``path`` through :func:`_atomic_file`,
    each as it arrives. A one-piece text is passed as ``(text,)``, since
    ``writelines`` writes a str a character at a time."""
    with _atomic_file(path) as fh:
        fh.writelines(chunks)


_CSV_HEADER = ",".join(CHANNELS)
# Rows per block of the CSV renderer: a block is one item of forked_ahead,
# whose module docstring weighs the fork cost against the per-row cost. A
# sliced run's slices end at the same multiples, so each block is ready as
# soon as the slice that ends it is integrated.
_CSV_BLOCK_ROWS = SLICE_SAMPLES


def _csv_prefix(status: str, detail: str) -> str:
    """The comment lines that carry ``status`` and ``detail``, and the header."""
    lines = [f"# status: {status}"]
    if detail:
        # split where the reader's text stream ends a line
        parts = detail.replace("\r\n", "\n").replace("\r", "\n").split("\n")
        lines.extend(f"# detail: {part}" for part in parts)
    lines.append(_CSV_HEADER)
    return "\n".join(lines) + "\n"


def _csv_chunks(record: TrajectoryRecord) -> Iterator[str]:
    """The CSV text of ``record`` in pieces: its comment lines and header, then
    each block of rows, rendered in this process."""
    import numpy as np

    table = np.asarray(record.table, dtype=float)
    yield _csv_prefix(record.status, record.detail)
    for start in range(0, len(table), _CSV_BLOCK_ROWS):
        yield _csv_block(table, start)


def trajectory_to_csv(record: TrajectoryRecord) -> str:
    """Render a trajectory as CSV text (comma, '.' decimal, LF, header row).

    The run status travels in leading '#' comment lines, keeping the table
    itself plain CSV: ``# status: <status>``, then one ``# detail: <line>``
    per line of a nonempty detail. Each value of ``record.table`` is written
    as the shortest ``repr`` of its float64 value.
    """
    return "".join(_csv_chunks(record))


def _csv_block(table: np.ndarray, start: int) -> str:
    """Rows ``start`` to ``start + _CSV_BLOCK_ROWS`` of ``table`` as CSV lines."""
    import numpy as np

    # one row's floats at a time: a whole-table tolist() raises the peak memory
    rows = map(np.ndarray.tolist, table[start:start + _CSV_BLOCK_ROWS])
    return "\n".join([",".join(map(repr, row)) for row in rows]) + "\n"


def save_trajectory_csv(record: TrajectoryRecord, path: str | os.PathLike) -> None:
    """Write :func:`trajectory_to_csv` of ``record`` to ``path`` atomically,
    each block of rows as soon as this process renders it, so that the whole
    text is never held at once. A block that fails to render leaves ``path``
    as it was."""
    _atomic_write(Path(path), _csv_chunks(record))


def run_trajectory_csv(scenario: ScenarioConfig, path: str | os.PathLike) -> TrajectoryRecord:
    """:func:`~antago.engine.simulate` ``scenario``, write the record to
    ``path`` as :func:`save_trajectory_csv` writes it, and return it.

    When :func:`~antago.workers.worker_count` gives the grid's blocks one
    worker, that is all it does. Otherwise a child forked before the run
    renders the CSV while the run integrates. This process writes the header
    of a run that ends ok into the temporary file and, after each slice,
    copies the new rows of the run's ``array("d")`` into a shared anonymous
    ``mmap`` sized for the grid. The child renders each block from that
    mapping as soon as its rows are all there and writes it into the file
    after the blocks before it, at the file offset the two processes share.
    When the run ends, the blocks left are split between this process and the
    child, and this process writes each into the file as it comes. A run that
    ends early has another header and fewer rows: once the child is reaped,
    this process writes its file again from the record, so a run forks one
    renderer at most. Any error, a worker that dies included, leaves ``path``
    as it was.
    """
    blocks = range(0, sample_count(scenario), _CSV_BLOCK_ROWS)
    if worker_count(len(blocks)) < 2:
        record = simulate(scenario)
        save_trajectory_csv(record, path)
        return record
    import mmap

    import numpy as np

    row_bytes = 8 * len(CHANNELS)
    shared = mmap.mmap(-1, row_bytes * blocks.stop)
    table = np.frombuffer(shared).reshape(-1, len(CHANNELS))
    with _atomic_file(Path(path)) as fh:
        fh.write(_csv_prefix("ok", ""))
        fh.flush()   # before the fork: the child writes after it

        def sink(text: str) -> None:   # in the child
            fh.write(text)
            fh.flush()

        def ready(rows) -> None:   # the run's rows, after each slice
            shared.write(rows[shared.tell() // 8:])
            ahead.ready(shared.tell() // (row_bytes * _CSV_BLOCK_ROWS))

        with forked_ahead(partial(_csv_block, table), blocks, sink) as ahead:
            record = simulate(scenario, ready)
            if record.status == "ok":
                fh.writelines(ahead.rest())
        if record.status != "ok":
            fh.seek(0)
            fh.truncate()
            fh.writelines(_csv_chunks(record))
    return record


def _read_prefix(fh: TextIO) -> tuple[str, str, int]:
    """Read the trajectory CSV text stream ``fh``, whose lines each end in one
    "\\n", from where it stands through the header: the status and the
    detail its ``#`` lines carry, and the number of the header's line. Lines
    are numbered from 1, as the stream yields them."""
    status, details = "ok", []
    for number, ln in enumerate(fh, start=1):
        ln = ln.removesuffix("\n")
        if ln.startswith("# status:"):
            status = ln.partition(":")[2].strip()
            if status not in STATUSES:
                raise ScenarioError(f"trajectory CSV line {number}: status {status!r} is "
                                    f"not one of {', '.join(STATUSES)}")
        elif ln.startswith("# detail:"):
            details.append(ln.removeprefix("# detail:").removeprefix(" "))
        elif ln.strip() and not ln.startswith("#"):
            if ln != _CSV_HEADER:
                raise ScenarioError(f"trajectory CSV line {number}: header {ln!r} is not "
                                    f"the expected {_CSV_HEADER!r}")
            return status, "\n".join(details), number
    raise ScenarioError("trajectory CSV has no header row")


def _read_rows(lines: Iterator[str]) -> np.ndarray | None:
    """``lines`` as one float table with a column per channel, read by one
    call of numpy's compiled reader, or None when it fails on them or finds
    another width. Empty lines are skipped; none but them gives an empty
    table, where the reader would warn."""
    import numpy as np

    first = next(filter("\n".__ne__, lines), None)
    if first is None:
        return np.empty((0, len(CHANNELS)))
    try:
        table = np.loadtxt(chain((first,), lines), delimiter=",", dtype=float, ndmin=2,
                           comments=None)
    except UnicodeDecodeError:   # a ValueError, which the caller names the file for
        raise
    except ValueError:
        return None
    return table if table.shape[1] == len(CHANNELS) else None


def _read_csv(fh: TextIO) -> TrajectoryRecord:
    """The record in the UTF-8 trajectory CSV text stream ``fh``, read from its
    start, whose lines each end in one "\\n": the prefix, then the rest of the
    stream in one call of numpy's compiled reader. Only if that call fails is
    the stream read again from its start, each row alone, to name the first
    bad one; a byte that is not UTF-8 raises UnicodeDecodeError."""
    status, detail, _ = _read_prefix(fh)
    table = _read_rows(fh)
    if table is None:   # some row fails alone: rows that each read at this width read together
        fh.seek(0)
        _, _, number = _read_prefix(fh)
        number, ln = next((n, ln.removesuffix("\n"))
                          for n, ln in enumerate(fh, start=number + 1)
                          if _read_rows(iter((ln,))) is None)
        raise ScenarioError(f"trajectory CSV line {number}: expected {len(CHANNELS)} "
                            f"numbers, got {ln!r}")
    return TrajectoryRecord(table, status, detail)


def trajectory_from_csv(text: str) -> TrajectoryRecord:
    """Parse CSV text produced by :func:`trajectory_to_csv`.

    A line ends at "\\n", "\\r\\n" or "\\r", as ``open`` ends it. Before the
    header, ``# status:`` lines carry the run status, one of
    :data:`~antago.engine.STATUSES`, and ``# detail: `` lines the detail: the
    text after each verbatim, joined with newlines. Other ``#`` lines and blank
    lines there are skipped. The first other line must be the writer's header,
    and each nonempty line after it a row. A number is what numpy's compiled
    text reader accepts: the ASCII decimal syntax of Python's ``float``,
    signed or not, with ``nan``, ``inf`` and ``infinity`` in any case and
    surrounding whitespace allowed, but without ``_`` digit separators
    (``1_0`` is an error).

    Another header, a status the engine does not write, and a row that does
    not hold one number per channel raise :class:`ScenarioError` with the
    line number. The record holds the float64 table numpy's reader parses, in
    one call after the header.
    """
    # The UTF-8 bytes, not an io.StringIO, which keeps 4 bytes per character;
    # surrogatepass carries any str both ways.
    return _read_bytes(text.encode("utf-8", "surrogatepass"), "surrogatepass")


def _read_bytes(data: bytes, errors: str) -> TrajectoryRecord:
    """The record in the UTF-8 trajectory CSV ``data``, decoded with ``errors``;
    ``newline=None`` ends its lines as ``open`` does, each in one "\\n"."""
    return _read_csv(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors=errors,
                                      newline=None))


def load_trajectory_csv(path: str | os.PathLike) -> TrajectoryRecord:
    """Read a trajectory CSV file as :func:`trajectory_from_csv` reads its
    text, to the same record or the same error. The file is not held whole:
    its text stream is read as the text's is, and a file whose size changes
    meanwhile is a :class:`ScenarioError`. A stream that cannot seek back to
    name a bad row, a pipe say, is read whole first. A file that is not UTF-8
    is a :class:`ScenarioError` naming it."""
    with open(path, encoding="utf-8") as fh:
        size = os.fstat(fh.fileno()).st_size
        try:
            if not fh.seekable():
                return _read_bytes(fh.buffer.read(), "strict")
            record = _read_csv(fh)
        except UnicodeDecodeError as exc:
            raise _not_utf8("trajectory CSV", path, exc) from None
        if os.fstat(fh.fileno()).st_size != size:
            raise ScenarioError(f"trajectory CSV {str(path)!r} changed size while it was read")
        return record


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

"""Forked workers for independent jobs: :func:`forked_imap`, and
:func:`forked_ahead` for jobs that become ready while this process works.

The policy, kept here alone (with ``os.fork`` and pipes, not
``multiprocessing``):

- One rule, :func:`worker_count`: one worker per core this process may use
  (``os.sched_getaffinity(0)``) and no more workers than items, or this
  process alone when fewer than two would be busy or when it has other
  threads, which a fork would copy in whatever state they hold. Alone,
  :func:`forked_imap` runs the items here, one by one; :func:`forked_ahead`
  always forks one child, so its caller asks the rule first.
- This process is worker 0 and computes items ``0, w, 2w, ...`` itself;
  forked child ``k`` computes items ``k::w`` and writes one pickled
  ``(ok, value)`` per item down a pipe of its own. The results are read in
  item order, so each is yielded as soon as it and those before it are done.
- stdout and stderr are flushed before the fork, so that a child cannot write
  out again what the parent had buffered.
- A child ends with ``os._exit``, which runs none of the parent's clean-up
  and flushes none of the files it holds open: a caller may write each result
  into a file as it is yielded, as the CSV writer does, without a child
  writing what the parent had buffered there a second time.
  An exception ``fn`` raises in a child is raised again here; a child that
  ends before it sends a result raises :class:`~antago.errors.WorkerError`,
  naming its pid and its exit status or signal. Every child is killed and
  reaped when the generator or the context ends, fails or is closed early.
- The package imports numpy only where an array is built, and its forked
  jobs build arrays: numpy is imported before the first fork, so that the
  workers share the loaded module and do not each import it again. When the
  items run in this process, numpy is not imported.

A fork plus its reaping costs about 2.0 ms on a 2-core VM (Python 3.11,
numpy loaded). After a fork each process pays about 440–640 minor
(copy-on-write) page faults as it writes to the pages it shares: the first
``simulate`` of fig2-F1 beside an idle child took 0.5–4 ms more than alone
(16.8 → 20.4 ms in one session). A busy sibling halves that VM's speed per
process (a pure-Python loop 24.2 → 47.7 ms, ``simulate`` 16.9 → 47.8 ms).
So a child is worth it only for several times that much work, and a timing
in units of a slice that runs in this process (the benchmark's ``cal``)
counts the child's work as almost free. Its only users:

- ``cli._cmd_sweep`` and ``verify.check_lyapunov`` run sweep points and
  Lyapunov presets, one item each, on :func:`forked_imap`.
- ``scenario_io.run_trajectory_csv`` renders ``antago run``'s CSV in blocks
  of 128 rows, about 1.1–1.4 ms each, on :func:`forked_ahead` when the rule
  gives its grid's blocks two workers: this process copies each finished
  slice of the run's ``array("d")`` into a shared ``mmap``, the child renders
  each block as soon as its rows are there and writes it into the file
  itself, and the two processes split the blocks left when the run ends. A
  finished record renders here: forked, it took 19–46 % more CPU for a wall
  gain mostly inside the spread between runs (CHANGES.md). A grid of 2–3
  blocks (129–384 rows) forks at a loss, as the rule sets no least work per
  worker: on 2 vCPUs, at 201 rows, wall 14.3–20.1 ms forked against
  9.1–13.7 ms in this process. No benchmark workload runs such a grid.
"""

from __future__ import annotations

import os
import struct
import sys
import threading
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager
from typing import BinaryIO, TypeVar

from .errors import WorkerError

T = TypeVar("T")
R = TypeVar("R")

# A message from this process to a forked_ahead child: a count of items
# ready, or -1 for the end of them.
_COUNT = struct.Struct("q")


def worker_count(items: int) -> int:
    """How many processes share ``items`` items: the cores this process may
    use, at most one per item, or 1 (this process alone) when that is fewer
    than two or when this process has other threads."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cores, items)
    if workers < 2 or threading.active_count() > 1:
        return 1
    return workers


def _fork(life: Callable[[BinaryIO], object],
          pipes: Sequence[BinaryIO] = ()) -> tuple[int, BinaryIO]:
    """Fork a child that closes ``pipes``, the read ends of its siblings,
    runs ``life`` on the write end of a new pipe and exits; return its pid
    and the read end of its pipe."""
    import numpy   # noqa: F401 -- loaded once here, not in each forked worker

    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            for pipe in pipes:
                pipe.close()
            with open(write_fd, "wb") as pipe:
                life(pipe)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _receive(children: dict, k: int):
    """The next result that child ``k`` of ``children`` sends down its pipe:
    its value, or the exception it raised, raised again here. A child that
    ended first is reaped and taken out of ``children``."""
    import pickle

    pid, pipe = children[k]
    try:
        ok, value = pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):
        del children[k]
        pipe.close()
        raise WorkerError(f"worker process {pid} {_ended(os.waitpid(pid, 0)[1])} "
                          "before sending its result") from None
    if not ok:
        raise value
    return value


def _reap(children: dict) -> None:
    """Kill and reap every child of ``children``: none is reaped yet, so each
    pid is still that child's."""
    import signal

    for pid, pipe in children.values():
        pipe.close()
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def forked_imap(fn: Callable[[T], R], items: Sequence[T]) -> Iterator[R]:
    """Yield ``fn(item)`` for each of ``items``, in order, computed on forked
    workers as the module docstring describes. Each result is the same
    whichever process computed it."""
    workers = worker_count(len(items))
    children = {}   # worker number -> (pid, read end of its pipe), until reaped
    try:
        for k in range(1, workers):
            children[k] = _fork(lambda pipe, k=k: _serve(fn, items[k::workers], pipe),
                                [pipe for _, pipe in children.values()])
        yield from _split(fn, items, children)
    finally:
        _reap(children)


def _split(fn: Callable[[T], R], items: Sequence[T], children: dict) -> Iterator[R]:
    """Yield ``fn(item)`` for each of ``items``, in order: this process
    computes items ``0, w, 2w, ...``, child ``k`` of the ``w - 1`` children
    items ``k::w``."""
    workers = len(children) + 1
    for i, item in enumerate(items):
        k = i % workers
        yield fn(item) if k == 0 else _receive(children, k)


class Ahead:
    """This process's side of :func:`forked_ahead`: :meth:`ready` lets the
    child take more items, and :meth:`rest` yields the results of the
    others."""

    def __init__(self, fn: Callable[[T], R], items: Sequence[T], children: dict, ready_fd: int):
        self._fn, self._items, self._children = fn, items, children
        self._ready_fd = ready_fd   # the write end of the child's pipe of counts
        self._count = 0

    def _tell(self, count: int) -> None:
        try:
            os.write(self._ready_fd, _COUNT.pack(count))
        except BrokenPipeError:   # the child is gone: rest() says how it ended
            pass

    def ready(self, count: int) -> None:
        """The first ``count`` items are ready: the child may compute them."""
        if count > self._count:
            self._count = count
            self._tell(count)

    def rest(self) -> Iterator[R]:
        """Yield, in order, ``fn(item)`` for each item that the child did not
        take while they became ready: this process computes the first of them
        and every second one after it, the child the others."""
        self._tell(-1)
        taken = _receive(self._children, 1)
        yield from _split(self._fn, self._items[taken:], self._children)


@contextmanager
def forked_ahead(fn: Callable[[T], R], items: Sequence[T],
                 sink: Callable[[R], object]) -> Iterator[Ahead]:
    """Fork one child for ``items``, as the module docstring describes, and
    yield an :class:`Ahead` while this process works on something else. The
    child computes ``fn`` of each item as soon as :meth:`Ahead.ready` counts
    it, in order, and passes the result to ``sink`` in the child; once
    :meth:`Ahead.rest` is called, it stops after the item in hand, and the
    two processes split the items it has not taken as :func:`forked_imap`
    splits items. It always forks: a caller asks :func:`worker_count` first.
    The child is killed and reaped when the context ends."""
    import select   # noqa: F401 -- loaded here, not in the child

    read_fd, ready_fd = os.pipe()
    children = {}   # {1: (pid, read end of its pipe)} until it is reaped
    try:
        try:
            children[1] = _fork(lambda pipe: _lead(fn, items, sink, read_fd, ready_fd, pipe))
        finally:
            os.close(read_fd)   # so that a count sent to a dead child is a broken pipe
        yield Ahead(fn, items, children, ready_fd)
    finally:
        os.close(ready_fd)
        _reap(children)


def _lead(fn: Callable, items: Sequence, sink: Callable, read_fd: int, ready_fd: int,
          pipe: BinaryIO) -> None:
    """A forked_ahead child's life: pass ``fn(item)`` of each item, in
    order, to ``sink`` as the counts that the parent writes to ``read_fd``
    make it ready; at the end of them, send down ``pipe`` how many it took,
    or the exception that stopped it, and serve its share of the rest."""
    import pickle
    import select

    os.close(ready_fd)
    taken = ready = 0
    try:
        while ready >= 0:
            # wait for a count when every ready item is taken, else only look
            if taken < ready and not select.select([read_fd], [], [], 0)[0]:
                sink(fn(items[taken]))
                taken += 1
                continue
            data = os.read(read_fd, 4096)   # whole counts: each write is atomic
            if not data:
                return   # the parent is gone
            *_, (ready,) = _COUNT.iter_unpack(data)   # the last: counts only rise
    except Exception as exc:   # raised again by the parent
        pipe.write(pickle.dumps((False, exc)))
        return
    pipe.write(pickle.dumps((True, taken)))
    pipe.flush()
    _serve(fn, items[taken + 1::2], pipe)


def _serve(fn: Callable, items: Sequence, pipe: BinaryIO) -> None:
    """Send ``(True, fn(item))`` down ``pipe`` for each item in order, or
    ``(False, exception)`` for the first that raises, and stop there."""
    import pickle

    for item in items:
        ok = True
        try:
            data = pickle.dumps((True, fn(item)))
        except Exception as exc:   # raised again by the parent
            ok, data = False, pickle.dumps((False, exc))
        pipe.write(data)
        pipe.flush()
        if not ok:
            break


def _ended(status: int) -> str:
    import signal

    code = os.waitstatus_to_exitcode(status)
    if code >= 0:
        return f"exited with status {code}"
    try:
        name = signal.Signals(-code).name
    except ValueError:
        name = f"signal {-code}"
    return f"was killed by {name}"

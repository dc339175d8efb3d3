"""Forked workers for independent jobs: one generator, :func:`forked_imap`.

The policy, kept here alone (with ``os.fork`` and pipes, not
``multiprocessing``):

- One worker per core this process may use (``os.sched_getaffinity(0)``),
  and no more workers than items.
- The items run in this process, one by one, when fewer than two workers
  would be busy, and when this process has other threads, which a fork would
  copy in whatever state they hold.
- This process is worker 0 and computes items ``0, w, 2w, ...`` itself;
  forked child ``k`` computes items ``k::w`` and writes one pickled
  ``(ok, value)`` per item down a pipe of its own. The results are read in
  item order, so each is yielded as soon as it and those before it are done.
- stdout and stderr are flushed before the fork, so that a child cannot write
  out again what the parent had buffered.
- A child ends with ``os._exit``, which runs none of the parent's clean-up
  and flushes none of the files it holds open: a caller may write each result
  into a file as it is yielded, as ``save_trajectory_csv`` does, without a
  child writing what the parent had buffered there a second time.
  An exception ``fn`` raises in a child is raised again here; a child that
  ends before it sends a result raises :class:`~antago.errors.WorkerError`,
  naming its pid and its exit status or signal. Every child is killed and
  reaped when the generator ends, fails or is closed early.
- The package imports numpy only where an array is built, and its forked
  jobs build arrays: :func:`forked_imap` imports numpy before the first fork,
  so that the workers share the loaded module and do not each import it
  again. When the items run in this process, it imports nothing.

A fork plus its reaping costs about 1.3–1.4 ms on a 2-core VM (Python 3.11),
so a child is worth it only for several times that much work. Its users:

- ``cli`` runs the points of a sweep, and ``verify`` the presets of its
  Lyapunov suite, one item each.
- The CSV writer renders blocks of 128 rows, about 1.1 ms each at about
  8.6 µs per row, so a table of one block never forks and the 2,001-row
  fig2-F1 table gives a child eight blocks; the parent writes each block into
  the file as it comes, and a child's blocks are pickled one at a time.
- The CSV reader parses parts of at least 256 KiB of rows, about 2.9 ms per
  344 kB part, so a file of less than two parts never forks and each preset's
  630–690 kB file gives a child its second half.
"""

from __future__ import annotations

import os
import sys
import threading
from collections.abc import Callable, Iterator, Sequence
from typing import NoReturn, TypeVar

from .errors import WorkerError

T = TypeVar("T")
R = TypeVar("R")


def forked_imap(fn: Callable[[T], R], items: Sequence[T]) -> Iterator[R]:
    """Yield ``fn(item)`` for each of ``items``, in order, computed on forked
    workers as the module docstring describes. Each result is the same
    whichever process computed it."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cores, len(items))
    if workers < 2 or threading.active_count() > 1:
        yield from map(fn, items)
        return
    import pickle   # here, as signal is, so that importing the package loads neither
    import signal

    import numpy   # noqa: F401 -- loaded once here, not in each forked worker

    sys.stdout.flush()
    sys.stderr.flush()
    children = {}   # worker number -> (pid, read end of its pipe), until reaped
    try:
        for k in range(1, workers):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read_fd)
                for _, pipe in children.values():
                    pipe.close()
                _serve(fn, items[k::workers], write_fd)
            os.close(write_fd)
            children[k] = (pid, open(read_fd, "rb"))
        for i, item in enumerate(items):
            k = i % workers
            if k == 0:
                yield fn(item)
                continue
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
            yield value
    finally:
        for pid, pipe in children.values():
            pipe.close()
            os.kill(pid, signal.SIGKILL)   # unreaped, so the pid is still this child's
            os.waitpid(pid, 0)


def _serve(fn: Callable, items: Sequence, write_fd: int) -> NoReturn:
    """A child's whole life: send ``(True, fn(item))`` for each item in order,
    or ``(False, exception)`` for the first that raises, then exit."""
    code = 1
    try:
        import pickle

        with open(write_fd, "wb") as pipe:
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
        code = 0
    finally:
        os._exit(code)


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

"""Calls run in forked children, their results piped back; no numpy.

A `Forks` group forks one child per `start`.  The child runs its call,
pipes back one pickled record (the result, or the exception with its
traceback) and leaves by ``os._exit``, never back into the caller's stack,
atexit handlers or buffers.  Collecting a call reads its record and reaps
its child: an exception re-raises with its type unchanged, and a child that
exits without a record raises `WorkerDied`.  Leaving the group, whatever is
raised, kills and reaps every child not collected.  With fewer than 2
workers, or no ``os.fork``, nothing forks and each call runs in-process when
it is collected, so its error arises where a child's would.

Forked children share the parent's imports, so they start in milliseconds;
`spawn` would import everything again.  This module imports no numpy, so a
child forked before numpy loads runs beside that import (`fit`'s reader).
"""

from __future__ import annotations

import os
import pickle
from functools import partial


class WorkerDied(RuntimeError):
    """A forked child exited without sending its results."""


class _WorkerTraceback(Exception):
    """A child's formatted traceback, chained as the cause of its exception."""


def usable_cpus() -> int:
    """CPUs this process may run on; 1 where the OS has no affinity mask."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


class Forks:
    """Calls run in forked children when workers >= 2 and os.fork exists,
    else in-process when collected; used as a context manager."""

    def __init__(self, workers: int):
        self._forking = workers >= 2 and hasattr(os, "fork")
        self._readers, self._pids = [], []  # a pid becomes None once reaped

    def __enter__(self) -> Forks:
        return self

    def __exit__(self, *exc_info) -> None:
        for pid in self._pids:
            if pid is not None:  # only on an error: a child is left to stop
                import signal

                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        for fd in self._readers:
            os.close(fd)

    def start(self, name: str, fn, *args):
        """fn(*args), started in a child; returns the call that collects its
        result (or, in-process, makes the call).

        name (e.g. "worker 0") names the child in a WorkerDied message.
        """
        if not self._forking:
            return partial(fn, *args)
        read_fd, write_fd = os.pipe()
        self._readers.append(read_fd)
        try:
            pid = os.fork()
        except OSError:
            os.close(write_fd)
            raise
        if pid == 0:  # the child; exit status 0 once its whole record is written
            status = 1
            try:
                for fd in self._readers:  # no read end stays open in a child
                    os.close(fd)
                try:
                    record = (None, fn(*args))
                except Exception as exc:
                    import traceback

                    record = (exc, traceback.format_exc())
                with open(write_fd, "wb") as fh:
                    pickle.dump(record, fh)
                status = 0
            finally:
                os._exit(status)
        os.close(write_fd)  # before the next fork, so only this child holds it
        self._pids.append(pid)
        return partial(self._collect, len(self._pids) - 1, name)

    def _collect(self, i: int, name: str):
        with open(self._readers[i], "rb", closefd=False) as fh:
            data = fh.read()
        status = os.waitstatus_to_exitcode(os.waitpid(self._pids[i], 0)[1])
        self._pids[i] = None
        if status != 0:
            raise WorkerDied(f"{name} exited with status {status} without sending its results")
        exc, value = pickle.loads(data)
        if exc is not None:
            raise exc from _WorkerTraceback(value)
        return value

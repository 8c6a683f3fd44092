"""A forked helper process or a worker thread beside this one, for work split in two.

``can_fork`` says whether a helper may run: the platform forks, this
process may use a second CPU, and it runs no other Python thread, whose
locks a forked copy could find held.  ``forked`` runs one function in a
helper while this process runs another, and hands back the helper's result,
pickled through a pipe, with whether the helper succeeded.  Its callers do
the helper's work themselves when it did not, so their outputs and errors
are those of one process.

``split_rows`` runs the upper half of a grid kernel's rows of axis 0 in a
worker thread under the same condition: numpy releases the interpreter lock
in its calls on whole planes, where such kernels spend their time.
"""

from __future__ import annotations

import contextvars
import os
import pickle
import threading
import warnings

_LOST = object()  # stands for a result the child never sent whole


def can_fork() -> bool:
    """Whether a forked helper may run beside this process on a second CPU."""
    return (
        hasattr(os, "fork")
        and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) >= 2
        and threading.active_count() == 1
    )


def forked(child, parent) -> tuple:
    """``(parent(), child(), done)``: ``parent()`` runs here while ``child()``
    runs in a forked process, whose result comes back pickled through a pipe.

    ``done`` is whether that process exited with status 0 and its result was
    read; when it is false, the child's result is None.  The child ends in
    ``os._exit``, so it flushes none of this process's buffers and runs none
    of its clean-up; it is reaped even when ``parent()`` raises.  With no
    process or pipe to spare, both run here, ``parent()`` first.
    """
    started = _start(child)
    if started is None:
        result = parent()
        return result, child(), True
    pid, read_end = started
    got, status = _LOST, None
    channel = open(read_end, "rb")
    try:
        result = parent()
        try:
            got = pickle.load(channel)
        except (EOFError, pickle.UnpicklingError):  # the child ended before its result was whole
            pass
    finally:
        channel.close()  # a child still writing stops at a broken pipe
        try:
            status = os.waitpid(pid, 0)[1]
        except ChildProcessError:  # reaped on exit, as when SIGCHLD is ignored: its status is lost
            pass
    done = status == 0 and got is not _LOST
    return result, got if done else None, done


def split_rows(n: int, rows) -> None:
    """Run ``rows(lo, hi)`` over rows ``0 .. n`` of grid axis 0, the upper half in a
    worker thread where ``n >= 2`` and ``can_fork()`` allow, else as ``rows(0, n)``.
    The worker runs in a copy of this thread's context, which holds the caller's
    ``np.errstate``, and is joined before this returns or raises the lower half's
    error, else the upper half's."""
    if n < 2 or not can_fork():
        return rows(0, n)
    failed = []

    def upper():
        try:
            rows(n // 2, n)
        except BaseException as exc:  # raised again in the calling thread
            failed.append(exc)

    worker = threading.Thread(target=contextvars.copy_context().run, args=(upper,))
    worker.start()
    try:
        rows(0, n // 2)
    finally:
        worker.join()
    if failed:
        raise failed[0]


def _start(child):
    """``(pid, read end)`` of a forked process that runs ``child()`` and
    pickles its result into a pipe; None when no pipe or process can be had."""
    try:
        read_end, write_end = os.pipe()
    except OSError:
        return None
    try:
        with warnings.catch_warnings():  # 3.12 warns of native (BLAS) threads, which the child never calls
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        return None
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            with open(write_end, "wb") as out:
                pickle.dump(child(), out, pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    return pid, read_end

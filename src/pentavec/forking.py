"""A forked helper process or a worker thread beside this one, for work split in two.

``can_fork`` says whether a helper may run: the platform forks, this
process may use a second CPU, and it runs no other Python thread, whose
locks a forked copy could find held.  ``forked`` runs one function in a
helper while this process runs another, and runs the helper's function
again here when the helper did not succeed, so its callers' outputs and
errors are those of one process.

``split_rows`` runs the upper half of a grid kernel's rows of axis 0 in a
worker thread under the same condition: numpy releases the interpreter lock
in its calls on whole planes, where such kernels spend their time.
"""

from __future__ import annotations

import contextvars
import os
import threading
import warnings


def can_fork() -> bool:
    """Whether a forked helper may run beside this process on a second CPU."""
    return (
        hasattr(os, "fork")
        and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) >= 2
        and threading.active_count() == 1
    )


def forked(child, parent):
    """``parent()``, run here while ``child()`` runs in a forked process; the
    work of ``child()``, whose result is dropped, is done when this returns.

    ``child()`` runs again here, after ``parent()``, when that process did
    not exit with status 0, when its status was lost (as when SIGCHLD is
    ignored) or when no process could be had, so it must give the same
    result when run twice.  The helper ends in ``os._exit``, so it flushes
    none of this process's buffers and runs none of its clean-up.  When
    ``parent()`` raises, the helper is reaped, ``child()`` does not run
    again, and the error propagates.
    """
    try:
        with warnings.catch_warnings():  # 3.12 warns of native (BLAS) threads, which the child never calls
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except OSError:
        pid = None
    if pid == 0:
        status = 1
        try:
            child()
            status = 0
        finally:
            os._exit(status)
    status = None
    try:
        result = parent()
    finally:
        if pid is not None:
            try:
                status = os.waitpid(pid, 0)[1]
            except ChildProcessError:  # reaped on exit, as when SIGCHLD is ignored: its status is lost
                pass
    if status != 0:
        child()
    return result


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

"""The shared fork helper and the row worker thread: a helper's work is done
once, by the helper or else again here, a helper is always reaped, and the
peak of each record helper stays within its share of the work."""

import mmap
import os
import signal
import sys
import threading

import numpy as np
import pytest

from pentavec import forking
from pentavec.fileio import LINES_PER_BLOCK, VALUES_PER_LINE, Record, read_record, write_record
from pentavec.grids import Grid

needs_two_cpus = pytest.mark.skipif(not forking.can_fork(), reason="no second CPU for a forked helper")


def assert_no_helper_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The list of ``forking.forked`` calls, one entry each."""
    runs, forked = [], forking.forked
    monkeypatch.setattr(forking, "forked", lambda child, parent: runs.append(1) or forked(child, parent))
    yield runs
    assert_no_helper_left()


def run_counter():
    """A child for ``forked`` and the counts of its runs, in shared memory:
    in a helper, then in this process.  Run in a helper, it then does what
    ``fails_there`` does."""
    counts = np.frombuffer(mmap.mmap(-1, 16), dtype=np.int64)
    here = os.getpid()

    def child(fails_there=lambda: None):
        counts[int(os.getpid() == here)] += 1
        if os.getpid() != here:
            fails_there()

    return child, counts


def raises():
    raise RuntimeError("the helper fails")


def fork_fails():
    raise OSError("no process to spare")


def test_forked_does_the_childs_work_in_the_helper_or_again_here(forks, monkeypatch):
    child, counts = run_counter()
    assert forking.forked(child, lambda: "here") == "here"
    assert counts.tolist() == [1, 0]  # a helper that succeeds: not run here

    failures = {
        "raises": raises,
        "exits with status 3": lambda: os._exit(3),
        "is killed": lambda: os.kill(os.getpid(), signal.SIGKILL),
    }
    for how, fails_there in failures.items():
        child, counts = run_counter()
        assert forking.forked(lambda: child(fails_there), lambda: "here") == "here"
        assert counts.tolist() == [1, 1], how

    child, counts = run_counter()
    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)  # the helper is reaped on exit
    try:
        assert forking.forked(child, lambda: "here") == "here"
    finally:
        signal.signal(signal.SIGCHLD, previous)
    assert counts.tolist() == [1, 1]  # its status was lost

    monkeypatch.setattr(os, "fork", fork_fails)
    child, counts = run_counter()
    assert forking.forked(child, lambda: "here") == "here"
    assert counts.tolist() == [0, 1]  # no process could be had


def test_forked_reaps_the_helper_when_the_parent_raises(forks):
    def fails():
        raise RuntimeError("the parent fails")

    child, counts = run_counter()
    with pytest.raises(RuntimeError, match="the parent fails"):
        forking.forked(lambda: child(lambda: os._exit(3)), fails)
    assert counts.tolist() == [1, 0]  # the failed helper's work is not done again here


@pytest.mark.parametrize(
    "allowed, n, ranges",
    [(True, 9, [(0, 4), (4, 9)]), (True, 2, [(0, 1), (1, 2)]), (True, 1, [(0, 1)]), (False, 9, [(0, 9)])],
)
def test_split_rows_gives_the_upper_half_to_a_worker_thread(monkeypatch, allowed, n, ranges):
    monkeypatch.setattr(forking, "can_fork", lambda: allowed)
    calls = []
    forking.split_rows(n, lambda lo, hi: calls.append((lo, hi, threading.get_ident())))
    assert sorted(call[:2] for call in calls) == ranges
    assert {call[2] for call in calls if call[0] == 0} == {threading.get_ident()}
    assert len({call[2] for call in calls}) == len(ranges)
    assert threading.active_count() == 1


def test_split_rows_raises_the_lower_half_error_first(monkeypatch):
    monkeypatch.setattr(forking, "can_fork", lambda: True)

    def fails(lo, hi):
        raise ValueError(f"rows {lo}..{hi}")

    with pytest.raises(ValueError, match="rows 0..3"):
        forking.split_rows(7, fails)
    with pytest.raises(ValueError, match="rows 3..7"):
        forking.split_rows(7, lambda lo, hi: lo and fails(lo, hi))
    assert threading.active_count() == 1


def vm_kb(field: str) -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise AssertionError(f"no {field} in /proc/self/status")


@needs_two_cpus
@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads VmHWM from /proc")
def test_each_helper_peaks_within_its_share_of_the_work(tmp_path, monkeypatch):
    """Each record helper writes its pid and how far its peak RSS (VmHWM)
    rose above the RSS it began with, which the fork shares with this
    process, into a shared slot of its own."""
    rises, forked = [], forking.forked

    def measured(child, parent):
        slot = np.frombuffer(mmap.mmap(-1, 16), dtype=np.int64)

        def child_and_rise():
            start = vm_kb("VmRSS")
            child()
            slot[:] = os.getpid(), (vm_kb("VmHWM") - start) * 1024

        result = forked(child_and_rise, parent)
        assert slot[0] not in (0, os.getpid())  # measured in a helper that succeeded
        rises.append(int(slot[1]))
        return result

    monkeypatch.setattr(forking, "forked", measured)
    grid = Grid(origin=(0.0,) * 4, spacing=(0.05, 0.05, 0.05, 1.0), shape=(21, 21, 21, 1))
    rec = Record("moment_field", np.random.default_rng(21).normal(size=grid.shape + (4, 5, 5)), basis="P", grid=grid)
    write_record(tmp_path / "m.pvec", rec)
    assert read_record(tmp_path / "m.pvec").payload.tobytes() == rec.payload.tobytes()
    write_rise, read_rise = rises

    # A helper holds one block of payload lines at a time.  Formatting one
    # takes about 128 bytes a value: the text and its UTF-8 copy (25 bytes a
    # value at most), the floats and the tuple of them, and the format
    # string.  Formatting the whole half payload at once would take some 55 MB.
    block = VALUES_PER_LINE * LINES_PER_BLOCK * 128
    assert write_rise <= 2 * block
    # The reader's helper fills its half of the payload in shared memory and
    # splits one chunk of a block's lines at a time into words.
    assert read_rise <= rec.payload.nbytes / 2 + block

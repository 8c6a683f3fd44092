"""The shared fork helper and the two-process ``verify``: conservation runs in
a forked helper beside the other suites, with the sequential run's reports,
output and first error."""

import os
import signal
import sys
import threading

import numpy as np
import pytest

from pentavec import forking, suites
from pentavec.cli import main
from pentavec.errors import PentavecError
from pentavec.fileio import LINES_PER_BLOCK, VALUES_PER_LINE, Record, read_record, write_record
from pentavec.grids import Grid, scheme_width

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


def in_helper_only(function):
    """``function``, but raising when called in a forked helper."""
    parent = os.getpid()

    def patched(*args):
        if os.getpid() != parent:
            raise RuntimeError("the helper fails")
        return function(*args)

    return patched


def test_forked_sends_back_the_helpers_result(forks):
    result, helper_pid, done = forking.forked(os.getpid, lambda: "here")
    assert (result, done) == ("here", True) and helper_pid not in (None, os.getpid())
    # a result that cannot be pickled, and a helper that raises, arrive as None
    assert forking.forked(lambda: lambda: None, lambda: "here") == ("here", None, False)
    assert forking.forked(in_helper_only(lambda: 1), lambda: "here") == ("here", None, False)


def test_forked_reaps_the_helper_when_the_parent_raises(forks):
    def fails():
        raise RuntimeError("the parent fails")

    with pytest.raises(RuntimeError, match="the parent fails"):
        forking.forked(lambda: bytes(1 << 20), fails)  # more than a pipe holds unread


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


def sequential(monkeypatch):
    """Force the one-process path, as on a machine without ``fork``."""
    monkeypatch.delattr(os, "fork")


@needs_two_cpus
@pytest.mark.parametrize("scheme", ["central2", "central4"])
@pytest.mark.parametrize("seed", ["1", "42", "1234"])
def test_two_process_verify_prints_the_sequential_lines(capsys, monkeypatch, forks, seed, scheme):
    args = ["verify", "all", "--format", "machine", "--seed", seed, "--scheme", scheme]
    assert main(args) == 0
    two = capsys.readouterr()
    assert len(forks) == 1
    with monkeypatch.context() as patch:
        sequential(patch)
        assert main(args) == 0
    assert capsys.readouterr() == two
    assert len(forks) == 1


def fake_suite(name):
    """A cheap suite: one check drawn from the suite's generator."""
    return lambda options, rng: [suites.CheckResult(f"{name}-draw", float(rng.normal()), 1.0)]


@pytest.fixture
def fake_suites(monkeypatch):
    for name in suites.SUITE_NAMES:
        monkeypatch.setitem(suites._SUITES, name, fake_suite(name))


@pytest.mark.parametrize(
    "names, split",
    [
        (suites.SUITE_NAMES, True),
        (("conservation", "algebra"), True),
        (("conservation",), False),
        (("algebra", "bases"), False),
        (("conservation", "conservation"), False),
    ],
)
def test_only_conservation_beside_another_suite_is_forked(fake_suites, forks, names, split):
    reports = suites.run_suites(names, suites.SuiteOptions())
    assert [r.name for r in reports] == list(names)
    assert reports == [suites.run_suite(name, suites.SuiteOptions()) for name in names]
    assert len(forks) == (split and forking.can_fork())


@needs_two_cpus
@pytest.mark.parametrize("how", ["helper raises", "status lost"])
def test_a_failed_suites_helper_gives_the_sequential_reports(fake_suites, forks, monkeypatch, how):
    options = suites.SuiteOptions(seed=7)
    expected = [suites.run_suite(name, options) for name in suites.SUITE_NAMES]
    ran, conservation = [], suites._SUITES["conservation"]

    def counted(options, rng):
        ran.append(1)
        return conservation(options, rng)

    monkeypatch.setitem(suites._SUITES, "conservation", counted if how == "status lost" else in_helper_only(counted))
    previous = signal.getsignal(signal.SIGCHLD)
    if how == "status lost":  # the helper is reaped as it exits, so waitpid finds no child
        signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        assert suites.run_suites(suites.SUITE_NAMES, options) == expected
    finally:
        signal.signal(signal.SIGCHLD, previous)
    assert len(forks) == 1 and ran == [1]  # conservation ran here, after the helper


def fork_fails():
    raise BlockingIOError("no process to spare")


def raises(message):
    def suite(options, rng):
        raise PentavecError(message)

    return suite


@pytest.mark.parametrize("fork", ["two processes", "fork fails", "absent"])
@pytest.mark.parametrize(
    "names, first",
    [
        (suites.SUITE_NAMES, "bases"),
        (("conservation", "algebra", "bases"), "conservation"),
        (("poincare", "conservation", "clifford"), "conservation"),
    ],
)
def test_the_first_error_in_order_is_raised(fake_suites, forks, monkeypatch, names, first, fork):
    monkeypatch.setitem(suites._SUITES, "bases", raises("bases fails"))
    monkeypatch.setitem(suites._SUITES, "conservation", raises("conservation fails"))
    if fork == "fork fails":
        monkeypatch.setattr(os, "fork", fork_fails)
    elif fork == "absent":
        sequential(monkeypatch)
    with pytest.raises(PentavecError, match=f"^{first} fails$"):
        suites.run_suites(names, suites.SuiteOptions())


def vm_kb(field: str) -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise AssertionError(f"no {field} in /proc/self/status")


@needs_two_cpus
@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads VmHWM from /proc")
def test_each_helper_peaks_within_its_share_of_the_work(tmp_path, monkeypatch):
    """Each helper sends back, with its result, how far its peak RSS (VmHWM)
    rose above the RSS it began with, which the fork shares with this process."""
    rises, forked = [], forking.forked

    def measured(child, parent):
        def child_and_rise():
            start = vm_kb("VmRSS")
            return child(), (vm_kb("VmHWM") - start) * 1024

        result, got, done = forked(child_and_rise, parent)
        assert done
        rises.append(got[1])
        return result, got[0], done

    monkeypatch.setattr(forking, "forked", measured)
    grid = Grid(origin=(0.0,) * 4, spacing=(0.05, 0.05, 0.05, 1.0), shape=(21, 21, 21, 1))
    rec = Record("moment_field", np.random.default_rng(21).normal(size=grid.shape + (4, 5, 5)), basis="P", grid=grid)
    write_record(tmp_path / "m.pvec", rec)
    assert read_record(tmp_path / "m.pvec").payload.tobytes() == rec.payload.tobytes()
    options = suites.SuiteOptions()
    suites.run_suites(suites.SUITE_NAMES, options)
    write_rise, read_rise, suites_rise = rises

    # A helper holds one block of payload lines at a time.  Formatting one
    # takes about 128 bytes a value: the text and its UTF-8 copy (25 bytes a
    # value at most), the floats and the tuple of them, and the format
    # string.  Formatting the whole half payload at once would take some 55 MB.
    block = VALUES_PER_LINE * LINES_PER_BLOCK * 128
    assert write_rise <= 2 * block
    # The reader's helper fills its half of the payload in shared memory and
    # splits one chunk of a block's lines at a time into words.
    assert read_rise <= rec.payload.nbytes / 2 + block
    # Conservation's finest grid holds (2N - 1)^3 samples of the moment
    # current's 100 values, built one slab of SLAB_ROWS rows and their halos
    # at a time.  A slab's P current and its O change are alive together, with
    # the coordinates and the allocator's freed blocks, under three slab
    # currents; the fork, the pickled report and the coarse checks take a few
    # MB more (43 MB of 53 MB at N = 17, where the whole currents took 88 MB).
    halo = 2 * scheme_width(options.scheme)
    slab = (suites.SLAB_ROWS + halo) * (2 * options.grid_n - 1) ** 2 * 100 * 8
    assert suites_rise <= 16 * 2**20 + 3 * slab

import os
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def _fail(how):
    """Fail the way a suite might, in the process running it; an exception
    instance is raised as it is."""
    if isinstance(how, BaseException):
        raise how
    if how == "ValueError":
        raise ValueError("fake suite failed")
    if how == "SystemExit":
        sys.exit(4)
    if how == "KeyboardInterrupt":
        raise KeyboardInterrupt
    if how == "os._exit":
        os._exit(3)
    if how == "hang":
        import time

        time.sleep(60)
    raise AssertionError(how)


@pytest.fixture
def fake_suites(monkeypatch):
    """Replace every suite by a cheap fake whose result names, in its scope,
    the pid of the process that ran it. Returns `fail(child=None,
    caller=None)`, after which each fake fails by the way given for the
    process it runs in, the forked child or the caller (an exception, or a
    way `_fail` knows), and passes in a process given none. So a failure
    happens only in the process it is given for, whichever suites
    `exactpoly.deal` gives that process through `suites.split_units`."""
    from ellipta import suites

    caller_pid = os.getpid()
    hows = {"child": None, "caller": None}

    def fake(name):
        def suite(max_n, inputs=None, seed=0):
            how = hows["caller" if os.getpid() == caller_pid else "child"]
            if how is not None:
                _fail(how)
            return suites.SuiteResult(
                name, f"pid {os.getpid()}", (suites.Check("fake", True),)
            )

        return suite

    for name in list(suites.SUITES):
        monkeypatch.setitem(suites.SUITES, name, fake(name))

    def fail(child=None, caller=None):
        hows.update(child=child, caller=caller)

    return fail


@pytest.fixture
def forks(monkeypatch):
    """The pids that have called os.fork, as a list that each process holds
    its own copy of from the fork on."""
    made = []
    real_fork = os.fork

    def fork():
        made.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return made


@pytest.fixture
def two_cpus(monkeypatch):
    """This process, and a peer forked from it, may run on two CPUs, so
    `exactpoly.Peer` may fork whatever CPUs the run is pinned to."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

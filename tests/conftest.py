import os
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def _fail(how: str):
    """Fail the way a suite might, in the process running it."""
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
    the pid of the process that ran it. Returns `fail(name, how)`, which
    makes one fake fail by one of the ways `_fail` knows."""
    from ellipta import suites

    def fake(name, how=None):
        def suite(max_n, inputs=None, seed=0):
            if how is not None:
                _fail(how)
            return suites.SuiteResult(
                name, f"pid {os.getpid()}", (suites.Check("fake", True),)
            )

        return suite

    for name in list(suites.SUITES):
        monkeypatch.setitem(suites.SUITES, name, fake(name))

    def fail(name, how):
        monkeypatch.setitem(suites.SUITES, name, fake(name, how))

    return fail

"""The sums that j_viennot, the series route and the bi-gamma chain share
with a forked peer (`exactpoly.SharedSums`): a split leaves every result as
it is alone, the split happens only where it may, a failure in the peer is
raised in the caller, and no peer outlives its call. `taskset -c 0 python
-m pytest tests/test_shared_sums.py` runs them on one CPU, through the real
affinity call."""

import os

import pytest

from ellipta import elliptic as el
from ellipta import exactpoly as ep
from ellipta import suites

# each call's last steps make more than SPLIT_MULTS coefficient
# multiplications at the larger n, and none does at n = 24
ROUTES = {
    "viennot": (el.j_viennot, 72),
    "series": (el.j_series, 72),
    "chain": (el.j_even_decompositions, 40),
}


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("large", [True, False], ids=["above the cut", "below it"])
def test_split_and_alone_agree(monkeypatch, forks, two_cpus, route, large):
    fn, n = ROUTES[route]
    n = n if large else 24
    split = fn(n)
    assert forks == ([os.getpid()] if large else [])
    _assert_no_child_left()
    monkeypatch.delattr(os, "fork")
    assert fn(n) == split


@pytest.mark.parametrize("route", ROUTES)
def test_one_cpu_runs_alone(monkeypatch, forks, route):
    fn, n = ROUTES[route]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    fn(n)
    assert forks == []


def test_the_split_follows_the_cpus_this_process_may_run_on(forks):
    # under `taskset -c 0` this is the one-CPU path, through the real call
    el.j_viennot(ROUTES["viennot"][1])
    assert len(forks) == (len(os.sched_getaffinity(0)) >= 2)
    _assert_no_child_left()


def test_without_fork_every_step_runs_here(monkeypatch, two_cpus):
    monkeypatch.delattr(os, "fork")
    assert not ep.can_pair()
    assert el.j_viennot(ROUTES["viennot"][1]) == el.j_fraction(ROUTES["viennot"][1])


def test_a_peer_that_dies_raises_here_naming_its_status(monkeypatch, two_cpus):
    caller = os.getpid()
    real_mul = el.uni_mul

    def mul(f, g):
        if os.getpid() != caller:
            os._exit(3)
        return real_mul(f, g)

    monkeypatch.setattr(el, "uni_mul", mul)
    with pytest.raises(RuntimeError, match="^forked peer exited with status 3$"):
        el.j_viennot(ROUTES["viennot"][1])
    _assert_no_child_left()
    assert ep.can_pair()  # the pair is over


def test_an_exception_in_the_peer_is_raised_here_as_itself(monkeypatch, two_cpus):
    caller = os.getpid()
    real_mul = el.uni_mul

    def mul(f, g):
        if os.getpid() != caller:
            raise ValueError("failed in the peer")
        return real_mul(f, g)

    monkeypatch.setattr(el, "uni_mul", mul)
    with pytest.raises(ValueError, match="^failed in the peer$"):
        el.j_viennot(ROUTES["viennot"][1])
    _assert_no_child_left()
    assert ep.can_pair()  # the pair is over


def test_a_failure_here_kills_the_peer(monkeypatch, forks, two_cpus):
    real_mul = el.uni_mul

    def mul(f, g):
        if forks and os.getpid() == forks[0]:
            raise ValueError("failed here")
        return real_mul(f, g)

    monkeypatch.setattr(el, "uni_mul", mul)
    with pytest.raises(ValueError, match="^failed here$"):
        el.j_series(ROUTES["series"][1])
    assert len(forks) == 1
    _assert_no_child_left()


def test_inside_verify_all_no_sum_is_split(monkeypatch, forks, two_cpus):
    # `verify all` keeps both CPUs busy: it forks once, and neither of its
    # processes forks a peer for a sum
    def suite(max_n, inputs=None, seed=0):
        el.j_viennot(ROUTES["viennot"][1])
        el.j_even_decompositions(ROUTES["chain"][1])
        return suites.SuiteResult("any", f"forks {len(forks)}", ())

    for name in suites.SUITES:
        monkeypatch.setitem(suites.SUITES, name, suite)
    results = suites.run_suite("all")
    assert forks == [os.getpid()]
    assert {r.scope for r in results} == {"forks 1"}
    _assert_no_child_left()

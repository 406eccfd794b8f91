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


def test_deal_gives_each_cost_to_the_lighter_process_the_peer_on_a_tie():
    assert ep.deal([]) == ([], [])
    assert ep.deal([3, 3, 2, 1, 1]) == ([0, 2], [1, 3, 4])
    # a zero cost changes no load
    assert ep.deal([0, 4, 0, 3, 0]) == ([0, 1], [2, 3, 4])


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


def test_a_peer_that_exits_nonzero_after_the_last_exchange_raises_here(two_cpus):
    # the caller waits for nothing more, yet reads the peer's status
    with pytest.raises(ep.PeerExited, match="^forked peer exited with status 5$"):
        with ep.Peer() as peer:
            assert peer.fork()
            if peer.is_peer:
                peer.send("done")
                os._exit(5)
            assert peer.receive() == "done"
    _assert_no_child_left()


@pytest.mark.parametrize("raises, error, message", [
    (False, ep.PeerExited, "forked peer exited with status 0"),
    (True, ValueError, "failed in the peer"),
], ids=["ended", "raised"])
def test_a_send_to_a_peer_that_has_ended_raises_what_it_left(monkeypatch, two_cpus,
                                                             raises, error, message):
    peers = []
    real_fork = os.fork

    def fork():
        peers.append(real_fork())
        return peers[-1]

    monkeypatch.setattr(os, "fork", fork)
    with pytest.raises(error, match=f"^{message}$"):
        with ep.Peer() as peer:
            assert peer.fork()
            if peer.is_peer:
                if raises:
                    raise ValueError("failed in the peer")
            else:
                # the peer has ended, and its end of the pipe is closed, but
                # it is not reaped yet
                os.waitid(os.P_PID, peers[0], os.WEXITED | os.WNOWAIT)
                peer.send("too late")
    _assert_no_child_left()

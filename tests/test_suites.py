import os

import pytest

from ellipta import suites


def test_every_named_suite_passes_at_small_range():
    small = {
        "routes": 8,
        "dumont": 5,
        "viennot-symmetry": 10,
        "thm1": 10,
        "thm2": 10,
        "lemma5": 5,
        "theorem13": 5,
        "corollary15": 5,
        "lemma9": 5,
        "closure": 4,
    }
    for name, max_n in small.items():
        (result,) = suites.run_suite(name, max_n=max_n)
        assert result.ok, f"{name}: {[c for c in result.checks if not c.ok]}"
        assert result.checks, name


def test_run_all_covers_every_suite():
    # exercised at tiny ranges through the individual runs above; here only
    # the dispatch is checked
    assert set(suites.SUITES) == set(suites.SUITE_DEFAULT_RANGE)
    assert "all" not in suites.SUITES


def test_unknown_suite_raises():
    with pytest.raises(KeyError):
        suites.run_suite("nope")


def test_defaults_mirror_module_caps():
    assert suites.SUITE_DEFAULT_RANGE["dumont"] == 9
    assert suites.SUITE_DEFAULT_RANGE["lemma9"] == 7
    assert suites.SUITE_DEFAULT_RANGE["routes"] == 24


def test_closure_suite_is_seed_deterministic():
    (a,) = suites.run_suite("closure", max_n=3, seed=7)
    (b,) = suites.run_suite("closure", max_n=3, seed=7)
    assert a == b


def test_suite_results_carry_scope():
    (result,) = suites.run_suite("dumont", max_n=4)
    assert result.scope == "n <= 4"


@pytest.mark.slow
@pytest.mark.parametrize("name", ["thm1", "thm2"])
def test_certificate_suites_pass_through_150(name):
    (result,) = suites.run_suite(name, max_n=150)
    assert result.ok, [c for c in result.checks if not c.ok]
    assert len(result.checks) >= 150


@pytest.mark.parametrize("max_n, largest", [(0, 2), (1, 2), (2, 4), (6, 12)])
def test_thm2_builds_no_j_it_does_not_read(monkeypatch, max_n, largest):
    from ellipta import elliptic as el

    asked = []
    real = el.j_viennot

    def recording(n_max):
        asked.append(n_max)
        return real(n_max)

    monkeypatch.setattr(el, "j_viennot", recording)
    (result,) = suites.run_suite("thm2", max_n=max_n)
    assert result.ok
    assert asked == [largest]


def _recording(monkeypatch, name):
    """Replace `el.<name>` by a wrapper that records its first argument."""
    from ellipta import elliptic as el

    asked = []
    real = getattr(el, name)

    def recording(n_max, *args):
        asked.append(n_max)
        return real(n_max, *args)

    monkeypatch.setattr(el, name, recording)
    return asked


def _recording_to_file(monkeypatch, name, path):
    """Replace `el.<name>` by a wrapper that appends its first argument to
    the file at path, so that calls in a forked process are recorded too;
    returns a function that reads the arguments recorded so far."""
    from ellipta import elliptic as el

    real = getattr(el, name)

    def recording(n_max, *args):
        with open(path, "a", encoding="ascii") as fh:
            fh.write(f"{n_max}\n")
        return real(n_max, *args)

    monkeypatch.setattr(el, name, recording)
    return lambda: [int(line) for line in path.read_text().split()] if path.exists() else []


def test_run_all_builds_each_shared_input_once(monkeypatch, tmp_path):
    # viennot-symmetry asks for J_0 .. J_121 first and thm1 and thm2 read
    # that build; the routes suite reaches j_viennot through J_ROUTES, which
    # the patch does not touch. Only corollary15 builds full gamma rows.
    js_asked = _recording_to_file(monkeypatch, "j_viennot", tmp_path / "js")
    gamma_asked = _recording_to_file(
        monkeypatch, "gamma_triangle_recurrence", tmp_path / "gamma"
    )
    results = suites.run_suite("all")
    assert all(r.ok for r in results)
    assert js_asked() == [121]
    assert gamma_asked() == [8]


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_run_all_merges_both_processes_in_suites_order(fake_suites):
    results = suites.run_suite("all")
    _assert_no_child_left()
    assert [r.name for r in results] == list(suites.SUITES)
    pids = {r.name: r.scope for r in results}
    forked = {pids[name] for name in suites.FORKED_SUITES}
    own = {pids[name] for name in suites.SUITES if name not in suites.FORKED_SUITES}
    assert own == {f"pid {os.getpid()}"}
    assert len(forked) == 1 and forked != own


def test_a_single_suite_never_forks(fake_suites):
    for name in ("dumont", "lemma9"):
        (result,) = suites.run_suite(name, max_n=1)
        assert result.scope == f"pid {os.getpid()}"


def test_run_all_runs_both_groups_here_without_fork(fake_suites, monkeypatch):
    monkeypatch.delattr(os, "fork")
    results = suites.run_suite("all")
    assert [r.name for r in results] == list(suites.SUITES)
    assert {r.scope for r in results} == {f"pid {os.getpid()}"}


@pytest.mark.parametrize("how, raised, message", [
    ("ValueError", ValueError, "fake suite failed"),
    ("SystemExit", RuntimeError, "forked suite raised SystemExit: 4"),
    ("KeyboardInterrupt", RuntimeError, "forked suite raised KeyboardInterrupt"),
    ("os._exit", RuntimeError,
     "forked suite process exited with status 3 and sent no result"),
])
def test_a_failure_in_the_forked_group_raises_here(fake_suites, how, raised, message):
    fake_suites("dumont", how)
    with pytest.raises(raised) as info:
        suites.run_suite("all")
    assert str(info.value) == message
    _assert_no_child_left()


class _TwoArgError(Exception):
    """Pickles but does not unpickle: its args hold one joined message."""

    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def test_an_exception_that_does_not_unpickle_comes_back_by_name(fake_suites, monkeypatch):
    def suite(max_n, inputs=None, seed=0):
        raise _TwoArgError("this", "that")

    monkeypatch.setitem(suites.SUITES, "closure", suite)
    with pytest.raises(RuntimeError, match="^forked suite raised _TwoArgError: this and that$"):
        suites.run_suite("all")
    _assert_no_child_left()


@pytest.mark.parametrize("how", ["ValueError", "KeyboardInterrupt"])
def test_a_failure_here_kills_the_forked_group(fake_suites, how):
    # the forked group would run for a minute; the caller's own failure
    # must not wait for it
    import time

    fake_suites("dumont", "hang")
    fake_suites("lemma9", how)
    start = time.monotonic()
    with pytest.raises(ValueError if how == "ValueError" else KeyboardInterrupt):
        suites.run_suite("all")
    assert time.monotonic() - start < 30
    _assert_no_child_left()


def test_shared_inputs_do_not_outlive_a_run(monkeypatch):
    js_asked = _recording(monkeypatch, "j_viennot")
    lines_asked = _recording(monkeypatch, "gamma_odd_lines")
    for _ in range(2):
        (result,) = suites.run_suite("thm1", max_n=3)
        assert result.ok
    assert js_asked == [7, 7]
    assert lines_asked == [7, 7]


def test_suite_inputs_rebuild_only_for_a_larger_n(monkeypatch):
    js_asked = _recording(monkeypatch, "j_viennot")
    lines_asked = _recording(monkeypatch, "gamma_odd_lines")
    inputs = suites.SuiteInputs()
    for n in (5, 3, 9, 9):
        assert len(inputs.js(n)) > n
        assert max(inputs.gamma_lines(n).rows) >= n - 1
    assert js_asked == lines_asked == [5, 9]


def test_suite_inputs_serve_a_smaller_ask_with_the_same_lines():
    # lines built to 81 are cut deeper at each row than lines built to 21,
    # but their i = 0 lines agree
    from ellipta import elliptic as el

    inputs = suites.SuiteInputs()
    big = inputs.gamma_lines(81)
    assert inputs.gamma_lines(21) is big
    small = el.gamma_odd_lines(21)
    assert {n: big.row(n) for n in small.rows} == small.rows
    assert el.j_even_decompositions(10, big) == el.j_even_decompositions(10, small)
    for name in ("thm1", "thm2"):
        assert suites.SUITES[name](10, inputs).ok


@pytest.mark.parametrize("name", ["thm1", "thm2"])
@pytest.mark.parametrize("max_n, budget_mib", [
    # holding the whole gamma triangle peaked at about 2.1 MiB at 40 and
    # 19 MiB at 80; its odd i = 0 lines, the J's and the certificates take
    # at most 0.5 and 1.3 MiB
    (40, 1),
    pytest.param(80, 3, marks=pytest.mark.slow),
])
def test_certificate_suites_hold_lines_not_the_gamma_triangle(name, max_n, budget_mib):
    import tracemalloc

    tracemalloc.start()
    try:
        (result,) = suites.run_suite(name, max_n=max_n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.ok
    assert peak < budget_mib * 1024 * 1024

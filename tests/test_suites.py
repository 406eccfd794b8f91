import ast
import inspect
import os
import re
from pathlib import Path

import pytest

from ellipta import elliptic as el
from ellipta import gammakit as gk
from ellipta import suites
from ellipta import treeoracle as to


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
    # "all" runs every suite at its default range, so a max_n is refused,
    # not ignored
    with pytest.raises(ValueError, match="takes no max_n"):
        suites.run_suite("all", max_n=3)


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


def test_routes_suite_names_the_first_disagreeing_coefficient(monkeypatch):
    from ellipta import elliptic as el

    def series(n_max):
        js = list(el.j_series(n_max))
        js[5] = (1, 15, 1)  # J_5 is 1 + 14x + x^2
        return tuple(js)

    monkeypatch.setitem(el.J_ROUTES, "series", series)
    (result,) = suites.run_suite("routes", max_n=6)
    failed = [c for c in result.checks if not c.ok]
    assert [(c.label, c.detail) for c in failed] == [(
        "route agreement",
        "J_5 coefficient of x^1: "
        "{'operator': 14, 'recurrence': 14, 'viennot': 14, 'series': 15, "
        "'fraction': 14}",
    )]


def test_routes_suite_names_a_route_of_the_wrong_shape(monkeypatch):
    def series(n_max):
        js = list(el.j_series(n_max))
        js[5] = (1, 14, 1, 1)  # J_5 is 1 + 14x + x^2
        return tuple(js)

    monkeypatch.setitem(el.J_ROUTES, "series", series)
    (result,) = suites.run_suite("routes", max_n=6)
    assert [(c.label, c.detail) for c in result.checks if not c.ok] == [
        ("series route shape", "route series: deg J_5 is 3, expected 2"),
        ("route agreement", "J_5 coefficient of x^3: {'operator': 0, 'recurrence': 0, "
                            "'viennot': 0, 'series': 1, 'fraction': 0}"),
    ]


@pytest.mark.parametrize("fault, detail", [
    ("raises", "seed vector 1 has a negative entry"),
    ("not increasing", "f_2 not alternatingly increasing"),
    ("negative gamma", "certificate mismatch at f_2"),
    ("other decomposition", "certificate mismatch at f_2"),
])
def test_closure_suite_names_each_kind_of_failure(monkeypatch, fault, detail):
    real = el.bi_gamma_closure

    def closure(gammas, weights, n_max):
        if fault == "raises":
            raise ValueError(detail)
        items = real(gammas, weights, n_max)
        item = items[2]
        if fault == "not increasing":
            item = item._replace(alternatingly_increasing=False)
        elif fault == "negative gamma":
            item = item._replace(gamma_a=gk.GammaVector(1, (-1,)))
        else:
            dec = item.decomposition
            item = item._replace(decomposition=dec._replace(a=(*dec.a, 1)))
        return items[:2] + [item] + items[3:]

    monkeypatch.setattr(el, "bi_gamma_closure", closure)
    (result,) = suites.run_suite("closure", max_n=3)
    assert len(result.checks) == suites.CLOSURE_INSTANCES
    assert {(c.ok, c.detail) for c in result.checks} == {(False, detail)}


# row 4 of the s triangle: (0,0) 1, (0,1) 14, (0,2) 1, (1,0) 4, (1,1) 4
@pytest.mark.parametrize("changed, missing, detail", [
    ((0, 1), (1, 0), "(4, 0, 1): trees 15 vs triangle 14"),
    ((1, 1), (0, 2), "(4, 0, 2): trees 0 vs triangle 1"),
])
def test_theorem13_suite_names_the_first_differing_cell(monkeypatch, changed,
                                                        missing, detail):
    from ellipta import treeoracle as to

    real = to.s_from_trees

    def s_from_trees(n, cap=to.DEFAULT_TREE_CAP, profiles=None):
        row = real(n, cap, profiles)
        if n != 4:
            return row
        row = dict(row)
        row[changed] += 1
        del row[missing]
        return row

    monkeypatch.setattr(to, "s_from_trees", s_from_trees)
    (result,) = suites.run_suite("theorem13", max_n=5)
    failed = [c for c in result.checks if not c.ok]
    assert [(c.label, c.detail) for c in failed] == [("s row 4 from trees", detail)]


@pytest.mark.slow
@pytest.mark.parametrize("name", ["thm1", "thm2"])
def test_certificate_suites_pass_through_150(name):
    (result,) = suites.run_suite(name, max_n=150)
    assert result.ok, [c for c in result.checks if not c.ok]
    assert len(result.checks) >= 150


@pytest.mark.parametrize("max_n, largest", [(1, 2), (2, 4), (6, 12)])
def test_thm2_builds_no_j_it_does_not_read(monkeypatch, max_n, largest):
    # thm2 reads J_0, J_2 .. J_largest: the even half to largest / 2, once
    even_asked = _recording(monkeypatch, "j_fraction_even")
    odd_asked = _recording(monkeypatch, "j_fraction_odd")
    (result,) = suites.run_suite("thm2", max_n=max_n)
    assert result.ok
    assert even_asked == [largest // 2]
    assert odd_asked == []


@pytest.mark.parametrize("max_n", [1, 2, 6])
def test_thm1_builds_no_j_it_does_not_read(monkeypatch, max_n):
    # thm1 reads J_1, J_3 .. J_{2 max_n + 1}: the odd half to max_n, once
    even_asked = _recording(monkeypatch, "j_fraction_even")
    odd_asked = _recording(monkeypatch, "j_fraction_odd")
    (result,) = suites.run_suite("thm1", max_n=max_n)
    assert result.ok
    assert odd_asked == [max_n]
    assert even_asked == []


@pytest.mark.parametrize("build, below, message", [
    *(pytest.param(build, -1, "n_max must be at least 0", id=f"route-{name}")
      for name, build in el.J_ROUTES.items()),
    *(pytest.param(build, below, "max_n must be at least 1", id=f"suite-{name}-{below}")
      for name, build in suites.SUITES.items() for below in (0, -1)),
])
def test_each_route_and_suite_rejects_n_below_its_range(build, below, message):
    # one contract: J routes start at J_0, suites at n = 1 (the CLI's
    # --max-n); below that each raises rather than passing on nothing
    with pytest.raises(ValueError, match=f"^{message}$"):
        build(below)


# The first n of each public function of elliptic, gammakit and treeoracle
# whose only required argument is an int; a new such function is added here.
FIRST_N = {
    "elliptic.elliptic_series": 1,
    "elliptic.gamma_bounds": 1,
    "elliptic.gamma_odd_lines": 1,
    "elliptic.gamma_triangle_recurrence": 1,
    "elliptic.j_even_decomposition": 0,
    "elliptic.j_even_decompositions": 0,
    "elliptic.j_fraction": 0,
    "elliptic.j_fraction_even": 0,
    "elliptic.j_fraction_odd": 0,
    "elliptic.j_operator": 0,
    "elliptic.j_poly": 0,
    "elliptic.j_recurrence": 0,
    "elliptic.j_sequence": 0,
    "elliptic.j_series": 0,
    "elliptic.j_viennot": 0,
    "elliptic.s_triangle_operator": 1,
    "elliptic.s_triangle_recurrence": 1,
    "elliptic.series_identity_checks": 1,
    "elliptic.t_poly": 1,
    "elliptic.t_polys_recurrence": 1,
    "elliptic.t_triangle_recurrence": 1,
    "treeoracle.g1_distribution": 0,
    "treeoracle.g2_distribution": 0,
    "treeoracle.lemma9_defects": 0,
    "treeoracle.p_bruteforce": 0,
    "treeoracle.s_from_trees": 0,
    "treeoracle.theta_table": 0,
    "treeoracle.tree_enumerate": 0,
    "treeoracle.tree_profiles": 0,
}


def _public_functions():
    """(module.name, function, its required parameters) of every public
    function of elliptic, gammakit and treeoracle."""
    for module in (el, gk, to):
        for name, fn in vars(module).items():
            if name.startswith("_") or not inspect.isfunction(fn):
                continue
            if fn.__module__ != module.__name__:
                continue
            required = [p for p in inspect.signature(fn).parameters.values()
                        if p.default is p.empty]
            yield f"{module.__name__.rsplit('.', 1)[1]}.{name}", fn, required


def _int_n_functions() -> dict:
    return {
        name: fn for name, fn, required in _public_functions()
        if len(required) == 1 and required[0].annotation in ("int", int)
    }


def test_the_range_sweep_covers_every_function_of_n():
    assert sorted(_int_n_functions()) == sorted(FIRST_N)


@pytest.mark.parametrize("name", sorted(FIRST_N))
def test_each_function_of_n_rejects_n_below_its_range(name):
    fn = _int_n_functions()[name]

    def run(n):
        result = fn(n)
        return list(result) if inspect.isgenerator(result) else result

    for below in range(-1, FIRST_N[name]):
        with pytest.raises(ValueError):
            run(below)
    run(FIRST_N[name])


# The first n of each public function of n and a triangle, one of its rows
# or a polynomial read off one (the "(n, triangle)" functions), with a
# builder of an argument that is valid at that n; a new such function is
# added here.
TRIANGLE_FIRST_N = {
    "elliptic.gamma_from_p": (1, lambda: el.p_poly(1, el.s_triangle_recurrence(1))),
    "elliptic.gamma_operator_expansion": (1, lambda: el.gamma_triangle_recurrence(1)),
    "elliptic.j_from_p": (0, lambda: el.s_triangle_recurrence(1)),
    "elliptic.j_odd_gamma": (0, lambda: el.gamma_triangle_recurrence(1)),
    "elliptic.p_poly": (1, lambda: el.s_triangle_recurrence(1)),
    "elliptic.s_poly": (1, lambda: el.s_triangle_recurrence(1)),
    "elliptic.t_poly_from_triangle": (1, lambda: el.t_triangle_recurrence(1)),
    "treeoracle.gamma_row_from_theta": (1, lambda: to.theta_table(1)),
    "treeoracle.theta_row_from_gamma": (1, lambda: el.gamma_triangle_recurrence(1)[1]),
}


def _n_triangle_functions() -> dict:
    """Each (n, triangle) function with the name of its other parameter."""
    found = {}
    for name, fn, required in _public_functions():
        ints = [p.name for p in required if p.annotation in ("int", int)]
        other = [p for p in required if p.annotation in ("dict", "MultiPoly")]
        if len(required) == 2 and ints == ["n"] and len(other) == 1:
            found[name] = fn, other[0].name
    return found


def test_the_range_sweep_covers_every_function_of_n_and_a_triangle():
    assert sorted(_n_triangle_functions()) == sorted(TRIANGLE_FIRST_N)


@pytest.mark.parametrize("name", sorted(TRIANGLE_FIRST_N))
def test_each_function_of_n_and_a_triangle_rejects_n_below_its_range(name):
    fn, other = _n_triangle_functions()[name]
    first, build = TRIANGLE_FIRST_N[name]
    argument = build()
    for below in range(-1, first):
        with pytest.raises(ValueError, match=f"^n must be at least {first}$"):
            fn(**{"n": below, other: argument})
    fn(**{"n": first, other: argument})


def _recording(monkeypatch, name, module=None):
    """Replace `<module>.<name>` (by default `el.<name>`) by a wrapper that
    records its first argument."""
    from ellipta import elliptic as el

    module = module or el
    asked = []
    real = getattr(module, name)

    def recording(n_max, *args, **kwargs):
        asked.append(n_max)
        return real(n_max, *args, **kwargs)

    monkeypatch.setattr(module, name, recording)
    return asked


def _recording_to_file(monkeypatch, name, path, module=None):
    """Replace `<module>.<name>` (by default `el.<name>`) by a wrapper that
    appends its first argument to the file at path, so that calls in a
    forked process are recorded too; returns a function that reads the
    arguments recorded so far."""
    from ellipta import elliptic as el

    module = module or el
    real = getattr(module, name)

    def recording(n_max, *args, **kwargs):
        with open(path, "a", encoding="ascii") as fh:
            fh.write(f"{n_max}\n")
        return real(n_max, *args, **kwargs)

    monkeypatch.setattr(module, name, recording)
    return lambda: [int(line) for line in path.read_text().split()] if path.exists() else []


def test_run_all_builds_each_shared_input_once(monkeypatch, tmp_path):
    # thm1 builds the odd half of the fraction route to m = 60 (J_121) and
    # thm2 the even half to m = 60 (J_120), once each; the routes suite
    # runs the whole fraction route to n = 24, which builds each half once
    # more, to 12 and 11. viennot-symmetry builds its own Viennot J's. The
    # routes suite reaches Viennot through J_ROUTES, which the patch does
    # not touch. Only corollary15 builds full gamma rows. lemma5 folds
    # T_0 .. T_8, and theorem13 and corollary15 read those folds.
    from ellipta import treeoracle as to

    even_asked = _recording_to_file(monkeypatch, "j_fraction_even", tmp_path / "even")
    odd_asked = _recording_to_file(monkeypatch, "j_fraction_odd", tmp_path / "odd")
    profiles_asked = _recording_to_file(
        monkeypatch, "tree_profiles", tmp_path / "profiles", to
    )
    viennot_asked = _recording_to_file(monkeypatch, "j_viennot", tmp_path / "viennot")
    gamma_asked = _recording_to_file(
        monkeypatch, "gamma_triangle_recurrence", tmp_path / "gamma"
    )
    results = suites.run_suite("all")
    assert all(r.ok for r in results)
    # the two processes append in either order
    assert sorted(even_asked()) == [12, 60]
    assert sorted(odd_asked()) == [11, 60]
    assert viennot_asked() == [121]
    assert gamma_asked() == [8]
    assert profiles_asked() == list(range(9))


@pytest.mark.parametrize("name, folds", [
    ("lemma5", list(range(9))),
    ("theorem13", list(range(1, 9))),
    ("corollary15", list(range(1, 9))),
])
def test_each_tree_suite_run_alone_folds_its_own_trees(capsys, monkeypatch, name,
                                                       folds):
    # `verify <name>` at its default range; a second run folds again
    from ellipta import treeoracle as to
    from ellipta.cli import main

    asked = _recording(monkeypatch, "tree_profiles", to)
    for _ in range(2):
        assert main(["verify", name]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[-1].startswith(f"suite {name}: PASS (")
    assert asked == folds + folds


def test_suites_that_share_an_input_run_in_one_process():
    # a unit runs in one process on one SuiteInputs. thm1 and thm2 share
    # the J's and the gamma lines; lemma5, theorem13 and corollary15 share
    # the tree profiles
    named = [name for _, unit in suites.UNITS for name in unit]
    assert set(named) <= set(suites.SUITES)
    assert len(named) == len(set(named))
    for sharing in ({"thm1", "thm2"}, {"lemma5", "theorem13", "corollary15"}):
        assert any(sharing <= set(unit) for _, unit in suites.UNITS), sharing


def test_units_are_listed_longest_first_and_dealt_in_that_order():
    costs = [ms for ms, _ in suites.UNITS]
    assert costs == sorted(costs, reverse=True)
    assert suites.unit_order()[: len(suites.UNITS)] == list(suites.UNITS)
    assert suites.split_units() == (
        [("dumont",), ("thm1", "thm2"), ("lemma5", "theorem13", "corollary15"),
         ("routes",)],
        [("lemma9",), ("viennot-symmetry",), ("closure",)],
    )


def test_split_units_deals_every_suite_once_longest_first():
    # the split depends on UNITS alone: the same on every call, each suite
    # in one process, and each process given work
    forked, own = suites.split_units()
    assert (forked, own) == suites.split_units()
    assert forked and own
    assert sorted(name for unit in forked + own for name in unit) == sorted(suites.SUITES)
    # longest first, each unit to the lighter process: the listed loads
    # differ by at most the largest listed cost
    costs = [ms for ms, _ in suites.unit_order()]
    assert costs == sorted(costs, reverse=True)
    cost = {unit: ms for ms, unit in suites.unit_order()}
    loads = [sum(cost[unit] for unit in side) for side in (forked, own)]
    assert abs(loads[0] - loads[1]) <= max(cost.values())


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_run_all_merges_both_processes_in_suites_order(fake_suites, forks, two_cpus):
    results = suites.run_suite("all")
    _assert_no_child_left()
    assert forks == [os.getpid()]
    assert [r.name for r in results] == list(suites.SUITES)
    pids = {r.name: r.scope for r in results}
    forked, own = ({pids[name] for unit in side for name in unit}
                   for side in suites.split_units())
    assert own == {f"pid {os.getpid()}"}
    assert len(forked) == 1 and forked != own


def test_a_suite_in_no_unit_runs_under_all_in_suites_order(fake_suites, monkeypatch):
    # a new suite needs a default range but no edit to UNITS
    def suite(max_n, inputs=None, seed=0):
        return suites.SuiteResult("new", f"n <= {max_n}", (suites.Check("new", True),))

    items = list(suites.SUITES.items())
    with_new = dict(items[:3] + [("new", suite)] + items[3:])
    monkeypatch.setattr(suites, "SUITES", with_new)
    monkeypatch.setitem(suites.SUITE_DEFAULT_RANGE, "new", 5)
    assert any(("new",) in side for side in suites.split_units())
    results = suites.run_suite("all")
    _assert_no_child_left()
    assert [r.name for r in results] == list(with_new)
    assert results[3] == suites.SuiteResult("new", "n <= 5", (suites.Check("new", True),))


def test_a_single_suite_never_forks(fake_suites):
    for name in ("dumont", "lemma9"):
        (result,) = suites.run_suite(name, max_n=1)
        assert result.scope == f"pid {os.getpid()}"


def test_run_all_runs_both_groups_here_without_fork(fake_suites, monkeypatch):
    # every unit runs here
    monkeypatch.delattr(os, "fork")
    results = suites.run_suite("all")
    assert [r.name for r in results] == list(suites.SUITES)
    assert {r.scope for r in results} == {f"pid {os.getpid()}"}


def test_verify_all_on_one_cpu_forks_nothing_and_prints_the_same(capsys, monkeypatch,
                                                                  forks):
    # under `taskset -c 0` too, where the real affinity call gives one CPU
    from ellipta.cli import main

    runs = []
    for cpus in ({0, 1}, {0}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        forks.clear()
        assert main(["verify", "all"]) == 0
        runs.append((list(forks), capsys.readouterr().out))
    (two_forks, two_out), (one_forks, one_out) = runs
    assert (two_forks, one_forks) == ([os.getpid()], [])
    assert one_out == two_out and two_out.endswith("suite closure: PASS (100 checks)\n")


@pytest.mark.parametrize("how, raised, message", [
    ("ValueError", ValueError, "fake suite failed"),
    ("SystemExit", RuntimeError, "forked peer raised SystemExit: 4"),
    ("KeyboardInterrupt", RuntimeError, "forked peer raised KeyboardInterrupt"),
    ("os._exit", RuntimeError, "forked peer exited with status 3"),
])
def test_a_failure_in_the_forked_group_raises_here(fake_suites, forks, two_cpus, how,
                                                   raised, message):
    fake_suites(child=how)
    with pytest.raises(raised, match=f"^{re.escape(message)}$"):
        suites.run_suite("all")
    assert forks == [os.getpid()]
    _assert_no_child_left()


class _TwoArgError(Exception):
    """Pickles but does not unpickle: its args hold one joined message."""

    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def test_an_exception_that_does_not_unpickle_comes_back_by_name(fake_suites, two_cpus):
    fake_suites(child=_TwoArgError("this", "that"))
    with pytest.raises(RuntimeError, match="^forked peer raised _TwoArgError: this and that$"):
        suites.run_suite("all")
    _assert_no_child_left()


@pytest.mark.parametrize("how", ["ValueError", "KeyboardInterrupt"])
def test_a_failure_here_kills_the_forked_group(fake_suites, forks, two_cpus, how):
    # the child would run for a minute; the caller's own failure must not
    # wait for it
    import time

    fake_suites(child="hang", caller=how)
    start = time.monotonic()
    with pytest.raises(ValueError if how == "ValueError" else KeyboardInterrupt):
        suites.run_suite("all")
    assert time.monotonic() - start < 30
    assert forks == [os.getpid()]
    _assert_no_child_left()


def test_shared_inputs_do_not_outlive_a_run(monkeypatch):
    odd_asked = _recording(monkeypatch, "j_fraction_odd")
    lines_asked = _recording(monkeypatch, "gamma_odd_lines")
    for _ in range(2):
        (result,) = suites.run_suite("thm1", max_n=3)
        assert result.ok
    assert odd_asked == [3, 3]
    assert lines_asked == [7, 7]


def test_suite_inputs_rebuild_only_for_a_larger_n(monkeypatch):
    even_asked = _recording(monkeypatch, "j_fraction_even")
    odd_asked = _recording(monkeypatch, "j_fraction_odd")
    lines_asked = _recording(monkeypatch, "gamma_odd_lines")
    inputs = suites.SuiteInputs()
    for n in (5, 3, 9, 9):
        assert len(inputs.half(el.j_fraction_odd, n)) > n
        assert max(inputs.gamma_lines(n)) >= n - 1
    # each half is held on its own: the odd build does not serve the even
    for n in (2, 7, 4):
        assert len(inputs.half(el.j_fraction_even, n)) > n
    assert odd_asked == lines_asked == [5, 9]
    assert even_asked == [2, 7]


@pytest.mark.parametrize("name", ["thm1", "thm2"])
def test_certificate_suites_build_no_viennot_j(monkeypatch, name):
    # thm1 and thm2 check their certificates against the fraction route
    from ellipta import elliptic as el

    def built(n_max):
        raise AssertionError("Viennot J's built by a certificate suite")

    monkeypatch.setattr(el, "j_viennot", built)
    (result,) = suites.run_suite(name, max_n=6)
    assert result.ok


def test_suite_inputs_serve_a_smaller_ask_with_the_same_lines():
    # lines built to 81 are cut deeper at each row than lines built to 21,
    # but their i = 0 lines agree
    from ellipta import elliptic as el

    inputs = suites.SuiteInputs()
    big = inputs.gamma_lines(81)
    assert inputs.gamma_lines(21) is big
    small = el.gamma_odd_lines(21)
    assert {n: big[n] for n in small} == small
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


def _private_reads(source: str):
    """The modules that `source` imports as `from . import m`, and each of
    its reads of another `ellipta` module's private name: `from .m import _x`
    and `m._x`."""
    tree = ast.parse(source)
    relative = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
    ]
    modules = {a.asname or a.name for n in relative if not n.module for a in n.names}
    reads = [
        f"from .{node.module} import {alias.name} (line {node.lineno})"
        for node in relative
        if node.module
        for alias in node.names
        if alias.name.startswith("_")
    ] + [
        f"{node.value.id}.{node.attr} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
        and node.attr.startswith("_")
    ]
    return modules, reads


def test_suites_read_no_private_name_of_another_module():
    # suites drives the other modules through their public functions only
    modules, private = _private_reads(Path(suites.__file__).read_text())
    assert {"el", "gk", "gc", "to"} <= modules
    assert not private, private


def test_no_module_reads_a_private_name_of_another():
    # the probe sees both forms of a read
    _, reads = _private_reads(
        "from . import elliptic as el\n"
        "from .elliptic import _s_bounds, gamma_bounds\n"
        "el._stencil_rows\n"
    )
    assert reads == ["from .elliptic import _s_bounds (line 2)",
                     "el._stencil_rows (line 3)"]
    package = Path(suites.__file__).parent
    sources = sorted(package.glob("*.py"))
    assert {p.stem for p in sources} >= {"cli", "elliptic", "suites", "treeoracle"}
    private = {p.stem: _private_reads(p.read_text())[1] for p in sources}
    assert not {m: r for m, r in private.items() if r}, private

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


def test_run_all_builds_each_shared_input_once(monkeypatch):
    # viennot-symmetry asks for J_0 .. J_121 first and thm1 and thm2 read
    # that build; the routes suite reaches j_viennot through J_ROUTES, which
    # the patch does not touch. Only corollary15 builds full gamma rows.
    js_asked = _recording(monkeypatch, "j_viennot")
    gamma_asked = _recording(monkeypatch, "gamma_triangle_recurrence")
    results = suites.run_suite("all")
    assert all(r.ok for r in results)
    assert js_asked == [121]
    assert gamma_asked == [8]


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

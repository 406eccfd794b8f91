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

"""The helper scripts under scripts/ run end to end and report agreement."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_reproduce_tables():
    # the script asserts that every route agrees on every J it prints
    out = run_script("reproduce_tables.py")
    assert "  J_8 = 1 + 408x + 912x^2 + 64x^3\n" in out
    assert "  P_3 = 1 + q + 4p\n" in out
    assert "  t_4 = 1 + 3y + x\n" in out
    assert "  b = 63 + 567x + 63x^2  gammas (63, 441)\n" in out


def load_timings():
    spec = importlib.util.spec_from_file_location("timings", SCRIPTS / "timings.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("section, n, labels", [
    ("routes", "12", ("operator", "recurrence", "viennot", "series", "fraction")),
    ("certify", "6", ("j_fraction_odd(6)", "j_fraction_even(6)",
                      "gamma_odd_lines(13)", "j_even_decompositions(5)",
                      "suite_thm1(6)", "suite_thm2(6)")),
    ("oracle", "5", ("g2_distribution(5)", "s_from_trees(5)", "theta_table(5)",
                     "p_bruteforce(6)", "suite_lemma9(4)")),
    ("suites", "4", ("dumont(4)", "viennot-symmetry(4)", "thm1(4)", "routes(4)")),
], ids=["routes", "certify", "oracle", "suites"])
def test_timings_section_times_each_stage_and_holds(section, n, labels):
    out = run_script("timings.py", section, n)
    assert out.endswith("every check holds\n")
    for label in labels:
        assert re.search(rf"^ *{re.escape(label)}: +[0-9.]+ ms", out, re.M), label


def test_timings_suites_sum_each_unit_in_listed_order():
    from ellipta import suites

    out = run_script("timings.py", "suites", "4")
    assert out.count("  PASS\n") == 10
    # one sum per unit, longest listed cost first, then the total; sums are
    # printed rounded to 0.1 ms
    suite_ms = {name: float(ms) for name, ms in
                re.findall(r"^ *([\w-]+)\(4\): +([0-9.]+) ms  PASS$", out, re.M)}
    lines = re.findall(r"^unit (.+): +([0-9.]+) ms \(listed (\d+) ms\)$", out, re.M)
    assert [(int(cost), tuple(unit.split(", "))) for unit, _, cost in lines] == (
        suites.unit_order())
    units = [(unit.split(", "), float(ms)) for unit, ms, _ in lines]
    for unit, ms in units:
        assert abs(ms - sum(suite_ms[name] for name in unit)) <= 0.05 * (len(unit) + 1)
    (total,) = re.findall(r"^total: +([0-9.]+) ms$", out, re.M)
    assert abs(float(total) - sum(ms for _, ms in units)) <= 0.05 * (len(units) + 1)
    # a unit that took longer than the one listed before it is named
    named = re.findall(r"^out of order: (.+) took longer than (.+)$", out, re.M)
    for (before, before_ms), (unit, ms) in zip(units, units[1:]):
        pair = (", ".join(unit), ", ".join(before))
        if ms > before_ms + 0.1:
            assert pair in named
        elif ms < before_ms - 0.1:
            assert pair not in named


def test_timings_names_a_failed_suite_and_exits_1(monkeypatch, capsys):
    from ellipta import suites

    def failing(max_n, inputs=None):
        return suites.SuiteResult("lemma5", f"n <= {max_n}",
                                  (suites.Check("fake", False),))

    monkeypatch.setitem(suites.SUITES, "lemma5", failing)
    assert load_timings().main(["suites", "2"]) == 1
    out = capsys.readouterr().out
    assert "lemma5(2):" in out and "  FAIL\n" in out
    assert out.endswith("FAILED: lemma5\n")


def test_timings_counts_a_misshapen_route_as_a_failed_check(monkeypatch, capsys):
    from ellipta import elliptic as el

    timings = load_timings()
    monkeypatch.setitem(el.J_ROUTES, "operator", lambda n_max: (el.UNI_ONE,) * (n_max + 1))
    assert timings.main(["routes", "4"]) == 1
    out = capsys.readouterr().out
    assert out.endswith("FAILED: route operator: deg J_3 is 0, expected 1\n")


USAGE_ERRORS = [
    (("routes", "x"), "error: n must be an integer, got 'x'"),
    (("routes", "-1"), "error: routes needs n >= 0, got -1"),
    (("bogus",), "usage: timings.py {routes,certify,oracle,suites} [n]"),
    ((), "usage: timings.py {routes,certify,oracle,suites} [n]"),
    (("oracle", "9"), "error: oracle needs n <= 8 to stay within the default "
                      "enumeration caps, got 9"),
    (("oracle", "1"), "error: oracle needs n >= 2, got 1"),
    (("certify", "0"), "error: certify needs n >= 1, got 0"),
    (("suites", "0"), "error: suites needs n >= 1, got 0"),
]


@pytest.mark.parametrize("args, message", USAGE_ERRORS,
                         ids=[" ".join(args) or "no-args" for args, _ in USAGE_ERRORS])
def test_timings_usage_error_exits_2_before_timing(args, message):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "timings.py"), *args],
        capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", message + "\n")


@pytest.mark.slow
def test_output_digests_are_stable():
    first = run_script("output_digests.py")
    lines = first.splitlines()
    assert len(lines) > 60
    for line in lines:
        digest, invocation = line.split("  ", 1)
        assert len(digest) == 64 and int(digest, 16) >= 0
        assert "(exit" not in invocation
    assert "DIR/s.jsonl" in first and "compute j --n 120 --route series" in first
    # no temporary path or timing leaks into the digests
    assert run_script("output_digests.py") == first

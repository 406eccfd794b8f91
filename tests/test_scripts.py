"""The helper scripts under scripts/ run end to end and report agreement."""

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


def test_route_timings_agree():
    out = run_script("route_timings.py", "12")
    assert "all routes agree through n = 12" in out
    for route in ("operator", "recurrence", "viennot", "series", "fraction"):
        assert f"{route}:" in out


def test_oracle_timings_agree():
    out = run_script("oracle_timings.py", "5")
    assert "all oracles agree with the s and gamma recurrences and G2 at n = 5" in out
    for label in ("g2_distribution(5)", "s_from_trees(5)", "theta_table(5)",
                  "p_bruteforce(6)", "suite_lemma9(4)"):
        assert f"{label}:" in out


def test_certify_timings_hold():
    out = run_script("certify_timings.py", "6")
    assert "thm1 and thm2 certificates hold through n = 6" in out
    for label in ("j_fraction(13)", "gamma_odd_lines(13)",
                  "j_even_decompositions(5)", "suite_thm1(6)", "suite_thm2(6)"):
        assert f"{label}:" in out


def test_suite_timings_pass_and_name_both_groups():
    from ellipta import suites

    out = run_script("suite_timings.py", "4")
    assert out.endswith("every suite passes\n")
    assert "dumont(4):" in out and "viennot-symmetry(4):" in out
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

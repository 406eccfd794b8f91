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
    out = run_script("suite_timings.py", "4")
    assert out.endswith("every suite passes\n")
    assert "dumont(4) forked:" in out and "viennot-symmetry(4) caller:" in out
    assert "forked group:" in out and "caller group:" in out
    assert out.count("  PASS\n") == 10
    # the critical path is the larger group sum, and the gap is measured
    # against it
    sums = {g: float(ms) for g, ms in
            re.findall(r"^(forked|caller) group: +([0-9.]+) ms$", out, re.M)}
    ((slow, gap, pct, fast),) = re.findall(
        r"^critical path: (\w+) group, ([0-9.]+) ms \(([0-9.]+)%\)"
        r" over the (\w+) group$", out, re.M)
    assert {slow, fast} == set(sums) and sums[slow] >= sums[fast] - 0.1
    # the printed sums are rounded to 0.1 ms
    assert abs(float(gap) - (sums[slow] - sums[fast])) <= 0.15
    assert abs(float(pct) - 100 * float(gap) / sums[slow]) <= 0.1 + 10 / sums[slow]


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

#!/usr/bin/env python3
"""Time the builders behind the theorem certificates and confirm the
certificates hold.

Usage: python scripts/certify_timings.py [n]

n defaults to 80, the size of `verify thm1` and `verify thm2` in the
certify benchmark, which makes the sizes j_fraction(161) (the J's the
certificates are checked against), gamma_odd_lines(161) and
j_even_decompositions(79). The script exits 1 unless suite_thm1(n) and
suite_thm2(n) pass.
"""

import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ellipta import elliptic as el
from ellipta import suites


def timed(label, fn, *args):
    t0 = perf_counter()
    result = fn(*args)
    print(f"{label:>26}: {(perf_counter() - t0) * 1000:8.1f} ms")
    return result


def main():
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 80
    timed(f"j_fraction({2 * n + 1})", el.j_fraction, 2 * n + 1)
    lines = timed(f"gamma_odd_lines({2 * n + 1})", el.gamma_odd_lines, 2 * n + 1)
    timed(f"j_even_decompositions({n - 1})", el.j_even_decompositions, n - 1, lines)
    failed = [
        result.name
        for result in (
            timed(f"suite_thm1({n})", suites.suite_thm1, n),
            timed(f"suite_thm2({n})", suites.suite_thm2, n),
        )
        if not result.ok
    ]
    if failed:
        print(f"FAILED: {', '.join(failed)}")
        return 1
    print(f"thm1 and thm2 certificates hold through n = {n}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Time the code behind the paper's claims, stage by stage, and check it.

Usage: python scripts/timings.py {routes,certify,oracle,suites} [n]

  routes   every J route to n (default 120, the size of the jroutes
           benchmark: below about 100 the timings measure interpreter
           overhead rather than bigint work); each route's shape must hold
           and the routes must agree.
  certify  the builders behind `verify thm1` and `verify thm2` at n
           (default 80, as in the certify benchmark): j_fraction_odd(n),
           the J's that thm1 reads, j_fraction_even(n), those of thm2,
           gamma_odd_lines(2n + 1) and j_even_decompositions(n - 1), then
           suite_thm1(n) and suite_thm2(n), which must pass.
  oracle   the brute-force oracles on trees of size n and permutations of
           size n + 1 (default 8, the tree size of the oracle benchmark),
           and suite_lemma9(n - 1); each must agree with the s and gamma
           recurrences and, for g2_distribution, with the grammar G2.
           The library's default enumeration caps bound n.
  suites   each unit of `verify all` in process, in the order they are
           dealt to its two processes (`suites.unit_order()`: longest listed
           cost first), every suite at its default range or at n if that is
           smaller; the suites of a unit share one SuiteInputs, as they do
           there. Each unit's sum is printed next to its cost in
           `suites.UNITS`, and a unit that took longer than the one listed
           before it is named: a hint to update those costs.

The script ends with one verdict line and exits 0 when every check holds,
1 when one fails, and 2 on a usage error, before anything is timed.
"""

import sys
from itertools import islice
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ellipta import elliptic as el
from ellipta import grammarcalc as gc
from ellipta import suites
from ellipta import treeoracle as to


def timed(label, fn, *args, tail=lambda result: ""):
    """fn(*args) and its wall time in ms, printed after label."""
    t0 = perf_counter()
    result = fn(*args)
    ms = (perf_counter() - t0) * 1000
    print(f"{label:>26}: {ms:8.1f} ms{tail(result)}")
    return result, ms


def verdict(result) -> str:
    return "  PASS" if result.ok else "  FAIL"


def routes(n: int) -> list:
    failed, seqs = [], {}
    for route in el.J_ROUTES:
        js, _ = timed(route, el.j_sequence, n, route)
        try:
            el.validate_j_sequence(route, js)
        except ValueError as exc:
            failed.append(str(exc))
        else:
            seqs[route] = js
    mismatch = seqs and el.first_route_mismatch(seqs)
    if mismatch:
        m, e, vals = mismatch
        failed.append(f"routes disagree at J_{m}, x^{e}: {vals}")
    return failed


def certify(n: int) -> list:
    timed(f"j_fraction_odd({n})", el.j_fraction_odd, n)
    timed(f"j_fraction_even({n})", el.j_fraction_even, n)
    lines, _ = timed(f"gamma_odd_lines({2 * n + 1})", el.gamma_odd_lines, 2 * n + 1)
    timed(f"j_even_decompositions({n - 1})", el.j_even_decompositions, n - 1, lines)
    return [
        result.name
        for result, _ in (
            timed(f"suite_thm1({n})", suites.suite_thm1, n, tail=verdict),
            timed(f"suite_thm2({n})", suites.suite_thm2, n, tail=verdict),
        )
        if not result.ok
    ]


def oracle(n: int) -> list:
    g2, _ = timed(f"g2_distribution({n})", to.g2_distribution, n)
    s, _ = timed(f"s_from_trees({n})", to.s_from_trees, n)
    theta, _ = timed(f"theta_table({n})", to.theta_table, n)
    p, _ = timed(f"p_bruteforce({n + 1})", to.p_bruteforce, n + 1)
    lemma9, _ = timed(f"suite_lemma9({n - 1})", suites.suite_lemma9, n - 1, tail=verdict)
    s_tri = el.s_triangle_recurrence(n + 1)
    _, gamma_row = next(islice(el.gamma_rows_recurrence(), n - 1, None))
    checks = {
        "g2_distribution vs G2 (Lemma 5)": g2 == gc.iterate(gc.G2, gc.G2.seed("x"), n),
        "s_from_trees vs s": s == s_tri[n],
        "theta_table vs gamma": to.gamma_row_from_theta(n, theta) == gamma_row,
        "p_bruteforce vs s": p == el.p_poly(n + 1, s_tri),
        "suite_lemma9": lemma9.ok,
    }
    return [label for label, ok in checks.items() if not ok]


def units(cap) -> list:
    failed, total, before = [], 0.0, None
    for cost, unit in suites.unit_order():
        inputs, unit_ms, label = suites.SuiteInputs(), 0.0, ", ".join(unit)
        for name in unit:
            n = suites.SUITE_DEFAULT_RANGE[name]
            if cap is not None:
                n = min(n, cap)
            result, ms = timed(f"{name}({n})", suites.SUITES[name], n, inputs,
                               tail=verdict)
            unit_ms += ms
            if not result.ok:
                failed.append(name)
        print(f"unit {label}: {unit_ms:8.1f} ms (listed {cost} ms)")
        if before and unit_ms > before[1]:
            print(f"out of order: {label} took longer than {before[0]}")
        total, before = total + unit_ms, (label, unit_ms)
    print(f"total: {total:8.1f} ms")
    return failed


# section -> (function of n, default n, first valid n, last valid n or None).
# The oracle enumerates trees of size n and permutations of size n + 1 under
# the library's default caps.
SECTIONS = {
    "routes": (routes, 120, 0, None),
    "certify": (certify, 80, 1, None),
    "oracle": (oracle, 8, 2, min(to.DEFAULT_TREE_CAP, to.DEFAULT_PERM_CAP - 1)),
    "suites": (units, None, 1, None),
}
USAGE = f"usage: timings.py {{{','.join(SECTIONS)}}} [n]"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not 1 <= len(argv) <= 2 or argv[0] not in SECTIONS:
        print(USAGE, file=sys.stderr)
        return 2
    section, n, first, last = SECTIONS[argv[0]]
    if len(argv) == 2:
        try:
            n = int(argv[1])
        except ValueError:
            print(f"error: n must be an integer, got {argv[1]!r}", file=sys.stderr)
            return 2
        if n < first:
            print(f"error: {argv[0]} needs n >= {first}, got {n}", file=sys.stderr)
            return 2
        if last is not None and n > last:
            print(f"error: {argv[0]} needs n <= {last} to stay within the default "
                  f"enumeration caps, got {n}", file=sys.stderr)
            return 2
    failed = section(n)
    if failed:
        print(f"FAILED: {', '.join(failed)}")
        return 1
    print("every check holds")
    return 0


if __name__ == "__main__":
    sys.exit(main())

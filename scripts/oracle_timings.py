#!/usr/bin/env python3
"""Time the brute-force oracles and confirm they agree with the recurrences
and, for the six-letter tree distribution, with the grammar G2.

Usage: python scripts/oracle_timings.py [n]

Trees are enumerated at size n, permutations at n + 1 and the lemma9 suite
runs to n - 1. n defaults to 8, the tree size of the oracle benchmark, which
makes the sizes g2_distribution(8), s_from_trees(8), theta_table(8),
p_bruteforce(9) and suite_lemma9(7).
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


def timed(label, fn, *args):
    t0 = perf_counter()
    result = fn(*args)
    print(f"{label:>20}: {(perf_counter() - t0) * 1000:8.1f} ms")
    return result


def main():
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 8
    cap = n + 1
    g2 = timed(f"g2_distribution({n})", to.g2_distribution, n, cap)
    s = timed(f"s_from_trees({n})", to.s_from_trees, n, cap)
    theta = timed(f"theta_table({n})", to.theta_table, n, cap)
    p = timed(f"p_bruteforce({n + 1})", to.p_bruteforce, n + 1, cap)
    lemma9 = timed(f"suite_lemma9({n - 1})", suites.suite_lemma9, n - 1)

    s_tri = el.s_triangle_recurrence(n + 1)
    _, gamma_row = next(islice(el.gamma_rows_recurrence(), n - 1, None))
    disagree = [
        label
        for label, ok in (
            ("g2_distribution vs G2 (Lemma 5)",
             g2 == gc.iterate(gc.G2, gc.G2.seed("x"), n)),
            ("s_from_trees vs s", s == s_tri[n]),
            ("theta_table vs gamma",
             to.gamma_row_from_theta(n, theta) == gamma_row),
            ("p_bruteforce vs s", p == el.p_poly(n + 1, s_tri)),
            ("suite_lemma9", lemma9.ok),
        )
        if not ok
    ]
    if disagree:
        print(f"DISAGREEMENT: {', '.join(disagree)}")
        return 1
    print(f"all oracles agree with the s and gamma recurrences and G2 at n = {n}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

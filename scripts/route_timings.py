#!/usr/bin/env python3
"""Time every J route side by side and confirm they agree.

Usage: python scripts/route_timings.py [max_n]

max_n defaults to 120, the size of the jroutes benchmark: below about 100
the timings measure interpreter overhead rather than bigint work.
"""

import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ellipta import elliptic as el


def main():
    max_n = int(sys.argv[1]) if len(sys.argv) > 1 else 120
    seqs = {}
    for route in el.J_ROUTES:
        t0 = perf_counter()
        seqs[route] = js = el.j_sequence(max_n, route)
        elapsed = perf_counter() - t0
        el.validate_j_sequence(route, js)
        print(f"{route:>10}: {elapsed * 1000:8.1f} ms")
    mismatch = el.first_route_mismatch(seqs)
    if mismatch:
        n, e, vals = mismatch
        print(f"DISAGREEMENT at J_{n}, x^{e}: {vals}")
        return 1
    print(f"all routes agree through n = {max_n}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

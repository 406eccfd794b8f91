#!/usr/bin/env python3
"""Time each suite of `verify all` in process, by the group it runs in.

Usage: python scripts/suite_timings.py [max_n]

Each suite runs at min(its default range, max_n); with no max_n, at its
default range, as `verify all` runs it. `verify all` runs the suites of
`suites.FORKED_SUITES` in a forked process and the rest in the caller, so
the script prints each suite's group and the sum of each group: the two
sums should be about equal. The suites of one group share one SuiteInputs,
as they do in `verify all`. The script exits 1 unless every suite passes.
"""

import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ellipta import suites


def main():
    max_n = int(sys.argv[1]) if len(sys.argv) > 1 else None
    inputs = {"forked": suites.SuiteInputs(), "caller": suites.SuiteInputs()}
    totals = dict.fromkeys(inputs, 0.0)
    failed = []
    for name, suite in suites.SUITES.items():
        n = suites.SUITE_DEFAULT_RANGE[name]
        if max_n is not None:
            n = min(n, max_n)
        group = "forked" if name in suites.FORKED_SUITES else "caller"
        t0 = perf_counter()
        result = suite(n, inputs[group])
        ms = (perf_counter() - t0) * 1000
        totals[group] += ms
        print(f"{name:>16}({n}) {group:>6}: {ms:8.1f} ms  "
              f"{'PASS' if result.ok else 'FAIL'}")
        if not result.ok:
            failed.append(name)
    for group, ms in totals.items():
        print(f"{group} group: {ms:8.1f} ms")
    if failed:
        print(f"FAILED: {', '.join(failed)}")
        return 1
    print("every suite passes")
    return 0


if __name__ == "__main__":
    sys.exit(main())

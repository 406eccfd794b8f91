#!/usr/bin/env python3
"""Time each unit of `verify all` in process, longest listed cost first.

Usage: python scripts/suite_timings.py [max_n]

Each suite runs at min(its default range, max_n); with no max_n, at its
default range, as `verify all` runs it, and the suites of a unit share one
SuiteInputs, as they do there. The script prints each suite's time, each
unit's sum next to its cost in `suites.UNITS` and the total, and names
every unit that took longer than the unit listed before it: a hint to
update the costs in `suites.UNITS`. It exits 1 unless every suite passes.
"""

import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ellipta import suites


def main():
    max_n = int(sys.argv[1]) if len(sys.argv) > 1 else None
    failed, total, before = [], 0.0, None
    for cost, unit in suites.unit_order():
        inputs, unit_ms, label = suites.SuiteInputs(), 0.0, ", ".join(unit)
        for name in unit:
            n = suites.SUITE_DEFAULT_RANGE[name]
            if max_n is not None:
                n = min(n, max_n)
            t0 = perf_counter()
            result = suites.SUITES[name](n, inputs)
            ms = (perf_counter() - t0) * 1000
            unit_ms += ms
            print(f"{name:>16}({n}): {ms:8.1f} ms  "
                  f"{'PASS' if result.ok else 'FAIL'}")
            if not result.ok:
                failed.append(name)
        print(f"unit {label}: {unit_ms:8.1f} ms (listed {cost} ms)")
        if before and unit_ms > before[1]:
            print(f"out of order: {label} took longer than {before[0]}")
        total, before = total + unit_ms, (label, unit_ms)
    print(f"total: {total:8.1f} ms")
    if failed:
        print(f"FAILED: {', '.join(failed)}")
        return 1
    print("every suite passes")
    return 0


if __name__ == "__main__":
    sys.exit(main())

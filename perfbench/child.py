"""Run one ellipta CLI invocation in a fresh interpreter, for the benchmark.

Usage: python3 perfbench/child.py REPORT MODE -- ARGV...

MODE is "run" (call `cli.main(ARGV)`) or "trace" (the same, with the layer
tracing of tracing.py installed).
Writes a JSON report to REPORT holding "ready", the CLOCK_MONOTONIC time at
which `ellipta.cli` had been imported, and for "trace" the span counters.
Exits with the CLI's exit code.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ellipta import cli  # noqa: E402

READY = time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> int:
    import json  # after READY: only the CLI's own import counts as set-up

    report_path, mode = sys.argv[1], sys.argv[2]
    argv = sys.argv[sys.argv.index("--") + 1:]
    report = {"ready": READY}
    try:
        if mode == "run":
            return cli.main(argv)
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            return cli.main(argv)
        finally:
            report["trace"] = tracer.snapshot()
    finally:
        sys.stdout.flush()
        with open(report_path, "w", encoding="ascii") as fh:
            json.dump(report, fh)


if __name__ == "__main__":
    sys.exit(main())

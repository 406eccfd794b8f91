#!/usr/bin/env python3
"""Print the sha256 of the stdout of a fixed list of CLI invocations, and of
every cache file they write or read, one `digest  invocation` line each.

Run it on two checkouts and `diff` the outputs: equal lines mean
byte-identical output. The cache commands run in a temporary directory,
shown as DIR.

Usage: python scripts/output_digests.py
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ellipta.cli import main as cli_main

FORMATS = ("json", "csv", "text")
# s and gamma by both flags: --max-n takes rows 1 .. n of a row stream,
# --n picks row n alone out of it
COMPUTE = (
    [(t, flag, "30", r)
     for t in ("s", "gamma")
     for flag in ("--max-n", "--n")
     for r in ("recurrence", "operator")]
    + [(t, flag, "7", "trees") for t in ("s", "gamma") for flag in ("--max-n", "--n")]
    + [("t", "--n", "30", r) for r in ("recurrence", "poly")]
    + [("p", "--n", n, r) for n in ("30", "120") for r in ("recurrence", "operator")]
    + [("theta", flag, n, "trees") for flag, n in (("--n", "7"), ("--max-n", "8"))]
)
CACHE_TARGETS = ("s", "gamma", "t", "theta")


def invocations():
    for target, flag, n, route in COMPUTE:
        for fmt in FORMATS:
            yield ["compute", target, flag, n, "--route", route, "--format", fmt]
    for route in ("operator", "recurrence", "viennot", "series", "fraction"):
        yield ["compute", "j", "--n", "120", "--route", route]
    yield ["compute", "j", "--n", "120"]  # the default route
    for fmt in ("csv", "text"):
        yield ["compute", "j", "--n", "120", "--format", fmt]
    yield ["compute", "decompose", "--n", "100"]
    yield ["compute", "decompose", "--n", "8", "--format", "text"]
    yield ["compute", "closure", "--max-n", "4", "--format", "text"]
    # every item's gamma_a, gamma_b and decomposition
    yield ["compute", "closure", "--max-n", "12", "--seed", "5"]
    for suite in ("all", "thm1", "thm2"):
        yield ["verify", suite]
    yield ["verify", "closure", "--max-n", "4", "--seed", "3"]
    # each write is followed by reads of the file it wrote, in all formats;
    # a read before a target's first write finds no file, and a read of 40
    # rows after its default write finds a short file: both rebuild it
    for target in CACHE_TARGETS:
        yield cache("read", target)
        for rows in ((), ("--max-n", "40")):
            yield cache("write", target, *rows)
            for fmt in ((), ("--format", "csv"), ("--format", "text")):
                yield cache("read", target, *rows, *fmt)
            if not rows:
                yield cache("read", target, "--max-n", "40")


def cache(action, target, *options):
    return ["cache", action, "--target", target, *options, "--cache-dir", "DIR"]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main():
    with tempfile.TemporaryDirectory() as cache_dir:
        for argv in invocations():
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli_main([cache_dir if a == "DIR" else a for a in argv])
            # the cache write message names the file, so compare it with DIR
            text = out.getvalue().replace(cache_dir, "DIR")
            line = f"{sha256(text.encode('ascii'))}  {' '.join(argv)}"
            print(line if code == 0 else f"{line}  (exit {code})")
            if argv[0] == "cache":
                name = f"{argv[3]}.jsonl"
                data = Path(cache_dir, name).read_bytes()
                print(f"{sha256(data)}  DIR/{name}")


if __name__ == "__main__":
    main()

"""Command-line front end.

Three verbs: `compute` emits polynomials and triangles, `verify` replays the
named cross-check suites, `cache` persists triangles as JSON-lines files.
Stdout carries data; stderr carries logs and warnings. Exit codes: 0 on
success, 1 on verification or I/O failure, 2 on usage errors (including
exceeded enumeration caps).

Identical invocations produce byte-identical output: every emitted
collection is sorted, and randomized paths take an explicit --seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import count, islice

from . import elliptic as el
from . import gammakit as gk
from . import suites as vsuites
from . import treeoracle as to
from .exactpoly import (
    MultiPoly,
    uni_to_json,
    uni_to_text,
)

CACHE_ENV = "ELLIPTA_CACHE_DIR"
CACHE_DEFAULT_ROWS = {"s": 12, "gamma": 12, "t": 12, "theta": 7}

J_ROUTES = tuple(el.J_ROUTES)
P_ROUTES = ("operator", "recurrence")
T_ROUTES = ("recurrence", "poly")


def _stream(rows):
    """A row generator from row 1 on as a row source; skips rows < first."""
    return lambda first, cap: islice(rows(), first - 1, None)


def _enumerated(row_of):
    """A tree enumeration as a row source; only the rows taken are built."""
    return lambda first, cap: ((n, row_of(n, cap)) for n in count(first))


def _gamma_rows_operator():
    """Gamma rows peeled out of P_n, row n of the operator's s triangle."""
    for n, row in el.s_rows_operator():
        yield n, el.gamma_from_p(n, el.p_poly(n, el.Triangle({n: row}))).row(n)


# (target, route) -> source(first, cap), an endless (n, row) iterator from `first`
ROW_SOURCES = {
    ("s", "operator"): _stream(el.s_rows_operator),
    ("s", "recurrence"): _stream(el.s_rows_recurrence),
    ("s", "trees"): _enumerated(lambda n, cap: to.s_from_trees(n, cap=cap).row(n)),
    ("gamma", "recurrence"): _stream(el.gamma_rows_recurrence),
    ("gamma", "operator"): _stream(_gamma_rows_operator),
    ("gamma", "trees"): _enumerated(
        lambda n, cap: to.gamma_row_from_theta(n, to.theta_table(n, cap=cap).row(n))
    ),
    ("t", "recurrence"): _stream(el.t_rows_recurrence),
    ("theta", "trees"): _enumerated(lambda n, cap: to.theta_table(n, cap=cap).row(n)),
}
# The route of each triangle target when none is named, and of its cache file
DEFAULT_ROUTES = {"s": "recurrence", "gamma": "recurrence", "t": "recurrence",
                  "theta": "trees"}
CACHE_TARGETS = tuple(DEFAULT_ROUTES)


def _warn(msg: str):
    print(f"warning: {msg}", file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ellipta",
        description=(
            "Exact Taylor coefficients of the Jacobian elliptic functions, "
            "their gamma-positivity certificates, and the combinatorial "
            "verification suites."
        ),
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    comp = sub.add_parser("compute", help="emit a polynomial or triangle")
    comp.add_argument(
        "target",
        choices=("j", "p", "s", "t", "gamma", "theta", "decompose", "closure"),
    )
    comp.add_argument("--n", type=int, default=None)
    comp.add_argument("--max-n", type=int, default=None)
    comp.add_argument("--route", default=None)
    comp.add_argument("--format", choices=("json", "csv", "text"), default="json")
    comp.add_argument("--seed", type=int, default=0)
    comp.add_argument("--cap", type=int, default=None,
                      help="raise the enumeration cap (warns above 10)")

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("suite", choices=tuple(vsuites.SUITES) + ("all",))
    ver.add_argument("--max-n", type=int, default=None)
    ver.add_argument("--seed", type=int, default=0)

    cache = sub.add_parser("cache", help="persist or load triangle files")
    cache.add_argument("action", choices=("write", "read", "clear"))
    cache.add_argument("--target", choices=CACHE_TARGETS, default=None)
    cache.add_argument("--max-n", type=int, default=None)
    cache.add_argument("--cache-dir", default=None)
    cache.add_argument("--format", choices=("json", "csv", "text"), default="json")
    cache.add_argument("--cap", type=int, default=None)
    return parser


def _enum_cap(args, default: int) -> int:
    if args.cap is None:
        return default
    if args.cap > 10:
        _warn(f"enumeration cap {args.cap} is above 10; expect long runtimes")
    return args.cap


def _emit_unipoly(f, fmt: str):
    if fmt == "text":
        print(uni_to_text(f))
    elif fmt == "csv":
        print("exponent,value")
        for e, c in enumerate(f):
            print(f"{e},{c}")
    else:
        print(json.dumps(uni_to_json(f), sort_keys=True))


def _emit_multipoly(f: MultiPoly, fmt: str):
    if fmt == "text":
        print(f.to_text())
    elif fmt == "csv":
        print(",".join(f.vars) + ",value")
        for e, c in f.sorted_terms():
            print(",".join(str(k) for k in e) + f",{c}")
    else:
        print(json.dumps(f.to_json(), sort_keys=True))


def _emit_rows(rows, fmt: str):
    """Write each (n, row) as it arrives, in the row format of fmt."""
    if fmt == "csv":
        sys.stdout.write(el.CSV_HEADER)
    for n, row in rows:
        sys.stdout.write(el.format_row(n, row, fmt))


def _rows_requested(args, parser_error) -> tuple:
    if (args.n is None) == (args.max_n is None):
        parser_error("exactly one of --n / --max-n is required")
    if args.n is not None:
        if args.n < 1:
            parser_error("--n must be at least 1")
        return args.n, args.n
    _check_max_n(args, parser_error)
    return 1, args.max_n


def _check_max_n(args, parser_error):
    if args.max_n is not None and args.max_n < 1:
        parser_error("--max-n must be at least 1")


def _take_rows(args, target: str, route: str, first: int, last: int):
    """Rows first .. last of target by route. Enumerated rows are all built
    before any is returned, so an exceeded cap fails with no output."""
    cap = _enum_cap(args, to.DEFAULT_TREE_CAP) if route == "trees" else None
    rows = islice(ROW_SOURCES[target, route](first, cap), last + 1 - first)
    return list(rows) if route == "trees" else rows


def _cmd_compute(args, parser) -> int:
    fmt = args.format

    def fail_usage(msg):
        parser.error(msg)

    if args.target == "j":
        if args.n is None or args.n < 0:
            fail_usage("compute j needs --n >= 0")
        route = args.route or "viennot"
        if route not in J_ROUTES:
            fail_usage(f"route for j must be one of {J_ROUTES}")
        seq = el.j_sequence(args.n, route)
        _emit_unipoly(seq[args.n], fmt)
        return 0

    if args.target == "p":
        if args.n is None or args.n < 1:
            fail_usage("compute p needs --n >= 1")
        route = args.route or "recurrence"
        if route not in P_ROUTES:
            fail_usage(f"route for p must be one of {P_ROUTES}")
        ((n, row),) = _take_rows(args, "s", route, args.n, args.n)
        _emit_multipoly(el.p_poly(n, el.Triangle({n: row})), fmt)
        return 0

    if args.target in ("s", "gamma"):
        first, last = _rows_requested(args, fail_usage)
        route = args.route or DEFAULT_ROUTES[args.target]
        routes = tuple(r for t, r in ROW_SOURCES if t == args.target)
        if route not in routes:
            fail_usage(f"route for {args.target} must be one of {routes}")
        _emit_rows(_take_rows(args, args.target, route, first, last), fmt)
        return 0

    if args.target == "t":
        if args.n is None or args.n < 1:
            fail_usage("compute t needs --n >= 1")
        route = args.route or "recurrence"
        if route not in T_ROUTES:
            fail_usage(f"route for t must be one of {T_ROUTES}")
        _emit_multipoly(el.t_poly(args.n, route), fmt)
        return 0

    if args.target == "theta":
        if args.n is None or args.n < 0:
            fail_usage("compute theta needs --n >= 0")
        if args.route not in (None, "trees"):
            fail_usage("theta is computed from trees only")
        _emit_rows(_take_rows(args, "theta", "trees", args.n, args.n), fmt)
        return 0

    if args.target == "decompose":
        if args.n is None or args.n < 0:
            fail_usage("compute decompose needs --n >= 0")
        f = el.j_viennot(args.n)[args.n]
        center = max(0, (args.n - 1) // 2)
        report = gk.analyze(f, center)
        if fmt == "text":
            dec = report.decomposition
            print(f"a = {uni_to_text(dec.a)}")
            print(f"b = {uni_to_text(dec.b)}")
        else:
            payload = {"n": args.n, "poly": uni_to_json(f)}
            payload.update(report.to_json())
            print(json.dumps(payload, sort_keys=True))
        return 0

    if args.target == "closure":
        n_max = args.max_n if args.max_n is not None else 6
        if n_max < 0:
            fail_usage("closure needs --max-n >= 0")
        import random

        rng = random.Random(args.seed)
        gammas, weights = vsuites.random_closure_instance(rng, n_max)
        items = el.bi_gamma_closure(gammas, weights, n_max)
        if fmt == "text":
            for item in items:
                flag = "degenerate" if item.degenerate else (
                    "alternating" if item.alternatingly_increasing else "FAIL"
                )
                print(f"f_{item.index} = {uni_to_text(item.poly)}  [{flag}]")
        else:
            print(
                json.dumps(
                    {
                        "seed": args.seed,
                        "items": [item.to_json() for item in items],
                    },
                    sort_keys=True,
                )
            )
        return 0

    fail_usage(f"unknown target {args.target}")
    return 2


ENUMERATION_SUITES = {"dumont", "lemma5", "theorem13", "corollary15", "lemma9"}


def _cmd_verify(args, parser) -> int:
    _check_max_n(args, parser.error)
    if (
        args.max_n is not None
        and args.max_n > 10
        and (args.suite in ENUMERATION_SUITES or args.suite == "all")
    ):
        _warn(
            f"suite {args.suite} enumerates all objects up to n={args.max_n}; "
            "expect long runtimes"
        )
    results = vsuites.run_suite(args.suite, max_n=args.max_n, seed=args.seed)
    failed = 0
    for result in results:
        print(f"suite {result.name} ({result.scope})")
        for check in result.checks:
            if check.ok:
                print(f"  ok: {check.label}")
            else:
                failed += 1
                detail = f": {check.detail}" if check.detail else ""
                print(f"  FAIL: {check.label}{detail}")
        verdict = "PASS" if result.ok else "FAIL"
        print(f"suite {result.name}: {verdict} ({len(result.checks)} checks)")
    return 1 if failed else 0


def _cache_dir(args, parser) -> str:
    path = args.cache_dir or os.environ.get(CACHE_ENV)
    if not path:
        parser.error(f"cache needs --cache-dir or {CACHE_ENV}")
    return path


def _cache_rows(target: str, cap: int):
    """The rows of a cache file of target, from row 1 on."""
    return ROW_SOURCES[target, DEFAULT_ROUTES[target]](1, cap)


def _verified_cache(target: str, text: str) -> el.Triangle:
    """The rows of a cache file that holds exactly what a rebuild would
    write; raises ValueError at the first difference.

    s, gamma and t are matched byte for byte, row by row, with the output of
    their recurrence, with no JSON parse. Theta is parsed, and each row must
    map under Corollary 15 onto the gamma recurrence's row; the file must
    also be in the cache format, byte for byte."""
    if target != "theta":
        tri, complete = el.jsonl_prefix_rows(text, _cache_rows(target, None))
        if not complete:
            raise ValueError(
                f"row {len(tri.rows) + 1} differs from the recurrence"
            )
        return tri
    tri = el.triangle_from_jsonl(text)
    el.validate_theta_table(tri)
    el.validate_row_range(tri)
    gamma_rows = _cache_rows("gamma", None)
    for (n, row), (_, gamma_row) in zip(sorted(tri.rows.items()), gamma_rows):
        if to.gamma_row_from_theta(n, row) != gamma_row:
            raise ValueError(f"theta row {n} does not give gamma row {n}")
    if el.triangle_to_jsonl(tri) != text:
        raise ValueError("not in the cache format")
    return tri


def _row_run(text: str) -> int:
    """The unbroken run of rows 1 .. k in a cache file, or 0 when it does
    not parse."""
    try:
        return el.triangle_row_run(el.triangle_from_jsonl(text))
    except ValueError:
        return 0


def _write_atomic(path: str, chunks) -> int:
    """Replace path with the text chunks in one step: write them one by one
    to a temporary file in the same directory, then rename it over path, so
    a reader never sees a partial file and a failed write leaves the old one
    intact. Returns the number of lines written."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    lines = 0
    try:
        with open(tmp, "w", encoding="ascii") as fh:
            for chunk in chunks:
                fh.write(chunk)
                lines += chunk.count("\n")
        os.replace(tmp, path)
        return lines
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _cmd_cache(args, parser) -> int:
    _check_max_n(args, parser.error)
    directory = _cache_dir(args, parser)
    if args.action == "clear":
        targets = (args.target,) if args.target else CACHE_TARGETS
        removed = []
        for target in targets:
            path = os.path.join(directory, f"{target}.jsonl")
            if os.path.exists(path):
                os.remove(path)
                removed.append(target)
        print(f"cleared {len(removed)} cache file(s)")
        return 0

    if not args.target:
        parser.error("cache write/read needs --target")
    path = os.path.join(directory, f"{args.target}.jsonl")
    cap = _enum_cap(args, to.DEFAULT_TREE_CAP)

    if args.action == "write":
        n_max = args.max_n or CACHE_DEFAULT_ROWS[args.target]
        rows = islice(_cache_rows(args.target, cap), n_max)
        records = _write_atomic(
            path, (el.format_row(n, row, "json") for n, row in rows)
        )
        print(f"wrote {records} records to {path}")
        return 0

    # read
    tri = None
    seen_rows = 0
    text = ""
    try:
        with open(path, encoding="ascii") as fh:
            text = fh.read()
        tri = _verified_cache(args.target, text)
        held = el.triangle_row_run(tri)
        if args.max_n and held < args.max_n:
            _warn(f"rebuild: file has {held} rows, {args.max_n} requested")
            tri = None
    except FileNotFoundError:
        _warn(f"cache file {path} missing; rebuilding")
    except ValueError as exc:
        seen_rows = _row_run(text)
        _warn(f"cache file {path} corrupted ({exc}); rebuilding")
    if tri is None:
        n_max = args.max_n or seen_rows or CACHE_DEFAULT_ROWS[args.target]
        tri = el.Triangle(dict(islice(_cache_rows(args.target, cap), n_max)))
        text = el.triangle_to_jsonl(tri)
        _write_atomic(path, [text])
    if args.target == "s":
        el.validate_s_triangle(tri)
    if args.format == "json":
        sys.stdout.write(text)
    else:
        text = None  # release the file text before the output is built
        _emit_rows(sorted(tri.rows.items()), args.format)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.verb == "compute":
            return _cmd_compute(args, parser)
        if args.verb == "verify":
            return _cmd_verify(args, parser)
        return _cmd_cache(args, parser)
    except SystemExit as exc:  # parser.error inside handlers
        return exc.code if isinstance(exc.code, int) else 2
    except to.CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # anything else: one line, no traceback
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

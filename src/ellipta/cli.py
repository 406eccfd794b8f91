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
from collections.abc import Mapping

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
CACHE_TARGETS = ("s", "gamma", "t", "theta")
CACHE_DEFAULT_ROWS = {"s": 12, "gamma": 12, "t": 12, "theta": 7}

J_ROUTES = ("operator", "recurrence", "viennot", "series")
P_ROUTES = ("operator", "recurrence")
S_ROUTES = ("operator", "recurrence", "trees")
GAMMA_ROUTES = ("recurrence", "operator", "trees")
T_ROUTES = ("recurrence", "poly")


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
    comp.add_argument("--jobs", type=int, default=1)
    comp.add_argument("--cap", type=int, default=None,
                      help="raise the enumeration cap (warns above 10)")

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("suite", choices=tuple(vsuites.SUITES) + ("all",))
    ver.add_argument("--max-n", type=int, default=None)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--jobs", type=int, default=1)

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


def _emit_triangle(tri: Mapping, fmt: str):
    if fmt == "csv":
        sys.stdout.write(el.triangle_to_csv(tri))
    elif fmt == "text":
        for (n, i, j), c in sorted(tri.items()):
            print(f"({n},{i},{j}) {c}")
    else:
        sys.stdout.write(el.triangle_to_jsonl(tri))


def _rows_requested(args, parser_error) -> tuple:
    if (args.n is None) == (args.max_n is None):
        parser_error("exactly one of --n / --max-n is required")
    if args.n is not None:
        if args.n < 1:
            parser_error("--n must be at least 1")
        return args.n, (args.n,)
    if args.max_n < 1:
        parser_error("--max-n must be at least 1")
    return args.max_n, tuple(range(1, args.max_n + 1))


def _gamma_rows_from_trees(rows, cap: int, jobs: int) -> dict:
    out: dict = {}
    for n in rows:
        theta = to.theta_table(n, cap=cap, jobs=jobs)
        half = n // 2
        for (_, i, j), c in theta.items():
            if n % 2 == 0:
                if i % 2:
                    continue
                gi, gj = half - j - i, i // 2
            else:
                if i % 2 == 0:
                    continue
                gi, gj = half - j - (i - 1), (i - 1) // 2
            if gi < 0:
                raise el.TriangleDefectError(
                    f"theta cell {(n, i, j)} maps outside the gamma support"
                )
            out[(n, gi, gj)] = c
    return out


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
        tri = (
            el.s_triangle_operator(args.n)
            if route == "operator"
            else el.s_triangle_recurrence(args.n)
        )
        _emit_multipoly(el.p_poly(args.n, tri), fmt)
        return 0

    if args.target == "s":
        n_max, rows = _rows_requested(args, fail_usage)
        route = args.route or "recurrence"
        if route not in S_ROUTES:
            fail_usage(f"route for s must be one of {S_ROUTES}")
        if route == "trees":
            cap = _enum_cap(args, to.DEFAULT_TREE_CAP)
            tri: dict = {}
            for n in rows:
                tri.update(to.s_from_trees(n, cap=cap, jobs=args.jobs))
        else:
            full = (
                el.s_triangle_operator(n_max)
                if route == "operator"
                else el.s_triangle_recurrence(n_max)
            )
            tri = el.Triangle({n: full.row(n) for n in rows})
        _emit_triangle(tri, fmt)
        return 0

    if args.target == "gamma":
        n_max, rows = _rows_requested(args, fail_usage)
        route = args.route or "recurrence"
        if route not in GAMMA_ROUTES:
            fail_usage(f"route for gamma must be one of {GAMMA_ROUTES}")
        if route == "recurrence":
            full = el.gamma_triangle_recurrence(n_max)
            tri = el.Triangle({n: full.row(n) for n in rows})
        elif route == "operator":
            s_tri = el.s_triangle_operator(n_max)
            tri = {}
            for n in rows:
                tri.update(el.gamma_from_p(n, el.p_poly(n, s_tri)))
        else:
            cap = _enum_cap(args, to.DEFAULT_TREE_CAP)
            tri = _gamma_rows_from_trees(rows, cap, args.jobs)
        _emit_triangle(tri, fmt)
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
        cap = _enum_cap(args, to.DEFAULT_TREE_CAP)
        _emit_triangle(to.theta_table(args.n, cap=cap, jobs=args.jobs), fmt)
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


def _cmd_verify(args) -> int:
    if (
        args.max_n is not None
        and args.max_n > 10
        and (args.suite in ENUMERATION_SUITES or args.suite == "all")
    ):
        _warn(
            f"suite {args.suite} enumerates all objects up to n={args.max_n}; "
            "expect long runtimes"
        )
    results = vsuites.run_suite(
        args.suite, max_n=args.max_n, jobs=args.jobs, seed=args.seed
    )
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


def _build_triangle(target: str, n_max: int, cap: int) -> Mapping:
    if target == "s":
        return el.s_triangle_recurrence(n_max)
    if target == "gamma":
        return el.gamma_triangle_recurrence(n_max)
    if target == "t":
        return el.t_triangle_recurrence(n_max)
    tri: dict = {}
    for n in range(1, n_max + 1):
        tri.update(to.theta_table(n, cap=cap))
    return tri


def _validate_triangle(target: str, tri: Mapping):
    if target == "s":
        el.validate_s_triangle(tri)
    elif target == "gamma":
        el.validate_gamma_triangle(tri)
    elif target == "t":
        el.validate_t_triangle(tri)
    else:
        el.validate_theta_table(tri)
        rows = {k[0] for k in tri}
        if rows and rows != set(range(1, max(rows) + 1)):
            raise ValueError("missing theta rows")


def _write_atomic(path: str, text: str):
    """Replace path with text in one step: write a temporary file in the
    same directory, then rename it over path, so a reader never sees a
    partial file and a failed write leaves the old one intact."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="ascii") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _cmd_cache(args, parser) -> int:
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
        tri = _build_triangle(args.target, n_max, cap)
        _write_atomic(path, el.triangle_to_jsonl(tri))
        print(f"wrote {len(tri)} records to {path}")
        return 0

    # read
    tri = None
    seen_rows = 0
    try:
        with open(path, encoding="ascii") as fh:
            text = fh.read()
        loaded = el.triangle_from_jsonl(text)
        seen_rows = el.triangle_max_row(loaded)
        _validate_triangle(args.target, loaded)
        if args.max_n and seen_rows < args.max_n:
            _warn(f"rebuild: file has {seen_rows} rows, {args.max_n} requested")
        else:
            tri = loaded
    except FileNotFoundError:
        _warn(f"cache file {path} missing; rebuilding")
    except ValueError as exc:
        _warn(f"cache file {path} corrupted ({exc}); rebuilding")
    if tri is None:
        n_max = args.max_n or seen_rows or CACHE_DEFAULT_ROWS[args.target]
        tri = _build_triangle(args.target, n_max, cap)
        _write_atomic(path, el.triangle_to_jsonl(tri))
    _emit_triangle(tri, args.format)
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
            return _cmd_verify(args)
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

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
import random
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


def _stream(rows):
    """A row generator from row 1 on as a row source; skips rows < first."""
    return lambda first, cap: islice(rows(), first - 1, None)


def _enumerated(row_of):
    """A tree enumeration as a row source; only the rows taken are built."""
    return lambda first, cap: ((n, row_of(n, cap)) for n in count(first))


def _gamma_rows_operator():
    """Gamma rows peeled out of P_n, row n of the operator's s triangle."""
    for n, row in el.s_rows_operator():
        yield n, el.gamma_from_p(n, el.p_poly(n, {n: row}))


# (target, route) -> source(first, cap), an endless (n, row) iterator from `first`
ROW_SOURCES = {
    ("s", "operator"): _stream(el.s_rows_operator),
    ("s", "recurrence"): _stream(el.s_rows_recurrence),
    ("s", "trees"): _enumerated(lambda n, cap: to.s_from_trees(n, cap=cap)),
    ("gamma", "recurrence"): _stream(el.gamma_rows_recurrence),
    ("gamma", "operator"): _stream(_gamma_rows_operator),
    ("gamma", "trees"): _enumerated(
        lambda n, cap: to.gamma_row_from_theta(n, to.theta_table(n, cap=cap))
    ),
    ("theta", "trees"): _enumerated(lambda n, cap: to.theta_table(n, cap=cap)),
}
# The route of each triangle target when none is named
DEFAULT_ROUTES = {"s": "recurrence", "gamma": "recurrence", "theta": "trees"}


def _theta_rows_from_gamma():
    """Theta rows from row 1 on: each gamma row under Corollary 15."""
    for n, row in el.gamma_rows_recurrence():
        yield n, to.theta_row_from_gamma(n, row)


# The row source of each cache file, an endless (n, row) generator from row 1
# on: a file is served only if its key file vouches that it is byte for byte
# rows 1 .. k of its source (`_serve_keyed`); any other is rebuilt from row 1
CACHE_ROWS = {
    "s": el.s_rows_recurrence,
    "gamma": el.gamma_rows_recurrence,
    "t": el.t_rows_recurrence,
    "theta": _theta_rows_from_gamma,
}
CACHE_TARGETS = tuple(CACHE_ROWS)
# A cache file's key file, <file>.key, written after it by its writer: the code
# key, the sha256 of the file's bytes and its row count, space separated
CACHE_KEY_SUFFIX = ".key"
CACHE_BLOCK = 1 << 16  # the bytes a keyed read hashes or serves at a time


def _warn(msg: str):
    print(f"warning: {msg}", file=sys.stderr)


def _at_least(k: int):
    """An argparse type: an int that is at least k."""
    def parse(text: str) -> int:
        value = int(text)
        if value < k:
            raise argparse.ArgumentTypeError(f"must be at least {k}")
        return value

    parse.__name__ = "int"  # argparse names it in "invalid int value"
    return parse


FORMATS = ("json", "csv", "text")


def _leaf(commands, name: str, about=None, formats=(), cap=False):
    """The parser of one command: it records itself as `leaf`, so a usage
    error found after parsing shows this command's usage line, and it takes
    --format (one of formats) and --cap only where its code reads them."""
    leaf = commands.add_parser(name, help=about)
    leaf.set_defaults(leaf=leaf)
    if formats:
        leaf.add_argument("--format", choices=formats, default="json")
    if cap:
        leaf.add_argument("--cap", type=int, default=None,
                          help="raise the tree enumeration cap "
                          f"(default {to.DEFAULT_TREE_CAP}; warns above 10)")
    return leaf


def build_parser() -> argparse.ArgumentParser:
    """One leaf parser per compute target, verify suite and cache action,
    each with only the options its code reads; argparse rejects every other
    option."""
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
    targets = comp.add_subparsers(dest="target", required=True)
    j = _leaf(targets, "j", "J_n, the coefficients of sn and cn", FORMATS)
    j.add_argument("--n", type=_at_least(0), required=True)
    j.add_argument("--route", choices=tuple(el.J_ROUTES),
                   default=el.J_DEFAULT_ROUTE)
    p = _leaf(targets, "p", "the cycle-peak polynomial P_n", FORMATS)
    p.add_argument("--n", type=_at_least(1), required=True)
    p.add_argument("--route", choices=("recurrence", "operator"),
                   default="recurrence")
    t = _leaf(targets, "t", "the reduced polynomial t_n", FORMATS)
    t.add_argument("--n", type=_at_least(1), required=True)
    t.add_argument("--route", choices=("recurrence", "poly"), default="recurrence")
    for target in ("s", "gamma", "theta"):
        tri = _leaf(targets, target, f"rows of the {target} triangle", FORMATS,
                    cap=True)
        rows = tri.add_mutually_exclusive_group(required=True)
        rows.add_argument("--n", type=_at_least(1), help="row n alone")
        rows.add_argument("--max-n", type=_at_least(1), help="rows 1 .. max-n")
        routes = tuple(route for tgt, route in ROW_SOURCES if tgt == target)
        tri.add_argument("--route", choices=routes, default=DEFAULT_ROUTES[target])
    dec = _leaf(targets, "decompose", "the bi-gamma certificate of J_n",
                ("json", "text"))
    dec.add_argument("--n", type=_at_least(0), required=True)
    clo = _leaf(targets, "closure", "a random instance of the bi-gamma closure",
                ("json", "text"))
    clo.add_argument("--max-n", type=_at_least(0), default=6)
    clo.add_argument("--seed", type=int, default=0)

    ver = sub.add_parser("verify", help="run a verification suite")
    suites = ver.add_subparsers(dest="suite", required=True)
    for name in (*vsuites.SUITES, "all"):
        suite = _leaf(suites, name)
        if name != "all":  # verify all runs each suite at its own range
            suite.add_argument("--max-n", type=_at_least(1),
                               default=vsuites.SUITE_DEFAULT_RANGE[name])
        if name in (*vsuites.SEEDED_SUITES, "all"):
            suite.add_argument("--seed", type=int, default=0)

    cache = sub.add_parser("cache", help="persist or load triangle files")
    actions = cache.add_subparsers(dest="action", required=True)
    for action, about in (("write", "build a triangle file"),
                          ("read", "serve a triangle file, rebuilt unless verified"),
                          ("clear", "delete triangle files")):
        files = action != "clear"  # write and read: one file of one target
        leaf = _leaf(actions, action, about, FORMATS if action == "read" else ())
        leaf.add_argument("--target", choices=CACHE_TARGETS, required=files)
        if files:
            leaf.add_argument("--max-n", type=_at_least(1), default=None)
        leaf.add_argument("--cache-dir", default=None, help=f"default: ${CACHE_ENV}")
    return parser


def _enum_cap(args, route: str, parser):
    """The tree enumeration cap of route: --cap or the default. A route
    that enumerates nothing takes no cap, so a --cap given to it is a usage
    error."""
    if route != "trees":
        if args.cap is not None:
            parser.error(f"--cap: route {route} enumerates no trees")
        return None
    if args.cap is None:
        return to.DEFAULT_TREE_CAP
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


def _take_rows(args, parser):
    """The rows --n or --max-n asks for of a triangle target. Enumerated
    rows are all built before any is returned, so an exceeded cap fails
    with no output."""
    first, last = (1, args.max_n) if args.n is None else (args.n, args.n)
    cap = _enum_cap(args, args.route, parser)
    rows = islice(ROW_SOURCES[args.target, args.route](first, cap), last + 1 - first)
    return list(rows) if args.route == "trees" else rows


def _cmd_compute(args, parser) -> int:
    fmt = args.format
    if args.target == "j":
        _emit_unipoly(el.j_sequence(args.n, args.route)[args.n], fmt)
    elif args.target == "p":
        n, row = next(ROW_SOURCES["s", args.route](args.n, None))
        _emit_multipoly(el.p_poly(n, {n: row}), fmt)
    elif args.target == "t":
        _emit_multipoly(el.t_poly(args.n, args.route), fmt)
    elif args.target == "decompose":
        f = el.j_sequence(args.n)[args.n]
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
    elif args.target == "closure":
        rng = random.Random(args.seed)
        gammas, weights = vsuites.random_closure_instance(rng, args.max_n)
        items = el.bi_gamma_closure(gammas, weights, args.max_n)
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
    else:  # s, gamma, theta
        _emit_rows(_take_rows(args, parser), fmt)
    return 0


def _cmd_verify(args, parser) -> int:
    if args.suite in vsuites.ENUMERATION_SUITES and args.max_n > 10:
        _warn(
            f"suite {args.suite} enumerates all objects up to n={args.max_n}; "
            "expect long runtimes"
        )
    # each suite's leaf declares exactly the run_suite options it takes
    options = {key: getattr(args, key) for key in ("max_n", "seed") if key in args}
    results = vsuites.run_suite(args.suite, **options)
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


def _code_key() -> str:
    """The sha256 of this package's source: every *.py file, by name."""
    import hashlib

    digest = hashlib.sha256()
    here = os.path.dirname(os.path.abspath(__file__))
    for name in sorted(os.listdir(here)):
        if name.endswith(".py"):
            with open(os.path.join(here, name), "rb") as fh:
                source = fh.read()
            digest.update(b"%s %d\n" % (os.fsencode(name), len(source)) + source)
    return digest.hexdigest()


def _serve_keyed(path: str, fmt: str, want):
    """Serve the cache file at path in format fmt, building no row, if its
    key file vouches for it: the key parses, names this code, counts at
    least `want` rows, and its digest is the sha256 of the bytes read now.
    Hashes, then serves (see `_json_records_as`), block by block from one
    descriptor. Returns None once the file is served; else, having written
    nothing, the warning that says why the key does not vouch and the key's
    row count if it parses and the file has that many lines, else None."""
    import hashlib

    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        return f"cache file {path} missing; rebuilding", None
    with fh:
        try:
            with open(path + CACHE_KEY_SUFFIX, encoding="ascii") as key:
                code, digest, count = key.read().split(" ")
            rows = int(count)
        except FileNotFoundError:
            return f"cache file {path} has no key; rebuilding", None
        except ValueError:  # not three fields, a count that is no int, or not ascii
            return f"cache file {path} has a malformed key; rebuilding", None
        ours = code == _code_key()
        sha = hashlib.sha256()
        while block := fh.read(CACHE_BLOCK):
            sha.update(block)
        if not ours or sha.hexdigest() != digest:
            why = ("corrupted (its bytes differ from its key)" if ours
                   else "is keyed by other code")
            fh.seek(0)  # lines are counted on a miss only; a row has one or more
            lines = sum(b.count(b"\n") for b in iter(lambda: fh.read(CACHE_BLOCK), b""))
            return (f"cache file {path} {why}; rebuilding",
                    rows if 0 < rows <= lines else None)
        if rows < (want or 0):
            return f"rebuild: file has {rows} rows, {want} requested", rows
        fh.seek(0)
        rest = b""
        while block := fh.read(CACHE_BLOCK):
            block = rest + block
            cut = block.rfind(b"\n") + 1  # whole records only
            text, rest = block[:cut].decode("ascii"), block[cut:]
            if text and fmt != "json":
                text = _json_records_as(fmt, text)
            sys.stdout.write(text)
    return None


def _json_records_as(fmt: str, text: str) -> str:
    """Whole records of the json row format, rewritten in format fmt: each
    literal piece of the json format is swapped for fmt's, the last piece of
    a record and the first of the next as one."""
    old, new = el.ROW_FORMATS["json"].split("%d"), el.ROW_FORMATS[fmt].split("%d")
    text = text[len(old[0]):-len(old[-1])]
    for piece, swap in [(old[-1] + old[0], new[-1] + new[0]),
                        *zip(old[1:-1], new[1:-1])]:
        text = text.replace(piece, swap)
    return new[0] + text + new[-1]


def _replace(path: str, blocks):
    """Replace path in one step: write the byte blocks one by one to a
    temporary file in the same directory, then rename it over path, so a
    reader never sees a partial file and a failed write leaves the old one
    intact."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(blocks)  # no block is held while the next is made
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _write_atomic(path: str, target: str, rows: int, echo=None) -> int:
    """Replace path with rows 1 .. rows of target's cache file, each row
    written as it is built (and first printed in format `echo`, if given),
    then its key file with the key of the bytes written, each in one step.
    The file lands first, so a reader that finds it beside the old key sees
    a digest that differs and rebuilds: a torn pair is never served.
    Returns the number of lines written."""
    import hashlib

    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    digest, lines = hashlib.sha256(), 0

    def encoded(item) -> bytes:
        nonlocal lines
        n, row = item
        chunk = el.format_row(n, row, "json")
        if echo:
            sys.stdout.write(chunk if echo == "json" else el.format_row(n, row, echo))
        data = chunk.encode("ascii")
        digest.update(data)
        lines += len(row)  # one line per entry
        return data

    _replace(path, map(encoded, islice(CACHE_ROWS[target](), rows)))
    key = f"{_code_key()} {digest.hexdigest()} {rows}"
    _replace(path + CACHE_KEY_SUFFIX, [key.encode("ascii")])
    return lines


def _cmd_cache(args, parser) -> int:
    directory = _cache_dir(args, parser)
    if args.action == "clear":
        targets = (args.target,) if args.target else CACHE_TARGETS
        removed = 0
        for target in targets:
            path = os.path.join(directory, f"{target}.jsonl")
            for name in (path + CACHE_KEY_SUFFIX, path):
                if os.path.exists(name):
                    os.remove(name)
                    removed += name == path
        print(f"cleared {removed} cache file(s)")
        return 0

    path = os.path.join(directory, f"{args.target}.jsonl")
    if args.action == "write":
        last = args.max_n or CACHE_DEFAULT_ROWS[args.target]
        records = _write_atomic(path, args.target, last)
        print(f"wrote {records} records to {path}")
        return 0

    # read: a file that its key vouches for is served as it stands; any
    # other is rebuilt from row 1 and written keyed, serving each row of the
    # one row stream as it is built
    if args.format == "csv":
        sys.stdout.write(el.CSV_HEADER)
    missed = _serve_keyed(path, args.format, args.max_n)
    if missed:
        why, rows = missed
        _warn(why)
        last = args.max_n or rows or CACHE_DEFAULT_ROWS[args.target]
        _write_atomic(path, args.target, last, args.format)
    return 0


def main(argv=None) -> int:
    try:
        # Only the command's own parser is kept (as args.leaf), so the rest
        # of the parser tree is garbage before the work starts. Every error
        # after parsing goes to it: its usage line shows the command's options.
        args, extra = build_parser().parse_known_args(argv)
        if extra:
            args.leaf.error(f"unrecognized arguments: {' '.join(extra)}")
        if args.verb == "compute":
            return _cmd_compute(args, args.leaf)
        if args.verb == "verify":
            return _cmd_verify(args, args.leaf)
        return _cmd_cache(args, args.leaf)
    except SystemExit as exc:  # a usage error, from argparse or a handler
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

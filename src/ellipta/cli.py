"""Command-line front end.

Three verbs: `compute` emits polynomials and triangles, `verify` replays the
named cross-check suites, `cache` persists triangles as JSON-lines files.
Stdout carries data; stderr carries logs and warnings. Exit codes: 0 on
success, 1 on verification or I/O failure, 2 on usage errors (including
exceeded enumeration caps), 141 when stdout's reader closed it early.

Identical invocations produce byte-identical output: every emitted
collection is sorted, and randomized paths take an explicit --seed.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial
from itertools import count, islice

# Each function imports the package modules it runs, and each parser the
# modules its options name, so a process compiles only its command's
# modules: a keyed json `cache read` loads no other module of the package.

CACHE_ENV = "ELLIPTA_CACHE_DIR"
CACHE_DEFAULT_ROWS = {"s": 12, "gamma": 12, "t": 12, "theta": 7}


def _elliptic_rows(name):
    """The row generator `name` of `elliptic` (an endless (n, row) generator
    from row 1 on), looked up when it is called."""
    def rows():
        from . import elliptic

        return getattr(elliptic, name)()

    return rows


def _stream(rows):
    """A row generator from row 1 on as a row source; skips rows < first."""
    return lambda first, cap: islice(rows(), first - 1, None)


def _enumerated(row_of):
    """A tree enumeration as a row source; only the rows taken are built.
    row_of(to, n, cap) is row n, built by `treeoracle` (passed as to)."""
    def source(first, cap):
        from . import treeoracle as to

        return ((n, row_of(to, n, cap)) for n in count(first))

    return source


def _gamma_rows_operator():
    """Gamma rows peeled out of P_n, row n of the operator's s triangle."""
    from . import elliptic as el

    for n, row in el.s_rows_operator():
        yield n, el.gamma_from_p(n, el.p_poly(n, {n: row}))


# (target, route) -> source(first, cap), an endless (n, row) iterator from `first`
ROW_SOURCES = {
    ("s", "operator"): _stream(_elliptic_rows("s_rows_operator")),
    ("s", "recurrence"): _stream(_elliptic_rows("s_rows_recurrence")),
    ("s", "trees"): _enumerated(lambda to, n, cap: to.s_from_trees(n, cap=cap)),
    ("gamma", "recurrence"): _stream(_elliptic_rows("gamma_rows_recurrence")),
    ("gamma", "operator"): _stream(_gamma_rows_operator),
    ("gamma", "trees"): _enumerated(
        lambda to, n, cap: to.gamma_row_from_theta(n, to.theta_table(n, cap=cap))
    ),
    ("theta", "trees"): _enumerated(lambda to, n, cap: to.theta_table(n, cap=cap)),
}
# The route of each triangle target when none is named
DEFAULT_ROUTES = {"s": "recurrence", "gamma": "recurrence", "theta": "trees"}


def _theta_rows_from_gamma():
    """Theta rows from row 1 on: each gamma row under Corollary 15."""
    from . import elliptic as el
    from . import treeoracle as to

    for n, row in el.gamma_rows_recurrence():
        yield n, to.theta_row_from_gamma(n, row)


# The row source of each cache file, an endless (n, row) generator from row 1
# on: a file is served only if its key file vouches that it is byte for byte
# rows 1 .. k of its source (`_serve_keyed`); any other is rebuilt from row 1
CACHE_ROWS = {
    "s": _elliptic_rows("s_rows_recurrence"),
    "gamma": _elliptic_rows("gamma_rows_recurrence"),
    "t": _elliptic_rows("t_rows_recurrence"),
    "theta": _theta_rows_from_gamma,
}
CACHE_TARGETS = tuple(CACHE_ROWS)
# A cache file's key file, <file>.key, written after it by its writer: the code
# key, the sha256 of the file's bytes and its row count, space separated
CACHE_KEY_SUFFIX = ".key"
CACHE_BLOCK = 1 << 16  # the bytes a keyed read hashes or serves at a time
# The status when stdout's reader closed it early: 128 + SIGPIPE (13), what
# a shell reports for a command that SIGPIPE ended
EXIT_BROKEN_PIPE = 141


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


def _leaf(commands, argv, name: str, about=None, formats=(), cap=False):
    """Add the parser of command `name` and return it, or None if argv does
    not name it: parsing argv never reaches its options, so none are
    declared. The parser records itself as `leaf`, so a usage error found
    after parsing shows this command's usage line, and it takes --format
    (one of formats) and --cap only where its code reads them."""
    leaf = commands.add_parser(name, help=about)
    if name not in argv[1:]:
        return None
    leaf.set_defaults(leaf=leaf)
    if formats:
        leaf.add_argument("--format", choices=formats, default="json")
    if cap:
        from .elliptic import DEFAULT_TREE_CAP

        leaf.add_argument("--cap", type=int, default=None,
                          help="raise the tree enumeration cap "
                          f"(default {DEFAULT_TREE_CAP}; warns above 10)")
    return leaf


def _compute_leaves(leaf):
    """Declare each compute target, through leaf (a partial `_leaf`)."""
    if j := leaf("j", "J_n, the coefficients of sn and cn", FORMATS):
        from . import elliptic as el

        j.add_argument("--n", type=_at_least(0), required=True)
        j.add_argument("--route", choices=tuple(el.J_ROUTES),
                       default=el.J_DEFAULT_ROUTE)
    if p := leaf("p", "the cycle-peak polynomial P_n", FORMATS):
        p.add_argument("--n", type=_at_least(1), required=True)
        p.add_argument("--route", choices=("recurrence", "operator"),
                       default="recurrence")
    if t := leaf("t", "the reduced polynomial t_n", FORMATS):
        t.add_argument("--n", type=_at_least(1), required=True)
        t.add_argument("--route", choices=("recurrence", "poly"), default="recurrence")
    for target in ("s", "gamma", "theta"):
        if tri := leaf(target, f"rows of the {target} triangle", FORMATS, cap=True):
            rows = tri.add_mutually_exclusive_group(required=True)
            rows.add_argument("--n", type=_at_least(1), help="row n alone")
            rows.add_argument("--max-n", type=_at_least(1), help="rows 1 .. max-n")
            routes = tuple(route for tgt, route in ROW_SOURCES if tgt == target)
            tri.add_argument("--route", choices=routes, default=DEFAULT_ROUTES[target])
    if dec := leaf("decompose", "the bi-gamma certificate of J_n", ("json", "text")):
        dec.add_argument("--n", type=_at_least(0), required=True)
    if clo := leaf("closure", "a random instance of the bi-gamma closure",
                   ("json", "text")):
        clo.add_argument("--max-n", type=_at_least(0), default=6)
        clo.add_argument("--seed", type=int, default=0)


def _verify_leaves(leaf):
    """Declare each verify suite, through leaf (a partial `_leaf`)."""
    from . import suites as vsuites

    for name in (*vsuites.SUITES, "all"):
        if suite := leaf(name):
            if name != "all":  # verify all runs each suite at its own range
                suite.add_argument("--max-n", type=_at_least(1),
                                   default=vsuites.SUITE_DEFAULT_RANGE[name])
            if name in (*vsuites.SEEDED_SUITES, "all"):
                suite.add_argument("--seed", type=int, default=0)


def _cache_leaves(leaf):
    """Declare each cache action, through leaf (a partial `_leaf`)."""
    for action, about in (("write", "build a triangle file"),
                          ("read", "serve a triangle file, rebuilt unless verified"),
                          ("clear", "delete triangle files")):
        files = action != "clear"  # write and read: one file of one target
        if cmd := leaf(action, about, FORMATS if action == "read" else ()):
            cmd.add_argument("--target", choices=CACHE_TARGETS, required=files)
            if files:
                cmd.add_argument("--max-n", type=_at_least(1), default=None)
            cmd.add_argument("--cache-dir", default=None, help=f"default: ${CACHE_ENV}")


# verb -> (help, dest of its leaf's name, the function declaring its leaves)
VERBS = {
    "compute": ("emit a polynomial or triangle", "target", _compute_leaves),
    "verify": ("run a verification suite", "suite", _verify_leaves),
    "cache": ("persist or load triangle files", "action", _cache_leaves),
}


def leaf_names(verb: str) -> tuple:
    """The names of the leaves of verb, in the order its parser lists them."""
    names = []
    VERBS[verb][2](lambda name, *rest, **options: names.append(name))
    return tuple(names)


def build_parser(argv) -> argparse.ArgumentParser:
    """The parser of argv: one leaf parser per compute target, verify suite
    and cache action, each with only the options its code reads; argparse
    rejects every other option. Only what parsing argv reads is built: the
    leaves of the verb argv[0], with options only on a leaf that argv names.
    The options are read off the computation modules (the J routes, the
    suites), so a parse loads only its own command's; the help and the
    errors of every parser are as with the whole tree."""
    parser = argparse.ArgumentParser(
        prog="ellipta",
        description=(
            "Exact Taylor coefficients of the Jacobian elliptic functions, "
            "their gamma-positivity certificates, and the combinatorial "
            "verification suites."
        ),
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (about, dest, leaves) in VERBS.items():
        command = sub.add_parser(verb, help=about)
        if argv[:1] == [verb]:
            commands = command.add_subparsers(dest=dest, required=True)
            leaves(partial(_leaf, commands, argv))
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
        from .elliptic import DEFAULT_TREE_CAP

        return DEFAULT_TREE_CAP
    if args.cap > 10:
        _warn(f"enumeration cap {args.cap} is above 10; expect long runtimes")
    return args.cap


def _emit_unipoly(f, fmt: str):
    import json

    from .exactpoly import uni_to_json, uni_to_text

    if fmt == "text":
        print(uni_to_text(f))
    elif fmt == "csv":
        print("exponent,value")
        for e, c in enumerate(f):
            print(f"{e},{c}")
    else:
        print(json.dumps(uni_to_json(f), sort_keys=True))


def _emit_multipoly(f, fmt: str):
    import json

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
    from . import elliptic as el

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
    if args.route != "trees":
        return rows
    from .treeoracle import CapExceededError

    try:
        return list(rows)
    except CapExceededError as exc:  # a usage error: exit 2
        parser.exit(2, f"error: {exc}\n")


def _cmd_compute(args, parser) -> int:
    import json

    from . import elliptic as el
    from .exactpoly import uni_to_json, uni_to_text

    fmt = args.format
    if args.target == "j":
        _emit_unipoly(el.j_poly(args.n, args.route), fmt)
    elif args.target == "p":
        n, row = next(ROW_SOURCES["s", args.route](args.n, None))
        _emit_multipoly(el.p_poly(n, {n: row}), fmt)
    elif args.target == "t":
        _emit_multipoly(el.t_poly(args.n, args.route), fmt)
    elif args.target == "decompose":
        from .gammakit import analyze

        f = el.j_poly(args.n)
        center = max(0, (args.n - 1) // 2)
        report = analyze(f, center)
        if fmt == "text":
            dec = report.decomposition
            print(f"a = {uni_to_text(dec.a)}")
            print(f"b = {uni_to_text(dec.b)}")
        else:
            payload = {"n": args.n, "poly": uni_to_json(f)}
            payload.update(report.to_json())
            print(json.dumps(payload, sort_keys=True))
    elif args.target == "closure":
        import random

        from .suites import random_closure_instance

        gammas, weights = random_closure_instance(random.Random(args.seed), args.max_n)
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
    from . import suites as vsuites

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
    Hashes, then serves, block by block from one descriptor: each block is
    cut after its last whole record, converted as bytes (see
    `_json_records_as`), decoded once and written as text. Returns None once
    the file is served; else, having written nothing, the warning that says
    why the key does not vouch and the key's row count if it parses and the
    file has that many lines, else None."""
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
        convert = _json_records_as(fmt)
        fh.seek(0)
        rest = b""
        while block := fh.read(CACHE_BLOCK):
            block = rest + block
            cut = block.rfind(b"\n") + 1  # whole records only
            sys.stdout.write(convert(block[:cut]))
            rest = block[cut:]
    return None


def _json_records_as(fmt: str):
    """The function that rewrites whole records of the json row format, as
    bytes, into the text of format fmt. It is derived from ROW_FORMATS alone:
    `drop` is every character of the json pieces that no piece of fmt uses;
    a json piece from which deleting `drop` does not leave fmt's piece is
    first replaced by it (csv replaces none, text two); then one translate
    deletes `drop`. No piece of fmt holds a character of `drop`, and no
    value does either: values are decimal integers, json pieces hold no
    digit. Json records are only decoded, which loads no other module."""
    if fmt == "json":
        return partial(bytes.decode, encoding="ascii")
    from .elliptic import ROW_FORMATS

    old, new = (ROW_FORMATS[f].encode("ascii").split(b"%d") for f in ("json", fmt))
    drop = bytes(set(b"".join(old)) - set(b"".join(new)))
    swaps = [(o, w) for o, w in zip(old, new) if o.translate(None, drop) != w]

    def convert(records: bytes) -> str:
        for piece, swap in swaps:
            records = records.replace(piece, swap)
        return records.translate(None, drop).decode("ascii")

    return convert


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

    from .elliptic import format_row

    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    digest, lines = hashlib.sha256(), 0

    def encoded(item) -> bytes:
        nonlocal lines
        n, row = item
        chunk = format_row(n, row, "json")
        if echo:
            sys.stdout.write(chunk if echo == "json" else format_row(n, row, echo))
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
        from .elliptic import CSV_HEADER

        sys.stdout.write(CSV_HEADER)
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
        argv = sys.argv[1:] if argv is None else list(argv)
        args, extra = build_parser(argv).parse_known_args(argv)
        if extra:
            args.leaf.error(f"unrecognized arguments: {' '.join(extra)}")
        if args.verb == "compute":
            code = _cmd_compute(args, args.leaf)
        elif args.verb == "verify":
            code = _cmd_verify(args, args.leaf)
        else:
            code = _cmd_cache(args, args.leaf)
        sys.stdout.flush()  # a reader that stopped early is met here, not at exit
        return code
    except SystemExit as exc:  # a usage error, from argparse or a handler
        return exc.code if isinstance(exc.code, int) else 2
    except BrokenPipeError:
        # stdout's reader stopped early: end quietly, as a command that
        # SIGPIPE ends, with the status a shell gives one. The output still
        # buffered goes to the null device, so the flush at exit cannot fail
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        return EXIT_BROKEN_PIPE
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # anything else: one line, no traceback
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

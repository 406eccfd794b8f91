import contextlib
import errno
import json
import os
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

from ellipta.cli import VERBS, build_parser, leaf_names, main

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_j_text(capsys):
    code, out, _ = run(capsys, "compute", "j", "--n", "8", "--route", "viennot",
                       "--format", "text")
    assert code == 0
    assert out == "1 + 408x + 912x^2 + 64x^3\n"


def test_compute_j_zero(capsys):
    code, out, _ = run(capsys, "compute", "j", "--n", "0", "--format", "text")
    assert code == 0
    assert out == "1\n"


@pytest.mark.parametrize("route", ["operator", "recurrence", "viennot", "series",
                                   "fraction", None])
def test_compute_j_routes_agree(capsys, route):
    route_args = () if route is None else ("--route", route)  # None: the default
    code, out, _ = run(capsys, "compute", "j", "--n", "7", *route_args,
                       "--format", "text")
    assert code == 0
    assert out == "1 + 135x + 135x^2 + x^3\n"


@pytest.mark.parametrize("argv, built", [
    (("j", "--n", "8"), [("j_fraction_even", 4)]),
    (("j", "--n", "7", "--route", "fraction"), [("j_fraction_odd", 3)]),
    (("decompose", "--n", "9"), [("j_fraction_odd", 4)]),
    (("decompose", "--n", "0"), [("j_fraction_even", 0)]),
])
def test_compute_one_j_runs_one_path_program(capsys, monkeypatch, argv, built):
    # a single J on the fraction route runs the half of its parity alone,
    # and only to its own index
    from ellipta import elliptic as el

    asked = []

    def recording(name):
        real = getattr(el, name)

        def half(m_max):
            asked.append((name, m_max))
            return real(m_max)
        return half

    for name in ("j_fraction_even", "j_fraction_odd"):
        monkeypatch.setattr(el, name, recording(name))
    assert run(capsys, "compute", *argv)[0] == 0
    assert asked == built


def test_compute_decompose_json(capsys):
    code, out, _ = run(capsys, "compute", "decompose", "--n", "8")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 8
    certs = payload["certificates"]
    assert certs["decomposition"]["a"]["coeffs"] == ["1", "345", "345", "1"]
    assert certs["decomposition"]["b"]["coeffs"] == ["63", "567", "63"]
    assert payload["bi_gamma_positive"] is True


def test_compute_p_text(capsys):
    code, out, _ = run(capsys, "compute", "p", "--n", "3", "--format", "text")
    assert code == 0
    assert out == "1 + q + 4p\n"


def test_compute_p_operator_route(capsys):
    code, out, _ = run(capsys, "compute", "p", "--n", "6", "--route", "operator",
                       "--format", "text")
    assert code == 0
    assert out == ("1 + 135q + 135q^2 + q^3 + 44p + 328pq + 44pq^2 "
                   "+ 16p^2 + 16p^2q\n")


def test_compute_s_trees_route(capsys):
    code, out, _ = run(capsys, "compute", "s", "--max-n", "3", "--route", "trees",
                       "--format", "csv")
    assert code == 0
    assert out == "n,i,j,value\n1,0,0,1\n2,0,0,1\n2,0,1,1\n3,0,0,1\n3,0,1,1\n3,1,0,4\n"


def test_compute_t_both_routes(capsys):
    expected = "1 + 33y + 102x + 78xy + 57x^2 + x^3\n"
    for route in ("recurrence", "poly"):
        code, out, _ = run(capsys, "compute", "t", "--n", "7", "--route", route,
                           "--format", "text")
        assert code == 0 and out == expected


def test_compute_s_csv(capsys):
    code, out, _ = run(capsys, "compute", "s", "--max-n", "2", "--format", "csv")
    assert code == 0
    assert out == "n,i,j,value\n1,0,0,1\n2,0,0,1\n2,0,1,1\n"


def test_compute_gamma_routes_agree(capsys):
    outputs = set()
    for route in ("recurrence", "operator", "trees"):
        code, out, _ = run(capsys, "compute", "gamma", "--max-n", "6",
                           "--route", route, "--format", "csv")
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_compute_theta(capsys):
    code, out, _ = run(capsys, "compute", "theta", "--n", "3", "--format", "csv")
    assert code == 0
    assert out == "n,i,j,value\n3,1,0,4\n3,1,1,1\n"


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_compute_theta_max_n_streams_rows(capsys, fmt):
    code, out, _ = run(capsys, "compute", "theta", "--max-n", "3", "--format", fmt)
    assert code == 0
    rows = [run(capsys, "compute", "theta", "--n", n, "--format", fmt)
            for n in ("1", "2", "3")]
    assert [code for code, _, _ in rows] == [0, 0, 0]
    assert out == "".join(row for _, row, _ in rows)
    # a theta cache file holds no row 0, so no row 0 is computed either
    code, out, err = run(capsys, "compute", "theta", "--n", "0")
    assert code == 2 and out == "" and "argument --n: must be at least 1" in err


@pytest.mark.parametrize("argv, expected", [
    (("j", "--n", "5", "--format", "csv"), "exponent,value\n0,1\n1,14\n2,1\n"),
    (("j", "--n", "5", "--format", "json"),
     '{"coeffs": ["1", "14", "1"], "var": "x"}\n'),
    (("p", "--n", "3", "--format", "csv"), "p,q,value\n0,0,1\n0,1,1\n1,0,4\n"),
    (("p", "--n", "3", "--format", "json"),
     '{"terms": [{"coeff": "1", "exp": [0, 0]}, {"coeff": "1", "exp": [0, 1]}, '
     '{"coeff": "4", "exp": [1, 0]}], "vars": ["p", "q"]}\n'),
    (("t", "--n", "4", "--route", "poly", "--format", "csv"),
     "x,y,value\n0,0,1\n0,1,3\n1,0,1\n"),
    (("decompose", "--n", "8", "--format", "text"),
     "a = 1 + 345x + 345x^2 + x^3\nb = 63 + 567x + 63x^2\n"),
    (("closure", "--max-n", "2", "--format", "text"),
     "f_0 = 1  [alternating]\nf_1 = 0  [degenerate]\nf_2 = 8 + 8x  [alternating]\n"),
])
def test_compute_emitter_bytes(capsys, argv, expected):
    code, out, err = run(capsys, "compute", *argv)
    assert code == 0 and err == ""
    assert out == expected


def test_compute_closure_deterministic(capsys):
    code1, out1, _ = run(capsys, "compute", "closure", "--max-n", "4", "--seed", "5")
    code2, out2, _ = run(capsys, "compute", "closure", "--max-n", "4", "--seed", "5")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert len(payload["items"]) == 5


def test_byte_identical_invocations(capsys):
    args = ("compute", "s", "--max-n", "6", "--format", "json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_usage_errors_exit_2(tmp_path, capsys):
    assert run(capsys, "compute", "j")[0] == 2  # missing --n
    assert run(capsys, "compute", "j", "--n", "3", "--route", "nope")[0] == 2
    assert run(capsys, "verify", "unknown-suite")[0] == 2
    assert run(capsys, "compute", "s", "--n", "2", "--max-n", "3")[0] == 2
    assert run(capsys, "compute", "theta")[0] == 2  # neither --n nor --max-n
    assert run(capsys, "compute", "s", "--max-n", "3", "--jobs", "2")[0] == 2
    assert run(capsys, "verify", "lemma9", "--max-n", "-2")[0] == 2
    assert run(capsys, "verify", "routes", "--max-n", "-1")[0] == 2
    code, out, err = run(capsys, "verify", "all", "--max-n", "3")
    assert code == 2 and out == "" and "--max-n" in err
    code, out, err = run(capsys, "compute", "s", "--n", "0")
    assert code == 2 and out == "" and "argument --n: must be at least 1" in err
    code, out, err = run(capsys, "cache", "write", "--target", "s", "--max-n", "0",
                         "--cache-dir", str(tmp_path))
    assert code == 2 and out == "" and "--max-n" in err
    assert not any(tmp_path.iterdir())


# Each option a command does not read, given to an invocation that is valid
# without it
NO_OP_OPTIONS = [
    (base, extra)
    for base in (("compute", "j", "--n", "3"), ("compute", "p", "--n", "3"),
                 ("compute", "t", "--n", "3"))
    for extra in (("--max-n", "3"), ("--seed", "1"), ("--cap", "9"))
] + [
    (("compute", target, "--n", "3"), ("--seed", "1"))
    for target in ("s", "gamma", "theta")
] + [
    (("compute", "decompose", "--n", "5"), extra)
    for extra in (("--max-n", "3"), ("--route", "operator"), ("--seed", "1"),
                  ("--cap", "9"))
] + [
    (("compute", "closure", "--max-n", "3"), extra)
    for extra in (("--n", "3"), ("--route", "trees"), ("--cap", "9"))
] + [
    # decompose and closure write json or text; csv printed the json record
    (("compute", "decompose", "--n", "5"), ("--format", "csv")),
    (("compute", "closure", "--max-n", "3"), ("--format", "csv")),
] + [
    # only the closure instances are random
    (("verify", suite, "--max-n", "1"), ("--seed", "1"))
    for suite in ("routes", "dumont", "viennot-symmetry", "thm1", "thm2",
                  "lemma5", "theorem13", "corollary15", "lemma9")
] + [
    (("cache", "write", "--target", "s", "--max-n", "3"), ("--format", "csv")),
] + [
    (("cache", "clear"), extra)
    for extra in (("--max-n", "3"), ("--format", "csv"), ("--cap", "9"))
] + [
    (("verify", "all"), ("--max-n", "3")),
    # --cap is read only where a route enumerates trees
    (("compute", "s", "--max-n", "3"), ("--cap", "12")),
    (("compute", "s", "--max-n", "3", "--route", "recurrence"), ("--cap", "12")),
    (("compute", "gamma", "--n", "3", "--route", "operator"), ("--cap", "5")),
    (("cache", "write", "--target", "s", "--max-n", "3"), ("--cap", "12")),
    (("cache", "write", "--target", "t"), ("--cap", "9")),
    (("cache", "read", "--target", "gamma"), ("--cap", "5")),
    # a theta cache file is gamma under Corollary 15: no tree is enumerated
    (("cache", "write", "--target", "theta", "--max-n", "4"), ("--cap", "11")),
    (("cache", "read", "--target", "theta"), ("--cap", "11")),
]


@pytest.mark.parametrize(
    "base, extra", NO_OP_OPTIONS,
    ids=[" ".join(base + extra) for base, extra in NO_OP_OPTIONS])
def test_option_a_command_does_not_read_is_a_usage_error(
        tmp_path, capsys, monkeypatch, base, extra):
    build_parser(list(base)).parse_args(list(base))  # valid without the option
    monkeypatch.setenv("ELLIPTA_CACHE_DIR", str(tmp_path))
    code, out, _ = run(capsys, *base, *extra)
    assert code == 2 and out == ""
    assert not any(tmp_path.iterdir())


USAGE_ERRORS = [
    # an option the command does not declare
    (("compute", "j", "--n", "3", "--cap", "2"), "compute j"),
    (("verify", "dumont", "--seed", "3"), "verify dumont"),
    # errors the handlers find after parsing
    (("compute", "s", "--n", "3", "--cap", "2"), "compute s"),
    (("cache", "read", "--target", "s"), "cache read"),
]


@pytest.mark.parametrize("argv, usage", USAGE_ERRORS,
                         ids=[" ".join(argv) for argv, _ in USAGE_ERRORS])
def test_usage_error_shows_the_commands_usage(capsys, monkeypatch, argv, usage):
    monkeypatch.delenv("ELLIPTA_CACHE_DIR", raising=False)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"usage: ellipta {usage} [-h]")
    assert f"\nellipta {usage}: error: " in err


def test_verify_seed_is_read_by_closure_and_all(capsys):
    outs = [run(capsys, "verify", "closure", "--max-n", "3", "--seed", seed)
            for seed in ("1", "2")]
    assert [code for code, _, _ in outs] == [0, 0]
    assert outs[0][1] != outs[1][1]
    assert "seed 2" in outs[1][1]
    # the oracle benchmark workload runs verify all --seed S
    argv = ["verify", "all", "--seed", "5"]
    args = build_parser(argv).parse_args(argv)
    assert (args.suite, args.seed) == ("all", 5) and "max_n" not in args


@pytest.mark.parametrize("suite", ["routes", "closure"])
def test_verify_default_range_is_the_suites_own(capsys, suite):
    from ellipta import suites as vsuites

    code, out, _ = run(capsys, "verify", suite)
    (result,) = vsuites.run_suite(suite)
    assert code == 0
    assert out.startswith(f"suite {suite} ({result.scope})\n")


def test_cap_exceeded_exit_2(capsys):
    code, _, err = run(capsys, "compute", "theta", "--n", "10")
    assert code == 2
    assert "cap" in err
    # no row is written before every requested row is enumerated
    for target in ("s", "gamma"):
        code, out, err = run(capsys, "compute", target, "--max-n", "5",
                             "--route", "trees", "--cap", "4")
        assert code == 2 and out == "" and "cap" in err


def test_cap_override_warns_above_10(capsys):
    code, out, err = run(capsys, "compute", "theta", "--n", "4", "--cap", "11")
    assert code == 0
    assert "above 10" in err


def test_verify_pass_and_fail_codes(capsys):
    assert run(capsys, "verify", "routes", "--max-n", "6")[0] == 0
    code, out, _ = run(capsys, "verify", "thm1", "--max-n", "8")
    assert code == 0
    assert "suite thm1: PASS" in out
    assert "n <= 8" in out


def test_verify_prints_each_failing_check(capsys, monkeypatch):
    import ellipta.suites as vsuites

    checks = (
        vsuites.Check("first", True),
        vsuites.Check("second", False, "J_3 differs"),
        vsuites.Check("third", False),
    )
    monkeypatch.setitem(vsuites.SUITES, "dumont", lambda *a, **k: vsuites.SuiteResult(
        "dumont", "n <= 3", checks))
    code, out, _ = run(capsys, "verify", "dumont", "--max-n", "3")
    assert code == 1
    assert out == (
        "suite dumont (n <= 3)\n"
        "  ok: first\n"
        "  FAIL: second: J_3 differs\n"
        "  FAIL: third\n"
        "suite dumont: FAIL (3 checks)\n"
    )


def test_verify_reports_range(capsys):
    _, out, _ = run(capsys, "verify", "dumont", "--max-n", "4")
    assert "(n <= 4)" in out


def test_verify_warns_on_large_enumeration_range(capsys, monkeypatch):
    import ellipta.suites as vsuites

    monkeypatch.setitem(vsuites.SUITES, "dumont", lambda *a, **k: vsuites.SuiteResult(
        "dumont", "n <= 11", ()))
    code, _, err = run(capsys, "verify", "dumont", "--max-n", "11")
    assert code == 0
    assert "long runtimes" in err


@pytest.mark.parametrize("how", ["ValueError", "SystemExit", "KeyboardInterrupt", "os._exit"])
def test_verify_all_fails_in_one_line_when_the_forked_group_fails(capsys, fake_suites,
                                                                 two_cpus, how):
    fake_suites(child=how)
    code, out, err = run(capsys, "verify", "all")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    with pytest.raises(ChildProcessError):  # no child is left
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("target", ["s", "gamma", "t", "theta"])
def test_cache_roundtrip(tmp_path, capsys, target):
    cache_dir = str(tmp_path)
    code, out, _ = run(capsys, "cache", "write", "--target", target, "--max-n", "6",
                       "--cache-dir", cache_dir)
    assert code == 0
    path = tmp_path / f"{target}.jsonl"
    first = path.read_bytes()
    code, out, err = run(capsys, "cache", "read", "--target", target,
                         "--cache-dir", cache_dir)
    assert code == 0 and err == ""
    assert path.read_bytes() == first
    assert out == first.decode("ascii")


def test_cache_corruption_rebuilds_with_warning(tmp_path, capsys):
    cache_dir = str(tmp_path)
    run(capsys, "cache", "write", "--target", "s", "--max-n", "5",
        "--cache-dir", cache_dir)
    path = tmp_path / "s.jsonl"
    good = path.read_text()
    corrupted = (
        # a wrong entry breaks the row sum
        good.replace('{"n":3,"i":1,"j":0,"coeff":"4"}',
                     '{"n":3,"i":1,"j":0,"coeff":"5"}'),
        # a row 0 inside the s support: rows must be exactly 1 .. n_max
        '{"n":0,"i":0,"j":0,"coeff":"5"}\n' + good,
        # a stray row far past the last one must not set the rebuild size
        good + '{"n":40,"i":0,"j":0,"coeff":"1"}\n',
    )
    for text in corrupted:
        path.write_text(text)
        code, out, err = run(capsys, "cache", "read", "--target", "s",
                             "--cache-dir", cache_dir)
        assert code == 0
        assert "rebuilding" in err
        assert path.read_text() == good
        assert out == good


@pytest.mark.parametrize("max_n, rows", [((), 12), (("--max-n", "5"), 5)])
def test_cache_read_of_a_missing_file_builds_it(tmp_path, capsys, max_n, rows):
    cache_dir = str(tmp_path)
    path = tmp_path / "s.jsonl"
    code, out, err = run(capsys, "cache", "read", "--target", "s", *max_n,
                         "--cache-dir", cache_dir)
    assert code == 0
    assert err == f"warning: cache file {path} missing; rebuilding\n"
    assert {json.loads(line)["n"] for line in out.splitlines()} == set(
        range(1, rows + 1))
    assert path.read_text() == out
    code, again, err = run(capsys, "cache", "read", "--target", "s", *max_n,
                           "--cache-dir", cache_dir)
    assert code == 0 and err == "" and again == out


def _edit_record(text, cell, coeff=None):
    """Delete the record of cell (n, i, j), or set its coeff."""
    head = '{"n":%d,"i":%d,"j":%d,' % cell
    lines = text.splitlines(keepends=True)
    (k,) = [k for k, line in enumerate(lines) if line.startswith(head)]
    if coeff is None:
        del lines[k]
    else:
        lines[k] = head + '"coeff":"%d"}\n' % coeff
    return "".join(lines)


def _swap_theta_cells(text):
    # 64 and 1248 trade places: both cells have j = 0, so the weighted sum
    # of row 7 is unchanged
    assert '{"n":7,"i":1,"j":0,"coeff":"64"}' in text
    assert '{"n":7,"i":3,"j":0,"coeff":"1248"}' in text
    return _edit_record(_edit_record(text, (7, 1, 0), 1248), (7, 3, 0), 64)


@pytest.mark.parametrize(
    "target, max_n, corrupt",
    [
        # an entry deleted from inside a row: every record left is valid
        ("gamma", "9", lambda text: _edit_record(text, (9, 1, 1))),
        # a wrong value with the right sign, support and 4^(i+j) divisibility
        ("gamma", "9", lambda text: _edit_record(text, (9, 0, 1), 4)),
        ("t", "9", lambda text: _edit_record(text, (8, 1, 0))),
        ("theta", "7", _swap_theta_cells),
        # every record right, but a CRLF after each
        ("s", "4", lambda text: text.replace("\n", "\r\n")),
        ("theta", "4", lambda text: text.replace("\n", "\r\n")),
    ],
    ids=["gamma-deleted-entry", "gamma-divisible-value", "t-deleted-entry",
         "theta-swapped-cells", "s-crlf", "theta-crlf"],
)
def test_cache_file_unlike_its_recurrence_is_rebuilt(tmp_path, capsys, target,
                                                     max_n, corrupt):
    cache_dir = str(tmp_path)
    run(capsys, "cache", "write", "--target", target, "--max-n", max_n,
        "--cache-dir", cache_dir)
    path = tmp_path / f"{target}.jsonl"
    good = path.read_text()
    bad = corrupt(good)
    assert bad != good
    path.write_bytes(bad.encode("ascii"))
    code, out, err = run(capsys, "cache", "read", "--target", target,
                         "--cache-dir", cache_dir)
    assert code == 0
    assert "corrupted" in err and "rebuilding" in err
    assert out == good and path.read_bytes() == good.encode("ascii")


@pytest.mark.parametrize("target", ["s", "gamma", "t"])
@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_cache_hit_is_served_without_a_parse(tmp_path, capsys, monkeypatch,
                                             target, fmt):
    from ellipta import elliptic as el

    cache_dir = str(tmp_path)
    run(capsys, "cache", "write", "--target", target, "--max-n", "12",
        "--cache-dir", cache_dir)
    build = {"s": el.s_triangle_recurrence, "gamma": el.gamma_triangle_recurrence,
             "t": el.t_triangle_recurrence}[target]
    tri = build(12)
    want = {
        "json": el.triangle_to_jsonl(tri),
        "csv": el.triangle_to_csv(tri),
        "text": "".join("(%d,%d,%d) %d\n" % (n, i, j, tri[n][i, j])
                        for n in sorted(tri) for i, j in sorted(tri[n])),
    }[fmt]

    def no_parse(text):
        raise AssertionError("a verified hit must not parse the file")

    monkeypatch.setattr(el, "triangle_from_jsonl", no_parse)
    code, out, err = run(capsys, "cache", "read", "--target", target,
                         "--format", fmt, "--cache-dir", cache_dir)
    assert code == 0 and err == ""
    assert out == want


STRAY = '{"n":100000,"i":0,"j":0,"coeff":"1"}\n'


@pytest.mark.parametrize(
    "file_rows, tail, max_n, rows, warning",
    [
        (5, STRAY, (), 5, "corrupted (its bytes differ from its key)"),
        (6, "", ("--max-n", "10"), 10, "rebuild: file has 6 rows, 10 requested"),
        (None, "", (), 12, "missing; rebuilding"),
    ],
    ids=["stray-record", "short-file", "missing-file"],
)
def test_cache_rebuild_takes_one_row_stream(
        tmp_path, capsys, monkeypatch, file_rows, tail, max_n, rows, warning):
    from ellipta import elliptic as el

    cache_dir = str(tmp_path)
    path = tmp_path / "gamma.jsonl"
    _, want, _ = run(capsys, "compute", "gamma", "--max-n", str(rows))
    if file_rows:
        run(capsys, "cache", "write", "--target", "gamma", "--max-n",
            str(file_rows), "--cache-dir", cache_dir)
        path.write_text(path.read_text() + tail)
    real = el._stencil_rows
    taken = []  # rows taken from each generator the read starts

    def counting(*args):
        taken.append(0)
        k = len(taken) - 1
        for item in real(*args):
            taken[k] += 1
            yield item

    monkeypatch.setattr(el, "_stencil_rows", counting)
    code, out, err = run(capsys, "cache", "read", "--target", "gamma", *max_n,
                         "--cache-dir", cache_dir)
    assert code == 0 and warning in err
    assert out == want and path.read_text() == want
    # one row stream, and no row of it built twice
    assert taken == [rows]


def test_cache_theta_file_is_gamma_under_corollary_15(tmp_path, capsys):
    # ten rows, past the default tree cap of 9, with no --cap
    code, _, err = run(capsys, "cache", "write", "--target", "theta", "--max-n", "10",
                       "--cache-dir", str(tmp_path))
    assert code == 0 and err == ""
    text = (tmp_path / "theta.jsonl").read_text()
    assert max(json.loads(line)["n"] for line in text.splitlines()) == 10
    _, trees, _ = run(capsys, "compute", "theta", "--max-n", "8")
    assert text.startswith(trees)
    assert json.loads(text[len(trees):].splitlines()[0])["n"] == 9


def test_corrupt_cache_read_holds_one_row(tmp_path, capsys):
    # with no --max-n, the rebuild has the key's 100 rows, built and written
    # one at a time
    import hashlib
    import tracemalloc

    cache_dir = str(tmp_path)
    path = tmp_path / "s.jsonl"
    _, want, _ = run(capsys, "compute", "s", "--max-n", "100")
    run(capsys, "cache", "write", "--target", "s", "--max-n", "100",
        "--cache-dir", cache_dir)
    good = path.read_text()
    path.write_text(_edit_record(good, (60, 0, 0), 3))
    sink = _DigestSink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            code = main(["cache", "read", "--target", "s", "--cache-dir", cache_dir])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert capsys.readouterr().err == (f"warning: cache file {path} corrupted "
                                       "(its bytes differ from its key); rebuilding\n")
    assert sink.digest.digest() == hashlib.sha256(want.encode("ascii")).digest()
    assert peak <= len(good) // 3
    assert path.read_text() == good


class _DigestSink:
    """A stdout that keeps only a digest of what it is given."""

    def __init__(self):
        import hashlib

        self.digest = hashlib.sha256()

    def write(self, text):
        self.digest.update(text.encode("ascii"))
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_cache_hit_holds_one_row(tmp_path, capsys, fmt):
    import hashlib
    import tracemalloc

    cache_dir = str(tmp_path)
    path = tmp_path / "s.jsonl"
    _, want, _ = run(capsys, "compute", "s", "--max-n", "100", "--format", fmt)
    # a hit of 100 rows, then a short file of 90 rows, beside a stale
    # temporary file, rebuilt from row 1
    for file_rows, warning in (
            (100, ""), (90, "warning: rebuild: file has 90 rows, 100 requested\n")):
        run(capsys, "cache", "write", "--target", "s", "--max-n", str(file_rows),
            "--cache-dir", cache_dir)
        if file_rows == 100:
            good = path.read_text()
        stale = tmp_path / f"s.jsonl.{os.getpid()}.tmp"
        stale.write_text("stale\n")
        sink = _DigestSink()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(sink):
                code = main(["cache", "read", "--target", "s", "--max-n", "100",
                             "--format", fmt, "--cache-dir", cache_dir])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and capsys.readouterr().err == warning
        assert sink.digest.digest() == hashlib.sha256(want.encode("ascii")).digest()
        assert peak <= len(good) // 3
        # a rebuild replaces the stale file; it does not append to it
        assert path.read_text() == good
        stale.unlink(missing_ok=True)


def test_cache_short_file_rebuilds_to_requested_rows(tmp_path, capsys):
    cache_dir = str(tmp_path)
    run(capsys, "cache", "write", "--target", "s", "--max-n", "6",
        "--cache-dir", cache_dir)
    code, out, err = run(capsys, "cache", "read", "--target", "s",
                         "--max-n", "10", "--cache-dir", cache_dir)
    assert code == 0
    assert "rebuild: file has 6 rows, 10 requested" in err
    rows = {json.loads(line)["n"] for line in out.splitlines()}
    assert rows == set(range(1, 11))
    assert (tmp_path / "s.jsonl").read_text() == out
    # the rebuilt file now holds enough rows: a second read is silent
    code, again, err = run(capsys, "cache", "read", "--target", "s",
                           "--max-n", "10", "--cache-dir", cache_dir)
    assert code == 0 and err == "" and again == out


def test_cache_failed_write_keeps_previous_file(tmp_path, capsys, monkeypatch):
    from ellipta import elliptic as el

    cache_dir = str(tmp_path)
    run(capsys, "cache", "write", "--target", "s", "--max-n", "4",
        "--cache-dir", cache_dir)
    path, key = tmp_path / "s.jsonl", tmp_path / "s.jsonl.key"
    before, keyed = path.read_bytes(), key.read_bytes()
    # a serialized row that cannot be encoded fails inside the write
    real = el.format_row
    monkeypatch.setattr(el, "format_row",
                        lambda n, row, fmt: real(n, row, fmt) + "\u00e9\n")
    code, _, err = run(capsys, "cache", "write", "--target", "s", "--max-n", "6",
                       "--cache-dir", cache_dir)
    assert code == 1 and err.startswith("error: ")
    assert (path.read_bytes(), key.read_bytes()) == (before, keyed)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.jsonl", "s.jsonl.key"]


def test_cache_write_failing_after_some_rows_keeps_previous_file(
        tmp_path, capsys, monkeypatch):
    from ellipta import elliptic as el

    cache_dir = str(tmp_path)
    run(capsys, "cache", "write", "--target", "s", "--max-n", "4",
        "--cache-dir", cache_dir)
    path, key = tmp_path / "s.jsonl", tmp_path / "s.jsonl.key"
    before, keyed = path.read_bytes(), key.read_bytes()
    real = el.format_row
    files_at_failure = []

    def fail_at_row_5(n, row, fmt):
        if n == 5:
            files_at_failure.extend(sorted(p.name for p in tmp_path.iterdir()))
            raise OSError("No space left on device")
        return real(n, row, fmt)

    monkeypatch.setattr(el, "format_row", fail_at_row_5)
    code, out, err = run(capsys, "cache", "write", "--target", "s", "--max-n", "6",
                         "--cache-dir", cache_dir)
    assert code == 1 and out == ""
    assert err == "error: No space left on device\n"
    # the write had a temporary file open beside the old file and its key
    assert len(files_at_failure) == 3 and files_at_failure[0] == "s.jsonl"
    assert files_at_failure[1].startswith("s.jsonl.")
    assert files_at_failure[1].endswith(".tmp")
    assert files_at_failure[2] == "s.jsonl.key"
    assert (path.read_bytes(), key.read_bytes()) == (before, keyed)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.jsonl", "s.jsonl.key"]


def _rows_built(monkeypatch, target):
    """The row numbers that cache actions take from target's row source."""
    from ellipta import cli

    real, built = cli.CACHE_ROWS[target], []

    def counting():
        for n, row in real():
            built.append(n)
            yield n, row

    monkeypatch.setitem(cli.CACHE_ROWS, target, counting)
    return built


@pytest.mark.parametrize("target", ["s", "gamma", "t", "theta"])
@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_cache_hit_builds_no_row(tmp_path, capsys, monkeypatch, target, fmt):
    from ellipta import cli
    from ellipta import elliptic as el

    cache_dir = str(tmp_path)
    run(capsys, "cache", "write", "--target", target, "--max-n", "9",
        "--cache-dir", cache_dir)
    want = (el.CSV_HEADER if fmt == "csv" else "") + "".join(
        el.format_row(n, row, fmt) for n, row in islice(cli.CACHE_ROWS[target](), 9))

    def no_rows():
        raise AssertionError("a keyed hit must build no row")

    for name in cli.CACHE_ROWS:
        monkeypatch.setitem(cli.CACHE_ROWS, name, no_rows)
    for max_n in ((), ("--max-n", "9")):
        code, out, err = run(capsys, "cache", "read", "--target", target, *max_n,
                             "--format", fmt, "--cache-dir", cache_dir)
        assert (code, err) == (0, "")
        assert out == want


def _keyed_file(tmp_path, capsys, target, rows):
    """Write target's cache file of `rows` rows; return its bytes."""
    assert run(capsys, "cache", "write", "--target", target, "--max-n", str(rows),
               "--cache-dir", str(tmp_path))[0] == 0
    return (tmp_path / f"{target}.jsonl").read_bytes()


def _cut_records(data: bytes) -> bool:
    """Whether the keyed read of data converts three blocks or more, and a
    record straddles a block cut."""
    from ellipta.cli import CACHE_BLOCK

    cuts = range(CACHE_BLOCK, len(data), CACHE_BLOCK)
    return len(data) >= 3 * CACHE_BLOCK and any(data[c - 1:c] != b"\n" for c in cuts)


@pytest.mark.parametrize("target", ["s", "gamma", "t", "theta"])
@pytest.mark.parametrize("fmt", ["csv", "text"])
def test_keyed_read_across_block_cuts_equals_compute(tmp_path, capsys, target, fmt):
    from ellipta import cli
    from ellipta import elliptic as el

    assert _cut_records(_keyed_file(tmp_path, capsys, target, 50))
    if target in ("s", "gamma"):
        want = run(capsys, "compute", target, "--max-n", "50", "--format", fmt)[1]
    else:  # compute lists no rows of t, and theta's only by enumerating trees
        want = (el.CSV_HEADER if fmt == "csv" else "") + "".join(
            el.format_row(n, row, fmt) for n, row in islice(cli.CACHE_ROWS[target](), 50))
    code, out, err = run(capsys, "cache", "read", "--target", target,
                         "--format", fmt, "--cache-dir", str(tmp_path))
    assert (code, err) == (0, "")
    assert out == want


def test_keyed_read_converts_to_any_row_format(tmp_path, capsys, monkeypatch):
    # a format none of the listed ones is: the conversion is derived from
    # ROW_FORMATS, here deleting braces, quotes and names and replacing
    # each comma piece by a tab
    from ellipta import cli
    from ellipta import elliptic as el

    assert _cut_records(_keyed_file(tmp_path, capsys, "gamma", 50))
    monkeypatch.setitem(el.ROW_FORMATS, "tsv", "%d\t%d\t%d\t%d\n")
    monkeypatch.setattr(cli, "FORMATS", (*cli.FORMATS, "tsv"))
    want = "".join(el.format_row(n, row, "tsv")
                   for n, row in islice(cli.CACHE_ROWS["gamma"](), 50))
    assert want.startswith("1\t0\t0\t1\n2\t0\t0\t1\n")
    code, out, err = run(capsys, "cache", "read", "--target", "gamma",
                         "--format", "tsv", "--cache-dir", str(tmp_path))
    assert (code, err) == (0, "")
    assert out == want


@pytest.mark.parametrize("argv, first", [
    (("compute", "s", "--max-n", "60", "--format", "text"), b"(1,0,0) 1\n"),
    (("cache", "read", "--target", "gamma", "--format", "csv"), b"n,i,j,value\n"),
])
def test_a_reader_that_stops_early_ends_the_command_quietly(
        tmp_path, capsys, argv, first):
    from ellipta.cli import EXIT_BROKEN_PIPE

    if argv[0] == "cache":
        argv += ("--cache-dir", str(tmp_path))
        _keyed_file(tmp_path, capsys, "gamma", 60)
    # both outputs are larger than a pipe holds: the command is still
    # writing when its reader closes
    with subprocess.Popen([sys.executable, "-m", "ellipta", *argv],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env={**os.environ, "PYTHONPATH": SRC}) as proc:
        line = proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    assert line == first
    assert (proc.returncode, err) == (EXIT_BROKEN_PIPE, b"")


def test_cache_file_edited_in_place_is_rebuilt_then_served_by_key(
        tmp_path, capsys, monkeypatch):
    cache_dir = str(tmp_path)
    run(capsys, "cache", "write", "--target", "s", "--max-n", "5",
        "--cache-dir", cache_dir)
    path, key = tmp_path / "s.jsonl", tmp_path / "s.jsonl.key"
    good, keyed = path.read_bytes(), key.read_bytes()
    with open(path, "r+b") as fh:  # same file, same key, one byte changed
        fh.seek(good.index(b'{"n":3,"i":1,"j":0,"coeff":"4"}') + 28)
        fh.write(b"5")
    assert key.read_bytes() == keyed
    built = _rows_built(monkeypatch, "s")
    code, out, err = run(capsys, "cache", "read", "--target", "s",
                         "--cache-dir", cache_dir)
    assert code == 0
    assert err == (f"warning: cache file {path} corrupted "
                   "(its bytes differ from its key); rebuilding\n")
    assert out == good.decode("ascii") and path.read_bytes() == good
    assert key.read_bytes() == keyed  # the rebuild's own
    built.clear()
    code, again, err = run(capsys, "cache", "read", "--target", "s",
                           "--cache-dir", cache_dir)
    assert (code, err, again, built) == (0, "", out, [])


def _edit_key(field, value):
    """An edit that sets one field of a cache file's key: 0 the code key,
    1 the digest, 2 the row count."""
    def edit(path):
        key = Path(f"{path}.key")
        fields = key.read_text().split(" ")
        fields[field] = value
        key.write_text(" ".join(fields))

    return edit


def _edit_bytes(edit):
    return lambda path: path.write_bytes(edit(path.read_bytes()))


CORRUPTED = "cache file {path} corrupted (its bytes differ from its key); rebuilding"
# Each way a key can fail to vouch for a 5-row s file of 17 lines:
# (edit of the file at path, --max-n, warning, rows of the rebuild)
NOT_VOUCHED = {
    "missing": (lambda path: path.unlink(), None,
                "cache file {path} missing; rebuilding", 12),
    "no-key": (lambda path: Path(f"{path}.key").unlink(), None,
               "cache file {path} has no key; rebuilding", 12),
    "not-a-key": (lambda path: Path(f"{path}.key").write_text("not a key"), None,
                  "cache file {path} has a malformed key; rebuilding", 12),
    "other-code": (_edit_key(0, "0" * 64), None,
                   "cache file {path} is keyed by other code; rebuilding", 5),
    "non-ascii": (_edit_bytes(lambda data: data.replace(b'"4"', b'"\xe9"', 1)),
                  None, CORRUPTED, 5),
    "cut-inside-row-5": (_edit_bytes(lambda data: data[:-5]), None, CORRUPTED, 5),
    # --max-n 3 asks for fewer rows than the file has
    "edited-row-5": (_edit_bytes(lambda data: data.replace(b'"44"', b'"45"', 1)),
                     "3", CORRUPTED, 3),
    # a key that counts more rows than the file has lines does not size the
    # rebuild
    "empty-file": (_edit_bytes(lambda data: b""), None, CORRUPTED, 12),
    "key-counts-more-rows-than-lines": (
        _edit_bytes(lambda data: b"".join(data.splitlines(keepends=True)[:4])),
        None, CORRUPTED, 12),
    "short": (lambda path: None, "7", "rebuild: file has 5 rows, 7 requested", 7),
}


@pytest.mark.parametrize("kind", NOT_VOUCHED)
@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_cache_read_rebuilds_a_file_no_key_vouches_for(tmp_path, capsys, monkeypatch,
                                                       fmt, kind):
    import hashlib

    from ellipta import cli

    edit, max_n, warning, rows = NOT_VOUCHED[kind]
    cache_dir = str(tmp_path)
    path = tmp_path / "s.jsonl"
    run(capsys, "cache", "write", "--target", "s", "--max-n", "5",
        "--cache-dir", cache_dir)
    edit(path)
    _, want, _ = run(capsys, "compute", "s", "--max-n", str(rows), "--format", fmt)
    _, good, _ = run(capsys, "compute", "s", "--max-n", str(rows))
    argv = ["cache", "read", "--target", "s", "--format", fmt, "--cache-dir",
            cache_dir, *(("--max-n", max_n) if max_n else ())]
    built = _rows_built(monkeypatch, "s")
    code, out, err = run(capsys, *argv)
    # one warning, one row stream from row 1, the rows asked for, a new key
    assert (code, err) == (0, f"warning: {warning.format(path=path)}\n")
    assert built == list(range(1, rows + 1))
    assert out == want and path.read_text() == good
    digest = hashlib.sha256(good.encode("ascii")).hexdigest()
    assert Path(f"{path}.key").read_text() == f"{cli._code_key()} {digest} {rows}"
    # so the next read is a silent hit that builds no row
    built.clear()
    assert (run(capsys, *argv), built) == ((0, out, ""), [])


def test_cache_on_a_file_system_without_xattrs(tmp_path, capsys, monkeypatch):
    # the key is a file beside the cache file, so a file system that keeps
    # no extended attributes still serves a hit
    def unsupported(*args):
        raise OSError(errno.ENOTSUP, os.strerror(errno.ENOTSUP))

    for name in ("setxattr", "getxattr"):
        monkeypatch.setattr(os, name, unsupported, raising=False)
    cache_dir = str(tmp_path)
    run(capsys, "cache", "write", "--target", "t", "--max-n", "8",
        "--cache-dir", cache_dir)
    good = (tmp_path / "t.jsonl").read_text()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.jsonl", "t.jsonl.key"]
    built = _rows_built(monkeypatch, "t")
    code, out, err = run(capsys, "cache", "read", "--target", "t",
                         "--cache-dir", cache_dir)
    assert (code, err, out, built) == (0, "", good, [])


def test_unexpected_error_is_one_line_exit_1(capsys, monkeypatch):
    from ellipta import cli

    def boom(args, parser):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_compute", boom)
    code, out, err = run(capsys, "compute", "j", "--n", "3")
    assert code == 1
    assert out == ""
    assert err == "error: RuntimeError: boom\n"


def test_cache_env_var_and_flag_priority(tmp_path, capsys, monkeypatch):
    env_dir = tmp_path / "env"
    flag_dir = tmp_path / "flag"
    env_dir.mkdir()
    flag_dir.mkdir()
    monkeypatch.setenv("ELLIPTA_CACHE_DIR", str(env_dir))
    code, _, _ = run(capsys, "cache", "write", "--target", "t", "--max-n", "4")
    assert code == 0 and (env_dir / "t.jsonl").exists()
    code, _, _ = run(capsys, "cache", "write", "--target", "t", "--max-n", "4",
                     "--cache-dir", str(flag_dir))
    assert code == 0 and (flag_dir / "t.jsonl").exists()


def test_cache_requires_directory(capsys, monkeypatch):
    monkeypatch.delenv("ELLIPTA_CACHE_DIR", raising=False)
    assert run(capsys, "cache", "write", "--target", "s")[0] == 2


def test_cache_clear_empty_dir_is_noop(tmp_path, capsys):
    code, out, _ = run(capsys, "cache", "clear", "--cache-dir", str(tmp_path))
    assert code == 0
    assert "cleared 0" in out


def test_cache_clear_removes_files(tmp_path, capsys):
    run(capsys, "cache", "write", "--target", "s", "--max-n", "3",
        "--cache-dir", str(tmp_path))
    code, out, _ = run(capsys, "cache", "clear", "--cache-dir", str(tmp_path))
    assert code == 0 and "cleared 1" in out
    assert not (tmp_path / "s.jsonl").exists()


def test_cache_clear_removes_each_file_and_its_key(tmp_path, capsys):
    for target in ("s", "t"):
        run(capsys, "cache", "write", "--target", target, "--max-n", "3",
            "--cache-dir", str(tmp_path))
    (tmp_path / "t.jsonl").unlink()  # a key file left without its data file
    code, out, _ = run(capsys, "cache", "clear", "--cache-dir", str(tmp_path))
    assert (code, out) == (0, "cleared 1 cache file(s)\n")
    assert list(tmp_path.iterdir()) == []


def test_module_entry_point():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "ellipta", "compute", "j", "--n", "6",
         "--format", "text"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1 + 44x + 16x^2\n"


def _run_module(*argv):
    """Run ellipta as `python -I -B -m ellipta ARGV` does, with this tree's
    src first on the path (`-I` ignores PYTHONPATH, so `runpy` stands in
    for `-m`): `main` gets no argv and parses sys.argv. Returns the process
    and the sorted names of the modules it left loaded, printed to stderr
    as it exits."""
    code = (
        "import atexit, runpy, sys\n"
        f"sys.path.insert(0, {SRC!r})\n"
        "atexit.register(lambda: print(*sorted(sys.modules), file=sys.stderr))\n"
        "runpy.run_module('ellipta', run_name='__main__', alter_sys=True)\n"
    )
    proc = subprocess.run([sys.executable, "-I", "-B", "-c", code, *argv],
                          capture_output=True, text=True)
    return proc, proc.stderr.splitlines()[-1].split()


ALL_MODULES = ["cli", "elliptic", "exactpoly", "gammakit", "grammarcalc",
               "suites", "treeoracle"]
COMMAND_MODULES = [
    # a keyed json hit hashes and streams the file: no row, no row format
    (("cache", "read", "--target", "gamma"), ["cli"]),
    # csv and text rewrite the json records with elliptic's row formats
    (("cache", "read", "--target", "gamma", "--format", "csv"),
     ["cli", "elliptic", "exactpoly"]),
    (("cache", "clear", "--target", "t"), ["cli"]),
    (("cache", "write", "--target", "s", "--max-n", "6"),
     ["cli", "elliptic", "exactpoly"]),
    (("compute", "j", "--n", "30", "--route", "recurrence"),
     ["cli", "elliptic", "exactpoly"]),
    (("compute", "j", "--n", "30", "--route", "operator"),
     ["cli", "elliptic", "exactpoly", "grammarcalc"]),
    (("compute", "decompose", "--n", "9"), ["cli", "elliptic", "exactpoly", "gammakit"]),
    # a triangle's --cap help names the tree cap without loading treeoracle
    (("compute", "s", "--n", "5"), ["cli", "elliptic", "exactpoly"]),
    (("compute", "gamma", "--n", "5"), ["cli", "elliptic", "exactpoly"]),
    # the tree oracles load grammarcalc only for the grammar alphabets
    (("compute", "s", "--n", "5", "--route", "trees"),
     ["cli", "elliptic", "exactpoly", "treeoracle"]),
    # a suite loads treeoracle and grammarcalc only when it runs them
    (("verify", "thm1", "--max-n", "3"),
     ["cli", "elliptic", "exactpoly", "gammakit", "suites"]),
    # `verify all` loads all that either of its processes runs before it
    # forks
    (("verify", "all"), ALL_MODULES),
    (("--help",), ["cli"]),
    (("verify", "--help"), ["cli", "elliptic", "exactpoly", "gammakit", "suites"]),
]


@pytest.mark.parametrize("argv, modules", COMMAND_MODULES,
                         ids=[" ".join(argv) for argv, _ in COMMAND_MODULES])
def test_a_command_loads_only_the_modules_it_runs(tmp_path, capsys, argv, modules):
    if argv[0] == "cache":
        argv += ("--cache-dir", str(tmp_path))
        assert run(capsys, "cache", "write", "--target", "gamma", "--max-n", "3",
                   "--cache-dir", str(tmp_path))[0] == 0
    proc, loaded = _run_module(*argv)
    assert proc.returncode == 0 and "warning: " not in proc.stderr
    assert [m for m in loaded if m.split(".")[0] == "ellipta"] == [
        "ellipta", *(f"ellipta.{m}" for m in modules)]
    assert not {"dataclasses", "inspect"} & set(loaded)
    if argv[:2] == ("cache", "read"):  # served as in process, by the key
        assert proc.stdout == run(capsys, *argv)[1]


def test_help_of_every_verb_lists_its_leaves(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0 and out.startswith("usage: ellipta [-h] {compute,verify,cache} ...\n")
    for verb in VERBS:
        code, out, err = run(capsys, verb, "--help")
        assert (code, err) == (0, "")
        assert out.startswith(f"usage: ellipta {verb} [-h]")
        assert "{" + ",".join(leaf_names(verb)) + "}" in out


@pytest.mark.parametrize("verb, leaf", [(verb, leaf) for verb in VERBS
                                        for leaf in leaf_names(verb)])
def test_help_of_every_leaf_prints_its_usage(capsys, verb, leaf):
    code, out, err = run(capsys, verb, leaf, "--help")
    assert (code, err) == (0, "")
    assert out.startswith(f"usage: ellipta {verb} {leaf} [-h]")

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ellipta.cli import build_parser, main

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


@pytest.mark.parametrize("route", ["operator", "recurrence", "viennot", "series"])
def test_compute_j_routes_agree(capsys, route):
    code, out, _ = run(capsys, "compute", "j", "--n", "7", "--route", route,
                       "--format", "text")
    assert code == 0
    assert out == "1 + 135x + 135x^2 + x^3\n"


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
    build_parser().parse_args(list(base))  # valid without the option
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
    args = build_parser().parse_args(["verify", "all", "--seed", "5"])
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
def test_verify_all_fails_in_one_line_when_the_forked_group_fails(capsys, fake_suites, how):
    fake_suites("dumont", how)
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
        "text": "".join("(%d,%d,%d) %d\n" % e for e in el.triangle_entries(tri)),
    }[fmt]

    def no_parse(text):
        raise AssertionError("a verified hit must not parse the file")

    monkeypatch.setattr(el, "triangle_from_jsonl", no_parse)
    code, out, err = run(capsys, "cache", "read", "--target", target,
                         "--format", fmt, "--cache-dir", cache_dir)
    assert code == 0 and err == ""
    assert out == want


def test_cache_verifier_builds_one_row_past_the_match(tmp_path, capsys,
                                                      monkeypatch):
    from ellipta import elliptic as el

    cache_dir = str(tmp_path)
    run(capsys, "cache", "write", "--target", "gamma", "--max-n", "5",
        "--cache-dir", cache_dir)
    path = tmp_path / "gamma.jsonl"
    good = path.read_text()
    path.write_text(good + '{"n":100000,"i":0,"j":0,"coeff":"1"}\n')
    real = el._stencil_rows
    taken = []  # rows taken from each generator the read starts

    def counting(*args):
        taken.append(0)
        k = len(taken) - 1
        for item in real(*args):
            taken[k] += 1
            yield item

    monkeypatch.setattr(el, "_stencil_rows", counting)
    code, out, err = run(capsys, "cache", "read", "--target", "gamma",
                         "--cache-dir", cache_dir)
    assert code == 0 and "corrupted (row 6 differs" in err
    assert out == good and path.read_text() == good
    verifier, *rebuild = taken
    assert verifier <= 6
    assert rebuild == [5]


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


def test_cache_corrupt_read_serves_every_matched_row(tmp_path, capsys):
    cache_dir = str(tmp_path)
    run(capsys, "cache", "write", "--target", "s", "--max-n", "6",
        "--cache-dir", cache_dir)
    path = tmp_path / "s.jsonl"
    good = path.read_text()
    five = "".join(line for line in good.splitlines(keepends=True)
                   if json.loads(line)["n"] <= 5)
    path.write_text(_edit_record(good, (6, 0, 0)))
    # --max-n 3 asks for fewer rows than already matched and served
    code, out, err = run(capsys, "cache", "read", "--target", "s", "--max-n", "3",
                         "--cache-dir", cache_dir)
    assert code == 0
    assert "corrupted (row 6 differs from the reference); rebuilding" in err
    assert out == five and path.read_text() == five


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
def test_cache_hit_holds_one_row(tmp_path, capsys, monkeypatch, fmt):
    import hashlib
    import tracemalloc

    cache_dir = str(tmp_path)
    run(capsys, "cache", "write", "--target", "s", "--max-n", "100",
        "--cache-dir", cache_dir)
    size = (tmp_path / "s.jsonl").stat().st_size
    _, want, _ = run(capsys, "compute", "s", "--max-n", "100", "--format", fmt)
    sink = _DigestSink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        code = main(["cache", "read", "--target", "s", "--max-n", "100",
                     "--format", fmt, "--cache-dir", cache_dir])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and capsys.readouterr().err == ""
    assert sink.digest.digest() == hashlib.sha256(want.encode("ascii")).digest()
    assert peak <= size // 3


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
    path = tmp_path / "s.jsonl"
    before = path.read_bytes()
    # a serialized row that cannot be encoded fails inside the write
    real = el.format_row
    monkeypatch.setattr(el, "format_row",
                        lambda n, row, fmt: real(n, row, fmt) + "\u00e9\n")
    code, _, err = run(capsys, "cache", "write", "--target", "s", "--max-n", "6",
                       "--cache-dir", cache_dir)
    assert code == 1 and err.startswith("error: ")
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.jsonl"]


def test_cache_write_failing_after_some_rows_keeps_previous_file(
        tmp_path, capsys, monkeypatch):
    from ellipta import elliptic as el

    cache_dir = str(tmp_path)
    run(capsys, "cache", "write", "--target", "s", "--max-n", "4",
        "--cache-dir", cache_dir)
    path = tmp_path / "s.jsonl"
    before = path.read_bytes()
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
    # the write had a temporary file open beside the old one
    assert len(files_at_failure) == 2 and files_at_failure[0] == "s.jsonl"
    assert files_at_failure[1].startswith("s.jsonl.")
    assert files_at_failure[1].endswith(".tmp")
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.jsonl"]


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


def test_module_entry_point():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "ellipta", "compute", "j", "--n", "6",
         "--format", "text"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1 + 44x + 16x^2\n"

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ellipta.cli import main

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


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "compute", "j")[0] == 2  # missing --n
    assert run(capsys, "compute", "j", "--n", "3", "--route", "nope")[0] == 2
    assert run(capsys, "verify", "unknown-suite")[0] == 2
    assert run(capsys, "compute", "s", "--n", "2", "--max-n", "3")[0] == 2


def test_cap_exceeded_exit_2(capsys):
    code, _, err = run(capsys, "compute", "theta", "--n", "10")
    assert code == 2
    assert "cap" in err


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


def test_cache_roundtrip(tmp_path, capsys):
    cache_dir = str(tmp_path)
    code, out, _ = run(capsys, "cache", "write", "--target", "s", "--max-n", "6",
                       "--cache-dir", cache_dir)
    assert code == 0
    path = tmp_path / "s.jsonl"
    first = path.read_bytes()
    code, out, err = run(capsys, "cache", "read", "--target", "s",
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
    path.write_text(good.replace('{"n":3,"i":1,"j":0,"coeff":"4"}',
                                 '{"n":3,"i":1,"j":0,"coeff":"5"}'))
    code, out, err = run(capsys, "cache", "read", "--target", "s",
                         "--cache-dir", cache_dir)
    assert code == 0
    assert "rebuilding" in err
    assert path.read_text() == good


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
    # a serialized text that cannot be encoded fails inside the write
    real = el.triangle_to_jsonl
    monkeypatch.setattr(el, "triangle_to_jsonl", lambda tri: real(tri) + "\u00e9\n")
    code, _, err = run(capsys, "cache", "write", "--target", "s", "--max-n", "6",
                       "--cache-dir", cache_dir)
    assert code == 1 and err.startswith("error: ")
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

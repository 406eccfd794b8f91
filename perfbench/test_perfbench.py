"""Tests of the benchmark itself: failed ops are counted and never timed,
the layer tracing resolves its targets and does its span arithmetic, and
BENCHMARK.json lists exactly the metrics the benchmark reports.

Run from the repository root: python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
from workloads import WORKLOADS, Op

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

J4 = ("compute", "j", "--n", "4")
J4_SHA = "501a2ed8b2ec31b0006fce32a25a107476a72c208650ba302d37e684cdf000e8"
GOOD = Op("good", J4, "stdout", J4_SHA)


@pytest.mark.parametrize(
    "bad, reason",
    [
        (Op("tampered", J4, "stdout", "0" * 64), "stdout sha256"),
        (Op("exit", ("compute", "j", "--n", "-1"), "stdout", J4_SHA), "exit code 2"),
        (
            Op("no_pass", ("verify", "routes", "--max-n", "4"), "verify",
               suites=("routes", "thm1")),
            "no PASS verdict for suite(s) thm1",
        ),
    ],
)
def test_wrong_op_counts_as_failed_and_is_never_timed(bad, reason, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setitem(WORKLOADS, "t", (GOOD, bad))
    assert run.main(["--workload", "t", "--seed", "0", "--seconds", "0.01"]) == 0

    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (2, 1)
    assert all(m["value"] is None for m in result["metrics"].values())

    (record_path,) = tmp_path.glob("t-seed0-trace0-*.json")
    record = json.loads(record_path.read_text())
    assert record["failed_share"] == pytest.approx(1 / 2)
    good, wrong = record["samples"]
    assert good["ok"] and good["reason"] is None
    assert not wrong["ok"] and wrong["reason"].startswith(reason)
    # The good op's time alone would give a wall time; the failed op's
    # absence must not.
    assert run.end_to_end((GOOD,), [good]) is not None
    assert run.end_to_end((GOOD, bad), [good, wrong]) is None


def test_end_to_end_leaves_out_failed_samples():
    def sample(seconds, ok):
        return {"op": "good", "norm_s": seconds, "norm_setup_s": 0.1, "rss_mib": 10.0, "ok": ok}

    samples = [sample(1.0, True), sample(1.2, True), sample(1000.0, False)]
    metrics = run.end_to_end((GOOD,), samples)
    assert metrics["wall_s"] == pytest.approx(1.1)
    assert metrics["setup_s"] == pytest.approx(0.1)


def test_times_are_scaled_to_the_reference_host_speed():
    # Calibrations twice as fast as the reference: a host twice as fast.
    assert run.normalized(1.0, [run.CAL_REF_S / 2, run.CAL_REF_S / 2]) == pytest.approx(2.0)


def test_install_refuses_a_name_that_no_longer_resolves(monkeypatch):
    from ellipta import elliptic, exactpoly

    before = (exactpoly.uni_mul, elliptic.uni_mul)
    monkeypatch.setattr(tracing, "TRACED", {"exactpoly": ("uni_mul", "uni_fft_mul")})
    with pytest.raises(tracing.TraceTargetMissing, match="ellipta.exactpoly.uni_fft_mul"):
        tracing.install(tracing.Tracer())
    assert (exactpoly.uni_mul, elliptic.uni_mul) == before


def test_traced_child_reaches_functions_imported_by_name_and_dispatch_dicts(tmp_path):
    # j_sequence reaches j_viennot through elliptic.J_ROUTES, and j_viennot
    # calls the uni_mul that elliptic imported by name.
    report = tmp_path / "report.json"
    done = subprocess.run(
        [sys.executable, str(run.CHILD), str(report), "trace", "--",
         "compute", "j", "--n", "10", "--route", "viennot"],
        capture_output=True, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
    stats = json.loads(report.read_text())["trace"]["stats"]
    assert stats["elliptic.j_viennot"]["calls"] == 1
    assert stats["exactpoly.uni_mul"]["calls"] > 0
    assert stats["exactpoly.uni_mul"]["coef_mults"] > 0
    assert stats["cli.main"]["calls"] == 1


def test_self_time_subtracts_nested_spans():
    ticks = iter([0.0, 1.0, 4.0, 5.0, 7.5, 10.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))

    def inner():
        return True

    def failing():
        raise ValueError("boom")

    def outer():
        tracer.call("gammakit.is_unimodal", inner, (), {})  # 1.0 .. 4.0
        with pytest.raises(ValueError):
            tracer.call("gammakit.is_unimodal", failing, (), {})  # 5.0 .. 7.5

    tracer.call("cli.main", outer, (), {})  # 0.0 .. 10.0
    stats = tracer.stats
    assert stats["cli.main"]["calls"] == 1
    assert stats["cli.main"]["self_s"] == pytest.approx(10.0 - 3.0 - 2.5)
    assert stats["gammakit.is_unimodal"]["calls"] == 2
    assert stats["gammakit.is_unimodal"]["self_s"] == pytest.approx(5.5)
    assert tracer.errors == 1

    layers = tracing.layer_metrics(tracing.merge([tracer.snapshot()]))
    assert layers["cli.self_s"] == pytest.approx(4.5)
    assert layers["gammakit.self_s"] == pytest.approx(5.5)
    assert layers["trace.errors"] == 1


def test_counts_must_repeat_but_times_may_vary():
    first = {"cli.main.calls": 4, "cli.main.self_s": 0.5, "trace.overhead": 0.1}
    second = {"cli.main.calls": 5, "cli.main.self_s": 0.7, "trace.overhead": 0.2}
    assert run.count_mismatches([first, dict(first, **{"cli.main.self_s": 0.9})]) == []
    assert run.count_mismatches([first, second]) == ["cli.main.calls"]


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert spec["per_layer"] == tracing.metric_specs()
    reported = set(tracing.layer_metrics(tracing.merge([]))) | set(tracing.RUNNER_METRICS)
    assert {m["name"] for m in spec["per_layer"]} == reported
    assert len(spec["per_layer"]) <= 128


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "jroutes", "--seed", "0",
         "--seconds", "1"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
    assert "no ellipta sources" in done.stderr

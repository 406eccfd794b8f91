"""ellipta benchmark: closed-loop CLI workloads, one client, one fresh
interpreter per op.

Usage (from the repository root):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each op of the workload runs in its own interpreter, one at a time, because
`grammarcalc._iterate_cached` lives as long as the process: ops sharing a
process would time the cache, not the work. Users run the CLI one process
at a time too. Passes over the workload repeat until about S seconds have
been measured.

Times are normalized to a reference host speed. The shared hosts this
benchmark was written on change speed by up to 60% within seconds and stay
slow for minutes, for CPU time as much as for wall time. So before every op
run.py also times `calibrate()`, an interpreter that only imports a
fixed set of standard-library modules: the same kind of work as an op's
start-up (process creation, imports, allocation), and untouched by any
change to ellipta. It is timed again after the op, and the op's times are
multiplied by CAL_REF_S over the mean of those two calibration times. The
raw times are kept in the record.

--trace 0 prints the end-to-end metrics: wall_s (sum over ops of the median
spawn-to-exit time), setup_s (op count times the median spawn-to-ready
time over every op of the run) and peak_rss_mib (largest per-op median
child ru_maxrss).
--trace 1 runs one untraced pass, then at least two passes with the layer
tracing of tracing.py installed in each child; it prints the per-layer
metrics and checks that every work count repeats exactly between traced
passes.

Every op's output is checked (see workloads.check). A failed op counts in
"failed" and its time is left out of every metric. The last stdout line is
the JSON result; a fuller record with the raw per-op samples is written to
perfbench-out/.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing
from workloads import WORKLOADS, Op, check

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench-out"
CHILD = Path(__file__).resolve().parent / "child.py"
# The median `calibrate()` time on the 2-core host the benchmark was
# written on, so that normalized seconds read close to that host's seconds.
CAL_REF_S = 0.085
CAL_IMPORTS = "import argparse, dataclasses, decimal, fractions, json, random, statistics"

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


def now() -> float:
    # The child stamps its ready time on the same clock.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def calibrate() -> float:
    """Spawn-to-exit time of an interpreter importing CAL_IMPORTS, a
    yardstick for the host's speed at this moment."""
    start = now()
    subprocess.run([sys.executable, "-I", "-B", "-c", CAL_IMPORTS], check=True)
    return now() - start


def normalized(seconds: float, cal: list) -> float:
    """`seconds` at the reference host speed, given the calibration times
    measured around it."""
    return seconds * CAL_REF_S / statistics.mean(cal)


def _sha256_file(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except FileNotFoundError:
        return None


class Runner:
    """Spawns op children and records one sample per op."""

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.samples = []
        self._ids = itertools.count()

    def run_pass(self, index: int, ops, mode: str) -> float:
        """Run every op once, in a fresh cache dir; returns the pass's raw
        wall time."""
        cache_dir = Path(tempfile.mkdtemp(dir=self.work))
        start = now()
        try:
            for op in ops:
                self.samples.append(self.run_op(op, cache_dir, mode, index))
        finally:
            shutil.rmtree(cache_dir)
        return now() - start

    def run_op(self, op: Op, cache_dir: Path, mode: str, index: int) -> dict:
        ident = next(self._ids)
        report = self.work / f"{ident}.json"
        argv = op.args(self.seed, str(cache_dir))
        cmd = [sys.executable, str(CHILD), str(report), mode, "--", *argv]
        digest = hashlib.sha256()
        kept = []
        nbytes = 0
        cal_before = calibrate()
        with open(self.work / f"{ident}.err", "wb") as err:
            start = now()
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, cwd=ROOT)
            try:
                while chunk := proc.stdout.read(1 << 20):
                    digest.update(chunk)
                    nbytes += len(chunk)
                    if op.kind == "verify":
                        kept.append(chunk)
            except BaseException:
                proc.kill()
                raise
            finally:
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
                end = now()
                proc.returncode = os.waitstatus_to_exitcode(status)
        cal = [cal_before, calibrate()]
        try:
            child = json.loads(report.read_text(encoding="ascii"))
        except (FileNotFoundError, ValueError):
            child = {}
        cache_file = cache_dir / op.cache_file if op.cache_file else None
        reason = check(
            op,
            proc.returncode,
            digest.hexdigest(),
            b"".join(kept),
            _sha256_file(cache_file) if op.kind == "cache_write" else None,
        )
        if reason is None and "ready" not in child:
            reason = "the op runner wrote no report"
        if reason is None and mode == "trace" and "trace" not in child:
            reason = "the traced op wrote no trace"
        if reason is not None:
            tail = (self.work / f"{ident}.err").read_text(errors="replace").strip()
            reason += f" ({tail.splitlines()[-1]})" if tail else ""
            print(f"FAILED {op.name}: {reason}", file=sys.stderr)
        ready = child["ready"] - start if "ready" in child else None
        return {
            "pass": index,
            "op": op.name,
            "mode": mode,
            "argv": argv,
            "seconds": end - start,
            "setup_s": ready,
            "cal_s": cal,
            "norm_s": normalized(end - start, cal),
            "norm_setup_s": normalized(ready, cal) if ready is not None else None,
            "rss_mib": usage.ru_maxrss / 1024,
            "stdout_bytes": nbytes,
            "cache_bytes": cache_file.stat().st_size if cache_file and cache_file.exists() else 0,
            "ok": reason is None,
            "reason": reason,
            "trace": child.get("trace"),
        }


def run_passes(runner: Runner, ops, mode: str, seconds: float, min_passes: int, start: float):
    """Repeat passes until the next one would likely end past `seconds`
    after `start`, with at least `min_passes`. Returns the pass count."""
    walls = []
    while len(walls) < min_passes or now() - start + statistics.mean(walls) / 2 < seconds:
        walls.append(runner.run_pass(len(walls), ops, mode))
    return len(walls)


def op_medians(ops, samples, key: str) -> dict | None:
    """Per-op median of `key` over the op's successful samples; None when
    some op never succeeded."""
    out = {}
    for op in ops:
        values = [s[key] for s in samples if s["op"] == op.name and s["ok"]]
        if not values:
            return None
        out[op.name] = statistics.median(values)
    return out


def end_to_end(ops, samples) -> dict | None:
    """The end-to-end metrics from successful samples only, in normalized
    seconds."""
    seconds = op_medians(ops, samples, "norm_s")
    rss = op_medians(ops, samples, "rss_mib")
    if seconds is None or rss is None:
        return None
    return {
        "wall_s": sum(seconds.values()),
        "setup_s": len(ops) * statistics.median(s["norm_setup_s"] for s in samples if s["ok"]),
        "peak_rss_mib": max(rss.values()),
    }


def pass_layers(samples, index: int) -> dict:
    """Layer metrics of one traced pass."""
    mine = [s for s in samples if s["mode"] == "trace" and s["pass"] == index]
    values = tracing.layer_metrics(tracing.merge(s["trace"] for s in mine))
    values["cli.stdout_bytes"] = sum(s["stdout_bytes"] for s in mine)
    values["cli.cache_bytes"] = sum(s["cache_bytes"] for s in mine)
    return values


def count_mismatches(passes: list) -> list:
    """Names of work counts that differ between traced passes."""
    return sorted(
        name
        for name in passes[0]
        if not name.endswith(tracing.TIMED) and len({p[name] for p in passes}) > 1
    )


def per_layer(samples, passes: int) -> tuple:
    """The per-layer metrics (counts from the first traced pass, times as
    medians over traced passes, the tracing overhead) and the names of the
    counts that did not repeat."""
    layers = [pass_layers(samples, i) for i in range(passes)]
    out = {}
    for name, value in layers[0].items():
        timed = name.endswith(tracing.TIMED)
        out[name] = statistics.median(p[name] for p in layers) if timed else value

    def wall(mode, index):
        return sum(s["norm_s"] for s in samples if s["mode"] == mode and s["pass"] == index)

    traced = statistics.median(wall("trace", i) for i in range(passes))
    out["trace.overhead"] = traced / wall("run", 0) - 1
    return out, count_mismatches(layers)


def _commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True
        )
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "ellipta" / "cli.py").is_file():
        print(f"error: no ellipta sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    ops = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    runner = Runner(work, args.seed)
    start = now()
    try:
        if args.trace:
            runner.run_pass(0, ops, "run")
            passes = run_passes(runner, ops, "trace", args.seconds, 2, start)
        else:
            run_passes(runner, ops, "run", args.seconds, 1, start)
    finally:
        shutil.rmtree(work)
    samples = runner.samples
    failed = sum(not s["ok"] for s in samples)
    problems = [f"{failed} op(s) failed"] if failed else []

    if args.trace:
        values, mismatched = per_layer(samples, passes) if not failed else ({}, [])
        if mismatched:
            problems.append("work counts differ between traced passes: " + ", ".join(mismatched))
        units = {spec["name"]: spec["unit"] for spec in tracing.metric_specs()}
    else:
        values = end_to_end(ops, samples) or {}
        units = E2E_UNITS
    if not values:
        problems.append("no op succeeded in every pass")
    metrics = {name: {"value": values.get(name), "unit": unit} for name, unit in units.items()}
    result = {
        "correct": not problems,
        "attempted": len(samples),
        "failed": failed,
        "metrics": metrics,
    }

    untraced = [s for s in samples if s["mode"] == "run"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "cal_ref_s": CAL_REF_S,
        "problems": problems,
        "failed_share": failed / len(samples),
        "op_seconds": op_medians(ops, untraced, "seconds"),
        "result": result,
        "samples": samples,
    }
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for name, seconds in (record["op_seconds"] or {}).items():
        print(f"op {name:<14} {seconds:8.4f} s median, not normalized")
    for name, metric in metrics.items():
        print(f"{name:<44} {metric['value']} {metric['unit']}")
    for problem in problems:
        print(f"problem: {problem}")
    print(f"record: {os.path.relpath(path, ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

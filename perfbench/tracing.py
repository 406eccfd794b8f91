"""Per-layer tracing for the benchmark, installed from outside the program.

`install` wraps the public functions listed in TRACED, one layer per
`ellipta` module. Each wrapper records a span: its call count and self time
(the span's duration minus the time covered by traced spans nested in it),
plus the work counts in EXTRA, measured where the work happens. Nothing in
`src/` knows about this module; the benchmark's op runner installs it in a
traced child process only.

Functions called once per object (`tree_matching`, `phi_apply`, `tree_stats`,
`uni_add`, `uni_coeff`) are deliberately not wrapped: a wrapper there would
cost more than the function. Their time lands in their caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from math import factorial

# module -> public functions wrapped in it ("Class.method" for methods).
TRACED = {
    "exactpoly": ("uni_mul", "uni_divexact", "MultiPoly.__mul__", "MultiPoly.substitute"),
    "grammarcalc": ("derive_once", "iterate"),
    "elliptic": (
        # the J routes
        "j_viennot", "elliptic_series", "j_series", "j_from_p", "p_poly",
        # triangles and certificates
        "s_triangle_operator", "s_triangle_recurrence",
        "gamma_triangle_recurrence", "j_even_decompositions",
        # serialization
        "triangle_to_jsonl", "triangle_from_jsonl", "triangle_to_csv",
        "validate_s_triangle", "validate_gamma_triangle",
    ),
    "gammakit": ("gamma_expand", "sym_decompose", "is_unimodal", "is_alternatingly_increasing"),
    "treeoracle": ("p_bruteforce", "theta_table", "s_from_trees", "g2_distribution"),
    "suites": (
        "suite_routes", "suite_dumont", "suite_viennot_symmetry", "suite_thm1",
        "suite_thm2", "suite_lemma5", "suite_theorem13", "suite_corollary15",
        "suite_lemma9", "suite_closure",
    ),
    "cli": ("main",),
}


def _bits(coeffs) -> int:
    return max((abs(c).bit_length() for c in coeffs), default=0)


def _series_bits(es) -> int:
    return max(_bits(c) for s in (es.sn, es.cn, es.dn) for c in s.coeffs)


def _enumerated(args, result) -> int:
    # Each oracle enumerates all n! permutations or increasing trees of its
    # first argument; the cap check raises before any enumeration.
    return factorial(args[0])


SUM, MAX = "sum", "max"

# "module.function" -> stat -> (how calls combine, count(args, result), unit).
EXTRA = {
    "exactpoly.uni_mul": {
        "coef_mults": (SUM, lambda a, r: len(a[0]) * len(a[1]), "count"),
        "max_bits": (MAX, lambda a, r: _bits(r), "bits"),
    },
    "grammarcalc.derive_once": {"terms_out": (SUM, lambda a, r: len(r.terms), "count")},
    "elliptic.elliptic_series": {"max_bits": (MAX, lambda a, r: _series_bits(r), "bits")},
    "elliptic.p_poly": {
        "entries_scanned": (SUM, lambda a, r: len(a[1]), "count"),
        "terms_returned": (SUM, lambda a, r: len(r.terms), "count"),
    },
    "elliptic.triangle_to_jsonl": {"bytes": (SUM, lambda a, r: len(r), "bytes")},
    "elliptic.triangle_from_jsonl": {"records": (SUM, lambda a, r: len(r), "count")},
    **{
        f"elliptic.{fn}": {"entries": (SUM, lambda a, r: len(r), "count")}
        for fn in (
            "s_triangle_operator", "s_triangle_recurrence",
            "gamma_triangle_recurrence", "j_even_decompositions",
        )
    },
    **{
        f"treeoracle.{fn}": {"objects": (SUM, _enumerated, "count")}
        for fn in TRACED["treeoracle"]
    },
}

# Stats kept per function but reported only through a derived ratio.
_HIDDEN = {"elliptic.p_poly.terms_returned"}


class TraceTargetMissing(LookupError):
    """A name in TRACED no longer resolves in the program."""


class Tracer:
    """Accumulates spans in memory; `stats` maps "module.function" to its
    counters. `clock` is injectable so tests can drive the arithmetic."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {
            f"{module}.{name}": _empty(f"{module}.{name}")
            for module, names in TRACED.items()
            for name in names
        }
        self.errors = 0
        self._covered = []  # per open span: time covered by its traced children

    def call(self, key: str, fn, args, kwargs):
        st = self.stats[key]
        st["calls"] += 1
        self._covered.append(0.0)
        start = self.clock()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            self.errors += 1
            raise
        finally:
            duration = self.clock() - start
            st["self_s"] += duration - self._covered.pop()
            if self._covered:
                self._covered[-1] += duration
        for stat, (how, count, _unit) in EXTRA.get(key, {}).items():
            value = count(args, result)
            st[stat] = st[stat] + value if how == SUM else max(st[stat], value)
        return result

    def snapshot(self) -> dict:
        return {"stats": self.stats, "errors": self.errors}


def _empty(key: str) -> dict:
    return {"calls": 0, "self_s": 0.0, **{stat: 0 for stat in EXTRA.get(key, {})}}


def _resolve(module, module_name: str, qualname: str):
    owner = module
    *path, attr = qualname.split(".")
    try:
        for part in path:
            owner = getattr(owner, part)
        target = getattr(owner, attr)
    except AttributeError:
        raise TraceTargetMissing(
            f"traced function ellipta.{module_name}.{qualname} no longer exists; "
            "update TRACED in perfbench/tracing.py"
        ) from None
    if not callable(target):
        raise TraceTargetMissing(f"ellipta.{module_name}.{qualname} is not callable")
    return owner, attr, target


def _rebind(original, replacement) -> None:
    """Point every `ellipta` module global that holds `original` (imported by
    name, or stored as a value of a module-level dispatch dict such as
    `elliptic.J_ROUTES` or `suites.SUITES`) at `replacement`."""
    for name, module in list(sys.modules.items()):
        if name != "ellipta" and not name.startswith("ellipta."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = replacement


def install(tracer: Tracer) -> None:
    """Wrap every function in TRACED. Raises TraceTargetMissing, before
    wrapping anything, if one of them no longer resolves."""
    targets = []
    for module_name, names in TRACED.items():
        module = importlib.import_module(f"ellipta.{module_name}")
        targets += [(f"{module_name}.{q}", *_resolve(module, module_name, q)) for q in names]
    for key, owner, attr, target in targets:
        wrapper = _wrapper(tracer, key, target)
        setattr(owner, attr, wrapper)
        _rebind(target, wrapper)


def _wrapper(tracer: Tracer, key: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(key, fn, args, kwargs)

    return traced


def merge(snapshots) -> dict:
    """Combine the snapshots of one pass's ops into one snapshot."""
    stats = {key: _empty(key) for key in Tracer().stats}
    errors = 0
    for snap in snapshots:
        errors += snap["errors"]
        for key, st in snap["stats"].items():
            acc = stats[key]
            acc["calls"] += st["calls"]
            acc["self_s"] += st["self_s"]
            for stat, (how, _count, _unit) in EXTRA.get(key, {}).items():
                acc[stat] = acc[stat] + st[stat] if how == SUM else max(acc[stat], st[stat])
    return {"stats": stats, "errors": errors}


def layer_metrics(snapshot: dict) -> dict:
    """Flatten one merged snapshot into `<module>.<function>.<stat>` values,
    with a `<module>.self_s` roll-up per module."""
    out = {}
    for module in TRACED:
        out[f"{module}.self_s"] = 0.0
    for key, st in snapshot["stats"].items():
        out[key.split(".", 1)[0] + ".self_s"] += st["self_s"]
        for stat, value in st.items():
            if f"{key}.{stat}" not in _HIDDEN:
                out[f"{key}.{stat}"] = value
    p = snapshot["stats"]["elliptic.p_poly"]
    scanned = p["entries_scanned"]
    out["elliptic.p_poly.useful_ratio"] = p["terms_returned"] / scanned if scanned else 0.0
    out["trace.errors"] = snapshot["errors"]
    return out


# Layer metrics measured by run.py around the op processes, not by a span.
RUNNER_METRICS = {
    "cli.stdout_bytes": "bytes",
    "cli.cache_bytes": "bytes",
    "trace.overhead": "ratio",
}

# Stats that are times or derived from times: they vary run to run. Every
# other layer metric is a work count and must repeat exactly.
TIMED = ("self_s", "overhead")


def metric_specs() -> list:
    """Every per-layer metric as a BENCHMARK.json `per_layer` entry."""
    specs = [{"name": f"{m}.self_s", "unit": "s", "better": "lower"} for m in TRACED]
    for module, names in TRACED.items():
        for qual in names:
            key = f"{module}.{qual}"
            specs.append({"name": f"{key}.calls", "unit": "count", "better": "lower"})
            specs.append({"name": f"{key}.self_s", "unit": "s", "better": "lower"})
            for stat, (_how, _count, unit) in EXTRA.get(key, {}).items():
                if f"{key}.{stat}" not in _HIDDEN:
                    specs.append({"name": f"{key}.{stat}", "unit": unit, "better": "lower"})
    specs.append({"name": "elliptic.p_poly.useful_ratio", "unit": "ratio", "better": "higher"})
    specs.append({"name": "trace.errors", "unit": "count", "better": "lower"})
    specs += [{"name": n, "unit": u, "better": "lower"} for n, u in RUNNER_METRICS.items()]
    return specs

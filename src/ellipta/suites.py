"""Named verification suites behind the command-line `verify` verb.

Every suite replays one family of cross-checks over an explicit range and
returns per-check results carrying the first counterexample on failure, so
a sweep never aborts early and never truncates silently.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import elliptic as el
from . import gammakit as gk
from . import grammarcalc as gc
from . import treeoracle as to
from .exactpoly import MultiPoly, uni_to_text


@dataclass(frozen=True)
class Check:
    label: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class SuiteResult:
    name: str
    scope: str
    checks: tuple

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def _result(name, scope, checks) -> SuiteResult:
    return SuiteResult(name=name, scope=scope, checks=tuple(checks))


def suite_routes(max_n: int = 24, jobs: int = 1, seed: int = 0) -> SuiteResult:
    """All four J routes agree coefficient for coefficient."""
    checks = []
    seqs = []
    for route in ("operator", "recurrence", "viennot", "series"):
        seq = el.j_sequence(max_n, route)
        try:
            el.validate_j_sequence(seq)
            checks.append(Check(f"{route} route shape", True))
        except ValueError as exc:
            checks.append(Check(f"{route} route shape", False, str(exc)))
        seqs.append(seq)
    mismatch = el.first_route_mismatch(seqs)
    if mismatch is None:
        checks.append(Check("four-route agreement", True))
    else:
        n, e, vals = mismatch
        checks.append(
            Check(
                "four-route agreement",
                False,
                f"J_{n} coefficient of x^{e}: {vals}",
            )
        )
    return _result("routes", f"n <= {max_n}", checks)


def suite_dumont(max_n: int = 9, jobs: int = 1, seed: int = 0) -> SuiteResult:
    """Permutation brute force equals the triangle-backed P_n."""
    tri = el.s_triangle_recurrence(max_n)
    checks = []
    for n in range(1, max_n + 1):
        brute = to.p_bruteforce(n, cap=max_n, jobs=jobs)
        table = el.p_poly(n, tri)
        ok = brute == table
        detail = "" if ok else f"P_{n}: perms {brute.to_text()} vs {table.to_text()}"
        checks.append(Check(f"P_{n} permutation oracle", ok, detail))
    return _result("dumont", f"n <= {max_n}", checks)


def suite_viennot_symmetry(
    max_n: int = 60, jobs: int = 1, seed: int = 0
) -> SuiteResult:
    """Odd-index J's are symmetric about their degree."""
    js = el.j_viennot(2 * max_n + 1)
    checks = []
    for n in range(max_n + 1):
        f = js[2 * n + 1]
        ok = gk.is_symmetric(f, n)
        checks.append(
            Check(
                f"J_{2 * n + 1} symmetric",
                ok,
                "" if ok else uni_to_text(f),
            )
        )
    return _result("viennot-symmetry", f"n <= {max_n}", checks)


def suite_thm1(max_n: int = 60, jobs: int = 1, seed: int = 0) -> SuiteResult:
    """Odd-index J's carry nonnegative gamma vectors that reconstruct them."""
    gtri = el.gamma_triangle_recurrence(2 * max_n + 1)
    js = el.j_viennot(2 * max_n + 1)
    checks = []
    for n in range(max_n + 1):
        cert = el.j_odd_gamma(n, gtri)
        f = js[2 * n + 1]
        ok = cert.is_nonnegative() and cert.to_poly() == f
        ok = ok and gk.is_unimodal(f) and gk.is_symmetric(f, n)
        checks.append(
            Check(
                f"J_{2 * n + 1} gamma-positive",
                ok,
                "" if ok else f"gammas {cert.gammas}",
            )
        )
    return _result("thm1", f"n <= {max_n}", checks)


def suite_thm2(max_n: int = 60, jobs: int = 1, seed: int = 0) -> SuiteResult:
    """Even-index J's split into two gamma-positive symmetric parts that
    coincide with the unique symmetric decomposition."""
    m_max = max(0, max_n - 1)
    gtri = el.gamma_triangle_recurrence(2 * m_max + 1)
    js = el.j_viennot(2 * max_n + 2 if max_n else 2)
    decs = el.j_even_decompositions(m_max, gtri)
    checks = [Check("J_0 trivially certified", js[0] == (1,))]
    for m in range(m_max + 1):
        f = js[2 * m + 2]
        d = decs[m]
        sd = gk.sym_decompose(f, m)
        ok = (
            d.poly() == f
            and d.gamma_a.is_nonnegative()
            and d.gamma_b.is_nonnegative()
            and sd.a == d.decomposition.a
            and sd.b == d.decomposition.b
            and gk.is_alternatingly_increasing(f, m)
            and gk.is_unimodal(f)
        )
        checks.append(
            Check(
                f"J_{2 * m + 2} bi-gamma-positive",
                ok,
                "" if ok else f"a-gammas {d.gamma_a.gammas} b-gammas {d.gamma_b.gammas}",
            )
        )
    return _result("thm2", f"n <= {max_n}", checks)


def suite_lemma5(max_n: int = 8, jobs: int = 1, seed: int = 0) -> SuiteResult:
    """Tree-statistics distribution equals the six-letter grammar iterate."""
    seed_x = gc.G2.seed("x")
    checks = []
    for n in range(max_n + 1):
        dist = to.g2_distribution(n, cap=max(n, to.DEFAULT_TREE_CAP), jobs=jobs)
        it = gc.iterate(gc.G2, seed_x, n)
        ok = dist == it
        checks.append(
            Check(
                f"tree distribution n={n}",
                ok,
                "" if ok else f"{dist.to_text()} vs {it.to_text()}",
            )
        )
    return _result("lemma5", f"n <= {max_n}", checks)


def suite_theorem13(max_n: int = 8, jobs: int = 1, seed: int = 0) -> SuiteResult:
    """Singleton/even-pair statistics on trees reproduce the s triangle."""
    tri = el.s_triangle_recurrence(max_n)
    checks = []
    for n in range(1, max_n + 1):
        row = to.s_from_trees(n, cap=max(n, to.DEFAULT_TREE_CAP), jobs=jobs)
        ref = {(n, i, j): c for (i, j), c in tri.row(n).items()}
        ok = row == ref
        detail = ""
        if not ok:
            keys = sorted(set(row) | set(ref))
            bad = next(k for k in keys if row.get(k) != ref.get(k))
            detail = f"{bad}: trees {row.get(bad, 0)} vs triangle {ref.get(bad, 0)}"
        checks.append(Check(f"s row {n} from trees", ok, detail))
    return _result("theorem13", f"n <= {max_n}", checks)


def suite_corollary15(max_n: int = 8, jobs: int = 1, seed: int = 0) -> SuiteResult:
    """Theta counts assemble the four-letter iterate and match the gamma
    triangle through the index change."""
    gtri = el.gamma_triangle_recurrence(max_n)
    vs = gc.G1.variables
    apb = MultiPoly.variable(vs, "a") + MultiPoly.variable(vs, "b")
    seed_x = gc.G1.seed("x")
    checks = []
    for n in range(1, max_n + 1):
        theta = to.theta_table(n, cap=max(n, to.DEFAULT_TREE_CAP), jobs=jobs)
        try:
            el.validate_theta_table(theta)
            checks.append(Check(f"theta row {n} orbit-weighted sum", True))
        except ValueError as exc:
            checks.append(Check(f"theta row {n} orbit-weighted sum", False, str(exc)))
        acc = MultiPoly.zero(vs)
        for (row, i, j), c in theta.items():
            acc = acc + MultiPoly.monomial(vs, (n + 1 - 2 * (i + j), 0, 0, i), c) * apb**j
        it = gc.iterate(gc.G1, seed_x, n)
        checks.append(
            Check(
                f"theta identity n={n}",
                acc == it,
                "" if acc == it else f"{acc.to_text()} vs {it.to_text()}",
            )
        )
        half = n // 2
        gamma_row = {(n, i, j): c for (i, j), c in gtri.row(n).items()}
        mapped = {}
        for (row, i, j), c in theta.items():
            if n % 2 == 0:
                if i % 2:
                    continue
                gi, gj = half - j - i, i // 2
            else:
                if i % 2 == 0:
                    continue
                gi, gj = half - j - (i - 1), (i - 1) // 2
            if gi >= 0:
                mapped[(n, gi, gj)] = c
        ok = mapped == gamma_row
        detail = ""
        if not ok:
            keys = sorted(set(mapped) | set(gamma_row))
            bad = next(k for k in keys if mapped.get(k) != gamma_row.get(k))
            detail = f"{bad}: theta {mapped.get(bad, 0)} vs gamma {gamma_row.get(bad, 0)}"
        checks.append(Check(f"gamma row {n} from theta", ok, detail))
    return _result("corollary15", f"n <= {max_n}", checks)


def suite_lemma9(max_n: int = 7, jobs: int = 1, seed: int = 0) -> SuiteResult:
    """Pair involutions: involutive, commuting, matching-preserving; orbits
    of the odd-pair subgroup have one ascent-free representative each and
    size 2^(odd pairs); statistic transport matches the predicted values."""
    checks = []
    for n in range(max_n + 1):
        cap = max(n, to.DEFAULT_TREE_CAP)
        involution_ok = commute_ok = preserve_ok = True
        transport_ok = True
        bad = ""
        groups: dict = {}
        for parents in to.tree_enumerate(n, cap):
            matching = to.tree_matching(parents)
            groups.setdefault(matching, []).append(parents)
            k = len(matching)
            for a in range(1, k + 1):
                once = to.phi_apply(parents, matching, a)
                if to.tree_matching(once) != matching:
                    preserve_ok = False
                    bad = bad or f"matching broken at {parents} pair {a}"
                if to.phi_apply(once, matching, a) != parents:
                    involution_ok = False
                    bad = bad or f"not involutive at {parents} pair {a}"
                for b in range(a + 1, k + 1):
                    ab = to.phi_apply(once, matching, b)
                    ba = to.phi_apply(
                        to.phi_apply(parents, matching, b), matching, a
                    )
                    if ab != ba:
                        commute_ok = False
                        bad = bad or f"no commutation at {parents} pairs {a},{b}"
            stats = to.tree_stats(parents)
            if stats.asc_o == 0:
                for subset in _subsets(range(1, k + 1)):
                    report = to.phi_orbit_check(parents, subset)
                    if not report.ok:
                        transport_ok = False
                        bad = bad or f"transport failed at {parents} S={subset}"
        checks.append(Check(f"involutions n={n}", involution_ok, bad))
        checks.append(Check(f"commutation n={n}", commute_ok, bad))
        checks.append(Check(f"matching preserved n={n}", preserve_ok, bad))
        checks.append(Check(f"statistic transport n={n}", transport_ok, bad))

        orbit_ok = True
        detail = ""
        for matching, members in groups.items():
            seen: set = set()
            reps = [p for p in members if to.tree_stats(p).asc_o == 0]
            for rep in reps:
                _, odds = to.pair_parities(rep)
                orbit = {
                    to.phi_subset(rep, matching, s) for s in _subsets(odds)
                }
                if len(orbit) != 2 ** len(odds) or orbit & seen:
                    orbit_ok = False
                    detail = detail or f"orbit defect at representative {rep}"
                seen |= orbit
            if seen != set(members):
                orbit_ok = False
                detail = detail or f"orbits do not partition matching {matching}"
        checks.append(Check(f"orbit partition n={n}", orbit_ok, detail))
    return _result("lemma9", f"n <= {max_n}", checks)


def _subsets(items):
    items = list(items)
    for mask in range(1 << len(items)):
        yield {items[t] for t in range(len(items)) if mask >> t & 1}


def random_closure_instance(rng: random.Random, n_max: int):
    """Random gamma-positive seed vectors (degree-exact) and nonnegative
    weight table for the closure construction."""
    gammas = []
    for d in range(n_max):
        entries = [rng.randint(1, 6)] + [rng.randint(0, 6) for _ in range(d // 2)]
        gammas.append(gk.GammaVector(d, tuple(entries)))
    weights = {
        (n, i): rng.randint(0, 3) for n in range(n_max) for i in range(n + 1)
    }
    return gammas, weights


def suite_closure(
    max_n: int = 6, jobs: int = 1, seed: int = 0, instances: int = 100
) -> SuiteResult:
    """Randomized closure sweep: every constructed polynomial must be
    alternatingly increasing with certificates equal to the unique
    symmetric decomposition."""
    rng = random.Random(seed)
    checks = []
    for trial in range(instances):
        gammas, weights = random_closure_instance(rng, max_n)
        ok = True
        detail = ""
        try:
            items = el.bi_gamma_closure(gammas, weights, max_n)
        except ValueError as exc:
            checks.append(Check(f"instance {trial}", False, str(exc)))
            continue
        for item in items:
            center = max(0, item.index - 1)
            sd = gk.sym_decompose(item.poly, center)
            if not item.alternatingly_increasing:
                ok, detail = False, f"f_{item.index} not alternatingly increasing"
                break
            if (
                sd.a != item.decomposition.a
                or sd.b != item.decomposition.b
                or not item.gamma_a.is_nonnegative()
                or not item.gamma_b.is_nonnegative()
            ):
                ok, detail = False, f"certificate mismatch at f_{item.index}"
                break
        checks.append(Check(f"instance {trial}", ok, detail))
    return _result(
        "closure", f"n_max = {max_n}, {instances} instances, seed {seed}", checks
    )


SUITES = {
    "routes": suite_routes,
    "dumont": suite_dumont,
    "viennot-symmetry": suite_viennot_symmetry,
    "thm1": suite_thm1,
    "thm2": suite_thm2,
    "lemma5": suite_lemma5,
    "theorem13": suite_theorem13,
    "corollary15": suite_corollary15,
    "lemma9": suite_lemma9,
    "closure": suite_closure,
}

SUITE_DEFAULT_RANGE = {
    "routes": 24,
    "dumont": 9,
    "viennot-symmetry": 60,
    "thm1": 60,
    "thm2": 60,
    "lemma5": 8,
    "theorem13": 8,
    "corollary15": 8,
    "lemma9": 7,
    "closure": 6,
}


def run_suite(
    name: str, max_n: int | None = None, jobs: int = 1, seed: int = 0
) -> list:
    """Run one suite (or every suite for "all"); returns SuiteResult list."""
    if name == "all":
        return [
            run_suite(key, max_n=None, jobs=jobs, seed=seed)[0] for key in SUITES
        ]
    if name not in SUITES:
        raise KeyError(name)
    effective = SUITE_DEFAULT_RANGE[name] if max_n is None else max_n
    return [SUITES[name](effective, jobs=jobs, seed=seed)]

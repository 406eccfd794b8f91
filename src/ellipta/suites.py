"""Named verification suites behind the command-line `verify` verb.

Every suite replays one family of cross-checks over an explicit range and
returns per-check results carrying the first counterexample on failure, so
a sweep never aborts early and never truncates silently.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from . import elliptic as el
from . import gammakit as gk
from .exactpoly import MultiPoly, Peer, deal, uni_to_text

# treeoracle and grammarcalc are imported by the suites that run them, so
# a suite that runs neither loads neither; `run_suite("all")` loads both
# before it forks.


class Check(NamedTuple):
    label: str
    ok: bool
    detail: str = ""


class SuiteResult(NamedTuple):
    name: str
    scope: str
    checks: tuple

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


class SuiteInputs:
    """Inputs that several suites read, built on first use and shared by
    the suites of one unit of `verify all`, or used by one run of one
    suite. It dies with them, so no run reads what another built.

    Each half of the fraction route and the gamma lines are held at the
    largest m or n asked for so far: a smaller ask reads them, a larger
    one rebuilds them. The tree profiles are held for each n asked for."""

    def __init__(self):
        self._halves = {}  # half -> half(m) at the largest m asked for
        self._lines = (0, None)  # (n_max, gamma_odd_lines(n_max))
        self._profiles = {}  # n -> tree_profiles(n)

    def half(self, build, m_max: int) -> tuple:
        """build(m_max) (or further), for build `el.j_fraction_even` or
        `el.j_fraction_odd`: the J's of one parity by the continued-fraction
        paths, which share no code with the gamma stencil or the bi-gamma
        chain that build the certificates checked against them."""
        held = self._halves.get(build)
        if held is None or len(held) <= m_max:
            self._halves[build] = held = build(m_max)
        return held

    def gamma_lines(self, n_max: int) -> dict:
        """`el.gamma_odd_lines` to n_max (or further)."""
        built, lines = self._lines
        if lines is None or built < n_max:
            self._lines = n_max, el.gamma_odd_lines(n_max)
        return self._lines[1]

    def tree_profiles(self, n: int) -> dict:
        """`to.tree_profiles(n)`: the Counter of the records of T_n, which
        the tree distributions are key maps over."""
        from . import treeoracle as to

        if n not in self._profiles:
            self._profiles[n] = to.tree_profiles(n, cap=max(n, to.DEFAULT_TREE_CAP))
        return self._profiles[n]


def _check_range(max_n: int):
    """Every suite's range is n <= max_n from n = 1 on, as the CLI's is."""
    if max_n < 1:
        raise ValueError("max_n must be at least 1")


def _result(name, scope, checks) -> SuiteResult:
    return SuiteResult(name=name, scope=scope, checks=tuple(checks))


def _compare_rows(n: int, got: dict, ref: dict, got_name: str, ref_name: str):
    """(ok, detail) for two rows of triangle n; the detail names the first
    differing cell."""
    if got == ref:
        return True, ""
    bad = min(k for k in set(got) | set(ref) if got.get(k) != ref.get(k))
    return False, (
        f"{(n, *bad)}: {got_name} {got.get(bad, 0)} vs {ref_name} {ref.get(bad, 0)}"
    )


def suite_routes(max_n: int, inputs: SuiteInputs | None = None) -> SuiteResult:
    """All J routes agree coefficient for coefficient."""
    _check_range(max_n)
    checks = []
    seqs = {}
    for route in el.J_ROUTES:
        seqs[route] = js = el.j_sequence(max_n, route)
        try:
            el.validate_j_sequence(route, js)
            checks.append(Check(f"{route} route shape", True))
        except ValueError as exc:
            checks.append(Check(f"{route} route shape", False, str(exc)))
    mismatch = el.first_route_mismatch(seqs)
    if mismatch is None:
        checks.append(Check("route agreement", True))
    else:
        n, e, vals = mismatch
        checks.append(
            Check(
                "route agreement",
                False,
                f"J_{n} coefficient of x^{e}: {vals}",
            )
        )
    return _result("routes", f"n <= {max_n}", checks)


def suite_dumont(max_n: int, inputs: SuiteInputs | None = None) -> SuiteResult:
    """Permutation brute force equals the triangle-backed P_n."""
    from . import treeoracle as to

    _check_range(max_n)
    tri = el.s_triangle_recurrence(max_n)
    checks = []
    for n in range(1, max_n + 1):
        brute = to.p_bruteforce(n, cap=max_n)
        table = el.p_poly(n, tri)
        ok = brute == table
        detail = "" if ok else f"P_{n}: perms {brute.to_text()} vs {table.to_text()}"
        checks.append(Check(f"P_{n} permutation oracle", ok, detail))
    return _result("dumont", f"n <= {max_n}", checks)


def suite_viennot_symmetry(
    max_n: int, inputs: SuiteInputs | None = None
) -> SuiteResult:
    """Odd-index J's built by the Viennot convolutions are symmetric about
    their degree."""
    _check_range(max_n)
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


def suite_thm1(max_n: int, inputs: SuiteInputs | None = None) -> SuiteResult:
    """Odd-index J's carry nonnegative gamma vectors that reconstruct them."""
    _check_range(max_n)
    inputs = inputs or SuiteInputs()
    lines = inputs.gamma_lines(2 * max_n + 1)
    odd = inputs.half(el.j_fraction_odd, max_n)
    checks = []
    for n in range(max_n + 1):
        cert = el.j_odd_gamma(n, lines)
        f = odd[n]  # J_{2n+1}
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


def suite_thm2(max_n: int, inputs: SuiteInputs | None = None) -> SuiteResult:
    """Even-index J's split into two gamma-positive symmetric parts that
    coincide with the unique symmetric decomposition."""
    _check_range(max_n)
    m_max = max_n - 1
    inputs = inputs or SuiteInputs()
    even = inputs.half(el.j_fraction_even, max_n)
    decs = el.j_even_decompositions(m_max, inputs.gamma_lines(2 * m_max + 1))
    checks = [Check("J_0 trivially certified", even[0] == (1,))]
    for m in range(m_max + 1):
        f = even[m + 1]  # J_{2m+2}
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


def suite_lemma5(max_n: int, inputs: SuiteInputs | None = None) -> SuiteResult:
    """Tree-statistics distribution equals the six-letter grammar iterate."""
    from . import grammarcalc as gc
    from . import treeoracle as to

    _check_range(max_n)
    inputs = inputs or SuiteInputs()
    seed_x = gc.G2.seed("x")
    checks = []
    for n in range(max_n + 1):
        dist = to.g2_distribution(n, profiles=inputs.tree_profiles(n))
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


def suite_theorem13(max_n: int, inputs: SuiteInputs | None = None) -> SuiteResult:
    """Singleton/even-pair statistics on trees reproduce the s triangle."""
    from . import treeoracle as to

    _check_range(max_n)
    inputs = inputs or SuiteInputs()
    tri = el.s_triangle_recurrence(max_n)
    checks = []
    for n in range(1, max_n + 1):
        row = to.s_from_trees(n, profiles=inputs.tree_profiles(n))
        ok, detail = _compare_rows(n, row, tri[n], "trees", "triangle")
        checks.append(Check(f"s row {n} from trees", ok, detail))
    return _result("theorem13", f"n <= {max_n}", checks)


def suite_corollary15(max_n: int, inputs: SuiteInputs | None = None) -> SuiteResult:
    """Theta counts assemble the four-letter iterate and match the gamma
    triangle through the index change."""
    from . import grammarcalc as gc
    from . import treeoracle as to

    _check_range(max_n)
    inputs = inputs or SuiteInputs()
    gtri = el.gamma_triangle_recurrence(max_n)
    vs = gc.G1.variables
    apb = MultiPoly.variable(vs, "a") + MultiPoly.variable(vs, "b")
    seed_x = gc.G1.seed("x")
    checks = []
    for n in range(1, max_n + 1):
        theta = to.theta_table(n, profiles=inputs.tree_profiles(n))
        try:
            el.validate_theta_table({n: theta})
            checks.append(Check(f"theta row {n} orbit-weighted sum", True))
        except ValueError as exc:
            checks.append(Check(f"theta row {n} orbit-weighted sum", False, str(exc)))
        acc = MultiPoly.zero(vs)
        for (i, j), c in theta.items():
            acc = acc + MultiPoly.monomial(vs, (n + 1 - 2 * (i + j), 0, 0, i), c) * apb**j
        it = gc.iterate(gc.G1, seed_x, n)
        checks.append(
            Check(
                f"theta identity n={n}",
                acc == it,
                "" if acc == it else f"{acc.to_text()} vs {it.to_text()}",
            )
        )
        try:
            mapped = to.gamma_row_from_theta(n, theta)
        except to.StatisticsDefectError as exc:
            checks.append(Check(f"gamma row {n} from theta", False, str(exc)))
            continue
        ok, detail = _compare_rows(n, mapped, gtri[n], "theta", "gamma")
        checks.append(Check(f"gamma row {n} from theta", ok, detail))
    return _result("corollary15", f"n <= {max_n}", checks)


def suite_lemma9(max_n: int, inputs: SuiteInputs | None = None) -> SuiteResult:
    """Pair involutions (Lemma 9): the five checks of
    `treeoracle.lemma9_defects` for each n."""
    from . import treeoracle as to

    _check_range(max_n)
    names = ("involutions", "commutation", "matching preserved",
             "statistic transport", "orbit partition")
    checks = []
    for n in range(max_n + 1):
        defects = to.lemma9_defects(n, max(n, to.DEFAULT_TREE_CAP))
        for name, defect in zip(names, defects):
            checks.append(Check(f"{name} n={n}", not defect, defect))
    return _result("lemma9", f"n <= {max_n}", checks)


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


CLOSURE_INSTANCES = 100


def suite_closure(
    max_n: int, inputs: SuiteInputs | None = None, seed: int = 0
) -> SuiteResult:
    """Randomized closure sweep: every constructed polynomial must be
    alternatingly increasing with certificates equal to the unique
    symmetric decomposition."""
    _check_range(max_n)
    rng = random.Random(seed)
    checks = []
    for trial in range(CLOSURE_INSTANCES):
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
        "closure",
        f"n_max = {max_n}, {CLOSURE_INSTANCES} instances, seed {seed}",
        checks,
    )


# Every suite takes (max_n, inputs); `inputs` is its unit's SuiteInputs,
# whose J's and gamma lines thm1 and thm2 read, and whose tree profiles
# lemma5, theorem13 and corollary15 read.
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

# The suites that enumerate every object up to max_n, and the only suite
# with random instances, which takes a seed.
ENUMERATION_SUITES = {"dumont", "lemma5", "theorem13", "corollary15", "lemma9"}
SEEDED_SUITES = ("closure",)


# `verify all` runs its suites in units, split between two processes. The
# suites of a unit share one SuiteInputs: thm1 and thm2 the gamma lines
# (thm1 reads the odd half of the fraction route, thm2 the even half),
# lemma5, theorem13 and corollary15 the tree profiles of T_0 .. T_8. Each
# unit's cost is in ms, in process (Python 3.11.7, 2 cores;
# `scripts/timings.py suites`), longest first, as they are dealt. A stale
# cost costs balance only.
UNITS = (
    (265, ("dumont",)), (200, ("lemma9",)), (185, ("viennot-symmetry",)),
    (115, ("thm1", "thm2")), (35, ("lemma5", "theorem13", "corollary15")),
    (33, ("closure",)), (6, ("routes",)),
)


def unit_order() -> list:
    """(cost in ms, suites) of every unit of `verify all`, in dealing order:
    UNITS, then each suite that no unit names, alone, at cost 0."""
    named = {name for _, unit in UNITS for name in unit}
    return [*UNITS, *((0, (key,)) for key in SUITES if key not in named)]


def split_units() -> tuple:
    """(the forked process's units, the caller's) for `verify all`, as
    `exactpoly.deal` deals them by cost, so each process runs the same
    suites on every run."""
    order = unit_order()
    return tuple([order[i][1] for i in hand] for hand in deal(c for c, _ in order))


def run_suite(name: str, max_n: int | None = None, seed: int = 0) -> list:
    """Run one suite (or every suite for "all"); returns SuiteResult list,
    in SUITES order. A run of one suite never forks. "all" runs every
    suite at its default range, so it takes no max_n; it runs the units
    of split_units in two processes where `exactpoly.Peer` may fork, and
    all of them here where it may not."""
    if name == "all":
        if max_n is not None:
            raise ValueError('"all" takes no max_n')
        from . import grammarcalc, treeoracle  # noqa: F401  (once, before the fork)

        results = _fork_join(*split_units(), seed)
        return [results[key] for key in SUITES]
    if name not in SUITES:
        raise KeyError(name)
    return [_run(name, max_n, seed, SuiteInputs())]


def _run(name: str, max_n: int | None, seed: int, inputs: SuiteInputs) -> SuiteResult:
    effective = SUITE_DEFAULT_RANGE[name] if max_n is None else max_n
    if name in SEEDED_SUITES:
        return SUITES[name](effective, inputs, seed=seed)
    return SUITES[name](effective, inputs)


def _run_units(units: list, seed: int) -> dict:
    """{name: SuiteResult} for the suites of `units`, each at its own
    range; the suites of a unit share one fresh SuiteInputs."""
    results = {}
    for unit in units:
        inputs = SuiteInputs()
        for name in unit:
            results[name] = _run(name, None, seed, inputs)
    return results


def _fork_join(forked: list, own: list, seed: int) -> dict:
    """Run the `forked` units in the peer of an `exactpoly.Peer` and the
    `own` units here, or every unit here when the Peer does not fork;
    returns the results of both. The peer sends its results; a failure
    there is raised here, as `Peer` raises it."""
    with Peer() as peer:
        if not peer.fork():
            return _run_units(forked + own, seed)
        if peer.is_peer:
            peer.send(_run_units(forked, seed))
        else:
            results = _run_units(own, seed)
            return {**peer.receive(), **results}

"""Acceptance gate: one test per criterion, each printing a pass/fail line
with its measured runtime against the stated budget. Run with

    pytest tests/test_acceptance.py -v -s
"""

import math
import random
from contextlib import contextmanager
from time import perf_counter

from ellipta import elliptic as el
from ellipta import gammakit as gk
from ellipta import grammarcalc as gc
from ellipta import suites as vsuites
from ellipta import treeoracle as to
from ellipta.exactpoly import MultiPoly, uni_add, uni_reverse, uni_shift
from ellipta.grammarcalc import parse_multipoly

J_KNOWN = {
    1: (1,),
    2: (1,),
    3: (1, 1),
    4: (1, 4),
    5: (1, 14, 1),
    6: (1, 44, 16),
    7: (1, 135, 135, 1),
    8: (1, 408, 912, 64),
}

P_KNOWN = {
    1: "1",
    2: "1 + q",
    3: "1 + q + 4p",
    4: "1 + 14q + q^2 + 4p + 4pq",
    5: "1 + 14q + q^2 + 44p + 44pq + 16p^2",
    6: "1 + 135q + 135q^2 + q^3 + 44p + 328pq + 44pq^2 + 16p^2 + 16p^2q",
}

T_KNOWN = {
    1: "1",
    2: "1",
    3: "1 + x",
    4: "1 + x + 3y",
    5: "1 + 11x + x^2 + 3y",
    6: "1 + 11x + x^2 + 33y + 15xy",
    7: "1 + 102x + 57x^2 + x^3 + 33y + 78xy",
}


@contextmanager
def criterion(num: int, budget: float, label: str):
    t0 = perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d}: FAIL {label}")
        raise
    elapsed = perf_counter() - t0
    ok = elapsed < budget
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d}: {verdict} {label} ({elapsed:.2f}s, budget {budget}s)")
    assert ok, f"criterion {num} took {elapsed:.2f}s, budget {budget}s"


def test_criterion_01_known_j_list_by_every_route():
    for route in ("operator", "recurrence", "viennot", "series"):
        with criterion(1, 1.0, f"J_1..J_8 via {route}"):
            seq = el.j_sequence(8, route)
            for n, coeffs in J_KNOWN.items():
                assert seq[n] == coeffs, f"{route} J_{n}"


def test_criterion_02_known_p_and_t_lists():
    with criterion(2, 1.0, "P_1..P_6 (two routes) and t_1..t_7 (two recurrences)"):
        op = el.s_triangle_operator(6)
        rec = el.s_triangle_recurrence(6)
        for n, text in P_KNOWN.items():
            expected = parse_multipoly(text, ("p", "q"))
            assert el.p_poly(n, op) == expected
            assert el.p_poly(n, rec) == expected
        t_tri = el.t_triangle_recurrence(7)
        t_seq = el.t_polys_recurrence(7)
        for n, text in T_KNOWN.items():
            expected = parse_multipoly(text, ("x", "y"))
            assert el.t_poly_from_triangle(t_tri, n) == expected
            assert t_seq[n] == expected


def test_criterion_03_worked_decomposition_of_j8():
    with criterion(3, 1.0, "constructive decomposition of J_8"):
        d = el.j_even_decomposition(3)
        assert d.gamma_a.gammas == (1, 342)  # (1+x)^3 + 342 x (1+x)
        assert d.gamma_b.gammas == (63, 441)  # 63 (1+x)^2 + 441 x
        assert d.decomposition.a == (1, 345, 345, 1)
        assert d.decomposition.b == (63, 567, 63)
        j8 = el.j_viennot(8)[8]
        sd = gk.sym_decompose(j8, 3)
        assert (sd.a, sd.b) == (d.decomposition.a, d.decomposition.b)
        assert d.poly() == j8


def test_criterion_04_four_route_agreement_to_24():
    with criterion(4, 30.0, "four-route agreement for n <= 24"):
        seqs = {
            route: el.j_sequence(24, route)
            for route in ("operator", "recurrence", "viennot", "series")
        }
        for route, js in seqs.items():
            el.validate_j_sequence(route, js)
        assert el.first_route_mismatch(seqs) is None


def test_criterion_05_combinatorial_oracles():
    with criterion(5, 60.0, "permutation oracle n <= 9 and tree s-rows n <= 8"):
        tri = el.s_triangle_recurrence(9)
        for n in range(1, 10):
            assert to.p_bruteforce(n) == el.p_poly(n, tri), f"P_{n}"
        for n in range(1, 9):
            row = to.s_from_trees(n)
            assert row == tri[n], f"s row {n}"


def test_criterion_06_tree_distribution_and_theta_identities():
    with criterion(6, 60.0, "tree distribution, theta identity, gamma map n <= 8"):
        gtri = el.gamma_triangle_recurrence(8)
        vs = gc.G1.variables
        apb = MultiPoly.variable(vs, "a") + MultiPoly.variable(vs, "b")
        for n in range(9):
            assert to.g2_distribution(n) == gc.iterate(gc.G2, gc.G2.seed("x"), n)
        for n in range(1, 9):
            theta = to.theta_table(n)
            el.validate_theta_table({n: theta})
            acc = MultiPoly.zero(vs)
            for (i, j), c in theta.items():
                acc = acc + MultiPoly.monomial(
                    vs, (n + 1 - 2 * (i + j), 0, 0, i), c
                ) * apb**j
            assert acc == gc.iterate(gc.G1, gc.G1.seed("x"), n)
            half = n // 2
            for (i, j), g in gtri[n].items():
                if n % 2 == 0:
                    assert theta[(2 * j, half - i - 2 * j)] == g
                else:
                    assert theta[(2 * j + 1, half - i - 2 * j)] == g


def test_criterion_07_theorem_certificates_to_60():
    with criterion(7, 10.0, "gamma and bi-gamma certificates for n <= 60"):
        gtri = el.gamma_triangle_recurrence(121)
        js = el.j_viennot(122)
        for n in range(61):
            cert = el.j_odd_gamma(n, gtri)
            assert cert.is_nonnegative()
            assert cert.to_poly() == js[2 * n + 1]
        decs = el.j_even_decompositions(59, gtri)
        assert js[0] == (1,)
        for m in range(60):
            d = decs[m]
            f = js[2 * m + 2]
            assert d.gamma_a.is_nonnegative() and d.gamma_b.is_nonnegative()
            assert d.poly() == f
            sd = gk.sym_decompose(f, m)
            assert (sd.a, sd.b) == (d.decomposition.a, d.decomposition.b)


def test_criterion_08_consistency_triad():
    with criterion(8, 30.0, "gamma = 4^(i+j) t, peel agreement, factorial sums"):
        gtri = el.gamma_triangle_recurrence(40)
        ttri = el.t_triangle_recurrence(40)
        assert el.gamma_equals_scaled_t(gtri, ttri, 40) is None
        s16 = el.s_triangle_recurrence(16)
        for n in range(1, 17):
            assert el.gamma_from_p(n, el.p_poly(n, s16)) == gtri[n]
        for n in range(1, 13):
            row_sum = sum(s16[n].values())
            assert row_sum == math.factorial(n)
            assert el.p_poly(n, s16).substitute({"p": 1, "q": 1}) == (
                math.factorial(n),
            )


def test_criterion_09_series_identities_to_u26():
    with criterion(9, 5.0, "sn^2+cn^2 = 1, dn^2+x sn^2 = 1, dn reversal (u^26)"):
        report = el.series_identity_checks(26)
        assert report.pythagorean
        assert report.modulus
        assert report.dn_reversal
        es = el.elliptic_series(26)
        js = el.j_series(26)
        for k in range(1, 14):
            sign = -1 if k % 2 else 1
            scale = sign * es.scale // math.factorial(2 * k)
            assert es.dn.coeffs[2 * k] == tuple(
                scale * c for c in uni_reverse(js[2 * k], k)
            )


def test_criterion_10_involution_suite_to_7():
    with criterion(10, 60.0, "involution, commutation, orbits, transport n <= 7"):
        result = vsuites.suite_lemma9(7)
        for check in result.checks:
            assert check.ok, f"{check.label}: {check.detail}"


def test_criterion_11_randomized_closure_suite():
    with criterion(11, 10.0, "100 random closure instances at n_max = 6"):
        rng = random.Random(0)
        for trial in range(100):
            gammas, weights = vsuites.random_closure_instance(rng, 6)
            items = el.bi_gamma_closure(gammas, weights, 6)
            for item in items:
                center = max(0, item.index - 1)
                assert item.alternatingly_increasing, f"trial {trial}"
                assert item.gamma_a.is_nonnegative()
                assert item.gamma_b.is_nonnegative()
                rebuilt = uni_add(
                    item.gamma_a.to_poly(), uni_shift(item.gamma_b.to_poly(), 1)
                )
                assert rebuilt == item.poly
                sd = gk.sym_decompose(item.poly, center)
                assert (sd.a, sd.b) == (
                    item.decomposition.a,
                    item.decomposition.b,
                )

import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from itertools import combinations
from pathlib import Path

import pytest

from ellipta import elliptic as el
from ellipta import gammakit as gk
from ellipta.exactpoly import (
    MultiPoly,
    UNI_ONE,
    UNI_ZERO,
    uni_add,
    uni_reverse,
    uni_scale,
    uni_shift,
)
from ellipta.grammarcalc import G1, iterate, parse_multipoly

# coefficient lists transcribed from the classical tables
J_KNOWN = {
    0: (1,),
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


@pytest.fixture(scope="module")
def s_rec():
    return el.s_triangle_recurrence(24)


@pytest.fixture(scope="module")
def s_op():
    return el.s_triangle_operator(24)


@pytest.fixture(scope="module")
def gamma_tri():
    return el.gamma_triangle_recurrence(41)


# ---------------------------------------------------------------------------
# s triangle


def test_s_triangle_seed_and_small_rows(s_rec):
    assert s_rec[1][(0, 0)] == 1
    assert s_rec[2][(0, 0)] == 1 and s_rec[2][(0, 1)] == 1
    assert s_rec[3][(1, 0)] == 4


def test_s_triangle_row_sums(s_rec):
    for n in range(1, 13):
        assert sum(s_rec[n].values()) == math.factorial(n)


def test_s_triangle_operator_equals_recurrence(s_rec, s_op):
    assert s_op == s_rec


# rows 1..4 of the s triangle, flat, read off the known P_1 .. P_4
S_ROWS_1_TO_4 = {
    (1, 0, 0): 1,
    (2, 0, 0): 1, (2, 0, 1): 1,
    (3, 0, 0): 1, (3, 0, 1): 1, (3, 1, 0): 4,
    (4, 0, 0): 1, (4, 0, 1): 14, (4, 0, 2): 1, (4, 1, 0): 4, (4, 1, 1): 4,
}


@pytest.mark.parametrize(
    "build", [el.s_triangle_recurrence, el.s_triangle_operator]
)
def test_triangle_flat_view_equals_flat_dict(build):
    # the flat (n, i, j) view is triangle_entries, in sorted order
    tri = build(4)
    entries = list(el.triangle_entries(tri))
    assert {(n, i, j): c for n, i, j, c in entries} == S_ROWS_1_TO_4
    assert [e[:3] for e in entries] == sorted(S_ROWS_1_TO_4)
    assert len(entries) == len(S_ROWS_1_TO_4) == 11
    for (n, i, j), c in S_ROWS_1_TO_4.items():
        assert tri[n][(i, j)] == c and tri[n].get((i, j)) == c
    assert (2, 0) not in tri[4] and tri[4].get((2, 0), 0) == 0
    assert 9 not in tri
    with pytest.raises(KeyError):
        tri[4][(2, 0)]


def test_triangle_rows_and_missing_rows(s_rec):
    assert s_rec[3] == {(0, 0): 1, (0, 1): 1, (1, 0): 4}
    assert list(s_rec) == list(range(1, 25))


def test_triangle_dict_round_trip(s_rec, gamma_tri):
    for tri in (s_rec, gamma_tri):
        flat = {(n, i, j): c for n, i, j, c in el.triangle_entries(tri)}
        assert len(flat) == sum(len(row) for row in tri.values())
        rebuilt: dict = {}
        for (n, i, j), c in flat.items():
            rebuilt.setdefault(n, {})[(i, j)] = c
        assert rebuilt == tri
        assert el.triangle_to_jsonl(rebuilt) == el.triangle_to_jsonl(tri)
        assert el.triangle_to_csv(rebuilt) == el.triangle_to_csv(tri)
        assert el.triangle_from_jsonl(el.triangle_to_jsonl(rebuilt)) == tri


def test_s_row_8_j0_slice_is_j8(s_rec):
    assert tuple(s_rec[8].get((i, 0), 0) for i in range(4)) == J_KNOWN[8]


def test_s_row_4_sum_is_24(s_rec):
    assert sum(s_rec[4].values()) == 24


def test_out_of_range_reads_are_zero(s_rec):
    assert s_rec[3].get((-1, 0), 0) == 0
    assert s_rec[2].get((5, 5), 0) == 0


# ---------------------------------------------------------------------------
# S and P polynomials


def test_s_poly_examples(s_rec):
    s2 = el.s_poly(2, s_rec)
    assert s2 == MultiPoly(("p", "q", "r"), {(0, 1, 0): 1, (0, 0, 1): 1})
    for n in range(1, 21):
        sn = el.s_poly(n, el.s_triangle_recurrence(n))
        assert sn.is_homogeneous()
        assert sn.total_degree() == n // 2


def test_p_poly_known_list(s_rec):
    for n, text in P_KNOWN.items():
        assert el.p_poly(n, s_rec) == parse_multipoly(text, ("p", "q"))


def test_p_poly_counts_all_permutations(s_rec):
    for n in range(1, 13):
        assert el.p_poly(n, s_rec).substitute({"p": 1, "q": 1}) == (
            math.factorial(n),
        )


# ---------------------------------------------------------------------------
# J routes


@pytest.mark.parametrize("route", ["operator", "recurrence", "viennot", "series",
                                   "fraction"])
def test_j_known_values_each_route(route):
    js = el.j_sequence(8, route)
    for n, coeffs in J_KNOWN.items():
        assert js[n] == coeffs, f"{route} J_{n}"


@pytest.mark.parametrize("route", list(el.J_ROUTES))
def test_j_sequence_rejects_negative_n_max_on_each_route(route):
    with pytest.raises(ValueError, match="^n_max must be at least 0$"):
        el.j_sequence(-1, route)
    assert el.j_sequence(0, route)[0] == UNI_ONE


def test_j_from_p_examples(s_rec):
    assert el.j_from_p(5, s_rec) == J_KNOWN[5]
    assert el.j_from_p(4, s_rec) == J_KNOWN[4]
    assert el.j_from_p(2, s_rec) == UNI_ONE


def test_j_viennot_small_convolutions():
    js = el.j_viennot(8)
    # J_3 = C(2,0) J_2 * 1 + C(2,2) * 1 * x
    assert js[3] == (1, 1)
    assert js[8] == J_KNOWN[8]
    assert js[2] == UNI_ONE


def test_j_fraction_equals_viennot_through_60_and_at_the_smallest_n():
    assert el.j_fraction(60) == el.j_viennot(60)
    # n_max 0 runs no Motzkin path program, n_max 1 a Dyck one of no step
    assert el.j_fraction(0) == (UNI_ONE,)
    assert el.j_fraction(1) == (UNI_ONE, UNI_ONE)
    assert el.j_fraction(2) == (UNI_ONE, UNI_ONE, UNI_ONE)


def test_route_agreement_through_24(s_rec, s_op):
    routes = ("operator", "recurrence", "viennot", "series")
    seqs = {r: el.j_sequence(24, r) for r in routes}
    assert el.first_route_mismatch(seqs) is None
    for route, js in seqs.items():
        el.validate_j_sequence(route, js)


def test_route_agreement_spot_check_at_40():
    seqs = {r: el.j_sequence(40, r) for r in ("viennot", "series")}
    assert el.first_route_mismatch(seqs) is None


# The `elliptic` functions that two J routes may both call, each with the
# reason sharing it cannot make the routes agree by construction. Any
# `exactpoly` function may be shared too: those are the arithmetic kernels.
SHARED_BY_ROUTES = {
    "elliptic.j_sequence": "dispatches on the route name and checks n_max",
    "elliptic._s_bounds": "the support of s, which operator and recurrence "
    "read only to check each entry, never to build one",
}


def _ellipta_calls(fn, *args) -> set:
    """The code objects of every `ellipta` function that fn(*args) runs."""
    package = Path(el.__file__).parent
    codes = set()

    def record(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(record)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return {c for c in codes if Path(c.co_filename).parent == package}


def _call_name(code) -> str:
    qualname = getattr(code, "co_qualname", code.co_name)  # Python 3.11+
    return f"{Path(code.co_filename).stem}.{qualname}"


def test_j_routes_share_only_kernels_and_the_allow_list():
    calls = {
        route: _ellipta_calls(el.j_sequence, 12, route) for route in el.J_ROUTES
    }
    used = set()
    for a, b in combinations(el.J_ROUTES, 2):
        shared = {_call_name(c) for c in calls[a] & calls[b]}
        shared = {f for f in shared if not f.startswith("exactpoly.")}
        assert shared <= SHARED_BY_ROUTES.keys(), (a, b, shared)
        used |= shared
    # an entry no pair shares any more is stale
    assert used == SHARED_BY_ROUTES.keys()


def test_j_viennot_shares_no_code_with_the_gamma_chain_or_stencil():
    # Viennot is the reference that thm1 and thm2 check the certificates,
    # built by the gamma stencil and the bi-gamma chain, against
    calls = _ellipta_calls(el.j_sequence, 12, "viennot")
    names = {_call_name(c) for c in calls}
    assert {f for f in names if f.startswith("elliptic.")} == {
        "elliptic.j_sequence",
        "elliptic.j_viennot",
    }
    assert el._bi_gamma_chain.__code__ not in calls
    assert el._stencil_rows.__code__ not in calls
    # the probe sees both when they run, generators included
    assert el._stencil_rows.__code__ in _ellipta_calls(el.j_sequence, 12, "recurrence")
    assert el._bi_gamma_chain.__code__ in _ellipta_calls(el.j_even_decompositions, 3)


def test_j_fraction_shares_no_code_with_the_gamma_chain_or_stencil():
    # the fraction route is the reference that thm1 and thm2 check the
    # certificates against
    calls = _ellipta_calls(el.j_sequence, 12, "fraction")
    # a comprehension is its own code object; it counts as its function
    names = {_call_name(c).split(".<locals>.")[0] for c in calls}
    assert {f for f in names if f.startswith("elliptic.")} == {
        "elliptic.j_sequence",
        "elliptic.j_fraction",
        "elliptic._path_sums",
    }
    assert el._bi_gamma_chain.__code__ not in calls
    assert el._stencil_rows.__code__ not in calls


def test_first_route_mismatch_reports_smallest_index():
    a = ((1,), (1,), (1, 5))
    b = ((1,), (1,), (1, 7))
    assert el.first_route_mismatch({"viennot": a, "series": b}) == (
        2,
        1,
        {"viennot": 5, "series": 7},
    )


def test_j_degree_and_positivity_through_60():
    js = el.j_viennot(60)
    el.validate_j_sequence("viennot", js)
    for n in range(1, 61):
        assert len(js[n]) - 1 == (n - 1) // 2


def test_odd_j_symmetric_through_60():
    js = el.j_viennot(121)
    for n in range(61):
        assert gk.is_symmetric(js[2 * n + 1], n)


def test_every_j_decomposes_cleanly_through_60():
    from ellipta.exactpoly import uni_degree

    js = el.j_viennot(60)
    for n in range(61):
        f = js[n]
        center = uni_degree(f) or 0
        d = gk.sym_decompose(f, center)
        assert uni_add(d.a, uni_shift(d.b, 1)) == f
        assert gk.is_symmetric(d.a, center)
        assert center == 0 or gk.is_symmetric(d.b, center - 1)


# ---------------------------------------------------------------------------
# series route details


def test_series_coefficients_match_signs():
    es = el.elliptic_series(6)
    fact = math.factorial
    # stored coefficient of u^3 in sn is -(1+x) * scale / 3!
    assert es.sn.coeffs[3] == uni_scale((1, 1), -es.scale // fact(3))
    assert es.cn.coeffs[2] == uni_scale((1,), -es.scale // fact(2))
    assert es.dn.coeffs[2] == uni_scale((0, 1), -es.scale // fact(2))


def test_series_route_equals_viennot_through_60():
    series = el.j_series(60)
    viennot = el.j_viennot(60)
    assert series == viennot


@pytest.mark.slow
def test_four_routes_agree_at_200():
    seqs = {route: el.j_sequence(200, route) for route in el.J_ROUTES}
    for route, js in seqs.items():
        el.validate_j_sequence(route, js)
    assert el.first_route_mismatch(seqs) is None


@pytest.mark.parametrize("route", ["recurrence", "operator"])
def test_triangle_routes_keep_few_rows(route):
    # J_n needs rows n - 1 and n of s only; keeping every row to 60 peaked
    # at about 1.6 MiB on both routes
    tracemalloc.start()
    try:
        el.J_ROUTES[route](60)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 800 * 1024


def test_t_poly_keeps_two_rows():
    # t_poly(60) built the whole t triangle to read row 60, a peak of about
    # 773 KiB; the row stream holds rows n - 1 and n only
    tracemalloc.start()
    try:
        el.t_poly(60)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 200 * 1024
    assert el.t_poly(60) == el.t_poly_from_triangle(el.t_triangle_recurrence(60), 60)
    with pytest.raises(ValueError):
        el.t_poly(0)


def test_recurrence_route_compares_rows_n_minus_1_and_n(monkeypatch):
    real = el.s_rows_recurrence

    def off_by_one(m, cell):
        def rows():
            for n, row in real():
                if n == m:
                    row = {**row, cell: row[cell] + 1}
                yield n, row

        return rows

    # odd row 7: the i = 0 line; even row 8: the j = 0 line
    for m, cell in ((7, (0, 1)), (8, (1, 0))):
        monkeypatch.setattr(el, "s_rows_recurrence", off_by_one(m, cell))
        with pytest.raises(el.RouteDisagreementError, match=f"rows {m} and {m - 1}"):
            el.j_recurrence(8)


def test_recurrence_route_reads_lines_without_building_p(monkeypatch):
    # J_n is one line of rows n and n - 1; no P_n polynomial is built or
    # substituted to read it
    def built(*args, **kwargs):
        raise AssertionError("P_n built by the recurrence route")

    monkeypatch.setattr(el, "p_poly", built)
    monkeypatch.setattr(MultiPoly, "substitute", built)
    assert el.j_recurrence(40) == el.j_viennot(40)


@pytest.mark.slow
@pytest.mark.parametrize("route", ["recurrence", "operator", "fraction"])
def test_route_at_400_in_bounded_memory(route):
    # every row of s to 400, kept at once, took 1034 MiB of RSS (Linux,
    # where ru_maxrss is in KiB)
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.Popen(
        [sys.executable, "-c",
         f"from ellipta import elliptic as el; el.J_ROUTES[{route!r}](400)"],
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == 0
    assert usage.ru_maxrss < 150 * 1024


def test_series_identities_through_26():
    rep = el.series_identity_checks(26)
    assert rep.all_ok()


def test_series_identities_detect_a_perturbed_coefficient(monkeypatch):
    real = el._elliptic_egf

    def perturbed(order):
        sn, cn, dn = real(order)
        cn[4] = uni_add(cn[4], (0, 1))
        return sn, cn, dn

    monkeypatch.setattr(el, "_elliptic_egf", perturbed)
    rep = el.series_identity_checks(26)
    assert not rep.pythagorean and not rep.all_ok()
    assert rep.modulus  # sn and dn are untouched


def test_series_dn_matches_reversed_even_j():
    es = el.elliptic_series(12)
    js = el.j_series(12)
    for k in range(1, 7):
        stored = es.dn.coeffs[2 * k]
        sign = -1 if k % 2 else 1
        expected = uni_scale(
            uni_reverse(js[2 * k], k), sign * es.scale // math.factorial(2 * k)
        )
        assert stored == expected


# ---------------------------------------------------------------------------
# gamma and t triangles


def test_gamma_seed_rows(gamma_tri):
    assert gamma_tri[1][(0, 0)] == 1
    assert gamma_tri[2][(0, 0)] == 1
    assert gamma_tri[3][(1, 0)] == 4


def test_t_known_list():
    tri = el.t_triangle_recurrence(7)
    polys = el.t_polys_recurrence(7)
    for n, text in T_KNOWN.items():
        expected = parse_multipoly(text, ("x", "y"))
        assert el.t_poly_from_triangle(tri, n) == expected
        assert polys[n] == expected


def test_t_poly_route_dispatch():
    assert el.t_poly(7, "recurrence") == el.t_poly(7, "poly")
    with pytest.raises(ValueError):
        el.t_poly(3, "viennot")


def test_gamma_equals_scaled_t_through_40(gamma_tri):
    t_tri = el.t_triangle_recurrence(40)
    assert el.gamma_equals_scaled_t(gamma_tri, t_tri, 40) is None


@pytest.mark.parametrize(
    "build, n, digest",
    [
        (el.s_triangle_recurrence, 120,
         "6ac85d0b9d552ba267739075531e47f0fb885bbec0a582af0220807533e6012b"),
        (el.gamma_triangle_recurrence, 160,
         "8400c75c5414207c82ce5eefc5079d01550cd058a522236cc22c0e4feefd7934"),
        (el.t_triangle_recurrence, 160,
         "9c962661de45e1a251b11bac7ba819ae71e2f9152d3579c0447a3b726a8a0932"),
    ],
    ids=["s", "gamma", "t"],
)
def test_triangle_recurrences_match_pinned_digests(build, n, digest):
    # sha256 of the JSON-lines text; the s and gamma values are also the
    # benchmark's reference cache digests (perfbench/workloads.py)
    text = el.triangle_to_jsonl(build(n))
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == digest


@pytest.mark.parametrize(
    "build, bounds_name",
    [
        (el.s_triangle_recurrence, "_s_bounds"),
        (el.gamma_triangle_recurrence, "gamma_bounds"),
    ],
    ids=["s", "gamma"],
)
def test_recurrence_rejects_entry_outside_narrowed_support(
    monkeypatch, build, bounds_name
):
    true_bounds = getattr(el, bounds_name)

    def narrowed(n):
        i_max, half, step = true_bounds(n)
        return i_max, half - 1, step

    monkeypatch.setattr(el, bounds_name, narrowed)
    cell = r"bad entry \d+ at \(\d+, \d+, \d+\)"
    with pytest.raises(el.TriangleDefectError, match=cell):
        build(12)


def _perturb_stencil(monkeypatch, weight=None, scale=None):
    """Run every stencil with its weight (w0, wi, wj) at row n replaced by
    ``weight(n, (w0, wi, wj))`` and its divisibility scale by ``scale``."""
    real = el._stencil_rows

    def perturbed(bounds_of, weight_of, true_scale, *rest):
        return real(
            bounds_of,
            weight_of if weight is None else lambda n: weight(n, weight_of(n)),
            true_scale if scale is None else scale,
            *rest,
        )

    monkeypatch.setattr(el, "_stencil_rows", perturbed)


# The first bad cell of each perturbed stencil, as the entry-by-entry
# stencil reported it: each line-wise check must name the same cell, also
# when it lies inside a line whose earlier cells pass.
@pytest.mark.parametrize(
    "build, weight, scale, error",
    [
        # w shrinks by i at row 10, so w * P(i, j - 1) turns negative
        (el.s_triangle_recurrence,
         lambda n, w: (w[0], w[1] + (n == 10), w[2]), None,
         "bad entry -30768 at (10, 2, 3)"),
        # s entries are not divisible by 2^(i+j)
        (el.s_triangle_recurrence, None, 2, "bad entry 1 at (2, 0, 1)"),
        # w shrinks by 4j at row 12
        (el.gamma_triangle_recurrence,
         lambda n, w: (w[0], w[1], w[2] + 4 * (n == 12)), None,
         "bad entry -23162112 at (12, 1, 3)"),
        # w grows by 4i at row 10, which breaks divisibility by 4^(i+j)
        # from line 2 on
        (el.gamma_triangle_recurrence,
         lambda n, w: (w[0], w[1] - 4 * (n == 10), w[2]), None,
         "bad entry 502272 at (10, 2, 2)"),
        (el.gamma_odd_lines,
         lambda n, w: (w[0], w[1] - 4 * (n == 10), w[2]), None,
         "bad entry 502272 at (10, 2, 2)"),
    ],
    ids=["s-negative", "s-not-divisible", "gamma-negative",
         "gamma-not-divisible", "gamma-lines-not-divisible"],
)
def test_stencil_names_the_first_bad_cell(monkeypatch, build, weight, scale, error):
    _perturb_stencil(monkeypatch, weight, scale)
    with pytest.raises(el.TriangleDefectError) as info:
        build(40)
    assert str(info.value) == error


def test_gamma_711_value(gamma_tri):
    assert gamma_tri[7][(1, 1)] == 16 * 78


def test_gamma_from_p_rows(gamma_tri, s_rec):
    row4 = el.gamma_from_p(4, el.p_poly(4, s_rec))
    assert row4 == {(0, 0): 1, (0, 1): 12, (1, 0): 4}
    row6 = el.gamma_from_p(6, el.p_poly(6, s_rec))
    assert row6[(1, 0)] == 44 and row6[(1, 1)] == 240
    row1 = el.gamma_from_p(1, el.p_poly(1, s_rec))
    assert row1 == {(0, 0): 1}


@pytest.mark.parametrize(
    "terms",
    [
        # P_3 is 1 + q + 4p: a p-coefficient 1 peels to gamma(3, 1, 0) = 1,
        # which is not divisible by 4
        {(0, 0): 1, (0, 1): 1, (1, 0): 1},
        {(0, 0): 1, (0, 1): 1, (1, 0): -4},
        {(0, 0): 1, (0, 1): 1, (1, 0): 4, (2, 0): 16},
        # a q-power past the center of its p^0 slice
        {(0, 0): 1, (0, 1): 1, (1, 0): 4, (0, 3): 1},
    ],
    ids=["not-divisible", "negative", "p-degree", "q-degree"],
)
def test_gamma_from_p_rejects_a_bad_row(terms):
    with pytest.raises(el.TriangleDefectError):
        el.gamma_from_p(3, MultiPoly(el.P_VARS, terms))


def test_gamma_from_p_matches_recurrence_through_16(gamma_tri, s_rec):
    for n in range(1, 17):
        peeled = el.gamma_from_p(n, el.p_poly(n, s_rec))
        assert peeled == gamma_tri[n]


def test_gamma_operator_expansion_matches_iterates(gamma_tri):
    for n in range(1, 11):
        assert el.gamma_operator_expansion(gamma_tri, n) == iterate(
            G1, G1.seed("x"), n
        )


def test_even_j_from_gamma_slice(gamma_tri):
    js = el.j_viennot(20)
    for m in range(1, 11):
        slice_poly = tuple(
            gamma_tri[2 * m].get((i, 0), 0) for i in range(m)
        )
        assert slice_poly == js[2 * m]


# ---------------------------------------------------------------------------
# certificates


def test_j_odd_gamma_examples(gamma_tri):
    assert el.j_odd_gamma(3, gamma_tri).gammas == (1, 132)
    assert el.j_odd_gamma(0, gamma_tri).gammas == (1,)
    assert el.j_odd_gamma(2, gamma_tri).gammas == (1, 12)


def test_j_odd_gamma_reconstructs(gamma_tri):
    js = el.j_viennot(41)
    for n in range(20):
        cert = el.j_odd_gamma(n, gamma_tri)
        assert cert.is_nonnegative()
        assert cert.to_poly() == js[2 * n + 1]


def test_j_odd_gamma_rejects_a_triangle_without_its_row():
    # the certificate of a row past the triangle's end read as all zeros,
    # and the even chain built a wrong J_14 from it without raising
    lines = el.gamma_odd_lines(5)
    with pytest.raises(ValueError, match="no row 13"):
        el.j_odd_gamma(6, lines)
    with pytest.raises(ValueError, match="no row 7"):
        el.j_even_decompositions(6, lines)


def test_gamma_odd_lines_are_the_odd_i0_lines(gamma_tri):
    lines = el.gamma_odd_lines(41)
    assert set(lines) == set(range(1, 42, 2))
    for n in range(1, 42, 2):
        line = {ij: c for ij, c in gamma_tri[n].items() if ij[0] == 0}
        assert lines[n] == line and line
    assert el.gamma_odd_lines(40) == el.gamma_odd_lines(39)
    with pytest.raises(ValueError):
        el.gamma_odd_lines(0)


@pytest.mark.parametrize("n_max", [1, 2, 3, 4, 5, 81])
def test_cut_gamma_lines_are_the_full_rows_i0_lines(n_max):
    full = el.gamma_triangle_recurrence(n_max)
    expected = {
        n: {ij: c for ij, c in row.items() if ij[0] == 0}
        for n, row in full.items()
        if n % 2
    }
    assert el.gamma_odd_lines(n_max) == expected


def test_gamma_odd_lines_build_only_the_lines_row_top_reads(monkeypatch):
    # the i = 0 line of row 81 reads lines i <= (81 - n) // 2 of row n
    real = el._stencil_rows
    built = {}

    def recording(*args):
        for n, row in real(*args):
            built[n] = {i for i, _ in row}
            yield n, row

    monkeypatch.setattr(el, "_stencil_rows", recording)
    el.gamma_odd_lines(82)
    assert sorted(built) == list(range(1, 82))
    for n, lines in built.items():
        i_max = el.gamma_bounds(n)[0]
        assert lines == set(range(min(i_max, (81 - n) // 2) + 1)), n


def test_j_even_decompositions_read_only_the_lines(gamma_tri):
    lines = el.gamma_odd_lines(41)
    for m in range(21):
        assert el.j_even_decompositions(m, lines) == el.j_even_decompositions(
            m, gamma_tri
        )


def test_j_even_decompositions_reject_a_negative_m_max():
    # with no triangle the error named n_max; with one, the plural returned
    # [] and the singular raised a bare IndexError
    lines = el.gamma_odd_lines(5)
    calls = [
        lambda: el.j_even_decompositions(-1),
        lambda: el.j_even_decompositions(-1, lines),
        lambda: el.j_even_decomposition(-1, lines),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="^m_max must be at least 0$"):
            call()


def test_j_even_decomposition_examples():
    d1 = el.j_even_decomposition(1)
    assert (d1.decomposition.a, d1.decomposition.b) == ((1, 1), (3,))
    d2 = el.j_even_decomposition(2)
    assert (d2.decomposition.a, d2.decomposition.b) == ((1, 29, 1), (15, 15))
    d3 = el.j_even_decomposition(3)
    assert d3.gamma_a.gammas == (1, 342)
    assert d3.gamma_b.gammas == (63, 441)
    assert d3.decomposition.a == (1, 345, 345, 1)
    assert d3.decomposition.b == (63, 567, 63)


def test_j_even_decomposition_matches_unique_decomposition():
    js = el.j_viennot(60)
    decs = el.j_even_decompositions(29)
    for m in range(30):
        d = decs[m]
        f = js[2 * m + 2]
        assert d.poly() == f
        sd = gk.sym_decompose(f, m)
        assert sd.a == d.decomposition.a and sd.b == d.decomposition.b
        assert d.gamma_a.is_nonnegative() and d.gamma_b.is_nonnegative()


# ---------------------------------------------------------------------------
# closure


def test_closure_with_binomial_seeds():
    gammas = [
        gk.GammaVector(d, (1,) + (0,) * (d // 2)) for d in range(4)
    ]
    weights = {(n, i): 1 for n in range(4) for i in range(n + 1)}
    items = el.bi_gamma_closure(gammas, weights, 4)
    assert [it.poly for it in items] == [
        (1,),
        (1,),
        (1, 2),
        (1, 5, 3),
        (1, 9, 13, 4),
    ]
    assert all(it.alternatingly_increasing for it in items)


def test_closure_first_step_is_weighted_constant():
    gammas = [gk.GammaVector(0, (5,))]
    items = el.bi_gamma_closure(gammas, {(0, 0): 7}, 1)
    assert items[1].poly == (35,)


def test_closure_all_zero_weights_degenerate():
    gammas = [gk.GammaVector(d, (1,) + (0,) * (d // 2)) for d in range(3)]
    items = el.bi_gamma_closure(gammas, {}, 3)
    assert items[0].poly == UNI_ONE
    for it in items[1:]:
        assert it.degenerate and it.poly == UNI_ZERO
        assert it.alternatingly_increasing


def test_closure_reproduces_even_j_construction(gamma_tri):
    # seeding the general closure with the odd-index gamma vectors and
    # binomial weights must regenerate the even-index J's and their
    # certificates
    m_max = 10
    gammas = [el.j_odd_gamma(d, gamma_tri) for d in range(m_max)]
    weights = {
        (n, i): math.comb(2 * n + 1, 2 * i)
        for n in range(m_max)
        for i in range(n + 1)
    }
    items = el.bi_gamma_closure(gammas, weights, m_max)
    js = el.j_viennot(2 * m_max)
    decs = el.j_even_decompositions(m_max - 1, gamma_tri)
    for n in range(1, m_max + 1):
        assert items[n].poly == js[2 * n]
        assert items[n].gamma_a == decs[n - 1].gamma_a
        assert items[n].gamma_b == decs[n - 1].gamma_b


def test_closure_rejects_bad_seeds():
    with pytest.raises(ValueError):
        el.bi_gamma_closure([gk.GammaVector(0, (0,))], {}, 1)
    with pytest.raises(ValueError):
        el.bi_gamma_closure(
            [gk.GammaVector(1, (1,))], {}, 1
        )  # center mismatch for degree 0
    with pytest.raises(ValueError):
        el.bi_gamma_closure(
            [gk.GammaVector(0, (1,))], {(0, 0): -1}, 1
        )


# ---------------------------------------------------------------------------
# serialization and validators


def test_triangle_jsonl_roundtrip(s_rec):
    text = el.triangle_to_jsonl(s_rec)
    assert el.triangle_from_jsonl(text) == s_rec
    assert text.splitlines()[0] == '{"n":1,"i":0,"j":0,"coeff":"1"}'


def test_triangle_jsonl_rejects_corruption():
    with pytest.raises(ValueError):
        el.triangle_from_jsonl('{"n":1,"i":0}\n')
    with pytest.raises(ValueError):
        el.triangle_from_jsonl("not json\n")


def test_triangle_csv(s_rec):
    lines = el.triangle_to_csv({1: s_rec[1]})
    assert lines == "n,i,j,value\n1,0,0,1\n"


def test_validators_accept_good_tables(s_rec, gamma_tri):
    el.validate_s_triangle(s_rec)
    el.validate_gamma_triangle(gamma_tri)
    el.validate_gamma_triangle(el.t_triangle_recurrence(10), scale=1)


def test_validators_reject_bad_tables(s_rec, gamma_tri):
    broken = {n: dict(row) for n, row in s_rec.items()}
    broken[3][(0, 0)] += 1
    with pytest.raises(ValueError):
        el.validate_s_triangle(broken)
    with pytest.raises(ValueError):
        el.validate_gamma_triangle({1: {(0, 0): 1}, 3: {(1, 0): 3}})
    with pytest.raises(ValueError):
        el.validate_gamma_triangle(el.t_triangle_recurrence(10))
    cases = ((el.validate_s_triangle, s_rec), (el.validate_gamma_triangle, gamma_tri))
    for validate, tri in cases:
        # the nonempty rows must be exactly 1 .. n_max; a stray row 0 inside
        # the s support used to pass the s validator
        for stray in (0, -1):
            with pytest.raises(ValueError, match="rows are not exactly"):
                validate({stray: {(0, 0): 1}, **tri})
        gap = {n: row for n, row in tri.items() if n != 5}
        with pytest.raises(ValueError, match="rows are not exactly"):
            validate(gap)
        with pytest.raises(ValueError, match="empty triangle"):
            validate({1: {}})
        validate({**tri, 0: {}})  # an empty row is absent

import math

import pytest

from ellipta import elliptic as el
from ellipta import gammakit as gk
from ellipta.exactpoly import (
    MultiPoly,
    UNI_ONE,
    UNI_ZERO,
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
    assert s_rec[(1, 0, 0)] == 1
    assert s_rec[(2, 0, 0)] == 1 and s_rec[(2, 0, 1)] == 1
    assert s_rec[(3, 1, 0)] == 4


def test_s_triangle_row_sums(s_rec):
    for n in range(1, 13):
        total = sum(v for (row, _, _), v in s_rec.items() if row == n)
        assert total == math.factorial(n)


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
    tri = build(4)
    assert isinstance(tri, el.Triangle)
    assert dict(tri) == S_ROWS_1_TO_4
    assert tri == S_ROWS_1_TO_4
    assert len(tri) == len(S_ROWS_1_TO_4) == 11
    assert sorted(tri) == sorted(S_ROWS_1_TO_4)
    assert sorted(tri.items()) == sorted(S_ROWS_1_TO_4.items())
    for key, c in S_ROWS_1_TO_4.items():
        assert key in tri and tri[key] == c and tri.get(key) == c
    assert (4, 2, 0) not in tri and tri.get((4, 2, 0), 0) == 0
    assert tri.get((9, 0, 0)) is None
    with pytest.raises(KeyError):
        tri[(4, 2, 0)]
    with pytest.raises(KeyError):
        tri["not a key"]


def test_triangle_rows_and_missing_rows(s_rec):
    assert s_rec.row(3) == {(0, 0): 1, (0, 1): 1, (1, 0): 4}
    assert s_rec.row(0) == {}
    assert s_rec.row(25) == {}
    assert len(s_rec) == sum(len(s_rec.row(n)) for n in range(1, 25))


def test_triangle_is_read_only(s_rec):
    with pytest.raises(TypeError):
        s_rec[(1, 0, 0)] = 2


def test_triangle_dict_round_trip(s_rec, gamma_tri):
    for tri in (s_rec, gamma_tri):
        flat = dict(tri)
        assert len(flat) == len(tri)
        assert flat == tri
        assert el.triangle_to_jsonl(flat) == el.triangle_to_jsonl(tri)
        assert el.triangle_to_csv(flat) == el.triangle_to_csv(tri)
        back = el.triangle_from_jsonl(el.triangle_to_jsonl(flat))
        assert isinstance(back, el.Triangle) and back == tri


def test_s_row_8_j0_slice_is_j8(s_rec):
    assert tuple(s_rec.get((8, i, 0), 0) for i in range(4)) == J_KNOWN[8]


def test_s_row_4_sum_is_24(s_rec):
    assert sum(v for (row, _, _), v in s_rec.items() if row == 4) == 24


def test_out_of_range_reads_are_zero(s_rec):
    assert s_rec.get((3, -1, 0), 0) == 0
    assert s_rec.get((2, 5, 5), 0) == 0


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


@pytest.mark.parametrize("route", ["operator", "recurrence", "viennot", "series"])
def test_j_known_values_each_route(route):
    seq = el.j_sequence(8, route)
    for n, coeffs in J_KNOWN.items():
        assert seq[n] == coeffs, f"{route} J_{n}"


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


def test_route_agreement_through_24(s_rec, s_op):
    seqs = [el.j_sequence(24, r) for r in ("operator", "recurrence", "viennot", "series")]
    assert el.first_route_mismatch(seqs) is None
    for seq in seqs:
        el.validate_j_sequence(seq)


def test_route_agreement_spot_check_at_40():
    seqs = [el.j_sequence(40, r) for r in ("viennot", "series")]
    assert el.first_route_mismatch(seqs) is None


def test_first_route_mismatch_reports_smallest_index():
    a = el.JSequence("viennot", ((1,), (1,), (1, 5)))
    b = el.JSequence("series", ((1,), (1,), (1, 7)))
    assert el.first_route_mismatch([a, b]) == (
        2,
        1,
        {"viennot": 5, "series": 7},
    )


def test_j_degree_and_positivity_through_60():
    js = el.j_viennot(60)
    el.validate_j_sequence(js)
    for n in range(1, 61):
        assert len(js[n]) - 1 == (n - 1) // 2


def test_odd_j_symmetric_through_60():
    js = el.j_viennot(121)
    for n in range(61):
        assert gk.is_symmetric(js[2 * n + 1], n)


def test_every_j_decomposes_cleanly_through_60():
    from ellipta.exactpoly import uni_add, uni_degree

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
    assert series.polys == viennot.polys


@pytest.mark.slow
def test_four_routes_agree_at_200():
    seqs = [el.j_sequence(200, route) for route in el.J_ROUTES]
    for seq in seqs:
        el.validate_j_sequence(seq)
    assert el.first_route_mismatch(seqs) is None


def test_series_identities_through_26():
    rep = el.series_identity_checks(26)
    assert rep.all_ok()


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
    assert gamma_tri[(1, 0, 0)] == 1
    assert gamma_tri[(2, 0, 0)] == 1
    assert gamma_tri[(3, 1, 0)] == 4


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


def test_gamma_711_value(gamma_tri):
    assert gamma_tri[(7, 1, 1)] == 16 * 78


def test_gamma_from_p_rows(gamma_tri, s_rec):
    row4 = el.gamma_from_p(4, el.p_poly(4, s_rec))
    assert row4 == {(4, 0, 0): 1, (4, 0, 1): 12, (4, 1, 0): 4}
    row6 = el.gamma_from_p(6, el.p_poly(6, s_rec))
    assert row6[(6, 1, 0)] == 44 and row6[(6, 1, 1)] == 240
    row1 = el.gamma_from_p(1, el.p_poly(1, s_rec))
    assert row1 == {(1, 0, 0): 1}


def test_gamma_from_p_matches_recurrence_through_16(gamma_tri, s_rec):
    for n in range(1, 17):
        peeled = el.gamma_from_p(n, el.p_poly(n, s_rec))
        assert peeled == {k: v for k, v in gamma_tri.items() if k[0] == n}


def test_gamma_operator_expansion_matches_iterates(gamma_tri):
    for n in range(1, 11):
        assert el.gamma_operator_expansion(gamma_tri, n) == iterate(
            G1, G1.seed("x"), n
        )


def test_even_j_from_gamma_slice(gamma_tri):
    js = el.j_viennot(20)
    for m in range(1, 11):
        slice_poly = tuple(
            gamma_tri.get((2 * m, i, 0), 0) for i in range(m)
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
    lines = el.triangle_to_csv({k: v for k, v in s_rec.items() if k[0] == 1})
    assert lines == "n,i,j,value\n1,0,0,1\n"


def test_validators_accept_good_tables(s_rec, gamma_tri):
    el.validate_s_triangle(s_rec)
    el.validate_gamma_triangle(gamma_tri)
    el.validate_t_triangle(el.t_triangle_recurrence(10))


def test_validators_reject_bad_tables(s_rec):
    broken = dict(s_rec)
    broken[(3, 0, 0)] += 1
    with pytest.raises(ValueError):
        el.validate_s_triangle(broken)
    with pytest.raises(ValueError):
        el.validate_gamma_triangle({(1, 0, 0): 1, (3, 1, 0): 3})

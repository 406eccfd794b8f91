import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ellipta.exactpoly import (
    AlphabetMismatchError,
    DegreeExceedsCenterError,
    ExponentOverflowError,
    FormalSeries,
    InexactDivisionError,
    MultiPoly,
    UnassignedVariableError,
    UnknownVariableError,
    UNI_ONE,
    UNI_X,
    UNI_ZERO,
    multi_mul,
    multi_partial,
    multi_substitute,
    uni,
    uni_add,
    uni_degree,
    uni_div_one_minus_x,
    uni_divexact,
    uni_eval_int,
    uni_from_json,
    uni_mul,
    uni_reverse,
    uni_to_json,
    uni_to_text,
)

coeffs = st.lists(st.integers(-10**6, 10**6), max_size=12)
unipolys = coeffs.map(uni)


# ---------------------------------------------------------------------------
# univariate


def test_uni_normalizes_trailing_zeros():
    assert uni([1, 2, 0, 0]) == (1, 2)
    assert uni([0, 0]) == ()
    assert uni_degree(()) is None
    assert uni_degree((5,)) == 0


def test_uni_mul_binomial_square():
    assert uni_mul((1, 1), (1, 1)) == (1, 2, 1)


def test_uni_mul_identity():
    f = (1, 14, 1)
    assert uni_mul(f, UNI_ONE) == f


def test_uni_mul_two_term_product():
    assert uni_mul((1, 4), (1, 1)) == (1, 5, 4)


@given(unipolys, unipolys)
def test_uni_mul_commutative(f, g):
    assert uni_mul(f, g) == uni_mul(g, f)


@given(unipolys, unipolys, unipolys)
def test_uni_mul_associative(f, g, h):
    assert uni_mul(uni_mul(f, g), h) == uni_mul(f, uni_mul(g, h))


def test_uni_mul_algebra_randomized_sweep():
    # 1000 deterministic triples at degree up to 40
    rng = random.Random(0)

    def rand_poly():
        deg = rng.randrange(41)
        return uni(rng.randint(-10**6, 10**6) for _ in range(deg + 1))

    for _ in range(1000):
        f, g, h = rand_poly(), rand_poly(), rand_poly()
        assert uni_mul(f, g) == uni_mul(g, f)
        assert uni_mul(uni_mul(f, g), h) == uni_mul(f, uni_mul(g, h))
        assert uni_mul(uni_add(f, g), h) == uni_add(uni_mul(f, h), uni_mul(g, h))


def test_uni_reverse_examples():
    assert uni_reverse((1, 4), 2) == (0, 4, 1)
    j7 = (1, 135, 135, 1)
    assert uni_reverse(j7, 3) == j7
    assert uni_reverse(UNI_ONE, 0) == UNI_ONE


def test_uni_reverse_degree_error():
    with pytest.raises(DegreeExceedsCenterError):
        uni_reverse((1, 2, 3), 1)


@given(unipolys, st.integers(0, 60))
def test_uni_reverse_involution(f, extra):
    n = (uni_degree(f) or 0) + extra
    assert uni_reverse(uni_reverse(f, n), n) == f


def test_uni_eval_examples():
    assert uni_eval_int((1, 44, 16), 1) == 61
    assert uni_eval_int((7, 3, 9), 0) == 7
    assert uni_eval_int((1, 4), 2) == 9


def test_uni_divexact():
    assert uni_divexact((2, 4, 6), 2) == (1, 2, 3)
    with pytest.raises(InexactDivisionError):
        uni_divexact((3,), 2)


def test_uni_div_one_minus_x():
    # (1 - x^3) / (1 - x) = 1 + x + x^2
    assert uni_div_one_minus_x((1, 0, 0, -1)) == (1, 1, 1)
    with pytest.raises(InexactDivisionError):
        uni_div_one_minus_x((1, 1))


def test_uni_json_roundtrip():
    f = (1, -408, 912, 64)
    obj = uni_to_json(f)
    assert obj == {"var": "x", "coeffs": ["1", "-408", "912", "64"]}
    assert uni_from_json(obj) == f
    assert uni_from_json(uni_to_json(UNI_ZERO)) == UNI_ZERO


def test_uni_text():
    assert uni_to_text((1, 408, 912, 64)) == "1 + 408x + 912x^2 + 64x^3"
    assert uni_to_text((1, 14, 1)) == "1 + 14x + x^2"
    assert uni_to_text(()) == "0"
    assert uni_to_text((0, -1, 2)) == "-x + 2x^2"


# ---------------------------------------------------------------------------
# multivariate

XYZ = ("x", "y", "z")


def M(terms):
    return MultiPoly(XYZ, terms)


def test_multi_mul_examples():
    yz = M({(0, 1, 1): 1})
    assert multi_mul(yz, yz) == M({(0, 2, 2): 1})
    f = M({(1, 0, 0): 2, (0, 1, 0): 3})
    assert multi_mul(f, MultiPoly.const(XYZ, 1)) == f
    a_plus_b = MultiPoly(("x", "a", "b"), {(0, 1, 0): 1, (0, 0, 1): 1})
    x = MultiPoly.variable(("x", "a", "b"), "x")
    assert multi_mul(a_plus_b, x) == MultiPoly(
        ("x", "a", "b"), {(1, 1, 0): 1, (1, 0, 1): 1}
    )


def test_multi_alphabet_mismatch():
    with pytest.raises(AlphabetMismatchError):
        multi_mul(M({}), MultiPoly(("p", "q"), {}))


def test_multi_partial_examples():
    assert multi_partial(M({(2, 1, 0): 1}), "x") == M({(1, 1, 0): 2})
    assert multi_partial(M({(0, 1, 1): 1}), "x") == M({})
    xc2 = MultiPoly(("x", "c"), {(1, 2): 1})
    assert multi_partial(xc2, "c") == MultiPoly(("x", "c"), {(1, 1): 2})
    with pytest.raises(UnknownVariableError):
        multi_partial(M({}), "w")


exponent_vectors = st.tuples(
    st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)
)
multipolys = st.dictionaries(
    exponent_vectors, st.integers(-50, 50), max_size=6
).map(M)


@given(multipolys, multipolys)
def test_multi_partial_leibniz(f, g):
    for v in XYZ:
        left = multi_partial(multi_mul(f, g), v)
        right = multi_partial(f, v) * g + f * multi_partial(g, v)
        assert left == right


@given(multipolys, multipolys)
def test_multi_substitute_is_multiplicative(f, g):
    assignment = {"x": (1, 2), "y": (0, 1), "z": 3}
    left = multi_substitute(multi_mul(f, g), assignment)
    right = uni_mul(
        multi_substitute(f, assignment), multi_substitute(g, assignment)
    )
    assert left == right


def test_multi_substitute_examples():
    f = M({(1, 2, 0): 1, (1, 0, 2): 1})  # x y^2 + x z^2
    assert multi_substitute(f, {"x": 1, "y": UNI_X, "z": 1}) == (1, 0, 1)
    s2 = MultiPoly(("p", "q", "r"), {(0, 1, 0): 1, (0, 0, 1): 1})
    assert multi_substitute(s2, {"p": UNI_X, "q": UNI_X, "r": 1}) == (1, 1)
    f2 = M({(1, 1, 0): 5, (0, 0, 0): 7})
    assert multi_substitute(f2, {"x": 0, "y": 0, "z": 0}) == (7,)


def test_multi_substitute_unassigned():
    with pytest.raises(UnassignedVariableError):
        multi_substitute(M({(1, 0, 0): 1}), {"x": 1, "y": 2})


def test_multi_exponent_overflow_rejected():
    with pytest.raises(ExponentOverflowError):
        MultiPoly(XYZ, {(2**63, 0, 0): 1})
    with pytest.raises(ExponentOverflowError):
        MultiPoly(XYZ, {(-1, 0, 0): 1})


def test_multi_json_and_text():
    f = MultiPoly(("p", "q"), {(1, 0): 4, (0, 1): 1, (0, 0): 1})
    assert f.to_json() == {
        "vars": ["p", "q"],
        "terms": [
            {"exp": [0, 0], "coeff": "1"},
            {"exp": [0, 1], "coeff": "1"},
            {"exp": [1, 0], "coeff": "4"},
        ],
    }
    assert MultiPoly.from_json(f.to_json()) == f
    assert f.to_text() == "1 + q + 4p"


def test_multi_drops_zero_terms():
    f = MultiPoly(XYZ, {(1, 0, 0): 1, (0, 1, 0): 0})
    assert (0, 1, 0) not in f.terms
    assert (f - f).terms == {}


def test_multi_is_immutable():
    f = MultiPoly(XYZ, {(1, 0, 0): 1})
    with pytest.raises(AttributeError):
        f.vars = ("a",)


def test_multi_hashable_and_usable_as_key():
    f = MultiPoly(XYZ, {(1, 0, 0): 1})
    g = MultiPoly(XYZ, [((1, 0, 0), 1)])
    assert hash(f) == hash(g) and {f: 1}[g] == 1


# ---------------------------------------------------------------------------
# truncated series


def test_series_shape_invariant():
    with pytest.raises(Exception):
        FormalSeries(2, ((1,),))


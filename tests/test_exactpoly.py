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
    uni,
    uni_add,
    uni_degree,
    uni_div_one_minus_x,
    uni_divexact,
    uni_mul,
    uni_pow,
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


def _schoolbook_mul(f, g):
    out = [0] * (len(f) + len(g))
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return uni(out)


@pytest.mark.parametrize("f, g", [
    ((0, 0, 3), (1, 2, 0, 0, 5, 7)),
    ((2, 0, 1), (0, 4)),
    ((5,), (0, 0, 0, 1)),
    ((3, 0, 0, 0, 0, 0, 0, 2), (0, 1, 0, -1)),
    ((0, 10**30, 0, -1), (7, 0, 0, 0, 0, 0, 0, 0, 0, 3)),
])
def test_uni_mul_matches_the_schoolbook_double_loop(f, g):
    # unequal lengths, zeros in either operand, either operand first
    assert uni_mul(f, g) == _schoolbook_mul(f, g)
    assert uni_mul(g, f) == _schoolbook_mul(g, f)


@given(
    st.lists(st.one_of(st.just(0), st.integers(-10**30, 10**30)), max_size=12).map(uni),
    st.lists(st.one_of(st.just(0), st.integers(-10**30, 10**30)), max_size=12).map(uni),
)
def test_uni_mul_matches_the_schoolbook_double_loop_on_random_operands(f, g):
    assert uni_mul(f, g) == _schoolbook_mul(f, g)


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
    # evaluation at an integer point is substitution of a constant
    def eval_int(f, v):
        g = MultiPoly(("x",), {(e,): c for e, c in enumerate(f)})
        return g.substitute({"x": v})

    assert eval_int((1, 44, 16), 1) == (61,)
    assert eval_int((7, 3, 9), 0) == (7,)
    assert eval_int((1, 4), 2) == (9,)


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
    assert uni(int(c) for c in obj["coeffs"]) == f
    assert uni(int(c) for c in uni_to_json(UNI_ZERO)["coeffs"]) == UNI_ZERO


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
    assert yz * yz == M({(0, 2, 2): 1})
    f = M({(1, 0, 0): 2, (0, 1, 0): 3})
    assert f * MultiPoly.const(XYZ, 1) == f
    a_plus_b = MultiPoly(("x", "a", "b"), {(0, 1, 0): 1, (0, 0, 1): 1})
    x = MultiPoly.variable(("x", "a", "b"), "x")
    assert a_plus_b * x == MultiPoly(
        ("x", "a", "b"), {(1, 1, 0): 1, (1, 0, 1): 1}
    )


def test_multi_alphabet_mismatch():
    with pytest.raises(AlphabetMismatchError):
        M({}) * MultiPoly(("p", "q"), {})


def test_multi_partial_examples():
    assert M({(2, 1, 0): 1}).partial("x") == M({(1, 1, 0): 2})
    assert M({(0, 1, 1): 1}).partial("x") == M({})
    xc2 = MultiPoly(("x", "c"), {(1, 2): 1})
    assert xc2.partial("c") == MultiPoly(("x", "c"), {(1, 1): 2})
    with pytest.raises(UnknownVariableError):
        M({}).partial("w")


exponent_vectors = st.tuples(
    st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)
)
multipolys = st.dictionaries(
    exponent_vectors, st.integers(-50, 50), max_size=6
).map(M)


@given(multipolys, multipolys)
def test_multi_partial_leibniz(f, g):
    for v in XYZ:
        left = (f * g).partial(v)
        right = f.partial(v) * g + f * g.partial(v)
        assert left == right


@given(multipolys, multipolys)
def test_multi_substitute_is_multiplicative(f, g):
    assignment = {"x": (1, 2), "y": (0, 1), "z": 3}
    left = (f * g).substitute(assignment)
    right = uni_mul(f.substitute(assignment), g.substitute(assignment))
    assert left == right


def test_multi_substitute_examples():
    f = M({(1, 2, 0): 1, (1, 0, 2): 1})  # x y^2 + x z^2
    assert f.substitute({"x": 1, "y": UNI_X, "z": 1}) == (1, 0, 1)
    s2 = MultiPoly(("p", "q", "r"), {(0, 1, 0): 1, (0, 0, 1): 1})
    assert s2.substitute({"p": UNI_X, "q": UNI_X, "r": 1}) == (1, 1)
    f2 = M({(1, 1, 0): 5, (0, 0, 0): 7})
    assert f2.substitute({"x": 0, "y": 0, "z": 0}) == (7,)


def naive_substitute(f, assignment):
    """Expand every term as a product of full polynomial powers."""
    total = UNI_ZERO
    for exps, c in f.terms.items():
        term = (c,)
        for v, e in zip(f.vars, exps):
            val = assignment[v]
            val = uni((val,)) if isinstance(val, int) else uni(val)
            term = uni_mul(term, uni_pow(val, e))
        total = uni_add(total, term)
    return total


def test_multi_substitute_matches_naive_expansion():
    # monomial values a x^d (ints, x, 2x^2, -7x, x padded with a zero),
    # general values and zero, in every mix over 400 random polynomials
    values = (0, 1, -3, 5, UNI_X, (0, 0, 2), (0, -7), (0, 1, 0),
              (1, 2), (0, 3, 0, -1), (4, 0, 1), UNI_ZERO)
    rng = random.Random(7)
    for _ in range(400):
        f = M({
            tuple(rng.randrange(5) for _ in XYZ): rng.randint(-10**6, 10**6)
            for _ in range(rng.randrange(9))
        })
        assignment = {v: rng.choice(values) for v in XYZ}
        assert f.substitute(assignment) == naive_substitute(f, assignment)


def test_multi_substitute_unassigned():
    with pytest.raises(UnassignedVariableError):
        M({(1, 0, 0): 1}).substitute({"x": 1, "y": 2})


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


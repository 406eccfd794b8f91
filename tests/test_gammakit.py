import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ellipta.exactpoly import (
    DegreeExceedsCenterError,
    UNI_ONE,
    UNI_ZERO,
    uni,
    uni_add,
    uni_degree,
    uni_shift,
)
from ellipta.gammakit import (
    AnalysisReport,
    GammaVector,
    NotSymmetricError,
    analyze,
    gamma_expand,
    is_alternatingly_increasing,
    is_symmetric,
    is_unimodal,
    sym_decompose,
)

J4 = (1, 4)
J5 = (1, 14, 1)
J6 = (1, 44, 16)
J7 = (1, 135, 135, 1)
J8 = (1, 408, 912, 64)


def test_is_symmetric_examples():
    assert is_symmetric(J5, 2)
    assert not is_symmetric(J4, 1)
    assert is_symmetric(UNI_ZERO, 7)


def test_is_symmetric_degree_error():
    with pytest.raises(DegreeExceedsCenterError):
        is_symmetric(J5, 1)


def test_gamma_expand_examples():
    assert gamma_expand((1, 2, 1), 2).gammas == (1, 0)
    assert gamma_expand(J7, 3).gammas == (1, 132)
    # peel by hand: J5 - (1+x)^2 = 12x, so (1, 12)
    assert gamma_expand(J5, 2).gammas == (1, 12)


def test_gamma_expand_rejects_asymmetric():
    with pytest.raises(NotSymmetricError):
        gamma_expand(J4, 1)


def test_gamma_reconstruction_identity():
    for f, n in (((1, 2, 1), 2), (J5, 2), (J7, 3), (UNI_ZERO, 5)):
        assert gamma_expand(f, n).to_poly() == f


gamma_vectors = st.lists(st.integers(-30, 30), min_size=1, max_size=6)


@given(gamma_vectors, st.integers(0, 3))
def test_gamma_expand_inverts_reconstruction(entries, pad):
    center = 2 * (len(entries) - 1) + pad
    gv = GammaVector(center, tuple(entries) + (0,) * ((center // 2) - len(entries) + 1))
    assert gamma_expand(gv.to_poly(), center) == gv


def test_sym_decompose_examples():
    d = sym_decompose(J4, 1)
    assert (d.a, d.b) == ((1, 1), (3,))
    d8 = sym_decompose(J8, 3)
    assert d8.a == (1, 345, 345, 1)
    assert d8.b == (63, 567, 63)
    d5 = sym_decompose(J5, 2)
    assert (d5.a, d5.b) == (J5, UNI_ZERO)


def test_sym_decompose_reassembles():
    rng = random.Random(1)
    for _ in range(1000):
        deg = rng.randrange(12)
        f = uni(rng.randint(-99, 99) for _ in range(deg + 1))
        n = (uni_degree(f) or 0) + rng.randrange(3)
        d = sym_decompose(f, n)
        assert uni_add(d.a, uni_shift(d.b, 1)) == f
        assert is_symmetric(d.a, n)
        assert is_symmetric(d.b, n - 1) if n >= 1 else d.b == UNI_ZERO


@given(gamma_vectors, gamma_vectors, st.integers(2, 9))
def test_sym_decompose_uniqueness(a_entries, b_entries, n):
    # build a' symmetric about n and b' about n-1, then recover them exactly
    a_vec = tuple(a_entries[: n // 2 + 1])
    a_vec = a_vec + (0,) * (n // 2 + 1 - len(a_vec))
    b_vec = tuple(b_entries[: (n - 1) // 2 + 1])
    b_vec = b_vec + (0,) * ((n - 1) // 2 + 1 - len(b_vec))
    a = GammaVector(n, a_vec).to_poly()
    b = GammaVector(n - 1, b_vec).to_poly()
    f = uni_add(a, uni_shift(b, 1))
    d = sym_decompose(f, n)
    assert d.a == a and d.b == b


def test_bi_gamma_examples():
    rep = analyze(J6, 2)
    assert rep.bi_gamma_positive
    assert rep.gamma_a.gammas == (1, 27) and rep.gamma_b.gammas == (15,)
    rep1 = analyze((1, 1), 1)
    assert rep1.bi_gamma_positive
    assert rep1.gamma_a.gammas == (1,) and rep1.gamma_b.gammas == (0,)
    # 2 + x decomposes into a = 2 + 2x, b = -1; the b part fails
    d = sym_decompose((2, 1), 1)
    assert (d.a, d.b) == ((2, 2), (-1,))
    assert not analyze((2, 1), 1).bi_gamma_positive


def test_is_unimodal_examples():
    assert is_unimodal(J8)
    assert not is_unimodal((1, 0, 1))
    assert is_unimodal((5,))
    assert is_unimodal(UNI_ZERO)


def test_is_alternatingly_increasing_examples():
    assert is_alternatingly_increasing(J8, 3)
    assert is_alternatingly_increasing((1, 1, 1), 2)
    assert not is_alternatingly_increasing((2, 1), 1)


def test_alternating_uses_declared_center():
    # f = 1 + 2x read at center 2: chain is f0 <= f2 <= f1, i.e. 1 <= 0 fails
    assert is_alternatingly_increasing((1, 2), 1)
    assert not is_alternatingly_increasing((1, 2), 2)


@given(gamma_vectors.map(lambda e: [abs(x) for x in e]), st.integers(0, 3))
def test_gamma_positive_implies_symmetric_unimodal(entries, pad):
    center = 2 * (len(entries) - 1) + pad
    gv = GammaVector(
        center, tuple(entries) + (0,) * ((center // 2) - len(entries) + 1)
    )
    f = gv.to_poly()
    assert is_symmetric(f, center)
    assert is_unimodal(f)
    assert gamma_expand(f, center).is_nonnegative()


@given(
    gamma_vectors.map(lambda e: [abs(x) for x in e]),
    gamma_vectors.map(lambda e: [abs(x) for x in e]),
    st.integers(2, 9),
)
def test_bi_gamma_implies_alternating_and_unimodal(a_entries, b_entries, n):
    a_vec = tuple(a_entries[: n // 2 + 1])
    a_vec = a_vec + (0,) * (n // 2 + 1 - len(a_vec))
    b_vec = tuple(b_entries[: (n - 1) // 2 + 1])
    b_vec = b_vec + (0,) * ((n - 1) // 2 + 1 - len(b_vec))
    f = uni_add(
        GammaVector(n, a_vec).to_poly(),
        uni_shift(GammaVector(n - 1, b_vec).to_poly(), 1),
    )
    assert analyze(f, n).bi_gamma_positive
    assert is_alternatingly_increasing(f, n)
    assert is_unimodal(f)


def test_zero_polynomial_cases():
    assert gamma_expand(UNI_ZERO, 4).gammas == (0, 0, 0)
    assert GammaVector(-1, ()).to_poly() == UNI_ZERO
    assert is_symmetric(UNI_ZERO, 3)
    assert gamma_expand(UNI_ZERO, 3).is_nonnegative()
    d = sym_decompose(UNI_ONE, 0)
    assert (d.a, d.b) == (UNI_ONE, UNI_ZERO)
    rep = analyze(UNI_ONE, 0)
    assert rep.bi_gamma_positive
    assert rep.gamma_b.center == -1 and rep.gamma_b.gammas == ()


def test_analyze_report():
    rep = analyze(J8)
    assert isinstance(rep, AnalysisReport)
    assert rep.center == 3
    assert rep.symmetric is False
    assert rep.gamma_positive == "not-symmetric"
    assert rep.bi_gamma_positive is True
    assert rep.unimodal is True
    assert rep.alternatingly_increasing is True
    payload = rep.to_json()
    assert payload["certificates"]["gamma"] is None
    assert payload["certificates"]["gamma_a"]["gammas"] == ["1", "342"]
    assert payload["certificates"]["gamma_b"]["gammas"] == ["63", "441"]

    rep7 = analyze(J7)
    assert rep7.symmetric and rep7.gamma_positive is True
    assert rep7.gamma.gammas == (1, 132)


def test_analyze_decomposes_once(monkeypatch):
    from ellipta import gammakit as gk

    calls = []
    real = gk.sym_decompose

    def counting(f, n):
        calls.append(n)
        return real(f, n)

    monkeypatch.setattr(gk, "sym_decompose", counting)
    for f, certified in ((J8, True), (J7, True), ((3, -1, 2), False)):
        calls.clear()
        rep = analyze(f)
        assert calls == [rep.center]
        assert rep.bi_gamma_positive is certified
        d = real(f, rep.center)
        assert rep.decomposition == d
        if certified:
            assert rep.gamma_a == gamma_expand(d.a, d.n)
            assert rep.gamma_b == gamma_expand(d.b, d.n - 1)


def test_analyze_never_raises_on_sweep():
    rng = random.Random(2)
    for _ in range(200):
        deg = rng.randrange(9)
        f = uni(rng.randint(-9, 9) for _ in range(deg + 1))
        rep = analyze(f)
        if rep.gamma_positive is True:
            assert rep.gamma.to_poly() == f
        if rep.bi_gamma_positive:
            assert rep.alternatingly_increasing and rep.unimodal

"""Symmetry, unimodality and gamma-positivity analysis of integer polynomials.

A polynomial f with declared degree n is symmetric when coefficient i equals
coefficient n-i for every i. A symmetric polynomial expands uniquely in the
basis x^k (1+x)^(n-2k); the entries of that expansion form its gamma vector,
and nonnegativity of every entry certifies both symmetry and unimodality.

An arbitrary f of degree at most n splits uniquely as f = a + x*b with a
symmetric about center n and b symmetric about center n-1. When both parts
have nonnegative gamma vectors, the coefficients of f form the interleaved
nondecreasing chain f_0 <= f_n <= f_1 <= f_{n-1} <= ... ("alternatingly
increasing"), which in turn forces unimodality.

All verdicts come with certificates that reconstruct the input exactly.
"""

from __future__ import annotations

from typing import NamedTuple

from .exactpoly import (
    UNI_ZERO,
    DegreeExceedsCenterError,
    InexactDivisionError,
    UniPoly,
    binomial_poly,
    uni,
    uni_add,
    uni_coeff,
    uni_degree,
    uni_div_one_minus_x,
    uni_reverse,
    uni_shift,
    uni_sub,
    uni_to_json,
)


class NotSymmetricError(ValueError):
    """Gamma expansion requested for a polynomial that is not symmetric."""


def _check_center(f: UniPoly, n: int):
    d = uni_degree(f)
    if d is not None and d > n:
        raise DegreeExceedsCenterError(f"degree {d} exceeds center {n}")


def is_symmetric(f: UniPoly, n: int) -> bool:
    """True iff coefficient i equals coefficient n-i for 0 <= i <= n."""
    if n < 0:
        return not f
    _check_center(f, n)
    return all(uni_coeff(f, i) == uni_coeff(f, n - i) for i in range(n // 2 + 1))


class GammaVector(NamedTuple("GammaVector", [("center", int), ("gammas", tuple)])):
    """Expansion of a symmetric polynomial in the basis x^k (1+x)^(center-2k).

    A center of -1 carries an empty vector and stands for the zero
    polynomial (the b-part of a symmetric input with declared degree 0).
    """

    __slots__ = ()

    def __new__(cls, center: int, gammas: tuple):
        if center < -1:
            raise ValueError(f"center {center} out of range")
        expected = 0 if center < 0 else center // 2 + 1
        if len(gammas) != expected:
            raise ValueError(
                f"center {center} needs {expected} entries, got {len(gammas)}"
            )
        return super().__new__(cls, center, gammas)

    @classmethod
    def _make(cls, iterable):
        # through __new__'s checks, and so is _replace
        return cls(*iterable)

    def is_nonnegative(self) -> bool:
        return all(g >= 0 for g in self.gammas)

    def to_poly(self) -> UniPoly:
        # Horner's rule in (1 + x)^2: after step k, acc is
        # sum_{j <= k} g_j x^j (1 + x)^(2k - 2j); one more factor 1 + x
        # makes the basis x^k (1 + x)^(center - 2k) of an odd center
        if not self.gammas:
            return UNI_ZERO
        acc = [self.gammas[0]]
        for k, g in enumerate(self.gammas[1:], 1):
            acc = [a + 2 * b + c
                   for a, b, c in zip([*acc, 0, 0], [0, *acc, 0], [0, 0, *acc])]
            acc[k] += g
        if self.center % 2:
            acc = [a + b for a, b in zip([*acc, 0], [0, *acc])]
        return uni(acc)

    def to_json(self) -> dict:
        return {"center": self.center, "gammas": [str(g) for g in self.gammas]}


def gamma_expand(f: UniPoly, n: int) -> GammaVector:
    """Peel off the gamma vector of a symmetric f with center n.

    Entry k is the x^k coefficient left after subtracting the lower basis
    layers; the peel is triangular and exact, and the residue must vanish.
    """
    if not is_symmetric(f, n):
        raise NotSymmetricError(f"not symmetric about center {n}")
    if n < 0:
        return GammaVector(n, ())
    work = list(f) + [0] * (n + 1 - len(f))
    gammas = []
    for k in range(n // 2 + 1):
        g = work[k]
        gammas.append(g)
        if g:
            for t, b in enumerate(binomial_poly(n - 2 * k)):
                work[k + t] -= g * b
    if any(work):
        raise NotSymmetricError("nonzero residue after peeling")
    return GammaVector(n, tuple(gammas))


class SymDecomp(NamedTuple):
    """The unique split f = a + x*b with a, b symmetric about n and n-1."""

    a: UniPoly
    b: UniPoly
    n: int

    def source(self) -> UniPoly:
        return uni_add(self.a, uni_shift(self.b, 1))

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "a": uni_to_json(uni(self.a)),
            "b": uni_to_json(uni(self.b)),
        }


def sym_decompose(f: UniPoly, n: int) -> SymDecomp:
    """Split f into its symmetric parts by exact division by 1 - x."""
    if n < 0:
        raise DegreeExceedsCenterError(f"center {n} is negative")
    _check_center(f, n)
    rev = uni_reverse(f, n)
    a = uni_div_one_minus_x(uni_sub(f, uni_shift(rev, 1)))
    b = uni_div_one_minus_x(uni_sub(rev, f))
    if uni_add(a, uni_shift(b, 1)) != uni(f):
        raise InexactDivisionError("decomposition does not reassemble")
    return SymDecomp(a=a, b=b, n=n)


def _gamma_if_certifiable(f: UniPoly, center: int):
    """Gamma vector of f about center, or None when f is not symmetric or
    some entry is negative."""
    if center < 0:
        return GammaVector(-1, ()) if not f else None
    if not is_symmetric(f, center):
        return None
    g = gamma_expand(f, center)
    return g if g.is_nonnegative() else None


def is_unimodal(f: UniPoly) -> bool:
    """True iff the coefficients rise weakly and then fall weakly."""
    rising = True
    for prev, cur in zip(f, f[1:]):
        if rising:
            if cur < prev:
                rising = False
        elif cur > prev:
            return False
    return True


def is_alternatingly_increasing(f: UniPoly, n: int) -> bool:
    """True iff f_0 <= f_n <= f_1 <= f_{n-1} <= ... holds, reading absent
    coefficients as 0."""
    if n < 0:
        return True
    _check_center(f, n)
    order = []
    i, j = 0, n
    while i <= j:
        order.append(i)
        if j != i:
            order.append(j)
        i += 1
        j -= 1
    vals = [uni_coeff(f, k) for k in order]
    return all(x <= y for x, y in zip(vals, vals[1:]))


class AnalysisReport(NamedTuple):
    """All verdicts for one polynomial at one declared center, with the
    certificates that back the positive ones."""

    center: int
    symmetric: bool
    unimodal: bool
    alternatingly_increasing: bool
    gamma_positive: object  # True, False, or "not-symmetric"
    bi_gamma_positive: bool
    gamma: GammaVector | None
    decomposition: SymDecomp | None
    gamma_a: GammaVector | None
    gamma_b: GammaVector | None

    def to_json(self) -> dict:
        return {
            "center": self.center,
            "symmetric": self.symmetric,
            "unimodal": self.unimodal,
            "alternatingly_increasing": self.alternatingly_increasing,
            "gamma_positive": self.gamma_positive,
            "bi_gamma_positive": self.bi_gamma_positive,
            "certificates": {
                "gamma": self.gamma.to_json() if self.gamma else None,
                "decomposition": (
                    self.decomposition.to_json() if self.decomposition else None
                ),
                "gamma_a": self.gamma_a.to_json() if self.gamma_a else None,
                "gamma_b": self.gamma_b.to_json() if self.gamma_b else None,
            },
        }


def analyze(f, n: int | None = None) -> AnalysisReport:
    """Run every verdict on f with declared center n (default: deg f).

    Never raises on an interesting failure; negative verdicts carry a
    machine-readable reason instead.
    """
    f = uni(f)
    if n is None:
        n = uni_degree(f) or 0
    _check_center(f, n)
    symmetric = is_symmetric(f, n)
    if symmetric:
        gv = gamma_expand(f, n)
        gamma_positive = gv.is_nonnegative()
        gamma = gv if gamma_positive else None
    else:
        gamma_positive = "not-symmetric"
        gamma = None
    dec = sym_decompose(f, n)
    ga = _gamma_if_certifiable(dec.a, n)
    gb = _gamma_if_certifiable(dec.b, n - 1)
    return AnalysisReport(
        center=n,
        symmetric=symmetric,
        unimodal=is_unimodal(f),
        alternatingly_increasing=is_alternatingly_increasing(f, n),
        gamma_positive=gamma_positive,
        bi_gamma_positive=ga is not None and gb is not None,
        gamma=gamma,
        decomposition=dec,
        gamma_a=ga,
        gamma_b=gb,
    )

"""Taylor coefficient polynomials of the Jacobian elliptic functions.

J_n(x) is the sign-stripped, factorial-normalized coefficient of u^n in the
expansion of sn(u,k) (odd n) or cn(u,k) (even n), as a polynomial in the
modulus square x = k^2; J_0 = 1 by convention. Four independent routes
compute the same sequence:

  operator    read slices of the triangle s_{n,i,j} extracted from iterates
              of the product-rule derivative operator on {x, y, z};
  recurrence  build the same triangle from Dumont's entrywise recurrence and
              specialize the two-variable cycle-peak polynomial P_n both
              admissible ways, requiring agreement;
  viennot     binomial convolution of earlier J's with their reversals;
  series      integrate the defining differential system for sn, cn, dn as
              truncated exponential series: binomial convolutions, no
              division.

The module also builds the gamma and t triangles with their entrywise and
polynomial recurrences, peels gamma rows directly out of P_n, constructs the
gamma-positivity certificate of every odd-index J and the two-part
certificate of every even-index J, and generalizes the latter construction
to arbitrary seed data (`bi_gamma_closure`).
"""

from __future__ import annotations

from collections.abc import ItemsView, Mapping
from dataclasses import dataclass
from math import comb, factorial

from .exactpoly import (
    FormalSeries,
    MultiPoly,
    UNI_ONE,
    UNI_X,
    UNI_ZERO,
    UniPoly,
    series_add,
    series_const,
    series_map,
    series_mul,
    uni,
    uni_add,
    uni_addmul_into,
    uni_mul,
    uni_neg,
    uni_reverse,
    uni_scale,
    uni_shift,
)
from .gammakit import GammaVector, SymDecomp, is_alternatingly_increasing
from .grammarcalc import G1, G_SD, iterate

P_VARS = ("p", "q")
S_VARS = ("p", "q", "r")
T_VARS = ("x", "y")


class TriangleDefectError(ValueError):
    """A triangle entry violated its proven pattern (support, sign,
    divisibility, or slice symmetry)."""


class SeriesIntegrationError(ValueError):
    """The integrated series violated its sign or parity pattern, or the dn
    reversal."""


class RouteDisagreementError(ValueError):
    """Two routes that must agree produced different values."""


# ---------------------------------------------------------------------------
# the row-indexed triangle type


class Triangle(Mapping):
    """A number triangle held row by row: ``rows`` maps n to that row's
    ``{(i, j): c}`` dict, so reading one row never scans the others.

    It is also a read-only mapping over the flat ``(n, i, j)`` keys, with
    ``len`` the number of entries, so ``dict(tri)``, ``tri[(n, i, j)]`` and
    ``sorted(tri.items())`` see the classic flat triangle. No flat copy is
    kept. Rows are shared, not copied: callers must not mutate them.
    """

    __slots__ = ("rows", "_size")

    def __init__(self, rows: dict):
        self.rows = rows
        self._size = sum(len(r) for r in rows.values())

    def row(self, n: int) -> dict:
        """Row n as ``{(i, j): c}``; a missing row reads as empty."""
        return self.rows.get(n, {})

    def __getitem__(self, key):
        try:
            n, i, j = key
            return self.rows[n][(i, j)]
        except (KeyError, TypeError, ValueError):
            raise KeyError(key) from None

    def __iter__(self):
        for n, r in self.rows.items():
            for i, j in r:
                yield (n, i, j)

    def __len__(self):
        return self._size

    def items(self):
        return _TriangleItems(self)


class _TriangleItems(ItemsView):
    def __iter__(self):
        for n, r in self._mapping.rows.items():
            for (i, j), c in r.items():
                yield (n, i, j), c


# ---------------------------------------------------------------------------
# the s triangle (two constructions) and the polynomials S_n, P_n


def _s_support(n: int, i: int, j: int) -> bool:
    return 0 <= i and 0 <= j and i + j <= n // 2


def s_triangle_operator(n_max: int) -> Triangle:
    """Read s_{n,i,j} off the exponent patterns of the operator iterates:
    even rows carry x^(2i+1) y^(2j), odd rows x^(2i) y^(2j+1)."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    seed = G_SD.seed("x")
    rows: dict = {}
    for n in range(1, n_max + 1):
        f = iterate(G_SD, seed, n)
        cur = rows[n] = {}
        for (ex, ey, ez), c in f.terms.items():
            if n % 2 == 0:
                if ex % 2 == 0 or ey % 2 or ez % 2:
                    raise TriangleDefectError(
                        f"row {n}: monomial x^{ex} y^{ey} z^{ez} off pattern"
                    )
                i, j = (ex - 1) // 2, ey // 2
            else:
                if ex % 2 or ey % 2 == 0 or ez % 2 == 0:
                    raise TriangleDefectError(
                        f"row {n}: monomial x^{ex} y^{ey} z^{ez} off pattern"
                    )
                i, j = ex // 2, (ey - 1) // 2
            if c < 0 or not _s_support(n, i, j):
                raise TriangleDefectError(f"bad entry {c} at {(n, i, j)}")
            cur[(i, j)] = c
    return Triangle(rows)


def s_triangle_recurrence(n_max: int) -> Triangle:
    """Dumont's entrywise recurrence, seeded by the single entry of row 1;
    out-of-range indices read 0."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    prev = {(0, 0): 1}
    rows = {1: prev}
    for n in range(2, n_max + 1):
        cur: dict = {}
        even = n % 2 == 0
        for i in range(n // 2 + 2):
            for j in range(n // 2 - i + 2):
                if even:
                    v = (
                        (2 * j + 1) * prev.get((i, j), 0)
                        + (2 * i + 2) * prev.get((i + 1, j - 1), 0)
                        + (n - 2 * i - 2 * j + 1) * prev.get((i, j - 1), 0)
                    )
                else:
                    v = (
                        (2 * i + 1) * prev.get((i, j), 0)
                        + (2 * j + 2) * prev.get((i - 1, j + 1), 0)
                        + (n - 2 * i - 2 * j + 1) * prev.get((i - 1, j), 0)
                    )
                if v:
                    if v < 0 or not _s_support(n, i, j):
                        raise TriangleDefectError(f"bad entry {v} at {(n, i, j)}")
                    cur[(i, j)] = v
        rows[n] = prev = cur
    return Triangle(rows)


def s_poly(n: int, triangle: Triangle) -> MultiPoly:
    """The homogeneous three-variable polynomial of total degree n // 2 whose
    coefficients are row n of the triangle."""
    half = n // 2
    return MultiPoly(
        S_VARS,
        {(i, j, half - i - j): c for (i, j), c in triangle.row(n).items()},
    )


def p_poly(n: int, triangle: Triangle) -> MultiPoly:
    """The cycle-peak polynomial P_n, the r -> 1 specialization of s_poly."""
    return MultiPoly(P_VARS, triangle.row(n))


# ---------------------------------------------------------------------------
# J routes


@dataclass(frozen=True)
class JSequence:
    """J_0 .. J_n as UniPolys, tagged with the route that produced them."""

    route: str
    polys: tuple

    def __getitem__(self, n: int) -> UniPoly:
        return self.polys[n]

    def __len__(self):
        return len(self.polys)


def validate_j_sequence(seq: JSequence):
    """Degree (n-1)//2 and nonnegative coefficients, for every n >= 1."""
    if seq.polys[0] != UNI_ONE:
        raise ValueError(f"route {seq.route}: J_0 must be 1")
    for n, f in enumerate(seq.polys):
        if n == 0:
            continue
        if len(f) - 1 != (n - 1) // 2:
            raise ValueError(
                f"route {seq.route}: deg J_{n} is {len(f) - 1}, "
                f"expected {(n - 1) // 2}"
            )
        if any(c < 0 for c in f):
            raise ValueError(f"route {seq.route}: negative coefficient in J_{n}")


def j_slice_from_triangle(triangle: Triangle, n: int) -> UniPoly:
    """J_n as a slice of the s triangle: the j = 0 line for even n, the
    i = 0 line for odd n."""
    if n == 0:
        return UNI_ONE
    half = n // 2
    row = triangle.row(n)
    if n % 2 == 0:
        return uni(row.get((i, 0), 0) for i in range(half + 1))
    return uni(row.get((0, j), 0) for j in range(half + 1))


def j_from_p(n: int, triangle: Triangle) -> UniPoly:
    """J_n by specializing the cycle-peak polynomials; both admissible rows
    are specialized and must agree."""
    if n == 0:
        return UNI_ONE
    if n % 2 == 0:
        a = p_poly(n, triangle).substitute({"p": UNI_X, "q": 0})
        b = p_poly(n - 1, triangle).substitute({"p": UNI_X, "q": 0})
    else:
        a = p_poly(n, triangle).substitute({"p": 0, "q": UNI_X})
        b = (
            UNI_ONE
            if n == 1
            else p_poly(n - 1, triangle).substitute({"p": 0, "q": UNI_X})
        )
    if a != b:
        raise RouteDisagreementError(
            f"rows {n} and {n - 1} specialize differently for J_{n}"
        )
    return a


def j_operator(n_max: int) -> JSequence:
    tri = s_triangle_operator(max(1, n_max))
    return JSequence(
        "operator", tuple(j_slice_from_triangle(tri, n) for n in range(n_max + 1))
    )


def j_recurrence(n_max: int) -> JSequence:
    tri = s_triangle_recurrence(max(1, n_max))
    return JSequence(
        "recurrence", tuple(j_from_p(n, tri) for n in range(n_max + 1))
    )


def j_viennot(n_max: int) -> JSequence:
    """Binomial convolutions building each J from earlier ones and the
    reversals x^i J_{2i}(1/x)."""
    js = [UNI_ONE]
    for n in range(1, n_max + 1):
        acc = UNI_ZERO
        if n % 2 == 0:
            m = n // 2
            for i in range(m):
                term = uni_mul(js[2 * m - 1 - 2 * i], uni_reverse(js[2 * i], i))
                acc = uni_add(acc, uni_scale(term, comb(2 * m - 1, 2 * i)))
        else:
            m = (n - 1) // 2
            for i in range(m + 1):
                term = uni_mul(js[2 * m - 2 * i], uni_reverse(js[2 * i], i))
                acc = uni_add(acc, uni_scale(term, comb(2 * m, 2 * i)))
        js.append(acc)
    return JSequence("viennot", tuple(js))


# ---------------------------------------------------------------------------
# the series route


@dataclass(frozen=True)
class EllipticSeries:
    """Truncated expansions of sn, cn, dn in u, with UniPoly coefficients in
    the modulus square x.

    Stored coefficient m is scale * (true coefficient of u^m), with
    scale = order!; the single global factor clears every factorial
    denominator, so the view stays in exact integers.
    """

    order: int
    scale: int
    sn: FormalSeries
    cn: FormalSeries
    dn: FormalSeries


def _binomial_convolution(a: list, b: list, m: int) -> UniPoly:
    """Coefficient m of the product of two exponential generating functions:
    the sum over i of C(m, i) a_i b_(m-i)."""
    acc: list = []
    for i in range(m + 1):
        if a[i] and b[m - i]:
            uni_addmul_into(acc, uni_mul(a[i], b[m - i]), comb(m, i))
    return uni(acc)


def _elliptic_egf(order: int) -> tuple:
    """Integrate sn' = cn dn, cn' = -sn dn, dn' = -x sn cn term by term,
    starting from sn = u, cn = dn = 1, in exponential normalization: entry m
    of each returned list is m! times the coefficient of u^m. There the
    derivative is an index shift and the product a binomial convolution, so
    every step is an exact integer sum with no division."""
    if order < 1:
        raise ValueError("order must be at least 1")
    sn = [UNI_ZERO] * (order + 1)
    cn = [UNI_ZERO] * (order + 1)
    dn = [UNI_ZERO] * (order + 1)
    cn[0] = dn[0] = UNI_ONE
    for m in range(order):
        sn[m + 1] = _binomial_convolution(cn, dn, m)
        cn[m + 1] = uni_neg(_binomial_convolution(sn, dn, m))
        dn[m + 1] = uni_shift(uni_neg(_binomial_convolution(sn, cn, m)), 1)
    return sn, cn, dn


def elliptic_series(order: int) -> EllipticSeries:
    """The integrated sn, cn, dn in the scaled view: the exponential
    coefficients a_m are converted once to scale * a_m / m!."""
    egf = _elliptic_egf(order)
    scale = factorial(order)
    factors = [scale]
    for m in range(1, order + 1):
        factors.append(factors[-1] // m)
    sn, cn, dn = (
        FormalSeries(
            order, tuple(uni_scale(a, f) for a, f in zip(coeffs, factors))
        )
        for coeffs in egf
    )
    return EllipticSeries(order=order, scale=scale, sn=sn, cn=cn, dn=dn)


def j_series(n_max: int) -> JSequence:
    """Read J_n off the exponential coefficients of the integrated series:
    strip the sign (-1)^(n//2), and cross-check the dn expansion against the
    reversal of the even J's."""
    sn, cn, dn = _elliptic_egf(max(1, n_max))
    for m in range(len(sn)):
        if m % 2 == 0 and sn[m]:
            raise SeriesIntegrationError(f"sn has an even-order term u^{m}")
        if m % 2 and (cn[m] or dn[m]):
            raise SeriesIntegrationError(f"cn or dn has an odd-order term u^{m}")
    js = [UNI_ONE]
    for n in range(1, n_max + 1):
        a = sn[n] if n % 2 else cn[n]
        val = uni_neg(a) if (n // 2) % 2 else a
        if any(c < 0 for c in val):
            raise SeriesIntegrationError(f"sign pattern violated at J_{n}")
        js.append(val)
    for k in range(1, n_max // 2 + 1):
        got = uni_neg(dn[2 * k]) if k % 2 else dn[2 * k]
        if got != uni_reverse(js[2 * k], k):
            raise SeriesIntegrationError(
                f"dn coefficient at u^{2 * k} is not the reversal of J_{2 * k}"
            )
    return JSequence("series", tuple(js))


@dataclass(frozen=True)
class SeriesIdentityReport:
    order: int
    pythagorean: bool  # sn^2 + cn^2 = 1 through the stored order
    modulus: bool  # dn^2 + x sn^2 = 1 through the stored order
    dn_reversal: bool  # dn coefficients match reversed even J's

    def all_ok(self) -> bool:
        return self.pythagorean and self.modulus and self.dn_reversal


def series_identity_checks(order: int) -> SeriesIdentityReport:
    es = elliptic_series(order)
    one = series_const(order, (es.scale * es.scale,))
    pyth = series_add(series_mul(es.sn, es.sn), series_mul(es.cn, es.cn)) == one
    x_sn2 = series_map(series_mul(es.sn, es.sn), lambda f: uni_shift(f, 1))
    modulus = series_add(series_mul(es.dn, es.dn), x_sn2) == one
    try:
        j_series(order)
        dn_rev = True
    except SeriesIntegrationError:
        dn_rev = False
    return SeriesIdentityReport(
        order=order, pythagorean=pyth, modulus=modulus, dn_reversal=dn_rev
    )


# ---------------------------------------------------------------------------
# route dispatch


J_ROUTES = {
    "operator": j_operator,
    "recurrence": j_recurrence,
    "viennot": j_viennot,
    "series": j_series,
}


def j_sequence(n_max: int, route: str = "viennot") -> JSequence:
    if route not in J_ROUTES:
        raise ValueError(f"unknown route {route!r}")
    return J_ROUTES[route](n_max)


def first_route_mismatch(seqs):
    """First (n, exponent, {route: coefficient}) where the sequences differ,
    or None when they agree everywhere."""
    n_max = min(len(s.polys) for s in seqs) - 1
    for n in range(n_max + 1):
        polys = [s.polys[n] for s in seqs]
        width = max((len(f) for f in polys), default=0)
        for e in range(width):
            vals = {
                s.route: (s.polys[n][e] if e < len(s.polys[n]) else 0)
                for s in seqs
            }
            if len(set(vals.values())) > 1:
                return n, e, vals
    return None


# ---------------------------------------------------------------------------
# gamma and t triangles


def _gamma_support(n: int, i: int, j: int) -> bool:
    return 0 <= i <= (n - 1) // 2 and 0 <= j <= (n - 2 * i) // 4


def _gamma_like_recurrence(n_max: int, third_scale: int, check) -> Triangle:
    """Shared driver for the gamma (scale 4) and t (scale 1) entrywise
    recurrences; rows are checked against support, sign, and the caller's
    extra predicate, with one margin cell verified zero on every side."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    prev = {(0, 0): 1}
    rows = {1: prev}
    for n in range(2, n_max + 1):
        cur: dict = {}
        even = n % 2 == 0
        half = n // 2
        for i in range((n - 1) // 2 + 2):
            for j in range(max(0, n - 2 * i) // 4 + 2):
                if even:
                    v = (
                        2 * (i + 1) * prev.get((i + 1, j - 1), 0)
                        + (2 * j + 1) * prev.get((i, j), 0)
                        + third_scale
                        * (half - i - 2 * j + 1)
                        * prev.get((i, j - 1), 0)
                    )
                else:
                    v = (
                        (2 * i + 1) * prev.get((i, j), 0)
                        + 2 * (j + 1) * prev.get((i - 1, j + 1), 0)
                        + third_scale
                        * (half - i - 2 * j + 1)
                        * prev.get((i - 1, j), 0)
                    )
                if v:
                    if v < 0 or not _gamma_support(n, i, j):
                        raise TriangleDefectError(f"bad entry {v} at {(n, i, j)}")
                    check(n, i, j, v)
                    cur[(i, j)] = v
        rows[n] = prev = cur
    if n_max >= 2 and rows[2].get((0, 0)) != 1:
        raise TriangleDefectError("row 2 does not reduce to the stated seed")
    return Triangle(rows)


def gamma_triangle_recurrence(n_max: int) -> Triangle:
    """Gamma triangle with seed rows 1 and 2 equal to 1; every entry must be
    divisible by 4^(i+j)."""

    def check(n, i, j, v):
        if v % 4 ** (i + j):
            raise TriangleDefectError(
                f"entry {v} at {(n, i, j)} not divisible by 4^{i + j}"
            )

    return _gamma_like_recurrence(n_max, 4, check)


def t_triangle_recurrence(n_max: int) -> Triangle:
    """The gamma triangle with powers of 4 divided out, built from its own
    recurrence (integrality of which is rechecked against gamma)."""
    return _gamma_like_recurrence(n_max, 1, lambda *a: None)


def gamma_equals_scaled_t(gamma_tri: Mapping, t_tri: Mapping, n_max: int):
    """First discrepancy between gamma and 4^(i+j) t, or None."""
    keys = {k for k in gamma_tri if k[0] <= n_max} | {
        k for k in t_tri if k[0] <= n_max
    }
    for key in sorted(keys):
        n, i, j = key
        if gamma_tri.get(key, 0) != 4 ** (i + j) * t_tri.get(key, 0):
            return key
    return None


def t_polys_recurrence(n_max: int) -> list:
    """The two-variable polynomials t_n(x, y) from their differential-style
    recurrence; entry 0 of the returned list is unused."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    x = MultiPoly.variable(T_VARS, "x")
    y = MultiPoly.variable(T_VARS, "y")
    one = MultiPoly.const(T_VARS, 1)
    two = MultiPoly.const(T_VARS, 2)
    out = [None, one]
    for r in range(2, n_max + 1):
        prev = out[r - 1]
        dx = prev.partial("x")
        dy = prev.partial("y")
        if r % 2 == 0:
            n = r // 2
            cur = (
                (one + (n - 1) * y) * prev
                + (two - x) * y * dx
                + 2 * y * (one - y) * dy
            )
        else:
            n = (r - 1) // 2
            cur = (
                (one + n * x) * prev
                + (two - x) * x * dx
                + 2 * x * (one - y) * dy
            )
        out.append(cur)
    return out


def t_poly_from_triangle(t_tri: Triangle, n: int) -> MultiPoly:
    return MultiPoly(T_VARS, t_tri.row(n))


def t_poly(n: int, route: str = "recurrence") -> MultiPoly:
    """t_n(x, y) by the entrywise recurrence (default) or the polynomial
    recurrence ("poly")."""
    if route == "recurrence":
        return t_poly_from_triangle(t_triangle_recurrence(n), n)
    if route == "poly":
        return t_polys_recurrence(n)[n]
    raise ValueError(f"unknown t route {route!r}")


def gamma_from_p(n: int, pn: MultiPoly) -> dict:
    """Peel row n of the gamma triangle out of P_n: for every power i of p
    the q-coefficient polynomial must be symmetric about n//2 - i, and its
    gamma vector gives the j line."""
    from .gammakit import NotSymmetricError, gamma_expand

    half = n // 2
    slices: dict = {}
    for (i, j), c in pn.terms.items():
        if i > (n - 1) // 2:
            raise TriangleDefectError(f"p-degree {i} too large in row {n}")
        slices.setdefault(i, {})[j] = c
    row: dict = {}
    for i, coeffs in slices.items():
        center = half - i
        q_poly = uni(coeffs.get(j, 0) for j in range(center + 1))
        try:
            gv = gamma_expand(q_poly, center)
        except NotSymmetricError as exc:
            raise TriangleDefectError(
                f"p^{i} slice of row {n} is not symmetric"
            ) from exc
        for j, g in enumerate(gv.gammas):
            if g < 0:
                raise TriangleDefectError(f"negative gamma at {(n, i, j)}")
            if g:
                row[(n, i, j)] = g
    return row


def gamma_operator_expansion(gamma_tri: Triangle, n: int) -> MultiPoly:
    """Reassemble the operator iterate over {x, a, b, c} from gamma row n:
    x (even n) or c (odd n) times the sum of gamma * x^2i c^2j (a+b)^rest."""
    vs = G1.variables
    apb = MultiPoly.variable(vs, "a") + MultiPoly.variable(vs, "b")
    half = n // 2 if n % 2 == 0 else (n - 1) // 2
    pow_cache = {}
    acc = MultiPoly.zero(vs)
    x_off, c_off = (1, 0) if n % 2 == 0 else (0, 1)
    for (i, j), g in gamma_tri.row(n).items():
        k = half - i - 2 * j
        if k not in pow_cache:
            pow_cache[k] = apb**k
        mono = MultiPoly.monomial(vs, (2 * i + x_off, 0, 0, 2 * j + c_off), g)
        acc = acc + mono * pow_cache[k]
    return acc


# ---------------------------------------------------------------------------
# gamma certificates for J


def j_odd_gamma(n: int, gamma_tri: Triangle) -> GammaVector:
    """Gamma vector of J_{2n+1} (center n), read from the i = 0 line of the
    gamma triangle row 2n+1."""
    row = gamma_tri.row(2 * n + 1)
    return GammaVector(n, tuple(row.get((0, j), 0) for j in range(n // 2 + 1)))


def _bi_gamma_step(n: int, gvecs, alphas, betas, weight) -> tuple:
    """One convolution step of the two-part certificate construction.

    gvecs[d] is the gamma vector (tuple, center d) of the degree-d seed;
    alphas[i] and betas[i] are the certificate vectors of the i-th
    constructed polynomial (centers i-1 and i-2); weight(i) supplies the
    nonnegative multiplier. Returns the vectors (center n and n-1) for the
    next constructed polynomial: reversals swap each earlier certificate's
    roles, the a-part landing in the new b and the x-shifted b-part landing
    one gamma index up in the new a.
    """
    a_out = [0] * (n // 2 + 1)
    b_out = [0] * ((n - 1) // 2 + 1) if n >= 1 else []
    w0 = weight(0)
    if w0:
        for l, g in enumerate(gvecs[n]):
            a_out[l] += w0 * g
    for i in range(1, n + 1):
        w = weight(i)
        if not w:
            continue
        gv = gvecs[n - i]
        al = alphas[i]
        be = betas[i]
        for j, gj in enumerate(gv):
            if not gj:
                continue
            wg = w * gj
            for k, bk in enumerate(be):
                if bk:
                    a_out[j + k + 1] += wg * bk
            for k, ak in enumerate(al):
                if ak:
                    b_out[j + k] += wg * ak
    return a_out, b_out


@dataclass(frozen=True)
class EvenDecomposition:
    """Constructive certificate for an even-index J: gamma vectors of both
    symmetric parts, plus the assembled decomposition."""

    m: int  # certifies J_{2m+2}
    gamma_a: GammaVector
    gamma_b: GammaVector
    decomposition: SymDecomp

    def poly(self) -> UniPoly:
        return self.decomposition.source()

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "gamma_a": self.gamma_a.to_json(),
            "gamma_b": self.gamma_b.to_json(),
            "decomposition": self.decomposition.to_json(),
        }


def j_even_decompositions(m_max: int, gamma_tri: Triangle | None = None) -> list:
    """Certificates for J_2, J_4, ..., J_{2m_max+2}, built recursively by
    gamma-vector convolutions with binomial weights."""
    if gamma_tri is None:
        gamma_tri = gamma_triangle_recurrence(max(1, 2 * m_max + 1))
    gvecs = [j_odd_gamma(d, gamma_tri).gammas for d in range(m_max + 1)]
    alphas: list = [None]
    betas: list = [None]
    out = []
    for m in range(m_max + 1):
        a_vec, b_vec = _bi_gamma_step(
            m, gvecs, alphas, betas, lambda i, m=m: comb(2 * m + 1, 2 * i)
        )
        if any(v < 0 for v in a_vec) or any(v < 0 for v in b_vec):
            raise TriangleDefectError(f"negative certificate entry at m={m}")
        ga = GammaVector(m, tuple(a_vec))
        gb = GammaVector(m - 1, tuple(b_vec))
        alphas.append(ga.gammas)
        betas.append(gb.gammas)
        a_poly = ga.to_poly()
        b_poly = gb.to_poly()
        out.append(
            EvenDecomposition(
                m=m,
                gamma_a=ga,
                gamma_b=gb,
                decomposition=SymDecomp(a=a_poly, b=b_poly, n=m),
            )
        )
    return out


def j_even_decomposition(
    m: int, gamma_tri: Triangle | None = None
) -> EvenDecomposition:
    return j_even_decompositions(m, gamma_tri)[m]


# ---------------------------------------------------------------------------
# the general closure


@dataclass(frozen=True)
class ClosureItem:
    index: int
    poly: UniPoly
    decomposition: SymDecomp
    gamma_a: GammaVector
    gamma_b: GammaVector
    degenerate: bool
    alternatingly_increasing: bool

    def to_json(self) -> dict:
        from .exactpoly import uni_to_json

        return {
            "index": self.index,
            "poly": uni_to_json(self.poly),
            "gamma_a": self.gamma_a.to_json(),
            "gamma_b": self.gamma_b.to_json(),
            "decomposition": self.decomposition.to_json(),
            "degenerate": self.degenerate,
            "alternatingly_increasing": self.alternatingly_increasing,
        }


def bi_gamma_closure(g_gammas, weights, n_max: int) -> list:
    """Run the certificate construction on arbitrary seed data.

    g_gammas[d] must be a gamma-positive vector of center d with nonzero
    leading entry (so the seed polynomial has exact degree d), for
    d = 0 .. n_max - 1. weights maps (n, i) to a nonnegative integer
    multiplier; missing entries read 0. Starting from f_0 = 1, each f_{n+1}
    is the weighted sum of g_{n-i} times the reversal x^i f_i(1/x), and the
    returned items carry two-part certificates built by the same convolution
    scheme as the even-index J construction, cross-checked against direct
    polynomial evaluation.
    """
    gv_list = list(g_gammas)
    if len(gv_list) < n_max:
        raise ValueError(f"need seed vectors for degrees 0 .. {n_max - 1}")
    gvecs = []
    gpolys = []
    for d, gv in enumerate(gv_list):
        if gv.center != d:
            raise ValueError(f"seed vector {d} has center {gv.center}")
        if not gv.is_nonnegative():
            raise ValueError(f"seed vector {d} has a negative entry")
        if gv.gammas[0] <= 0:
            raise ValueError(f"seed vector {d} has degree below {d}")
        gvecs.append(gv.gammas)
        gpolys.append(gv.to_poly())
    for key, w in weights.items():
        if w < 0:
            raise ValueError(f"negative weight at {key}")

    items = [
        ClosureItem(
            index=0,
            poly=UNI_ONE,
            decomposition=SymDecomp(a=UNI_ONE, b=UNI_ZERO, n=0),
            gamma_a=GammaVector(0, (1,)),
            gamma_b=GammaVector(-1, ()),
            degenerate=False,
            alternatingly_increasing=True,
        )
    ]
    fs = [UNI_ONE]
    alphas: list = [None]
    betas: list = [None]
    for n in range(n_max):
        a_vec, b_vec = _bi_gamma_step(
            n, gvecs, alphas, betas, lambda i, n=n: weights.get((n, i), 0)
        )
        ga = GammaVector(n, tuple(a_vec))
        gb = GammaVector(n - 1, tuple(b_vec))
        a_poly = ga.to_poly()
        b_poly = gb.to_poly()
        f = uni_add(a_poly, uni_shift(b_poly, 1))
        direct = UNI_ZERO
        for i in range(n + 1):
            w = weights.get((n, i), 0)
            if w:
                direct = uni_add(
                    direct,
                    uni_scale(
                        uni_mul(gpolys[n - i], uni_reverse(fs[i], i)), w
                    ),
                )
        if f != direct:
            raise RouteDisagreementError(
                f"certificate assembly of f_{n + 1} disagrees with direct sum"
            )
        alphas.append(ga.gammas)
        betas.append(gb.gammas)
        fs.append(f)
        items.append(
            ClosureItem(
                index=n + 1,
                poly=f,
                decomposition=SymDecomp(a=a_poly, b=b_poly, n=n),
                gamma_a=ga,
                gamma_b=gb,
                degenerate=f == UNI_ZERO,
                alternatingly_increasing=is_alternatingly_increasing(f, n),
            )
        )
    return items


# ---------------------------------------------------------------------------
# triangle serialization (JSON-lines cache format, CSV)


def triangle_to_jsonl(tri: Mapping) -> str:
    lines = [
        '{"n":%d,"i":%d,"j":%d,"coeff":"%d"}' % (n, i, j, c)
        for (n, i, j), c in sorted(tri.items())
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def triangle_from_jsonl(text: str) -> Triangle:
    import json

    rows: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            n = int(obj["n"])
            ij = (int(obj["i"]), int(obj["j"]))
            val = int(obj["coeff"])
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"bad triangle record on line {lineno}") from exc
        row = rows.setdefault(n, {})
        if ij in row:
            raise ValueError(
                f"duplicate triangle key {(n, *ij)} on line {lineno}"
            )
        row[ij] = val
    return Triangle(rows)


def triangle_to_csv(tri: Mapping) -> str:
    lines = ["n,i,j,value"]
    lines += [
        f"{n},{i},{j},{c}" for (n, i, j), c in sorted(tri.items())
    ]
    return "\n".join(lines) + "\n"


def triangle_max_row(tri: Mapping) -> int:
    return max((k[0] for k in tri), default=0)


def validate_s_triangle(tri: Mapping):
    """Rows must be contiguous from 1, nonnegative, inside support, and sum
    to n factorial."""
    n_max = triangle_max_row(tri)
    if n_max < 1:
        raise ValueError("empty triangle")
    sums: dict = {}
    for (n, i, j), c in tri.items():
        if c < 0 or not _s_support(n, i, j):
            raise ValueError(f"bad entry {c} at {(n, i, j)}")
        sums[n] = sums.get(n, 0) + c
    for n in range(1, n_max + 1):
        if sums.get(n) != factorial(n):
            raise ValueError(f"row {n} does not sum to {n}!")


def validate_gamma_triangle(tri: Mapping):
    n_max = triangle_max_row(tri)
    if n_max < 1:
        raise ValueError("empty triangle")
    rows = set()
    for (n, i, j), c in tri.items():
        rows.add(n)
        if c < 0 or not _gamma_support(n, i, j):
            raise ValueError(f"bad entry {c} at {(n, i, j)}")
        if c % 4 ** (i + j):
            raise ValueError(f"entry at {(n, i, j)} not divisible by 4^{i + j}")
    if rows != set(range(1, n_max + 1)):
        raise ValueError("missing rows")


def validate_t_triangle(tri: Mapping):
    n_max = triangle_max_row(tri)
    if n_max < 1:
        raise ValueError("empty triangle")
    rows = set()
    for (n, i, j), c in tri.items():
        rows.add(n)
        if c < 0 or not _gamma_support(n, i, j):
            raise ValueError(f"bad entry {c} at {(n, i, j)}")
    if rows != set(range(1, n_max + 1)):
        raise ValueError("missing rows")


def validate_theta_table(tri: Mapping):
    """Orbit sizes force every present row n to satisfy
    sum of theta * 2^j = n factorial."""
    sums: dict = {}
    for (n, i, j), c in tri.items():
        if c < 0 or i < 0 or j < 0:
            raise ValueError(f"bad entry {c} at {(n, i, j)}")
        sums[n] = sums.get(n, 0) + c * 2**j
    for n, total in sums.items():
        if total != factorial(n):
            raise ValueError(f"theta row {n} weighted sum is not {n}!")

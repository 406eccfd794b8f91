"""Taylor coefficient polynomials of the Jacobian elliptic functions.

J_n(x) is the sign-stripped, factorial-normalized coefficient of u^n in the
expansion of sn(u,k) (odd n) or cn(u,k) (even n), as a polynomial in the
modulus square x = k^2; J_0 = 1 by convention. Five independent routes
compute the same sequence:

  operator    read the triangle s_{n,i,j} off iterates of the product-rule
              derivative operator on {x, y, z};
  recurrence  build the same triangle from Dumont's entrywise recurrence;
              both routes read J_n = P_n(x, 0) or P_n(0, x) off one line
              of rows n and n - 1, requiring agreement;
  viennot     binomial convolution of earlier J's with their reversals;
  series      integrate the defining differential system for sn, cn, dn as
              truncated exponential series: binomial convolutions, no
              division;
  fraction    weighted Dyck and Motzkin paths read off the continued
              fractions of cn and sn: no product of two polynomials (the
              default route, and the reference of the theorem certificates).

The module also builds the gamma and t triangles with their entrywise and
polynomial recurrences, peels gamma rows directly out of P_n, constructs the
gamma-positivity certificate of every odd-index J, and runs one bi-gamma
chain for both the two-part certificate of every even-index J and its
generalization to arbitrary seed data (`bi_gamma_closure`).
"""

from __future__ import annotations

from itertools import count, islice
from math import comb, factorial
from operator import mul
from typing import TYPE_CHECKING, NamedTuple

from .exactpoly import (
    DegreeExceedsCenterError,
    FormalSeries,
    MultiPoly,
    SharedSums,
    UNI_ONE,
    UNI_ZERO,
    UniPoly,
    uni,
    uni_add,
    uni_addmul_into,
    uni_mul,
    uni_neg,
    uni_reverse,
    uni_scale,
    uni_shift,
    uni_to_json,
)

# gammakit and grammarcalc are imported by the functions that use them: the
# J routes other than operator, the triangles' rows and their formats load
# neither. The annotations name gammakit's types for type checkers alone.
if TYPE_CHECKING:
    from .gammakit import GammaVector, SymDecomp

P_VARS = ("p", "q")
S_VARS = ("p", "q", "r")
T_VARS = ("x", "y")
DEFAULT_TREE_CAP = 9  # treeoracle's default cap, kept here for the CLI's --cap help


class TriangleDefectError(ValueError):
    """A triangle entry violated its proven pattern (support, sign,
    divisibility, or slice symmetry)."""


class SeriesIntegrationError(ValueError):
    """The integrated series violated its sign or parity pattern, or the dn
    reversal."""


class RouteDisagreementError(ValueError):
    """Two routes that must agree produced different values."""


# ---------------------------------------------------------------------------
# triangles: a triangle is a dict {n: {(i, j): c}} of rows; rows are shared,
# not copied, so callers must not mutate them


# ---------------------------------------------------------------------------
# the s triangle (two constructions) and the polynomials S_n, P_n


def _s_bounds(n: int) -> tuple:
    """Row n of s holds the cells 0 <= i, 0 <= j, i + j <= n // 2."""
    return n // 2, n // 2, 1


def _check_entry(n: int, i: int, j: int, c: int, bounds: tuple, scale: int):
    """Entry c at (n, i, j) must be nonnegative, divisible by scale^(i+j) and
    inside row n's support. ``bounds`` is (i_max, half, step): the support is
    0 <= i <= i_max, 0 <= j and i + step * j <= half."""
    i_max, half, step = bounds
    if (
        c < 0
        or not (0 <= i <= i_max and 0 <= j and i + step * j <= half)
        or (scale != 1 and c % scale ** (i + j))
    ):
        raise TriangleDefectError(f"bad entry {c} at {(n, i, j)}")


def _padded(lines: list, i: int, size: int) -> list:
    """Line i of a row held as a list of lines, with at least ``size``
    cells; a line outside the row reads as zeros."""
    line = lines[i] if 0 <= i < len(lines) else []
    return line + [0] * (size - len(line)) if len(line) < size else line


def _stencil_rows(bounds_of, weight_of, scale: int, _depth_of=None):
    """The entrywise recurrence shared by the s, gamma and t triangles, as an
    endless generator of (n, row) from the single entry of row 1 on; each row
    is built only when the caller asks for it. With P the previous row,

      even n:  (2j+1) P(i, j) + (2i+2) P(i+1, j-1) + w P(i, j-1)
      odd n:   (2i+1) P(i, j) + (2j+2) P(i-1, j+1) + w P(i-1, j)

    where w = w0 - wi * i - wj * j for (w0, wi, wj) = weight_of(n);
    out-of-range indices read 0. Each row is scanned over its support
    (``bounds_of(n)``, see ``_check_entry``) plus one margin cell beyond
    every upper bound, and every entry is checked, so an entry that leaks
    out of the support raises.

    ``scale`` is a power of two (every caller passes 1 or 4), so cell j of
    line i is divisible by scale^(i+j) exactly when its bits under the mask
    scale^(i+j) - 1 are 0. Row n is built one i-line at a time from the
    previous row's lines, and each line is checked as a whole: its minimum,
    its cells outside the support and its masked cells; a line that fails
    is rechecked cell by cell (by ``_check_entry``), so the error names its
    first bad entry. Only the previous row's lines are held.
    ``_depth_of(n)``, when given, is the last line built at row n, for a
    caller that reads only the first lines of later rows."""
    prev = [[1]]
    yield 1, {(0, 0): 1}
    masks = [0]  # scale ** k - 1, for the divisibility of line cells
    for n in count(2):
        even = n % 2 == 0
        bounds = i_max, half, step = bounds_of(n)
        w0, wi, wj = weight_of(n)
        while len(masks) <= half:
            masks.append((masks[-1] + 1) * scale - 1)
        n_lines = i_max + 2
        if _depth_of is not None:
            n_lines = min(n_lines, _depth_of(n) + 1)
        lines = []
        for i in range(n_lines):
            size = max(0, half - i) // step + 2
            ws = count(w0 - wi * i, -wj)  # w at j = 0, 1, ...
            here = _padded(prev, i, size)
            if even:
                c = 2 * i + 2
                up = [0] + _padded(prev, i + 1, size - 1)
                line = [
                    o * x + c * y + w * z
                    for o, w, x, y, z in zip(
                        range(1, 2 * size, 2), ws, here, up, [0] + here
                    )
                ]
            else:
                c = 2 * i + 1
                down = _padded(prev, i - 1, size + 1)
                line = [
                    c * x + e * y + w * z
                    for e, w, x, y, z in zip(
                        range(2, 2 * size + 1, 2), ws, here, down[1:], down
                    )
                ]
            # cells from `inside` on lie outside the support and must be 0
            inside = (half - i) // step + 1 if i <= min(i_max, half) else 0
            if (
                min(line) < 0
                or any(line[inside:])
                or (
                    scale != 1
                    and any(v & m for v, m in zip(line[:inside], masks[i:]))
                )
            ):
                for j, v in enumerate(line):
                    if v:
                        _check_entry(n, i, j, v, bounds, scale)
            lines.append(line)
        prev = lines
        yield n, {
            (i, j): v for i, line in enumerate(lines) for j, v in enumerate(line) if v
        }


def _collect_rows(rows, n_max: int) -> dict:
    """Rows 1 .. n_max of a row generator, as a triangle."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    return dict(islice(rows, n_max))


def s_rows_operator():
    """Read s_{n,i,j} off the exponent patterns of the operator iterates,
    as an endless generator of (n, row) from row 1 on: even rows carry
    x^(2i+1) y^(2j), odd rows x^(2i) y^(2j+1)."""
    from .grammarcalc import G_SD, derive_once

    f = G_SD.seed("x")
    for n in count(1):
        f = derive_once(G_SD, f)
        row = {}
        bounds = _s_bounds(n)
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
            _check_entry(n, i, j, c, bounds, 1)
            row[(i, j)] = c
        yield n, row


def s_rows_recurrence():
    """Dumont's entrywise recurrence: the stencil with w = n + 1 - 2i - 2j."""
    return _stencil_rows(_s_bounds, lambda n: (n + 1, 2, 2), 1)


def s_triangle_operator(n_max: int) -> dict:
    """Rows 1 .. n_max of s read off the operator iterates."""
    return _collect_rows(s_rows_operator(), n_max)


def s_triangle_recurrence(n_max: int) -> dict:
    """Rows 1 .. n_max of s by Dumont's entrywise recurrence."""
    return _collect_rows(s_rows_recurrence(), n_max)


def s_poly(n: int, triangle: dict) -> MultiPoly:
    """The homogeneous three-variable polynomial of total degree n // 2 whose
    coefficients are row n of the triangle."""
    if n < 1:
        raise ValueError("n must be at least 1")
    half = n // 2
    return MultiPoly(
        S_VARS,
        {(i, j, half - i - j): c for (i, j), c in triangle.get(n, {}).items()},
    )


def p_poly(n: int, triangle: dict) -> MultiPoly:
    """The cycle-peak polynomial P_n, the r -> 1 specialization of s_poly."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return MultiPoly(P_VARS, triangle.get(n, {}))


# ---------------------------------------------------------------------------
# J routes: each returns the tuple (J_0, ..., J_n_max) of UniPolys


def validate_j_sequence(route: str, js: tuple):
    """Degree (n-1)//2 and nonnegative coefficients, for every n >= 1;
    ``route`` names the sequence in the error."""
    if js[0] != UNI_ONE:
        raise ValueError(f"route {route}: J_0 must be 1")
    for n, f in enumerate(js[1:], start=1):
        if len(f) - 1 != (n - 1) // 2:
            raise ValueError(
                f"route {route}: deg J_{n} is {len(f) - 1}, "
                f"expected {(n - 1) // 2}"
            )
        if any(c < 0 for c in f):
            raise ValueError(f"route {route}: negative coefficient in J_{n}")


def j_from_p(n: int, triangle: dict) -> UniPoly:
    """J_n as P_n(x, 0) (even n) or P_n(0, x) (odd n): the j = 0 or i = 0
    line of row n. The same line of row n - 1 (P_0 = 1) must agree."""
    if n < 0:
        raise ValueError("n must be at least 0")
    if n == 0:
        return UNI_ONE
    cells = [(k, 0) if n % 2 == 0 else (0, k) for k in range(n // 2 + 1)]
    a = uni(triangle.get(n, {}).get(ij, 0) for ij in cells)
    b = UNI_ONE if n == 1 else uni(triangle.get(n - 1, {}).get(ij, 0) for ij in cells)
    if a != b:
        raise RouteDisagreementError(
            f"rows {n} and {n - 1} specialize differently for J_{n}"
        )
    return a


def _j_from_rows(rows, n_max: int) -> tuple:
    """J_0 .. J_n_max by `j_from_p` on rows n - 1 and n of a stream of s
    rows, the only two rows kept."""
    if n_max < 0:
        raise ValueError("n_max must be at least 0")
    js = [UNI_ONE]
    prev: dict = {}
    for n, row in islice(rows, n_max):
        js.append(j_from_p(n, {n - 1: prev, n: row}))
        prev = row
    return tuple(js)


def j_operator(n_max: int) -> tuple:
    """J_n off the s rows read from the operator iterates."""
    return _j_from_rows(s_rows_operator(), n_max)


def j_recurrence(n_max: int) -> tuple:
    """J_n off the s rows of Dumont's recurrence."""
    return _j_from_rows(s_rows_recurrence(), n_max)


def j_viennot(n_max: int) -> tuple:
    """Binomial convolutions building each J from earlier ones and the
    reversals x^i J_{2i}(1/x). Each J's sum is a step of a `SharedSums`,
    so its large steps are shared with a forked peer."""
    if n_max < 0:
        raise ValueError("n_max must be at least 0")
    js = [UNI_ONE]
    revs = [UNI_ONE]  # revs[i] = x^i J_{2i}(1/x), built once per even J
    with SharedSums() as shared:
        for n in range(1, n_max + 1):
            # J_n sums C(n-1, 2i) J_{n-1-2i} revs[i] over 2i <= n - 1
            costs = list(map(mul, map(len, js[n - 1 :: -2]), map(len, revs)))
            acc: list = []
            for i in shared.mine(costs):
                term = uni_mul(js[n - 1 - 2 * i], revs[i])
                uni_addmul_into(acc, term, comb(n - 1, 2 * i))
            (acc,) = shared.combine(acc)
            js.append(uni(acc))
            if n % 2 == 0:
                revs.append(uni_reverse(js[n], n // 2))
    return tuple(js)


def _path_sums(steps: int, down: list, level: list | None) -> list:
    """Weighted lattice paths from height 0, as dense coefficient lists:
    entry s sums the paths of s steps that end at height 0. An up step
    weighs 1, a down step from height h weighs c x^e for (c, e) = down[h],
    and, when ``level`` is given, a level step at height h weighs
    level[h] (1 + x). After step s only heights h <= min(s, steps - s) are
    kept: a path any higher cannot come down by the last step."""
    at = [[1]]  # at[h]: the paths of s steps that end at height h
    ends = [at[0]]
    for s in range(1, steps + 1):
        top = min(s, steps - s)
        new = [[] for _ in range(top + 1)]
        for h, f in enumerate(at):
            if not f:
                continue
            if h < top:
                uni_addmul_into(new[h + 1], f)
            if h:
                uni_addmul_into(new[h - 1], f, *down[h])
            if level is not None and h <= top:
                uni_addmul_into(new[h], f, level[h])
                uni_addmul_into(new[h], f, level[h], 1)
        at = new
        ends.append(at[0])
    return ends


def j_fraction_even(m_max: int) -> tuple:
    """J_0, J_2, ..., J_{2 m_max} as the Dyck paths of cn's Stieltjes
    continued fraction (Flajolet, Discrete Math. 32, 1980): J_{2m} sums
    the paths of length 2m, a down step from height h weighing h^2, times
    x for even h."""
    if m_max < 0:
        raise ValueError("m_max must be at least 0")
    ends = _path_sums(2 * m_max, [(h * h, 1 - h % 2) for h in range(m_max + 1)], None)
    return tuple(map(uni, ends[::2]))


def j_fraction_odd(m_max: int) -> tuple:
    """J_1, J_3, ..., J_{2 m_max + 1} as the Motzkin paths of sn's Jacobi
    continued fraction: J_{2m+1} sums the paths of length m, a level step
    at height h weighing (2h+1)^2 (1 + x) and a down step from h weighing
    (2h-1)(2h)^2(2h+1) x. It shares no path with `j_fraction_even`."""
    if m_max < 0:
        raise ValueError("m_max must be at least 0")
    ends = _path_sums(
        m_max,
        [((2 * h - 1) * (2 * h) ** 2 * (2 * h + 1), 1) for h in range(m_max + 1)],
        [(2 * h + 1) ** 2 for h in range(m_max + 1)],
    )
    return tuple(map(uni, ends))


def _fraction_half(n: int) -> tuple:
    """(the half of the fraction route that builds J_n, J_n's index in it):
    J_n is half(m_max)[n // 2] for every m_max >= n // 2."""
    return (j_fraction_odd if n % 2 else j_fraction_even), n // 2


def j_fraction(n_max: int) -> tuple:
    """J_n as weighted lattice paths, read off the continued fractions of
    cn and sn: the interleave of `j_fraction_even` and `j_fraction_odd`,
    each run once, to the last index of its parity. Every weight is an
    integer times 1, x or 1 + x, so no two polynomials are multiplied."""
    if n_max < 0:
        raise ValueError("n_max must be at least 0")
    last = dict(map(_fraction_half, range(n_max + 1)))  # half -> its last index
    built = {half: half(m) for half, m in last.items()}
    return tuple(built[half][m] for half, m in map(_fraction_half, range(n_max + 1)))


# ---------------------------------------------------------------------------
# the series route


class EllipticSeries(NamedTuple):
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


def _binomial_convolution(a: list, b: list, m: int, terms) -> list:
    """The sum over i in `terms` of C(m, i) a_i b_(m-i), as a dense list; over
    i = 0 .. m, coefficient m of a product of exponential generating functions."""
    acc: list = []
    for i in terms:
        if a[i] and b[m - i]:
            uni_addmul_into(acc, uni_mul(a[i], b[m - i]), comb(m, i))
    return acc


def _elliptic_egf(order: int) -> tuple:
    """Integrate sn' = cn dn, cn' = -sn dn, dn' = -x sn cn term by term,
    starting from sn = u, cn = dn = 1, in exponential normalization: entry m
    of each returned list is m! times the coefficient of u^m. There the
    derivative is an index shift and the product a binomial convolution, so
    every step is an exact integer sum with no division.

    Step m's three convolutions read entries 0 .. m only, so they are one
    step of a `SharedSums`, shared with a forked peer once large; a zero
    product costs 0, so each process gets half of the others."""
    if order < 1:
        raise ValueError("order must be at least 1")
    sn = [UNI_ZERO] * (order + 1)
    cn = [UNI_ZERO] * (order + 1)
    dn = [UNI_ZERO] * (order + 1)
    cn[0] = dn[0] = UNI_ONE
    factors = ((cn, dn), (sn, dn), (sn, cn))  # of sn', cn' and dn'
    with SharedSums() as shared:
        for m in range(order):
            costs = [sum(len(a[i]) * len(b[m - i]) for a, b in factors)
                     for i in range(m + 1)]
            mine = shared.mine(costs)
            sums = [_binomial_convolution(a, b, m, mine) for a, b in factors]
            sn_d, cn_d, dn_d = shared.combine(*sums)
            sn[m + 1] = uni(sn_d)
            cn[m + 1] = uni_neg(uni(cn_d))
            dn[m + 1] = uni_shift(uni_neg(uni(dn_d)), 1)
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


def j_series(n_max: int) -> tuple:
    """J_0 .. J_n_max read off the integrated series (`_j_from_egf`)."""
    if n_max < 0:
        raise ValueError("n_max must be at least 0")
    return _j_from_egf(*_elliptic_egf(max(1, n_max)))[: n_max + 1]


def _j_from_egf(sn, cn, dn) -> tuple:
    """J_0 .. J_order off the series' exponential coefficients: strip the sign
    (-1)^(n//2), and cross-check dn against the reversals of the even J's."""
    n_max = len(sn) - 1
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
    return tuple(js)


class SeriesIdentityReport(NamedTuple):
    order: int
    pythagorean: bool  # sn^2 + cn^2 = 1 through the stored order
    modulus: bool  # dn^2 + x sn^2 = 1 through the stored order
    dn_reversal: bool  # dn coefficients match reversed even J's

    def all_ok(self) -> bool:
        return self.pythagorean and self.modulus and self.dn_reversal


def series_identity_checks(order: int) -> SeriesIdentityReport:
    """Check the identities on the exponential coefficients, where the
    coefficient m of a product is a binomial convolution and 1 has the
    coefficients 1, 0, 0, ..."""
    sn, cn, dn = _elliptic_egf(order)
    pyth = modulus = True
    for m in range(order + 1):
        one = UNI_ONE if m == 0 else UNI_ZERO
        sn2, cn2, dn2 = (
            uni(_binomial_convolution(f, f, m, range(m + 1))) for f in (sn, cn, dn)
        )
        pyth = pyth and uni_add(sn2, cn2) == one
        modulus = modulus and uni_add(dn2, uni_shift(sn2, 1)) == one
    try:
        _j_from_egf(sn, cn, dn)
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
    "fraction": j_fraction,
}
J_DEFAULT_ROUTE = "fraction"  # the route of `j_sequence` and `compute j|decompose`


def j_sequence(n_max: int, route: str = J_DEFAULT_ROUTE) -> tuple:
    if route not in J_ROUTES:
        raise ValueError(f"unknown route {route!r}")
    return J_ROUTES[route](n_max)


def j_poly(n: int, route: str = J_DEFAULT_ROUTE) -> UniPoly:
    """J_n alone. The fraction route runs only the path program of n's
    parity; every other route builds each J from the ones before it, so
    J_n is the last of j_sequence(n, route)."""
    if n < 0:
        raise ValueError("n must be at least 0")
    if route != "fraction":
        return j_sequence(n, route)[n]
    half, m = _fraction_half(n)
    return half(m)[m]


def first_route_mismatch(seqs: dict):
    """First (n, exponent, {route: coefficient}) where the J sequences of
    ``seqs`` ({route: js}) differ, or None when they agree everywhere."""
    n_max = min(len(js) for js in seqs.values()) - 1
    for n in range(n_max + 1):
        width = max((len(js[n]) for js in seqs.values()), default=0)
        for e in range(width):
            vals = {
                route: (js[n][e] if e < len(js[n]) else 0)
                for route, js in seqs.items()
            }
            if len(set(vals.values())) > 1:
                return n, e, vals
    return None


# ---------------------------------------------------------------------------
# gamma and t triangles


def gamma_bounds(n: int) -> tuple:
    """Row n of gamma and t holds the cells 0 <= i <= (n - 1) // 2, 0 <= j,
    i + 2j <= n // 2, that is j <= (n - 2i) // 4. The rows start at 1."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return (n - 1) // 2, n // 2, 2


def _gamma_like_rows(scale: int, depth_of=None):
    """The gamma (scale 4) and t (scale 1) recurrences: the stencil with
    w = scale * (n // 2 + 1 - i - 2j), every entry divisible by
    scale^(i+j), and row 2 reducing to the seed 1. ``depth_of`` cuts the
    rows as in `_stencil_rows`."""
    rows = _stencil_rows(
        gamma_bounds,
        lambda n: (scale * (n // 2 + 1), scale, 2 * scale),
        scale,
        depth_of,
    )
    yield next(rows)
    n, row = next(rows)
    if row.get((0, 0)) != 1:
        raise TriangleDefectError("row 2 does not reduce to the stated seed")
    yield n, row
    yield from rows


def gamma_rows_recurrence():
    """Gamma rows from row 1 on; each entry is divisible by 4^(i+j)."""
    return _gamma_like_rows(4)


def t_rows_recurrence():
    """The gamma rows with powers of 4 divided out, by their own stencil."""
    return _gamma_like_rows(1)


def gamma_triangle_recurrence(n_max: int) -> dict:
    return _collect_rows(gamma_rows_recurrence(), n_max)


def t_triangle_recurrence(n_max: int) -> dict:
    return _collect_rows(t_rows_recurrence(), n_max)


def gamma_equals_scaled_t(gamma_tri: dict, t_tri: dict, n_max: int):
    """First discrepancy (n, i, j) between gamma and 4^(i+j) t, or None."""
    for n in sorted(n for n in set(gamma_tri) | set(t_tri) if n <= n_max):
        g, t = gamma_tri.get(n, {}), t_tri.get(n, {})
        for i, j in sorted(set(g) | set(t)):
            if g.get((i, j), 0) != 4 ** (i + j) * t.get((i, j), 0):
                return (n, i, j)
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


def t_poly_from_triangle(t_tri: dict, n: int) -> MultiPoly:
    if n < 1:
        raise ValueError("n must be at least 1")
    return MultiPoly(T_VARS, t_tri.get(n, {}))


def t_poly(n: int, route: str = "recurrence") -> MultiPoly:
    """t_n(x, y) by the entrywise recurrence (default) or the polynomial
    recurrence ("poly")."""
    if route == "recurrence":
        if n < 1:
            raise ValueError("n must be at least 1")
        # row n alone, off the row stream: at most two rows are held
        _, row = next(islice(t_rows_recurrence(), n - 1, None))
        return MultiPoly(T_VARS, row)
    if route == "poly":
        return t_polys_recurrence(n)[n]
    raise ValueError(f"unknown t route {route!r}")


def gamma_from_p(n: int, pn: MultiPoly) -> dict:
    """Peel row n of the gamma triangle out of P_n: for every power i of p
    the q-coefficient polynomial must be symmetric about n//2 - i, and its
    gamma vector gives the j line. Every peeled entry must pass the gamma
    triangle's entry check."""
    from .gammakit import NotSymmetricError, gamma_expand

    bounds = gamma_bounds(n)  # raises for n < 1
    slices: dict = {}
    for (i, j), c in pn.terms.items():
        slices.setdefault(i, {})[j] = c
    row: dict = {}
    for i, coeffs in slices.items():
        q_poly = uni(coeffs.get(j, 0) for j in range(max(coeffs) + 1))
        try:
            gv = gamma_expand(q_poly, n // 2 - i)
        except (NotSymmetricError, DegreeExceedsCenterError) as exc:
            raise TriangleDefectError(
                f"p^{i} slice of row {n} is not symmetric"
            ) from exc
        for j, g in enumerate(gv.gammas):
            if g:
                _check_entry(n, i, j, g, bounds, 4)
                row[(i, j)] = g
    return row


def gamma_operator_expansion(gamma_tri: dict, n: int) -> MultiPoly:
    """Reassemble the operator iterate over {x, a, b, c} from gamma row n:
    x (even n) or c (odd n) times the sum of gamma * x^2i c^2j (a+b)^rest."""
    from .grammarcalc import G1

    if n < 1:
        raise ValueError("n must be at least 1")
    vs = G1.variables
    apb = MultiPoly.variable(vs, "a") + MultiPoly.variable(vs, "b")
    half = n // 2
    pow_cache = {}
    acc = MultiPoly.zero(vs)
    x_off, c_off = (1, 0) if n % 2 == 0 else (0, 1)
    for (i, j), g in gamma_tri.get(n, {}).items():
        k = half - i - 2 * j
        if k not in pow_cache:
            pow_cache[k] = apb**k
        mono = MultiPoly.monomial(vs, (2 * i + x_off, 0, 0, 2 * j + c_off), g)
        acc = acc + mono * pow_cache[k]
    return acc


# ---------------------------------------------------------------------------
# gamma certificates for J


def gamma_odd_lines(n_max: int) -> dict:
    """Rows 1, 3, ..., n_max of gamma, each cut to its i = 0 line: every
    entry the J certificates read.

    Line i of an odd row reads lines i - 1 and i of the row before, and of
    an even row lines i and i + 1, so the i = 0 line of the last odd row
    ``top`` reads lines i <= (top - n) // 2 of row n; no other line is
    built, which skips about half of the cells."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    top = n_max - 1 + n_max % 2
    rows = islice(_gamma_like_rows(4, lambda n: (top - n) // 2), top)
    return {
        n: {ij: c for ij, c in row.items() if ij[0] == 0} for n, row in rows if n % 2
    }


def j_odd_gamma(n: int, gamma_tri: dict) -> GammaVector:
    """Gamma vector of J_{2n+1} (center n), read from the i = 0 line of the
    gamma triangle row 2n+1 (a whole triangle or `gamma_odd_lines`)."""
    from .gammakit import GammaVector

    if n < 0:
        raise ValueError("n must be at least 0")
    row = gamma_tri.get(2 * n + 1)
    if not row:  # row 2n+1 of gamma is never empty
        raise ValueError(f"the gamma triangle has no row {2 * n + 1}")
    return GammaVector(n, tuple(row.get((0, j), 0) for j in range(n // 2 + 1)))


def _bi_gamma_chain(gvecs, weight, count: int):
    """The two-part certificate construction, as a generator of
    (gamma_a, gamma_b, decomposition) for f_1 .. f_count.

    gvecs[d] is the gamma vector (tuple, center d) of the degree-d seed g_d,
    and weight(n, i) the nonnegative multiplier of g_{n-i} times the
    reversal x^i f_i(1/x) in f_{n+1}. The certificate of f_{n+1} has
    centers n and n-1: reversals swap each earlier certificate's roles, the
    a-part landing in the new b and the x-shifted b-part landing one gamma
    index up in the new a.

    The two gamma sums of each f_{n+1} are one step of a `SharedSums`, so
    a large step is shared with a forked peer. Every step runs before the
    first item is yielded: a peer never leaves this function.
    """
    from .gammakit import GammaVector, SymDecomp

    alphas: list = [None]  # alphas[i], betas[i]: the certificate of f_i
    betas: list = [None]
    with SharedSums() as shared:
        for n in range(count):
            costs = [len(gvecs[n - i]) * (len(alphas[i]) + len(betas[i]))
                     for i in range(1, n + 1)]
            a_vec = [0] * (n // 2 + 1)
            b_vec = [0] * ((n + 1) // 2)
            for k in shared.mine(costs):
                i = k + 1
                w = weight(n, i)
                if w:
                    gv = gvecs[n - i]
                    uni_addmul_into(a_vec, uni_mul(gv, betas[i]), w, 1)
                    uni_addmul_into(b_vec, uni_mul(gv, alphas[i]), w)
            a_vec, b_vec = shared.combine(a_vec, b_vec)
            uni_addmul_into(a_vec, gvecs[n], weight(n, 0))
            alphas.append(tuple(a_vec))
            betas.append(tuple(b_vec))
    for n in range(count):
        ga = GammaVector(n, alphas[n + 1])
        gb = GammaVector(n - 1, betas[n + 1])
        yield ga, gb, SymDecomp(a=ga.to_poly(), b=gb.to_poly(), n=n)


class EvenDecomposition(NamedTuple):
    """Constructive certificate for an even-index J: gamma vectors of both
    symmetric parts, plus the assembled decomposition."""

    m: int  # certifies J_{2m+2}
    gamma_a: GammaVector
    gamma_b: GammaVector
    decomposition: SymDecomp

    def poly(self) -> UniPoly:
        return self.decomposition.source()


def j_even_decompositions(m_max: int, gamma_tri: dict | None = None) -> list:
    """Certificates for J_2, J_4, ..., J_{2m_max+2}: the bi-gamma chain
    seeded with the odd J's gamma vectors, J_{2m+2} weighting
    J_{2m+1-2i} by C(2m+1, 2i). ``gamma_tri`` defaults to
    ``gamma_odd_lines``, the only gamma entries read."""
    if m_max < 0:
        raise ValueError("m_max must be at least 0")
    if gamma_tri is None:
        gamma_tri = gamma_odd_lines(2 * m_max + 1)
    gvecs = [j_odd_gamma(d, gamma_tri).gammas for d in range(m_max + 1)]
    chain = _bi_gamma_chain(gvecs, lambda m, i: comb(2 * m + 1, 2 * i), m_max + 1)
    out = []
    for m, (ga, gb, dec) in enumerate(chain):
        if not (ga.is_nonnegative() and gb.is_nonnegative()):
            raise TriangleDefectError(f"negative certificate entry at m={m}")
        out.append(EvenDecomposition(m=m, gamma_a=ga, gamma_b=gb, decomposition=dec))
    return out


def j_even_decomposition(
    m: int, gamma_tri: dict | None = None
) -> EvenDecomposition:
    return j_even_decompositions(m, gamma_tri)[m]


# ---------------------------------------------------------------------------
# the general closure


class ClosureItem(NamedTuple):
    index: int
    poly: UniPoly
    decomposition: SymDecomp
    gamma_a: GammaVector
    gamma_b: GammaVector
    degenerate: bool
    alternatingly_increasing: bool

    def to_json(self) -> dict:
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
    returned items carry two-part certificates built by the same bi-gamma
    chain as the even-index J construction, cross-checked against direct
    polynomial evaluation.
    """
    from .gammakit import GammaVector, SymDecomp, is_alternatingly_increasing

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
    chain = _bi_gamma_chain(gvecs, lambda n, i: weights.get((n, i), 0), n_max)
    for n, (ga, gb, dec) in enumerate(chain):
        f = dec.source()
        direct: list = []
        for i in range(n + 1):
            w = weights.get((n, i), 0)
            if w:
                term = uni_mul(gpolys[n - i], uni_reverse(fs[i], i))
                uni_addmul_into(direct, term, w)
        if f != uni(direct):
            raise RouteDisagreementError(
                f"certificate assembly of f_{n + 1} disagrees with direct sum"
            )
        fs.append(f)
        items.append(
            ClosureItem(
                index=n + 1,
                poly=f,
                decomposition=dec,
                gamma_a=ga,
                gamma_b=gb,
                degenerate=f == UNI_ZERO,
                alternatingly_increasing=is_alternatingly_increasing(f, n),
            )
        )
    return items


# ---------------------------------------------------------------------------
# triangle serialization (JSON-lines cache format, CSV, text)


# One line per entry (n, i, j, c) per output format; "json" is the cache's.
ROW_FORMATS = {
    "json": '{"n":%d,"i":%d,"j":%d,"coeff":"%d"}\n',
    "csv": "%d,%d,%d,%d\n",
    "text": "(%d,%d,%d) %d\n",
}
CSV_HEADER = "n,i,j,value\n"


def format_row(n: int, row: dict, fmt: str) -> str:
    """Row n in one of ROW_FORMATS, one line per entry, sorted by (i, j)."""
    line = ROW_FORMATS[fmt]
    # the keys are unique, so the items sort in key order
    return "".join([line % (n, i, j, c) for (i, j), c in sorted(row.items())])


def triangle_to_jsonl(tri: dict) -> str:
    return "".join([format_row(n, tri[n], "json") for n in sorted(tri)])


def triangle_from_jsonl(text: str) -> dict:
    """The triangle of JSON-lines text, one record per line; blank lines
    are skipped, and a line that is not a record or repeats an (n, i, j)
    key raises ValueError."""
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
    return rows


def triangle_to_csv(tri: dict) -> str:
    return CSV_HEADER + "".join([format_row(n, tri[n], "csv") for n in sorted(tri)])


def validate_row_range(tri: dict):
    """The nonempty rows must be exactly 1 .. n_max, for some n_max >= 1; an
    empty row reads as absent."""
    present = sorted(n for n, row in tri.items() if row)
    if not present:
        raise ValueError("empty triangle")
    if present != list(range(1, present[-1] + 1)):
        raise ValueError(f"rows are not exactly 1 .. {present[-1]}")


def validate_s_triangle(tri: dict):
    """Rows must be exactly 1 .. n_max, nonnegative, inside support, and
    sum to n factorial."""
    validate_row_range(tri)
    for n, row in tri.items():
        bounds = _s_bounds(n)
        for (i, j), c in row.items():
            _check_entry(n, i, j, c, bounds, 1)
        if row and sum(row.values()) != factorial(n):
            raise ValueError(f"row {n} does not sum to {n}!")


def validate_gamma_triangle(tri: dict, scale: int = 4):
    """Rows must be exactly 1 .. n_max, nonnegative, inside the gamma
    support, and divisible by scale^(i+j): 4 for gamma, 1 for t."""
    validate_row_range(tri)
    for n, row in tri.items():
        if not row:  # absent, and below the range of gamma_bounds if n < 1
            continue
        bounds = gamma_bounds(n)
        for (i, j), c in row.items():
            _check_entry(n, i, j, c, bounds, scale)


def validate_theta_table(tri: dict):
    """Orbit sizes force every present row n to satisfy
    sum of theta * 2^j = n factorial."""
    for n, row in tri.items():
        total = 0
        for (i, j), c in row.items():
            if c < 0 or i < 0 or j < 0:
                raise ValueError(f"bad entry {c} at {(n, i, j)}")
            total += c * 2**j
        if row and total != factorial(n):
            raise ValueError(f"theta row {n} weighted sum is not {n}!")

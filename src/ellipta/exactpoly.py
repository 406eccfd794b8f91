"""Exact integer polynomial and truncated-series arithmetic.

Univariate polynomials are plain tuples of Python ints indexed by exponent,
with trailing zeros stripped; the empty tuple is the zero polynomial. Python
ints keep every operation exact regardless of magnitude.

MultiPoly is a sparse polynomial over a fixed ordered alphabet, mapping
exponent vectors to nonzero integer coefficients. FormalSeries is a series
in one formal variable, truncated at a fixed order, whose coefficients are
univariate polynomials; entries beyond the stored order are unknown rather
than zero.

All values are immutable: tuples, or instances never mutated after
construction.
"""

from __future__ import annotations

from typing import NamedTuple

UniPoly = tuple  # tuple of int coefficients, lowest exponent first

MAX_EXPONENT = 2**63 - 1  # exponents must fit in a machine word


class ExactPolyError(ValueError):
    """Contract violation in exact polynomial arithmetic."""


class DegreeExceedsCenterError(ExactPolyError):
    pass


class AlphabetMismatchError(ExactPolyError):
    pass


class UnknownVariableError(ExactPolyError):
    pass


class UnassignedVariableError(ExactPolyError):
    pass


class ExponentOverflowError(ExactPolyError):
    pass


class InexactDivisionError(ExactPolyError):
    pass


UNI_ZERO: UniPoly = ()
UNI_ONE: UniPoly = (1,)
UNI_X: UniPoly = (0, 1)


# ---------------------------------------------------------------------------
# univariate polynomials


def uni(coeffs) -> UniPoly:
    """Normalize an iterable of ints into a UniPoly (strip trailing zeros)."""
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def uni_degree(f: UniPoly):
    """Degree of f, or None for the zero polynomial."""
    return len(f) - 1 if f else None


def uni_coeff(f: UniPoly, i: int) -> int:
    return f[i] if 0 <= i < len(f) else 0


def uni_add(f: UniPoly, g: UniPoly) -> UniPoly:
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, b in enumerate(g):
        out[i] += b
    return uni(out)


def uni_addmul_into(acc: list, f: UniPoly, c: int = 1, shift: int = 0):
    """Add c * x**shift * f into the dense coefficient list acc in place,
    growing it as needed; the running-sum counterpart of uni_add for long
    sums."""
    end = shift + len(f)
    if end > len(acc):
        acc.extend([0] * (end - len(acc)))
    for i, a in enumerate(f, shift):
        acc[i] += c * a


def uni_neg(f: UniPoly) -> UniPoly:
    return tuple(-a for a in f)


def uni_sub(f: UniPoly, g: UniPoly) -> UniPoly:
    return uni_add(f, uni_neg(g))


def uni_scale(f: UniPoly, c: int) -> UniPoly:
    if c == 0:
        return UNI_ZERO
    return tuple(a * c for a in f)


def uni_shift(f: UniPoly, k: int) -> UniPoly:
    """Multiply by x**k."""
    if not 0 <= k <= MAX_EXPONENT:
        raise ExponentOverflowError(f"shift {k} out of range")
    if not f:
        return UNI_ZERO
    return (0,) * k + f


def uni_mul(f: UniPoly, g: UniPoly) -> UniPoly:
    if not f or not g:
        return UNI_ZERO
    if len(f) < len(g):
        f, g = g, f
    out = [0] * (len(f) + len(g) - 1)
    # the outer loop runs over the shorter operand, so the inner loops
    # are fewer and longer
    for i, b in enumerate(g):
        if b:
            for k, a in enumerate(f, i):
                out[k] += a * b
    return uni(out)


def uni_pow(f: UniPoly, k: int) -> UniPoly:
    if k < 0:
        raise ExactPolyError("exponent must be nonnegative")
    result = UNI_ONE
    base = f
    while k:
        if k & 1:
            result = uni_mul(result, base)
        k >>= 1
        if k:
            base = uni_mul(base, base)
    return result


def uni_reverse(f: UniPoly, n: int) -> UniPoly:
    """The reversal x**n * f(1/x); coefficient e of the result is coefficient
    n-e of f. Requires deg f <= n."""
    if n < 0:
        raise DegreeExceedsCenterError(f"center {n} is negative")
    if n > MAX_EXPONENT:
        raise ExponentOverflowError(f"center {n} out of range")
    d = uni_degree(f)
    if d is not None and d > n:
        raise DegreeExceedsCenterError(f"degree {d} exceeds center {n}")
    return uni(uni_coeff(f, n - e) for e in range(n + 1))


def uni_divexact(f: UniPoly, d: int) -> UniPoly:
    """Divide every coefficient by d, requiring exactness."""
    if d == 0:
        raise InexactDivisionError("division by zero")
    out = []
    for a in f:
        q, r = divmod(a, d)
        if r:
            raise InexactDivisionError(f"coefficient {a} not divisible by {d}")
        out.append(q)
    return uni(out)


def uni_div_one_minus_x(f: UniPoly) -> UniPoly:
    """Exact quotient f / (1 - x); the quotient coefficients are the prefix
    sums of f, and f(1) must vanish."""
    running = 0
    out = []
    for a in f:
        running += a
        out.append(running)
    if running:
        raise InexactDivisionError("not divisible by 1 - x")
    return uni(out)


def binomial_poly(n: int) -> UniPoly:
    """(1 + x)**n as a UniPoly."""
    from math import comb

    if n < 0:
        raise ExactPolyError("negative power of (1 + x)")
    return tuple(comb(n, k) for k in range(n + 1))


def uni_to_json(f: UniPoly, var: str = "x") -> dict:
    return {"var": var, "coeffs": [str(c) for c in f] or ["0"]}


def uni_to_text(f: UniPoly, var: str = "x") -> str:
    if not f:
        return "0"
    parts = []
    for e, c in enumerate(f):
        if c == 0:
            continue
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            head = "" if mag == 1 else str(mag)
            body = f"{head}{var}" if e == 1 else f"{head}{var}^{e}"
        parts.append((c < 0, body))
    return _join_signed(parts)


def _join_signed(parts) -> str:
    """(negative, body) terms as text: a leading "-" on the first term, then
    " + " or " - " before each later one."""
    (first_neg, first), *rest = parts
    text = ("-" if first_neg else "") + first
    for neg, body in rest:
        text += (" - " if neg else " + ") + body
    return text


# ---------------------------------------------------------------------------
# sparse multivariate polynomials


class MultiPoly:
    """Sparse exact polynomial over a fixed ordered alphabet.

    ``terms`` maps exponent tuples (one entry per alphabet letter) to nonzero
    int coefficients. Instances are immutable by convention: no method
    mutates ``terms`` after construction.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, variables, terms=()):
        vs = tuple(variables)
        if len(set(vs)) != len(vs):
            raise ExactPolyError(f"duplicate variable in alphabet {vs}")
        width = len(vs)
        acc: dict = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for exp, coeff in items:
            e = tuple(exp)
            if len(e) != width:
                raise ExactPolyError(
                    f"exponent vector {e} does not match alphabet {vs}"
                )
            for x in e:
                if not 0 <= x <= MAX_EXPONENT:
                    raise ExponentOverflowError(f"exponent {x} out of range")
            if coeff:
                acc[e] = acc.get(e, 0) + coeff
        object.__setattr__(self, "vars", vs)
        object.__setattr__(self, "terms", {e: c for e, c in acc.items() if c})

    @classmethod
    def _trusted(cls, variables: tuple, terms: dict) -> "MultiPoly":
        """Kernel output, with no re-check. The caller guarantees that
        ``variables`` is a tuple of distinct letters and that every key of
        ``terms`` is a tuple of its width whose entries are ints in
        0 .. MAX_EXPONENT; only zero coefficients are dropped here."""
        p = object.__new__(cls)
        object.__setattr__(p, "vars", variables)
        object.__setattr__(p, "terms", {e: c for e, c in terms.items() if c})
        return p

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    def __reduce__(self):
        return MultiPoly, (self.vars, self.terms)

    @classmethod
    def zero(cls, variables) -> "MultiPoly":
        return cls(variables)

    @classmethod
    def const(cls, variables, c: int) -> "MultiPoly":
        vs = tuple(variables)
        return cls(vs, {(0,) * len(vs): c} if c else {})

    @classmethod
    def variable(cls, variables, name: str) -> "MultiPoly":
        vs = tuple(variables)
        if name not in vs:
            raise UnknownVariableError(f"{name!r} not in alphabet {vs}")
        exp = tuple(1 if v == name else 0 for v in vs)
        return cls(vs, {exp: 1})

    @classmethod
    def monomial(cls, variables, exps, coeff: int = 1) -> "MultiPoly":
        return cls(variables, {tuple(exps): coeff})

    def key(self):
        return (self.vars, tuple(sorted(self.terms.items())))

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash(self.key())

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return f"MultiPoly({self.vars!r}, {self.to_text()!r})"

    def _check_alphabet(self, other: "MultiPoly"):
        if self.vars != other.vars:
            raise AlphabetMismatchError(f"{self.vars} vs {other.vars}")

    def __add__(self, other):
        if isinstance(other, int):
            other = MultiPoly.const(self.vars, other)
        self._check_alphabet(other)
        acc = dict(self.terms)
        for e, c in other.terms.items():
            acc[e] = acc.get(e, 0) + c
        return MultiPoly(self.vars, acc)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = MultiPoly.const(self.vars, other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return MultiPoly(
                self.vars, {e: c * other for e, c in self.terms.items()}
            )
        self._check_alphabet(other)
        acc: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                acc[e] = acc.get(e, 0) + c1 * c2
        return MultiPoly(self.vars, acc)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ExactPolyError("exponent must be nonnegative")
        result = MultiPoly.const(self.vars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def partial(self, var: str) -> "MultiPoly":
        """Formal partial derivative with respect to one alphabet letter."""
        if var not in self.vars:
            raise UnknownVariableError(f"{var!r} not in alphabet {self.vars}")
        k = self.vars.index(var)
        acc: dict = {}
        for e, c in self.terms.items():
            if e[k]:
                e2 = e[:k] + (e[k] - 1,) + e[k + 1 :]
                acc[e2] = acc.get(e2, 0) + c * e[k]
        return MultiPoly(self.vars, acc)

    def substitute(self, assignment: dict) -> UniPoly:
        """Substitute every letter by an int or a UniPoly in one shared output
        variable; collect the result as a UniPoly. Each term is its
        coefficient times the product of its letters' value powers, and each
        power is computed once per call."""
        values = []
        for v in self.vars:
            if v not in assignment:
                raise UnassignedVariableError(f"variable {v!r} unassigned")
            val = assignment[v]
            values.append(uni((val,) if isinstance(val, int) else val))
        pow_cache: dict = {}

        def power(idx, e):
            key = (idx, e)
            if key not in pow_cache:
                pow_cache[key] = uni_pow(values[idx], e)
            return pow_cache[key]

        total: list = []
        for exps, c in self.terms.items():
            term = UNI_ONE
            for idx, e in enumerate(exps):
                if e:
                    # the power on the left: uni_mul skips its zero entries,
                    # so a value x^d costs one row
                    term = uni_mul(power(idx, e), term)
            uni_addmul_into(total, term, c)
        return uni(total)

    def compose(self, mapping: dict, variables) -> "MultiPoly":
        """Substitute every letter by a MultiPoly (or int) over a new
        alphabet."""
        vs = tuple(variables)
        values = []
        for v in self.vars:
            if v not in mapping:
                raise UnassignedVariableError(f"variable {v!r} unassigned")
            val = mapping[v]
            if isinstance(val, int):
                val = MultiPoly.const(vs, val)
            if val.vars != vs:
                raise AlphabetMismatchError(f"{val.vars} vs {vs}")
            values.append(val)
        pow_cache: dict = {}

        def power(idx, e):
            key = (idx, e)
            if key not in pow_cache:
                pow_cache[key] = values[idx] ** e
            return pow_cache[key]

        total = MultiPoly.zero(vs)
        for exps, c in self.terms.items():
            term = MultiPoly.const(vs, c)
            for idx, e in enumerate(exps):
                if e:
                    term = term * power(idx, e)
            total = total + term
        return total

    def sorted_terms(self):
        """Terms sorted lexicographically by exponent vector."""
        return sorted(self.terms.items())

    def total_degree(self):
        """Largest total degree among terms, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def to_json(self) -> dict:
        return {
            "vars": list(self.vars),
            "terms": [
                {"exp": list(e), "coeff": str(c)} for e, c in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "MultiPoly":
        return cls(
            obj["vars"],
            [(tuple(t["exp"]), int(t["coeff"])) for t in obj["terms"]],
        )

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            mag = abs(c)
            names = []
            for v, k in zip(self.vars, e):
                if k == 1:
                    names.append(v)
                elif k > 1:
                    names.append(f"{v}^{k}")
            if not names:
                body = str(mag)
            else:
                head = "" if mag == 1 else str(mag)
                body = head + "".join(names)
            parts.append((c < 0, body))
        return _join_signed(parts)


# ---------------------------------------------------------------------------
# truncated formal series


class FormalSeries(NamedTuple("FormalSeries", [("order", int), ("coeffs", tuple)])):
    """Series truncated at u**order; coeffs[m] is the UniPoly coefficient of
    u**m. Exactly order+1 entries are stored."""

    __slots__ = ()

    def __new__(cls, order: int, coeffs: tuple):
        if order < 0:
            raise ExactPolyError("order must be nonnegative")
        if len(coeffs) != order + 1:
            raise ExactPolyError(
                f"expected {order + 1} coefficients, got {len(coeffs)}"
            )
        return super().__new__(cls, order, coeffs)

    @classmethod
    def _make(cls, iterable):
        # through __new__'s checks, and so is _replace
        return cls(*iterable)

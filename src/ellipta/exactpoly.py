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

Peer pairs this process with a forked copy; SharedSums shares sums of
products with that peer, and `deal` is the one rule that splits work in two.
"""

from __future__ import annotations

import os
import sys
from typing import NamedTuple

UniPoly = tuple  # tuple of int coefficients, lowest exponent first
UNI_VAR = "x"  # a UniPoly's variable, in its json and text forms

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


# ---------------------------------------------------------------------------
# sums of products shared with a forked peer


# A step of a shared sum is split only when its products make at least
# this many coefficient multiplications: len(f) * len(g) for each uni_mul.
# Measured in process (Python 3.11.7, 2 cores): a multiplication of
# J-sized coefficients costs 120-220 ns, so the first split steps take
# about 0.5 ms alone; splitting one saves half of that for one exchange of
# 0.12-0.13 ms. The fork and the reap cost about 1.2 and 1.1 ms once.
SPLIT_MULTS = 4_000

_paired = False  # this process is one half of a pair: it forks no peer


def can_pair() -> bool:
    """Whether this process may fork a peer: os.fork exists, the process
    may run on at least two CPUs, and it is not one half of a pair."""
    if _paired or not hasattr(os, "fork"):
        return False
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        cpus = os.cpu_count() or 1
    return cpus >= 2


class PeerExited(RuntimeError):
    """The forked peer ended before it sent what the caller waited for, or
    with a nonzero exit status, and sent no exception."""

    def __init__(self, status: int):
        super().__init__(f"forked peer exited with status {status}")
        self.status = status


class _Raised(NamedTuple):
    """An exception raised in the peer, as the peer sends it: pickled, if
    it is an Exception that pickles, and as a RuntimeError that names its
    type, which the caller gets when the first does not unpickle."""

    blob: bytes | None
    named: RuntimeError

    @classmethod
    def of(cls, exc: BaseException) -> _Raised:
        import pickle

        name, message = type(exc).__name__, str(exc)
        named = RuntimeError(f"forked peer raised {name}" + (message and f": {message}"))
        try:
            blob = pickle.dumps(exc) if isinstance(exc, Exception) else None
        except Exception:  # an exception that does not pickle goes by name
            blob = None
        return cls(blob, named)

    def exception(self) -> Exception:
        import pickle

        if self.blob is not None:
            try:
                return pickle.loads(self.blob)
            except Exception:  # an exception class that does not unpickle
                pass
        return self.named


class Peer:
    """This process and, after `fork`, a forked copy of it (the peer),
    joined by one pipe each way; `send` pickles an object to the other
    process and `receive` takes the next one. `fork`, the package's one
    fork, forks only when `can_pair()`.

    Use it as a context manager around the code that both run. The peer
    never leaves the block: it ends in os._exit there, status 0 when the
    block finishes and 1 when it raises, after sending the exception.
    The caller's next `receive` raises it: as itself when it pickles,
    else as a RuntimeError that names its type. A peer that ended without
    sending one makes `receive` or `send` raise PeerExited. The caller
    reaps the peer as it leaves the block, killing it first when the
    block raises, and a nonzero exit status raises what `receive` would.
    Until the block ends both processes are halves of a pair, so neither
    forks another peer."""

    def __init__(self):
        self.is_peer = False
        self._pid = None  # set once forked
        self._status = None  # the peer's exit code, once reaped

    def fork(self) -> bool:
        """Fork the peer if can_pair(); False, with no peer, if not or the fork fails."""
        global _paired
        if not can_pair():
            return False
        sys.stdout.flush()
        sys.stderr.flush()
        down, up = os.pipe(), os.pipe()  # caller to peer, peer to caller
        try:
            pid = os.fork()
        except OSError:
            for fd in down + up:
                os.close(fd)
            return False
        _paired = True
        self.is_peer = pid == 0
        (read_fd, drop_write), (drop_read, write_fd) = (
            (down, up) if self.is_peer else (up, down)
        )
        os.close(drop_read)
        os.close(drop_write)
        self._reader = open(read_fd, "rb")
        self._writer = open(write_fd, "wb")
        self._pid = pid
        return True

    def send(self, obj):
        import pickle

        data = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
        try:
            self._writer.write(len(data).to_bytes(8, "little") + data)
            self._writer.flush()
        except BrokenPipeError:  # the other process has ended
            self.receive()  # raises what it sent before it ended, if anything
            raise self._gone() from None

    def receive(self):
        import pickle

        head = self._reader.read(8)
        size = int.from_bytes(head, "little")
        data = self._reader.read(size) if len(head) == 8 else b""
        if len(head) < 8 or len(data) < size:
            raise self._gone()
        obj = pickle.loads(data)
        if isinstance(obj, _Raised):
            raise obj.exception()
        return obj

    def _gone(self) -> Exception:
        if self.is_peer:
            return EOFError("the caller is gone")
        return PeerExited(self._reap())

    def _reap(self) -> int:
        if self._status is None:
            self._status = os.waitstatus_to_exitcode(os.waitpid(self._pid, 0)[1])
        return self._status

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        global _paired
        if self._pid is None:
            return False
        if self.is_peer:
            try:
                if exc_type is not None:
                    self.send(_Raised.of(exc))
            finally:
                os._exit(0 if exc_type is None else 1)
        _paired = False
        try:
            self._writer.close()
        except BrokenPipeError:  # the peer has ended; reaped below
            pass
        try:
            if exc_type is None:  # read to the peer's end: its exception, if it raised
                try:
                    while True:
                        self.receive()
                except PeerExited as ended:
                    if ended.status:
                        raise
            elif self._status is None:
                import signal

                os.kill(self._pid, signal.SIGKILL)
        finally:
            self._reap()
            self._reader.close()
        return False


def deal(costs) -> tuple:
    """(the peer's indices, the caller's) of `costs`: in order, each index
    goes to the process with less cost so far, the peer on a tie. Costs
    listed largest first leave loads that differ by at most the largest."""
    loads, hands = [0, 0], ([], [])
    for i, cost in enumerate(costs):
        side = loads[1] < loads[0]
        loads[side] += cost
        hands[side].append(i)
    return hands


class SharedSums(Peer):
    """A step-by-step sum of products, shared with a forked peer once its
    steps grow large. Each step, `mine(costs)` takes each term's cost,
    len(f) * len(g) of its products, and gives the indices of the terms this
    process computes; `combine(*sums)` turns its partial sums (dense
    coefficient lists) into the step's sums.

    The first step whose costs reach SPLIT_MULTS calls `fork`. If it forks,
    each such step is split as `deal` deals its costs, and the two partial
    sums cross the pipes once; any other step runs whole in each process.
    Integer sums do not depend on the order of their terms, so a split
    leaves every result as it is alone."""

    def __init__(self):
        super().__init__()
        self._tried = False  # whether a large step has asked for a peer
        self._split = False  # whether the current step is split

    def mine(self, costs):
        large = sum(costs) >= SPLIT_MULTS
        if large and not self._tried:
            self._tried = True
            self.fork()
        self._split = self._pid is not None and large
        return deal(costs)[not self.is_peer] if self._split else range(len(costs))

    def combine(self, *sums) -> tuple:
        if not self._split:
            return sums
        if self.is_peer:
            self.send(sums)
            theirs = self.receive()
        else:
            theirs = self.receive()
            self.send(sums)
        for acc, other in zip(sums, theirs):
            uni_addmul_into(acc, other)
        return sums


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


def uni_to_json(f: UniPoly) -> dict:
    return {"var": UNI_VAR, "coeffs": [str(c) for c in f] or ["0"]}


def uni_to_text(f: UniPoly) -> str:
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
            body = f"{head}{UNI_VAR}" if e == 1 else f"{head}{UNI_VAR}^{e}"
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

    def to_json(self) -> dict:
        return {
            "vars": list(self.vars),
            "terms": [
                {"exp": list(e), "coeff": str(c)} for e, c in self.sorted_terms()
            ],
        }

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

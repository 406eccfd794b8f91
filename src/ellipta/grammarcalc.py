"""Formal derivative calculus for substitution-rule grammars.

A grammar assigns to every letter of a finite commutative alphabet one
polynomial replacement rule. The induced formal derivative acts on a
polynomial F as the sum over letters v of rule(v) * dF/dv; iterating it from
a seed letter generates the combinatorial counting polynomials the rest of
this package consumes.

Grammars are data, not code: any rule set with nonnegative integer
coefficients can be built through the same record, either directly or from
the one-rule-per-line text format ("v -> expr" with +, juxtaposition,
integer coefficients and ^ for powers).
"""

from __future__ import annotations

from itertools import chain
from operator import add

from .exactpoly import (
    MAX_EXPONENT,
    AlphabetMismatchError,
    MultiPoly,
    UnknownVariableError,
)


class GrammarParseError(ValueError):
    pass


class Grammar:
    """Ordered alphabet plus one replacement rule per letter: `rules` holds
    one MultiPoly per letter, aligned with `variables`.

    An immutable record of those two fields, equal and hashed by them. It
    also holds derive_once's tables, which are not fields, so it is a
    slotted class rather than a NamedTuple."""

    __slots__ = ("variables", "rules", "_deltas", "_max_delta")

    def __init__(self, variables: tuple, rules: tuple):
        if len(rules) != len(variables):
            raise ValueError("need exactly one rule per letter")
        for rule in rules:
            if rule.vars != variables:
                raise AlphabetMismatchError(
                    f"rule alphabet {rule.vars} differs from {variables}"
                )
        # derive_once's tables, not fields: for letter k, the (delta, coeff)
        # of every term of its rule, delta = rule exponent - e_k; and the
        # largest component of any delta
        deltas = tuple(
            tuple(
                (exp[:k] + (exp[k] - 1,) + exp[k + 1 :], c)
                for exp, c in rule.terms.items()
            )
            for k, rule in enumerate(rules)
        )
        components = [x for ds in deltas for d, _ in ds for x in d]
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "rules", rules)
        object.__setattr__(self, "_deltas", deltas)
        object.__setattr__(self, "_max_delta", max(components, default=0))

    def __setattr__(self, name, value):
        raise AttributeError("Grammar is immutable")

    def __delattr__(self, name):
        raise AttributeError("Grammar is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.variables, self.rules) == (other.variables, other.rules)

    def __hash__(self):
        return hash((self.variables, self.rules))

    def __repr__(self):
        return f"Grammar(variables={self.variables!r}, rules={self.rules!r})"

    def __reduce__(self):
        return Grammar, (self.variables, self.rules)

    @classmethod
    def from_dict(cls, variables, rules: dict) -> "Grammar":
        vs = tuple(variables)
        if set(rules) != set(vs):
            raise ValueError(f"rules must cover exactly the alphabet {vs}")
        return cls(vs, tuple(rules[v] for v in vs))

    def rule_for(self, var: str) -> MultiPoly:
        if var not in self.variables:
            raise UnknownVariableError(f"{var!r} not in alphabet {self.variables}")
        return self.rules[self.variables.index(var)]

    def seed(self, var: str) -> MultiPoly:
        return MultiPoly.variable(self.variables, var)


def derive_once(grammar: Grammar, f: MultiPoly) -> MultiPoly:
    """One application of the grammar's formal derivative to f.

    Each output key is an operand key plus one of the grammar's deltas for
    letter k, added only where the operand's exponent of k is at least 1.
    So every output exponent is at least 0 and at most the largest operand
    exponent plus the largest delta component. When that sum is at most
    MAX_EXPONENT, the keys are built here and need no re-check
    (``MultiPoly._trusted``); otherwise the public constructor checks them
    and raises ExponentOverflowError for any that is out of range."""
    if f.vars != grammar.variables:
        raise AlphabetMismatchError(
            f"operand alphabet {f.vars} differs from {grammar.variables}"
        )
    top = max(chain.from_iterable(f.terms), default=0)
    if top + grammar._max_delta <= MAX_EXPONENT:
        build = MultiPoly._trusted
    else:
        build = MultiPoly
    deltas = grammar._deltas
    acc: dict = {}
    get = acc.get
    for exps, c in f.terms.items():
        for k, e in enumerate(exps):
            if e:
                scale = c * e
                for delta, rc in deltas[k]:
                    key = tuple(map(add, exps, delta))
                    acc[key] = get(key, 0) + scale * rc
    return build(f.vars, acc)


def iterate(grammar: Grammar, seed: MultiPoly, n: int) -> MultiPoly:
    """n-fold application of the formal derivative; n = 0 returns the seed.
    A plain loop, so any n works without recursion."""
    if n < 0:
        raise ValueError("iteration count must be nonnegative")
    f = seed
    for _ in range(n):
        f = derive_once(grammar, f)
    return f


# ---------------------------------------------------------------------------
# text format


def _parse_term(term: str, variables) -> dict:
    coeff = 1
    exps = [0] * len(variables)
    i = 0
    s = term.strip()
    if not s:
        raise GrammarParseError("empty term")
    while i < len(s):
        ch = s[i]
        if ch.isdigit():
            j = i
            while j < len(s) and s[j].isdigit():
                j += 1
            coeff *= int(s[i:j])
            i = j
        elif ch.isalpha():
            if ch not in variables:
                raise GrammarParseError(f"unknown letter {ch!r}")
            k = variables.index(ch)
            e = 1
            i += 1
            if i < len(s) and s[i] == "^":
                i += 1
                j = i
                while j < len(s) and s[j].isdigit():
                    j += 1
                if j == i:
                    raise GrammarParseError("missing exponent after ^")
                e = int(s[i:j])
                i = j
            exps[k] += e
        elif ch in "-/.":
            raise GrammarParseError(
                "coefficients must be nonnegative integers"
            )
        elif ch.isspace():
            i += 1
        else:
            raise GrammarParseError(f"unexpected character {ch!r}")
    return {tuple(exps): coeff}


def parse_multipoly(expr: str, variables) -> MultiPoly:
    """Parse a sum of juxtaposition terms over the given alphabet."""
    vs = tuple(variables)
    acc: dict = {}
    for term in expr.split("+"):
        for e, c in _parse_term(term, vs).items():
            acc[e] = acc.get(e, 0) + c
    return MultiPoly(vs, acc)


def parse_grammar(text: str) -> Grammar:
    """Parse one rule per line, "var -> expression"; the alphabet is the set
    of left-hand letters in order of appearance."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    heads = []
    bodies = []
    for ln in lines:
        if "->" not in ln:
            raise GrammarParseError(f"missing '->' in rule {ln!r}")
        head, body = ln.split("->", 1)
        head = head.strip()
        if len(head) != 1 or not head.isalpha():
            raise GrammarParseError(f"rule head must be a single letter: {ln!r}")
        if head in heads:
            raise GrammarParseError(f"duplicate rule for {head!r}")
        heads.append(head)
        bodies.append(body)
    if not heads:
        raise GrammarParseError("no rules given")
    vs = tuple(heads)
    rules = {h: parse_multipoly(b, vs) for h, b in zip(heads, bodies)}
    return Grammar.from_dict(vs, rules)


# ---------------------------------------------------------------------------
# the three built-in grammars

# product-of-the-other-two rules on {x, y, z}
G_SD = parse_grammar("x -> yz\ny -> xz\nz -> xy")

# the same system after the change of variables a = y^2, b = z^2, c = yz
G1 = parse_grammar("x -> c\na -> 2xc\nb -> 2xc\nc -> xa + xb")

# refinement of G1 that separates the even descent/ascent channels g, h
G2 = parse_grammar(
    "x -> c\n"
    "a -> xg + xh\n"
    "b -> xg + xh\n"
    "c -> xa + xb\n"
    "g -> xa + xb\n"
    "h -> xa + xb"
)


def g2_to_g1(f: MultiPoly) -> MultiPoly:
    """Merge the g and h letters of a G2-alphabet polynomial into c."""
    m = {
        "x": MultiPoly.variable(G1.variables, "x"),
        "a": MultiPoly.variable(G1.variables, "a"),
        "b": MultiPoly.variable(G1.variables, "b"),
        "c": MultiPoly.variable(G1.variables, "c"),
        "g": MultiPoly.variable(G1.variables, "c"),
        "h": MultiPoly.variable(G1.variables, "c"),
    }
    return f.compose(m, G1.variables)


def g1_to_sd(f: MultiPoly) -> MultiPoly:
    """Undo the change of variables: a -> y^2, b -> z^2, c -> yz."""
    vs = G_SD.variables
    m = {
        "x": MultiPoly.variable(vs, "x"),
        "a": MultiPoly.monomial(vs, (0, 2, 0)),
        "b": MultiPoly.monomial(vs, (0, 0, 2)),
        "c": MultiPoly.monomial(vs, (0, 1, 1)),
    }
    return f.compose(m, vs)

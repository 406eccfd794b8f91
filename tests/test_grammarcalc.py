import random

import pytest

from ellipta.exactpoly import (
    MAX_EXPONENT,
    AlphabetMismatchError,
    ExponentOverflowError,
    MultiPoly,
    UnknownVariableError,
)
from ellipta.grammarcalc import (
    G1,
    G2,
    G_SD,
    Grammar,
    GrammarParseError,
    derive_once,
    g1_to_sd,
    g2_to_g1,
    iterate,
    parse_grammar,
    parse_multipoly,
)

X_SD = G_SD.seed("x")
X1 = G1.seed("x")
X2 = G2.seed("x")


def test_derive_once_examples():
    yz = MultiPoly(G_SD.variables, {(0, 1, 1): 1})
    assert derive_once(G_SD, X_SD) == yz
    # product rule: x z^2 + x y^2
    assert derive_once(G_SD, yz) == MultiPoly(
        G_SD.variables, {(1, 0, 2): 1, (1, 2, 0): 1}
    )
    c = G2.seed("c")
    assert derive_once(G2, c) == parse_multipoly("xa + xb", G2.variables)


def test_derive_once_alphabet_mismatch():
    with pytest.raises(AlphabetMismatchError):
        derive_once(G_SD, X1)


def test_rule_for_unknown_letter_names_letter_and_alphabet():
    alphabet = r"\('x', 'y', 'z'\)"
    with pytest.raises(UnknownVariableError, match=f"'w' not in alphabet {alphabet}"):
        G_SD.rule_for("w")
    assert issubclass(UnknownVariableError, ValueError)
    assert G_SD.rule_for("y") == parse_multipoly("xz", G_SD.variables)


def _random_grammar(rng, width):
    vs = tuple("abcdef"[:width])
    rules = []
    for _ in vs:
        kind = rng.choice(("multi", "multi", "const", "zero"))
        if kind == "zero":
            rules.append(MultiPoly.zero(vs))
        elif kind == "const":
            rules.append(MultiPoly.const(vs, rng.choice((-3, -1, 1, 2))))
        else:
            terms = {}
            for _ in range(rng.randrange(1, 4)):
                exps = tuple(rng.randrange(3) for _ in vs)
                terms[exps] = rng.choice((-2, -1, 1, 3))
            rules.append(MultiPoly(vs, terms))
    return Grammar(vs, tuple(rules))


def _reference_derivative(grammar, f):
    total = MultiPoly.zero(grammar.variables)
    for v in grammar.variables:
        total = total + grammar.rule_for(v) * f.partial(v)
    return total


@pytest.mark.parametrize("grammar", [G_SD, G1, G2], ids=["sd", "g1", "g2"])
def test_derive_once_matches_sum_of_rule_times_partial(grammar):
    rng = random.Random(11)
    for _ in range(40):
        f = _random_multipoly(rng, grammar.variables)
        assert derive_once(grammar, f) == _reference_derivative(grammar, f)


@pytest.mark.parametrize("width", range(1, 7))
def test_derive_once_matches_reference_on_random_grammars(width):
    rng = random.Random(100 + width)
    for _ in range(15):
        grammar = _random_grammar(rng, width)
        for _ in range(4):
            f = _random_multipoly(rng, grammar.variables)
            got = derive_once(grammar, f)
            assert got == _reference_derivative(grammar, f)
            assert all(got.terms.values())


def test_derive_once_raises_on_exponent_overflow():
    f = MultiPoly(G_SD.variables, {(MAX_EXPONENT, 1, 0): 1})
    with pytest.raises(ExponentOverflowError, match=str(MAX_EXPONENT + 1)):
        derive_once(G_SD, f)


def test_derive_once_at_the_exponent_limit_without_overflow():
    # the per-call bound fails (MAX_EXPONENT + 1), yet no output exponent
    # leaves the range: the checked constructor builds the result
    f = MultiPoly(G_SD.variables, {(MAX_EXPONENT, 0, 0): 1})
    assert derive_once(G_SD, f) == MultiPoly(
        G_SD.variables, {(MAX_EXPONENT - 1, 1, 1): MAX_EXPONENT}
    )


def test_derive_once_drops_cancelled_terms():
    vs = ("x", "y", "z")
    grammar = Grammar.from_dict(
        vs,
        {
            "x": MultiPoly.variable(vs, "z"),
            "y": -MultiPoly.variable(vs, "z"),
            "z": MultiPoly.zero(vs),
        },
    )
    x_plus_y = MultiPoly.variable(vs, "x") + MultiPoly.variable(vs, "y")
    got = derive_once(grammar, x_plus_y)
    assert got == MultiPoly.zero(vs)
    assert hash(got) == hash(MultiPoly.zero(vs))
    assert got.terms == {}
    assert not got


def test_iterate_output_equals_public_constructor_rebuild():
    f = iterate(G_SD, X_SD, 40)
    rebuilt = MultiPoly(
        list(G_SD.variables), [(list(e), c) for e, c in f.terms.items()]
    )
    assert f == rebuilt
    assert hash(f) == hash(rebuilt)
    assert f.to_json() == rebuilt.to_json()


def test_iterate_examples():
    assert iterate(G1, X1, 3) == parse_multipoly("ca + cb + 4x^2c", G1.variables)
    assert iterate(G2, X2, 3) == parse_multipoly(
        "ca + cb + 2x^2g + 2x^2h", G2.variables
    )
    assert iterate(G_SD, X_SD, 0) == X_SD


def test_iterate_small_displays():
    assert iterate(G2, X2, 1) == G2.seed("c")
    assert iterate(G2, X2, 2) == parse_multipoly("xa + xb", G2.variables)


def _random_multipoly(rng, variables):
    terms = {}
    for _ in range(rng.randrange(1, 5)):
        exps = tuple(rng.randrange(3) for _ in variables)
        terms[exps] = terms.get(exps, 0) + rng.randint(-9, 9)
    return MultiPoly(variables, terms)


@pytest.mark.parametrize("grammar", [G_SD, G1, G2], ids=["sd", "g1", "g2"])
def test_linearity_and_leibniz(grammar):
    rng = random.Random(3)
    for _ in range(60):
        f = _random_multipoly(rng, grammar.variables)
        g = _random_multipoly(rng, grammar.variables)
        assert derive_once(grammar, f + g) == derive_once(grammar, f) + derive_once(
            grammar, g
        )
        assert derive_once(grammar, f * g) == derive_once(grammar, f) * g + (
            f * derive_once(grammar, g)
        )


def test_g2_rules_merge_to_g1_rules():
    for letter in G1.variables:
        assert g2_to_g1(G2.rule_for(letter)) == G1.rule_for(letter)


def test_g2_specializes_to_g1_iterates():
    for n in range(13):
        assert g2_to_g1(iterate(G2, X2, n)) == iterate(G1, X1, n)


def test_variable_change_bridge():
    for n in range(13):
        assert g1_to_sd(iterate(G1, X1, n)) == iterate(G_SD, X_SD, n)


def test_parity_shape_of_iterates():
    for n in range(13):
        f = iterate(G_SD, X_SD, n)
        for (ex, ey, ez) in f.terms:
            if n % 2 == 0:
                assert ex % 2 == 1 and ey % 2 == 0 and ez % 2 == 0
            else:
                assert ex % 2 == 0 and ey % 2 == 1 and ez % 2 == 1


def test_parser_round_trip():
    text = "\n".join(f"{v} -> {r.to_text()}" for v, r in zip(G2.variables, G2.rules))
    g = parse_grammar(text)
    assert g == G2


def test_parser_accepts_powers_and_coefficients():
    f = parse_multipoly("3x^2y + 02z", ("x", "y", "z"))
    assert f == MultiPoly(("x", "y", "z"), {(2, 1, 0): 3, (0, 0, 1): 2})


def test_parser_rejects_negative_and_rational():
    with pytest.raises(GrammarParseError):
        parse_grammar("x -> -y\ny -> x")
    with pytest.raises(GrammarParseError):
        parse_grammar("x -> y/2\ny -> x")


def test_parser_rejects_unknown_letter():
    with pytest.raises(GrammarParseError):
        parse_grammar("x -> yw\ny -> x")


def test_parser_rejects_dangling_power():
    with pytest.raises(GrammarParseError):
        parse_multipoly("x^", ("x",))
    with pytest.raises(GrammarParseError):
        parse_multipoly("x + ", ("x",))


def test_parser_rejects_duplicate_rule():
    with pytest.raises(GrammarParseError):
        parse_grammar("x -> y\nx -> y\ny -> x")


def test_grammar_requires_rule_per_letter():
    with pytest.raises(ValueError):
        Grammar.from_dict(("x", "y"), {"x": MultiPoly(("x", "y"), {})})


def test_iterate_deep_cold_chain_does_not_recurse():
    # D(x) = x for x -> x
    g = parse_grammar("x -> x")
    seed = g.seed("x")
    assert iterate(g, seed, 5000) == seed
    assert iterate(g, seed, 4999) == seed


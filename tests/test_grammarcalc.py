import random

import pytest

from ellipta.exactpoly import AlphabetMismatchError, MultiPoly
from ellipta.grammarcalc import (
    G1,
    G2,
    G_SD,
    Grammar,
    GrammarParseError,
    derive_once,
    g1_to_sd,
    g2_to_g1,
    grammar_to_text,
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
    g = parse_grammar(grammar_to_text(G2))
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


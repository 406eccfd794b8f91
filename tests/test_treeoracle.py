import ast
import re
from collections import Counter

import pytest

from ellipta import elliptic as el
from ellipta import suites, treeoracle
from ellipta.exactpoly import MultiPoly
from ellipta.grammarcalc import G1, G2, iterate, parse_multipoly
from ellipta.treeoracle import (
    CapExceededError,
    MatchingMismatchError,
    StatisticsDefectError,
    children_table,
    cpk_stats,
    g1_distribution,
    g2_distribution,
    gamma_row_from_theta,
    p_bruteforce,
    phi_apply,
    phi_orbit_check,
    phi_subset,
    s_from_trees,
    theta_row_from_gamma,
    theta_table,
    tree_enumerate,
    tree_matching,
    tree_stats,
)


def perm_from_cycles(cycles, n):
    images = list(range(1, n + 1))
    for cycle in cycles:
        for k, v in enumerate(cycle):
            images[v - 1] = cycle[(k + 1) % len(cycle)]
    return tuple(images)


# ---------------------------------------------------------------------------
# permutations


def test_cpk_worked_example():
    pi = perm_from_cycles([(1, 3, 5), (2, 8, 4, 7, 6, 9)], 9)
    assert cpk_stats(pi) == (3, 1)


def test_cpk_identity_and_transposition():
    assert cpk_stats((1, 2, 3, 4)) == (0, 0)
    assert cpk_stats((2, 1)) == (0, 1)


def cycle_peaks(perm) -> tuple:
    """(odd, even) cycle peaks read off the cycle decomposition: walk each
    cycle in order and count an element larger than both of its cyclic
    neighbours."""
    seen = set()
    odd = even = 0
    for start in range(1, len(perm) + 1):
        if start in seen:
            continue
        cycle = [start]
        while perm[cycle[-1] - 1] != start:
            cycle.append(perm[cycle[-1] - 1])
        seen.update(cycle)
        for k, v in enumerate(cycle):
            if cycle[k - 1] < v > cycle[(k + 1) % len(cycle)]:
                odd += v % 2
                even += 1 - v % 2
    return odd, even


def test_cpk_stats_equals_the_cycle_reading():
    import itertools

    assert cycle_peaks(perm_from_cycles([(1, 3, 5), (2, 8, 4, 7, 6, 9)], 9)) == (3, 1)
    for n in range(8):
        for perm in itertools.permutations(range(1, n + 1)):
            assert cpk_stats(perm) == cycle_peaks(perm), perm


def test_p_bruteforce_small():
    assert p_bruteforce(1) == MultiPoly(("p", "q"), {(0, 0): 1})
    assert p_bruteforce(3) == MultiPoly(
        ("p", "q"), {(0, 0): 1, (0, 1): 1, (1, 0): 4}
    )


def test_p_bruteforce_scores_every_permutation_in_enumeration_order():
    import itertools

    for n in range(7):
        counts = Counter()
        for perm in itertools.permutations(range(1, n + 1)):
            counts[cpk_stats(perm)] += 1
        got = p_bruteforce(n)
        assert got == MultiPoly(("p", "q"), dict(counts))
        assert list(got.terms) == list(counts)


def test_p_bruteforce_matches_triangle_route():
    tri = el.s_triangle_recurrence(5)
    assert p_bruteforce(5) == el.p_poly(5, tri)


def test_p_bruteforce_cap():
    with pytest.raises(CapExceededError):
        p_bruteforce(10)
    assert p_bruteforce(4, cap=4).substitute({"p": 1, "q": 1}) == (24,)


@pytest.mark.parametrize(
    "enumerate_",
    [p_bruteforce, lambda n: list(tree_enumerate(n)), g2_distribution, s_from_trees],
)
def test_enumerations_reject_negative_n(enumerate_):
    # p_bruteforce(-1) returned the polynomial 1, the count of n = 0
    with pytest.raises(ValueError, match="^n must be nonnegative$"):
        enumerate_(-1)


# ---------------------------------------------------------------------------
# trees


def test_tree_counts():
    assert len(list(tree_enumerate(1))) == 1
    assert len(list(tree_enumerate(3))) == 6
    assert len(list(tree_enumerate(4))) == 24


def test_tree_enumerate_zero_is_the_root_alone():
    assert list(tree_enumerate(0)) == [()]


def test_tree_counts_to_cap():
    import math

    for n in range(10):
        assert sum(1 for _ in tree_enumerate(n)) == math.factorial(n)


def test_tree_cap():
    with pytest.raises(CapExceededError):
        list(tree_enumerate(10))


def test_tree_matching_examples():
    assert tree_matching((0, 1)) == ((0, 1),)  # path 0-1-2
    assert tree_matching((0, 0, 2)) == ((0, 1), (2, 3))
    assert tree_matching((0,)) == ((0, 1),)  # single edge


def test_tree_matching_standard_form():
    for n in range(1, 7):
        for parents in tree_enumerate(n):
            pairs = tree_matching(parents)
            assert pairs[0] == (0, 1)
            for (a, b) in pairs:
                assert a < b and parents[b - 1] == a
            assert all(x[0] < y[0] for x, y in zip(pairs, pairs[1:]))


def test_tree_stats_examples():
    path = tree_stats((0, 1))
    assert (path.singleton, path.asc_o) == (1, 1)
    assert path.zerop == path.des_o == path.des_e == path.asc_e == 0
    star = tree_stats((0, 0))
    assert (star.singleton, star.des_o) == (1, 1)
    edge = tree_stats((0,))
    assert (edge.singleton, edge.zerop) == (0, 1)


def test_tree_stats_identities_exhaustive():
    for n in range(7):
        for parents in tree_enumerate(n):
            st = tree_stats(parents)
            assert st.evenp == st.zerop + st.des_e + st.asc_e
            assert 2 * (st.evenp + st.des_o + st.asc_o) + st.singleton == n + 1


def captured_key(monkeypatch, public, n):
    """The key function that `public(n)` folds over the trees of T_n."""
    real = treeoracle._fold_trees
    keys = []

    def spy(n, keyfn, cap, profiles=None):
        keys.append(keyfn)
        return real(n, keyfn, cap, profiles)

    with monkeypatch.context() as m:
        m.setattr(treeoracle, "_fold_trees", spy)
        public(n)
    return keys[0]


@pytest.mark.parametrize(
    "public", [g2_distribution, g1_distribution, theta_table, s_from_trees]
)
def test_incremental_fold_matches_definition(monkeypatch, public):
    # the fold scores trees as it builds them; folding the same key over
    # tree_stats of every enumerated tree must give the same Counter, with
    # keys in the same (first-tree) order, which also pins the order of the
    # TreeStats fields to the fold's counters
    for n in range(8):
        keyfn = captured_key(monkeypatch, public, n)
        want = Counter()
        for parents in tree_enumerate(n):
            key = keyfn(tree_stats(parents))
            if key is not None:
                want[key] += 1
        got = treeoracle._fold_trees(n, keyfn, treeoracle.DEFAULT_TREE_CAP)
        assert got == want and list(got) == list(want), n


def test_fold_raises_on_parity_break(monkeypatch):
    # the s key of an even row, folded over the trees of an odd row
    even_key = captured_key(monkeypatch, s_from_trees, 4)
    with pytest.raises(StatisticsDefectError):
        treeoracle._fold_trees(3, even_key, treeoracle.DEFAULT_TREE_CAP)


def test_fold_rejects_sizes_before_scoring():
    scored = []

    def keyfn(profile):
        scored.append(profile)
        return profile

    with pytest.raises(CapExceededError):
        treeoracle._fold_trees(4, keyfn, 3)
    with pytest.raises(ValueError):
        treeoracle._fold_trees(-1, keyfn, 3)
    assert scored == []
    with pytest.raises(CapExceededError):
        s_from_trees(10)


def test_g2_distribution_examples():
    assert g2_distribution(1) == G2.seed("c")
    assert g2_distribution(2) == parse_multipoly("xa + xb", G2.variables)
    assert g2_distribution(3) == parse_multipoly(
        "ca + cb + 2x^2g + 2x^2h", G2.variables
    )


def test_distributions_match_iterates():
    for n in range(7):
        assert g2_distribution(n) == iterate(G2, G2.seed("x"), n)
        assert g1_distribution(n) == iterate(G1, G1.seed("x"), n)


def test_theta_examples():
    assert theta_table(3) == {(1, 0): 4, (1, 1): 1}
    assert theta_table(1) == {(1, 0): 1}


def test_theta_cross_checks_gamma_triangle():
    gtri = el.gamma_triangle_recurrence(8)
    theta5 = theta_table(5)
    for (i, j), g in gtri[5].items():
        assert theta5[(2 * j + 1, 2 - i - 2 * j)] == g
    assert gamma_row_from_theta(5, theta5) == gtri[5]
    theta8 = theta_table(8)
    assert gamma_row_from_theta(8, theta8) == gtri[8]
    assert theta_row_from_gamma(8, gtri[8]) == theta8
    for n, g in gtri.items():
        assert gamma_row_from_theta(n, theta_row_from_gamma(n, g)) == g
    # gamma cell (1, 1) of row 4 has i + 2j = 3 > 4 // 2
    with pytest.raises(ValueError):
        theta_row_from_gamma(4, {(1, 1): 1})


def test_corollary15_maps_round_trip_every_gamma_row():
    gtri = el.gamma_triangle_recurrence(40)
    for n, g in gtri.items():
        theta = theta_row_from_gamma(n, g)
        assert len(theta) == len(g), n
        assert gamma_row_from_theta(n, theta) == g, n


def test_corollary15_maps_reject_cells_outside_the_gamma_support():
    # row 4 of gamma has i <= 1: gamma cell (2, 0) satisfies i + 2j <= 4 // 2
    # but is not a cell, and theta cell (0, 0) would land on it; both maps
    # passed these through
    with pytest.raises(StatisticsDefectError, match=r"theta cell \(4, 0, 0\)"):
        gamma_row_from_theta(4, {(0, 0): 1})
    with pytest.raises(ValueError, match=r"gamma cell \(4, 2, 0\) is outside"):
        theta_row_from_gamma(4, {(2, 0): 1})


def test_s_from_trees_matches_triangle():
    tri = el.s_triangle_recurrence(6)
    for n in range(1, 7):
        assert s_from_trees(n) == tri[n]


def test_gamma_row_from_theta_rejects_stray_cells(monkeypatch):
    good = theta_table(4)
    # row 4 needs even i; (1, 0) has the wrong parity
    with pytest.raises(StatisticsDefectError):
        gamma_row_from_theta(4, {**good, (1, 0): 1})
    # (2, 2) has the right parity but gamma index 4//2 - 2 - 2 < 0
    with pytest.raises(StatisticsDefectError):
        gamma_row_from_theta(4, {**good, (2, 2): 1})

    real = treeoracle.theta_table

    def planted(n, cap=treeoracle.DEFAULT_TREE_CAP, profiles=None):
        row = real(n, cap, profiles)
        if n != 3:
            return row
        return {**row, (0, 0): 1}

    monkeypatch.setattr(treeoracle, "theta_table", planted)
    result = suites.suite_corollary15(4)
    failed = [c for c in result.checks if not c.ok]
    assert not result.ok
    assert any(
        c.label == "gamma row 3 from theta" and "(3, 0, 0)" in c.detail
        for c in failed
    )
    assert [c.label for c in result.checks][-1] == "gamma row 4 from theta"


# ---------------------------------------------------------------------------
# involutions


def test_phi_apply_examples():
    star = (0, 0)
    m = tree_matching(star)
    path = phi_apply(star, m, 1)
    assert path == (0, 1)
    assert phi_apply(path, tree_matching(path), 1) == star
    edge = (0,)
    assert phi_apply(edge, tree_matching(edge), 1) == edge


def test_phi_apply_requires_true_matching():
    with pytest.raises(MatchingMismatchError):
        phi_apply((0, 0), ((0, 2),), 1)


def test_phi_involution_and_commutation_exhaustive():
    for n in range(6):
        for parents in tree_enumerate(n):
            m = tree_matching(parents)
            for k in range(1, len(m) + 1):
                once = phi_apply(parents, m, k)
                assert tree_matching(once) == m
                assert phi_apply(once, m, k) == parents
                for l in range(k + 1, len(m) + 1):
                    assert phi_apply(phi_apply(parents, m, k), m, l) == phi_apply(
                        phi_apply(parents, m, l), m, k
                    )


def test_lemma9_catches_planted_move_defect(monkeypatch):
    # a move kernel that re-hangs the smallest outside child is still an
    # involution and keeps the matching, but no longer transports descents
    # to ascents once a pair has three outside children (the star at n = 4)
    def smallest_first(parents, children, pair):
        a, b = pair
        outside = [v for v in children[a] if v != b] + children[b]
        if not outside:
            return parents, children
        v = min(outside)
        image = list(parents)
        image[v - 1] = b if parents[v - 1] == a else a
        return tuple(image), treeoracle.children_table(image)

    monkeypatch.setattr(treeoracle, "_phi", smallest_first)
    result = suites.suite_lemma9(4)
    assert not result.ok
    failed = [c for c in result.checks if not c.ok]
    assert {c.label for c in failed} == {
        "statistic transport n=4", "orbit partition n=4"
    }
    trees = set(tree_enumerate(4))
    for check in failed:
        named = re.search(r"\([\d, ]*\)", check.detail)
        assert named and ast.literal_eval(named.group()) in trees, check
    assert all(c.detail == "" for c in result.checks if c.ok)


def test_phi_orbit_check_examples():
    star = (0, 0)
    empty = phi_orbit_check(star, set())
    assert empty.ok and empty.image == star
    flip = phi_orbit_check(star, {1})
    assert flip.ok and flip.image == (0, 1)
    after = tree_stats(flip.image)
    assert (after.asc_o, after.des_o) == (1, 0)


def test_phi_orbit_check_requires_no_odd_ascents():
    with pytest.raises(ValueError):
        phi_orbit_check((0, 1), {1})  # the path has an odd ascent pair


NOT_TREES = [(0, 2), (0, 0, 3), (2,), (-1,), (0, 1, 1, 5)]

# each public tree function, called on parent tuples alone
PUBLIC_TREE_CALLS = {
    "children_table": children_table,
    "tree_matching": tree_matching,
    "tree_stats": tree_stats,
    "phi_apply": lambda p: phi_apply(p, ((0, 1),), 1),
    "phi_subset": lambda p: phi_subset(p, ((0, 1),), ()),
    "phi_orbit_check": lambda p: phi_orbit_check(p, ()),
}


@pytest.mark.parametrize("name", PUBLIC_TREE_CALLS)
@pytest.mark.parametrize("parents", NOT_TREES)
def test_public_tree_functions_reject_non_trees(name, parents):
    bad = next(v for v, p in enumerate(parents, 1) if not 0 <= p < v)
    message = rf"^vertex {bad} has parent {parents[bad - 1]}, not in 0\.\.{bad - 1}$"
    with pytest.raises(ValueError, match=message):
        PUBLIC_TREE_CALLS[name](parents)


@pytest.mark.parametrize("parents", [(0, 0), (0, 0, 2)])
@pytest.mark.parametrize("call", ["phi_apply", "phi_subset", "phi_orbit_check"])
def test_pair_index_rejected_with_its_value(call, parents):
    matching = tree_matching(parents)
    for k in (0, len(matching) + 1):
        with pytest.raises(ValueError, match=rf"^pair index {k} out of range$"):
            if call == "phi_apply":
                phi_apply(parents, matching, k)
            elif call == "phi_subset":
                phi_subset(parents, matching, {1, k})
            else:
                phi_orbit_check(parents, {1, k})


def pair_parities(parents) -> tuple:
    """(even pair indices, odd pair indices), 1-based, for the matching: a
    pair is odd or even with the number of children of its two vertices
    outside the pair."""
    children = children_table(parents)
    odd = [(len(children[a]) + len(children[b]) - 1) & 1
           for a, b in tree_matching(parents)]
    return (
        tuple(k for k, o in enumerate(odd, 1) if not o),
        tuple(k for k, o in enumerate(odd, 1) if o),
    )


def test_pair_parities_count_the_pair_classes_exhaustive():
    for n in range(7):
        for parents in tree_enumerate(n):
            evens, odds = pair_parities(parents)
            st = tree_stats(parents)
            assert len(evens) == st.evenp, parents
            assert len(odds) == st.des_o + st.asc_o, parents
            k = len(tree_matching(parents))
            assert sorted(evens + odds) == list(range(1, k + 1)), parents


def test_orbits_partition_small():
    for n in range(6):
        groups = {}
        for parents in tree_enumerate(n):
            groups.setdefault(tree_matching(parents), []).append(parents)
        for matching, members in groups.items():
            seen = set()
            for rep in members:
                if tree_stats(rep).asc_o:
                    continue
                _, odds = pair_parities(rep)
                orbit = set()
                for mask in range(1 << len(odds)):
                    chosen = {odds[t] for t in range(len(odds)) if mask >> t & 1}
                    orbit.add(phi_subset(rep, matching, chosen))
                assert len(orbit) == 2 ** len(odds)
                assert not (orbit & seen)
                seen |= orbit
            assert seen == set(members)

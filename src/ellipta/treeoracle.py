"""Brute-force combinatorial ground truth.

Two object families are enumerated exhaustively: permutations of {1..n}
scored by their odd and even cycle peaks (a cycle peak is a value larger
than both its image and its preimage), and increasing trees on the vertex
set {0..n} rooted at 0, where every non-root vertex has a parent with a
smaller label.

Trees are stored as parent tuples: entry v-1 is the parent of vertex v.
Enumeration is a stream in lexicographic parent-tuple order, never a
materialized list, and statistics are folded on the fly.

On each tree a greedy matching pairs (0,1) first and then repeatedly pairs
the smallest unpaired vertex that still has children with its smallest
child. Matched pairs are classified by the parity of child(a)+child(b)-1
(zero pairs being the even pairs with no outside children) and, when outside
children exist, as descent or ascent pairs according to which endpoint is
the parent of the largest outside child. Unmatched vertices are singletons
and are always leaves.

The distributions score each tree in O(1) as the enumeration builds it:
vertices 1..n are added in order, and the matching is fixed when each vertex
is inserted, because v is a second endpoint exactly when it is the first
child of a parent that is still unmatched. So inserting w under p either
opens the zero pair (p, w) or gives p's pair w as its new largest outside
child, and the five pair-class counters are updated and undone in place.
`tree_stats`, `tree_matching` and `children_table` stay the direct
definition that the tests compare against.

The pair involutions re-hang the largest outside child of a pair to the
opposite endpoint; they commute, preserve the matching, and transport the
statistics in a controlled way, which is what `phi_orbit_check` verifies.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

from .elliptic import Triangle
from .exactpoly import MultiPoly

DEFAULT_PERM_CAP = 9
DEFAULT_TREE_CAP = 9

P_VARS = ("p", "q")
G1_VARS = ("x", "a", "b", "c")
G2_VARS = ("x", "a", "b", "c", "g", "h")


class CapExceededError(ValueError):
    """Enumeration size limit exceeded; raise the cap explicitly to proceed."""


class MatchingMismatchError(ValueError):
    """Supplied matching is not the tree-matching of the supplied tree."""


class StatisticsDefectError(ValueError):
    """A tree produced statistics outside the proven parity pattern."""


# ---------------------------------------------------------------------------
# permutations


def cpk_stats(perm) -> tuple:
    """Counts of odd and even cycle peaks of a permutation given in one-line
    form (perm[i-1] is the image of i)."""
    odd = even = 0
    for pos0, v in enumerate(perm):
        if pos0 + 1 < v and perm[v - 1] < v:
            if v % 2:
                odd += 1
            else:
                even += 1
    return odd, even


def _check_cap(n: int, cap: int, what: str):
    if n > cap:
        raise CapExceededError(f"{what} enumeration capped at {cap}, got {n}")


def p_bruteforce(n: int, cap: int = DEFAULT_PERM_CAP) -> MultiPoly:
    """Sum p^(odd peaks) q^(even peaks) over all n! permutations."""
    _check_cap(n, cap, "permutation")
    counts = Counter(map(cpk_stats, itertools.permutations(range(1, n + 1))))
    return MultiPoly(P_VARS, dict(counts))


# ---------------------------------------------------------------------------
# increasing trees


def tree_enumerate(n: int, cap: int = DEFAULT_TREE_CAP):
    """Yield all n! increasing trees on {0..n} as parent tuples, in
    lexicographic order."""
    _check_cap(n, cap, "tree")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        yield ()
        return
    yield from itertools.product(*(range(v) for v in range(1, n + 1)))


def children_table(parents) -> list:
    """Children lists (ascending) indexed by vertex, root included."""
    n = len(parents)
    table = [[] for _ in range(n + 1)]
    for v, p in enumerate(parents, start=1):
        table[p].append(v)
    return table


def tree_matching(parents) -> tuple:
    """Greedy pairing: (0,1) first, then the smallest unpaired vertex with
    children takes its smallest child. Returns pairs in standard form."""
    return _matching(parents, children_table(parents))


def _matching(parents, children) -> tuple:
    n = len(parents)
    if not n:
        return ()
    used = bytearray(n + 1)
    used[0] = used[1] = 1
    pairs = [(0, 1)]
    # eligibility (unpaired and has children) only ever shrinks, so one
    # ascending scan picks each minimum in order
    for v in range(2, n + 1):
        if not used[v] and children[v]:
            b = children[v][0]
            used[v] = used[b] = 1
            pairs.append((v, b))
    return tuple(pairs)


@dataclass(frozen=True)
class TreeStats:
    singleton: int
    zerop: int
    evenp: int
    des_o: int
    des_e: int
    asc_o: int
    asc_e: int


def _largest_outside_child(children, pair) -> int:
    """Largest outside child of the matched pair (a, b), or -1 if it has
    none. b is a's smallest child, so the candidates are the tails of the
    two ascending child lists, a's only when b is not its sole child."""
    a, b = pair
    ca = children[a]
    cb = children[b]
    top_a = ca[-1] if len(ca) > 1 else -1
    top_b = cb[-1] if cb else -1
    return top_a if top_a > top_b else top_b


def _pair_profile(parents, children, pairs) -> tuple:
    """(singleton, zerop, des_o, des_e, asc_o, asc_e) for matched pairs."""
    n = len(parents)
    singleton = (n + 1) - 2 * len(pairs)
    zerop = des_o = des_e = asc_o = asc_e = 0
    for a, b in pairs:
        m = len(children[a]) + len(children[b]) - 1
        if m == 0:
            zerop += 1
            continue
        descent = parents[_largest_outside_child(children, (a, b)) - 1] == a
        if m % 2:
            if descent:
                des_o += 1
            else:
                asc_o += 1
        else:
            if descent:
                des_e += 1
            else:
                asc_e += 1
    return singleton, zerop, des_o, des_e, asc_o, asc_e


def _stats(parents, children, pairs) -> TreeStats:
    singleton, zerop, des_o, des_e, asc_o, asc_e = _pair_profile(
        parents, children, pairs
    )
    return TreeStats(
        singleton=singleton,
        zerop=zerop,
        evenp=zerop + des_e + asc_e,
        des_o=des_o,
        des_e=des_e,
        asc_o=asc_o,
        asc_e=asc_e,
    )


def tree_stats(parents) -> TreeStats:
    children = children_table(parents)
    return _stats(parents, children, _matching(parents, children))


def _fold_trees(n: int, keyfn, cap: int) -> Counter:
    """Fold keyfn over the pair profile of every tree in T_n; a None key
    leaves the tree uncounted. Keys keep the order of their first tree.

    One depth-first pass adds vertices 1..n in the order of
    `tree_enumerate` and keeps the profile of the tree built so far, so each
    tree is scored in O(1) and keyfn runs once per distinct profile."""
    _check_cap(n, cap, "tree")
    if n < 0:
        raise ValueError("n must be nonnegative")
    profiles: Counter = Counter()
    # tally is the profile (singleton, zerop, des_o, des_e, asc_o, asc_e) of
    # the finished tree: every vertex not yet matched counts as a singleton.
    # A pair's class is its index in tally; cell[v] is a one-element list
    # holding it, shared by both endpoints, and None while v is unmatched.
    # role[v] is 2 on a second endpoint, the step from descent to ascent.
    tally = [n + 1, 0, 0, 0, 0, 0]
    cell = [None] * (n + 1)
    role = [0] * (n + 1)

    def grow(w):
        if w > n:
            profiles[tuple(tally)] += 1
            return
        for p in range(w):
            c = cell[p]
            if c is None:
                # p has no child yet, or its first one would have matched it
                cell[p] = cell[w] = [1]
                role[w] = 2
                tally[0] -= 2
                tally[1] += 1
                grow(w + 1)
                tally[1] -= 1
                tally[0] += 2
                role[w] = 0
                cell[p] = cell[w] = None
            else:
                # w is the pair's largest outside child: one more flips the
                # parity, and p decides descent or ascent
                old = c[0]
                new = 3 - (old & 1) + role[p]
                c[0] = new
                tally[old] -= 1
                tally[new] += 1
                grow(w + 1)
                tally[new] -= 1
                tally[old] += 1
                c[0] = old

    grow(1)
    counts: Counter = Counter()
    for profile, c in profiles.items():
        key = keyfn(profile)
        if key is not None:
            counts[key] += c
    return counts


def g2_distribution(n: int, cap: int = DEFAULT_TREE_CAP) -> MultiPoly:
    """Sum over T_n of x^singleton c^zerop a^des_o b^asc_o g^des_e h^asc_e,
    over the alphabet (x, a, b, c, g, h)."""

    def key(profile):
        singleton, zerop, des_o, des_e, asc_o, asc_e = profile
        return (singleton, des_o, asc_o, zerop, des_e, asc_e)

    counts = _fold_trees(n, key, cap)
    return MultiPoly(G2_VARS, dict(counts))


def g1_distribution(n: int, cap: int = DEFAULT_TREE_CAP) -> MultiPoly:
    """Sum over T_n of x^singleton c^evenp a^des_o b^asc_o, over the
    alphabet (x, a, b, c)."""

    def key(profile):
        singleton, zerop, des_o, des_e, asc_o, asc_e = profile
        return (singleton, des_o, asc_o, zerop + des_e + asc_e)

    counts = _fold_trees(n, key, cap)
    return MultiPoly(G1_VARS, dict(counts))


def theta_table(n: int, cap: int = DEFAULT_TREE_CAP) -> Triangle:
    """Row n of theta: (evenp, des_o) -> #trees with no odd ascent pair."""

    def key(profile):
        singleton, zerop, des_o, des_e, asc_o, asc_e = profile
        if asc_o:
            return None
        return zerop + des_e + asc_e, des_o

    return Triangle({n: dict(sorted(_fold_trees(n, key, cap).items()))})


def s_from_trees(n: int, cap: int = DEFAULT_TREE_CAP) -> Triangle:
    """Row n of the s triangle read off tree statistics: the singleton count
    carries i and evenp + 2*des_o carries j, with parities fixed by n."""

    def key(profile):
        singleton, zerop, des_o, des_e, asc_o, asc_e = profile
        evenp = zerop + des_e + asc_e
        w = evenp + 2 * des_o
        if n % 2 == 0:
            if singleton % 2 == 0 or w % 2:
                raise StatisticsDefectError(
                    f"parity break at profile {profile} for even n={n}"
                )
            return (singleton - 1) // 2, w // 2
        if singleton % 2 or w % 2 == 0:
            raise StatisticsDefectError(
                f"parity break at profile {profile} for odd n={n}"
            )
        return singleton // 2, (w - 1) // 2

    return Triangle({n: dict(sorted(_fold_trees(n, key, cap).items()))})


def gamma_row_from_theta(n: int, theta_row: dict) -> dict:
    """Row n of the gamma triangle from row n of theta (Corollary 15):
    gamma(n, i, j) = theta(n, 2j + r, n//2 - i - 2j) with r = n mod 2, so
    theta cell (i, j) lands on gamma cell (n//2 - j - (i - r), i//2). A
    theta cell of the wrong parity or with no gamma cell is a defect."""
    r = n % 2
    row = {}
    for (i, j), c in theta_row.items():
        gi = n // 2 - j - (i - r)
        if i % 2 != r or gi < 0:
            raise StatisticsDefectError(
                f"theta cell {(n, i, j)} maps outside the gamma support"
            )
        row[(gi, i // 2)] = c
    return row


def theta_row_from_gamma(n: int, gamma_row: dict) -> dict:
    """Row n of theta from row n of gamma, the inverse of
    ``gamma_row_from_theta``: gamma cell (i, j) lands on theta cell
    (2j + r, n//2 - i - 2j) with r = n mod 2. A gamma cell outside the
    support i + 2j <= n//2 is a defect."""
    r, half = n % 2, n // 2
    row = {}
    for (i, j), c in gamma_row.items():
        if i < 0 or j < 0 or i + 2 * j > half:
            raise ValueError(f"gamma cell {(n, i, j)} is outside the gamma support")
        row[(2 * j + r, half - i - 2 * j)] = c
    return row


# ---------------------------------------------------------------------------
# pair involutions


def _phi(parents, children, pair):
    """(image, its children table) under the involution of `pair`: the
    largest outside child moves from the tail of one endpoint's list to the
    tail of the other's, and only those two lists are copied. As in every
    matched pair, b must be the smallest child of a."""
    v = _largest_outside_child(children, pair)
    if v < 0:
        return parents, children
    a, b = pair
    src = parents[v - 1]
    dst = b if src == a else a
    out = list(parents)
    out[v - 1] = dst
    table = list(children)
    table[src] = children[src][:-1]
    table[dst] = children[dst] + [v]
    return tuple(out), table


def _checked_table(parents, matching) -> list:
    """Children table of a tree whose matching must be `matching`."""
    children = children_table(parents)
    if _matching(parents, children) != matching:
        raise MatchingMismatchError("matching does not belong to this tree")
    return children


def phi_apply(parents, matching, k: int):
    """Involution attached to pair k (1-based) of the tree-matching: re-hang
    the largest outside child of the pair to the opposite endpoint."""
    matching = tuple(matching)
    children = _checked_table(parents, matching)
    if not 1 <= k <= len(matching):
        raise ValueError(f"pair index {k} out of range")
    return _phi(parents, children, matching[k - 1])[0]


def phi_subset(parents, matching, indices):
    """Apply the commuting involutions for every pair index in `indices`."""
    matching = tuple(matching)
    tree = parents, _checked_table(parents, matching)
    for k in sorted(set(indices)):
        if not 1 <= k <= len(matching):
            raise ValueError(f"pair index {k} out of range")
        tree = _phi(*tree, matching[k - 1])
    return tree[0]


@dataclass(frozen=True)
class OrbitCheck:
    ok: bool
    start: tuple
    image: tuple
    flipped_odd: int
    even_pairs: int
    before: TreeStats
    after: TreeStats
    matching_preserved: bool


def _parities(children, pairs) -> tuple:
    evens, odds = [], []
    for k, (a, b) in enumerate(pairs, start=1):
        if (len(children[a]) + len(children[b]) - 1) % 2:
            odds.append(k)
        else:
            evens.append(k)
    return tuple(evens), tuple(odds)


def pair_parities(parents) -> tuple:
    """(even pair indices, odd pair indices), 1-based, for the matching."""
    children = children_table(parents)
    return _parities(children, _matching(parents, children))


def _orbit_check(
    start, pairs, before, even_pairs, flipped_odd, image, children
) -> OrbitCheck:
    """Transport check of `image` (with its children table) against the
    ascent-free tree `start`, whose matching is `pairs` and statistics
    `before`. The image's matching and statistics come from its own table."""
    image_pairs = _matching(image, children)
    after = _stats(image, children, image_pairs)
    matching_preserved = image_pairs == pairs
    ok = (
        matching_preserved
        and after.singleton == before.singleton
        and after.evenp == even_pairs
        and after.des_o == before.des_o - flipped_odd
        and after.asc_o == flipped_odd
    )
    return OrbitCheck(
        ok=ok,
        start=tuple(start),
        image=image,
        flipped_odd=flipped_odd,
        even_pairs=even_pairs,
        before=before,
        after=after,
        matching_preserved=matching_preserved,
    )


def phi_orbit_check(parents, indices) -> OrbitCheck:
    """Transport check for a tree with no odd ascent pair: applying the
    involutions for `indices` must keep the singleton count and the matching,
    keep the even-pair count, and convert exactly the flipped odd pairs from
    descents to ascents."""
    children = children_table(parents)
    pairs = _matching(parents, children)
    before = _stats(parents, children, pairs)
    if before.asc_o:
        raise ValueError("tree must have no odd ascent pair")
    evens, odds = _parities(children, pairs)
    chosen = set(indices)
    if not chosen <= set(range(1, len(pairs) + 1)):
        raise ValueError("pair index out of range")
    tree = parents, children
    for k in sorted(chosen):
        tree = _phi(*tree, pairs[k - 1])
    return _orbit_check(
        parents, pairs, before, len(evens), len(chosen & set(odds)), *tree
    )

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
    counts: Counter = Counter()
    for perm in itertools.permutations(range(1, n + 1)):
        counts[cpk_stats(perm)] += 1
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
    if not parents:
        return ()
    children = children_table(parents)
    return _matching(parents, children)


def _matching(parents, children) -> tuple:
    n = len(parents)
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


def _pair_profile(parents, children, pairs) -> tuple:
    """(singleton, zerop, des_o, des_e, asc_o, asc_e) for matched pairs."""
    n = len(parents)
    singleton = (n + 1) - 2 * len(pairs)
    zerop = des_o = des_e = asc_o = asc_e = 0
    for a, b in pairs:
        ca = children[a]
        cb = children[b]
        m = len(ca) + len(cb) - 1
        if m == 0:
            zerop += 1
            continue
        # b is the smallest child of a, so the largest outside child is the
        # tail of one of the two (ascending) child lists
        top_a = ca[-1] if len(ca) > 1 else -1
        top_b = cb[-1] if cb else -1
        v = top_a if top_a > top_b else top_b
        descent = parents[v - 1] == a
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


def tree_stats(parents) -> TreeStats:
    children = children_table(parents)
    pairs = _matching(parents, children) if parents else ()
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


def _fold_trees(n: int, keyfn, cap: int) -> Counter:
    """Fold keyfn over the pair profile of every tree in T_n; a None key
    leaves the tree uncounted."""
    counts: Counter = Counter()
    for parents in tree_enumerate(n, cap):
        children = children_table(parents)
        pairs = _matching(parents, children) if parents else ()
        key = keyfn(_pair_profile(parents, children, pairs))
        if key is not None:
            counts[key] += 1
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


def _outside_child(children, parents, pair):
    a, b = pair
    ca = children[a]
    cb = children[b]
    top_a = ca[-1] if ca and ca[-1] != b else (ca[-2] if len(ca) > 1 else -1)
    top_b = cb[-1] if cb else -1
    v = top_a if top_a > top_b else top_b
    return v if v >= 0 else None


def _phi_nocheck(parents, pair):
    children = children_table(parents)
    v = _outside_child(children, parents, pair)
    if v is None:
        return parents
    a, b = pair
    new_parent = b if parents[v - 1] == a else a
    out = list(parents)
    out[v - 1] = new_parent
    return tuple(out)


def phi_apply(parents, matching, k: int):
    """Involution attached to pair k (1-based) of the tree-matching: re-hang
    the largest outside child of the pair to the opposite endpoint."""
    matching = tuple(matching)
    if tree_matching(parents) != matching:
        raise MatchingMismatchError("matching does not belong to this tree")
    if not 1 <= k <= len(matching):
        raise ValueError(f"pair index {k} out of range")
    return _phi_nocheck(parents, matching[k - 1])


def phi_subset(parents, matching, indices):
    """Apply the commuting involutions for every pair index in `indices`."""
    matching = tuple(matching)
    if tree_matching(parents) != matching:
        raise MatchingMismatchError("matching does not belong to this tree")
    out = parents
    for k in sorted(set(indices)):
        if not 1 <= k <= len(matching):
            raise ValueError(f"pair index {k} out of range")
        out = _phi_nocheck(out, matching[k - 1])
    return out


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


def pair_parities(parents) -> tuple:
    """(even pair indices, odd pair indices), 1-based, for the matching."""
    children = children_table(parents)
    pairs = _matching(parents, children) if parents else ()
    evens, odds = [], []
    for k, (a, b) in enumerate(pairs, start=1):
        if (len(children[a]) + len(children[b]) - 1) % 2:
            odds.append(k)
        else:
            evens.append(k)
    return tuple(evens), tuple(odds)


def phi_orbit_check(parents, indices) -> OrbitCheck:
    """Transport check for a tree with no odd ascent pair: applying the
    involutions for `indices` must keep the singleton count and the matching,
    keep the even-pair count, and convert exactly the flipped odd pairs from
    descents to ascents."""
    before = tree_stats(parents)
    if before.asc_o:
        raise ValueError("tree must have no odd ascent pair")
    matching = tree_matching(parents)
    evens, odds = pair_parities(parents)
    chosen = set(indices)
    if not chosen <= set(range(1, len(matching) + 1)):
        raise ValueError("pair index out of range")
    flipped_odd = len(chosen & set(odds))
    image = phi_subset(parents, matching, chosen)
    after = tree_stats(image)
    matching_preserved = tree_matching(image) == matching
    ok = (
        matching_preserved
        and after.singleton == before.singleton
        and after.evenp == len(evens)
        and after.des_o == before.des_o - flipped_odd
        and after.asc_o == flipped_odd
    )
    return OrbitCheck(
        ok=ok,
        start=tuple(parents),
        image=image,
        flipped_odd=flipped_odd,
        even_pairs=len(evens),
        before=before,
        after=after,
        matching_preserved=matching_preserved,
    )

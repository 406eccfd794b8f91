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

`tree_profiles` scores each tree in O(1) as the enumeration builds it:
vertices 1..n are added in order, and the matching is fixed when each vertex
is inserted, because v is a second endpoint exactly when it is the first
child of a parent that is still unmatched. So inserting w under p either
opens the zero pair (p, w) or gives p's pair w as its new largest outside
child, and the five pair-class counters are updated and undone in place.
The distributions are key maps over the Counter of records it returns, so
a caller that holds that Counter reads every distribution of T_n from one
fold.
`tree_stats`, `tree_matching` and `children_table` stay the direct
definition that the tests compare against. There `_pair_classes` gives each
pair its class as its `TreeStats` field index, the fold's numbering; `_stats`
tallies the classes and the pair parities read them (an odd index is an even
pair). The public functions of one tree build their children table with
`children_table`, which rejects a non-tree; enumerated trees skip the check.

The pair involutions re-hang the largest outside child of a pair to the
opposite endpoint; `_apply` walks a set of them in ascending order and holds
the one pair-index check. They commute, preserve the matching, and transport
the statistics in a controlled way: `phi_orbit_check` checks one tree and
one subset, and `lemma9_defects` checks all of Lemma 9 over T_n.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import NamedTuple

from .elliptic import gamma_bounds
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
    odd = even = pos = 0
    for v in perm:
        pos += 1
        if pos < v and perm[v - 1] < v:
            if v & 1:
                odd += 1
            else:
                even += 1
    return odd, even


def _check_cap(n: int, cap: int, what: str):
    """The one size check of every enumeration: 0 <= n <= cap."""
    if n < 0:
        raise ValueError("n must be nonnegative")
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
    yield from itertools.product(*(range(v) for v in range(1, n + 1)))


def children_table(parents) -> list:
    """Children lists (ascending) by vertex, root included; rejects a non-tree."""
    _check_tree(parents)
    return _children(parents)


def _children(parents) -> list:
    n = len(parents)
    table = [[] for _ in range(n + 1)]
    for v, p in enumerate(parents, start=1):
        table[p].append(v)
    return table


def _check_tree(parents):
    """Reject a parent tuple that is not an increasing tree: the parent p of
    vertex v must satisfy 0 <= p < v."""
    for v, p in enumerate(parents, start=1):
        if not 0 <= p < v:
            raise ValueError(f"vertex {v} has parent {p}, not in 0..{v - 1}")


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


class TreeStats(NamedTuple):
    """A tree's statistics, in the order of `tree_profiles`' counters."""

    singleton: int
    zerop: int
    des_o: int
    des_e: int
    asc_o: int
    asc_e: int

    @property
    def evenp(self) -> int:
        """Even pairs: the zero pairs and the even descent and ascent pairs."""
        return self.zerop + self.des_e + self.asc_e


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


def _pair_classes(parents, children, pairs) -> list:
    """Class of each matched pair as its `TreeStats` field index, the
    numbering of `tree_profiles`' tally: 1 zero, 2 des_o, 3 des_e, 4 asc_o,
    5 asc_e. A pair is odd or even with its outside-child count, so an odd
    index is an even pair."""
    classes = []
    for a, b in pairs:
        m = len(children[a]) + len(children[b]) - 1
        if not m:
            classes.append(1)
            continue
        ascent = parents[_largest_outside_child(children, (a, b)) - 1] != a
        classes.append(3 - (m & 1) + 2 * ascent)
    return classes


def _stats(parents, children, pairs) -> tuple:
    """Statistics of a tree from its children table and matching, and the
    `_pair_classes` they were counted from."""
    tally = [len(parents) + 1 - 2 * len(pairs), 0, 0, 0, 0, 0]
    classes = _pair_classes(parents, children, pairs)
    for c in classes:
        tally[c] += 1
    return TreeStats(*tally), classes


def tree_stats(parents) -> TreeStats:
    children = children_table(parents)
    return _stats(parents, children, _matching(parents, children))[0]


def tree_profiles(n: int, cap: int = DEFAULT_TREE_CAP) -> Counter:
    """Counter of the `TreeStats` of the trees in T_n, each record in the
    order of its first tree.

    One depth-first pass adds vertices 1..n in the order of
    `tree_enumerate` and keeps the statistics of the tree built so far, so
    each tree is scored in O(1)."""
    _check_cap(n, cap, "tree")
    profiles: Counter = Counter()
    # tally holds the TreeStats fields of the finished tree, in their order:
    # every vertex not yet matched counts as a singleton.
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
    return Counter({TreeStats._make(p): c for p, c in profiles.items()})


def _fold_trees(n: int, keyfn, cap: int, profiles=None) -> Counter:
    """Fold keyfn over `profiles`, by default `tree_profiles(n, cap)`; a
    None key leaves the trees of its record uncounted. Keys keep the order
    of their first tree, and keyfn runs once per distinct record."""
    if profiles is None:
        profiles = tree_profiles(n, cap)
    counts: Counter = Counter()
    for st, c in profiles.items():
        key = keyfn(st)
        if key is not None:
            counts[key] += c
    return counts


# The distributions below are key maps over the records of T_n.
# g2_distribution, theta_table and s_from_trees take `profiles`, the
# `tree_profiles(n, cap)` a caller has already built, and fold T_n
# themselves only without it.


def g2_distribution(n: int, cap: int = DEFAULT_TREE_CAP, profiles=None) -> MultiPoly:
    """Sum over T_n of x^singleton c^zerop a^des_o b^asc_o g^des_e h^asc_e,
    over the alphabet (x, a, b, c, g, h)."""

    def key(st):
        return st.singleton, st.des_o, st.asc_o, st.zerop, st.des_e, st.asc_e

    counts = _fold_trees(n, key, cap, profiles)
    return MultiPoly(G2_VARS, dict(counts))


def g1_distribution(n: int, cap: int = DEFAULT_TREE_CAP) -> MultiPoly:
    """Sum over T_n of x^singleton c^evenp a^des_o b^asc_o, over the
    alphabet (x, a, b, c)."""

    def key(st):
        return st.singleton, st.des_o, st.asc_o, st.evenp

    counts = _fold_trees(n, key, cap)
    return MultiPoly(G1_VARS, dict(counts))


def theta_table(n: int, cap: int = DEFAULT_TREE_CAP, profiles=None) -> dict:
    """Row n of theta: (evenp, des_o) -> #trees with no odd ascent pair."""

    def key(st):
        return None if st.asc_o else (st.evenp, st.des_o)

    return dict(sorted(_fold_trees(n, key, cap, profiles).items()))


def s_from_trees(n: int, cap: int = DEFAULT_TREE_CAP, profiles=None) -> dict:
    """Row n of the s triangle read off tree statistics: the singleton count
    s carries i = s // 2 and w = evenp + 2*des_o carries j = w // 2; s has
    the parity opposite to n's, and w the parity of n."""

    def key(st):
        w = st.evenp + 2 * st.des_o
        if st.singleton % 2 == n % 2 or w % 2 != n % 2:
            raise StatisticsDefectError(
                f"parity break at profile {tuple(st)}"
                f" for {'odd' if n % 2 else 'even'} n={n}"
            )
        return st.singleton // 2, w // 2

    return dict(sorted(_fold_trees(n, key, cap, profiles).items()))


def _corollary15_cells(n: int) -> dict:
    """Corollary 15's index change on row n, gamma(n, i, j) =
    theta(n, 2j + r, n//2 - i - 2j) with r = n mod 2: each cell of the gamma
    support (`elliptic.gamma_bounds`) mapped to its theta cell."""
    i_max, half, step = gamma_bounds(n)
    return {
        (i, j): (2 * j + n % 2, half - i - 2 * j)
        for i in range(i_max + 1)
        for j in range((half - i) // step + 1)
    }


def gamma_row_from_theta(n: int, theta_row: dict) -> dict:
    """Row n of the gamma triangle from row n of theta, through the inverse
    of the Corollary 15 cell table. A theta cell with no gamma cell is a
    defect."""
    cells = {t: g for g, t in _corollary15_cells(n).items()}
    for i, j in theta_row:
        if (i, j) not in cells:
            raise StatisticsDefectError(
                f"theta cell {(n, i, j)} maps outside the gamma support"
            )
    return {cells[ij]: c for ij, c in theta_row.items()}


def theta_row_from_gamma(n: int, gamma_row: dict) -> dict:
    """Row n of theta from row n of gamma through the Corollary 15 cell
    table, the inverse of ``gamma_row_from_theta``. A gamma cell outside the
    gamma support is a defect."""
    cells = _corollary15_cells(n)
    for i, j in gamma_row:
        if (i, j) not in cells:
            raise ValueError(f"gamma cell {(n, i, j)} is outside the gamma support")
    return {cells[ij]: c for ij, c in gamma_row.items()}


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


def _apply(parents, children, pairs, indices):
    """(image, its children table) under the involutions of the 1-based
    pair indices, applied in ascending order; the one pair-index check."""
    tree = parents, children
    for k in sorted(set(indices)):
        if not 1 <= k <= len(pairs):
            raise ValueError(f"pair index {k} out of range")
        tree = _phi(*tree, pairs[k - 1])
    return tree


def phi_apply(parents, matching, k: int):
    """Involution attached to pair k (1-based) of the tree-matching: re-hang
    the largest outside child of the pair to the opposite endpoint."""
    return phi_subset(parents, matching, (k,))


def phi_subset(parents, matching, indices):
    """Apply the commuting involutions for every pair index in `indices`;
    `matching` must be the tree's own."""
    children = children_table(parents)
    matching = tuple(matching)
    if _matching(parents, children) != matching:
        raise MatchingMismatchError("matching does not belong to this tree")
    return _apply(parents, children, matching, indices)[0]


class OrbitCheck(NamedTuple):
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
    classes = _pair_classes(parents, children, _matching(parents, children))
    indexed = list(enumerate(classes, start=1))
    return (
        tuple(k for k, c in indexed if c & 1),
        tuple(k for k, c in indexed if not c & 1),
    )


def _orbit_check(start, pairs, before, flipped_odd, image, children) -> OrbitCheck:
    """Transport check of `image` (with its children table) against the
    ascent-free tree `start`, whose matching is `pairs` and statistics
    `before`. The image's matching and statistics come from its own table."""
    image_pairs = _matching(image, children)
    after = _stats(image, children, image_pairs)[0]
    matching_preserved = image_pairs == pairs
    ok = (
        matching_preserved
        and after.singleton == before.singleton
        and after.evenp == before.evenp
        and after.des_o == before.des_o - flipped_odd
        and after.asc_o == flipped_odd
    )
    return OrbitCheck(
        ok=ok,
        start=tuple(start),
        image=image,
        flipped_odd=flipped_odd,
        even_pairs=before.evenp,
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
    before, classes = _stats(parents, children, pairs)
    if before.asc_o:
        raise ValueError("tree must have no odd ascent pair")
    chosen = set(indices)
    image = _apply(parents, children, pairs, chosen)
    flipped_odd = sum(not classes[k - 1] & 1 for k in chosen)
    return _orbit_check(parents, pairs, before, flipped_odd, *image)


def lemma9_defects(n: int, cap: int = DEFAULT_TREE_CAP) -> tuple:
    """Lemma 9 over T_n, as the first counterexample ("" while it holds) to
    each of: involution, commutation, matching preserved, statistic
    transport (`phi_orbit_check` on every subset of every ascent-free tree),
    and orbit partition (each matching's trees split into odd-pair orbits of
    size 2^(odd pairs), one per ascent-free tree).

    Each tree's children table and matching are built once. Every image
    carries its own table, updated by one move, and its matching and
    statistics are computed from that table: their preservation is tested."""
    involution = commutation = preserve = transport = ""
    groups: dict = {}
    orbits: dict = {}
    for parents in tree_enumerate(n, cap):
        children = _children(parents)
        matching = _matching(parents, children)
        groups.setdefault(matching, []).append(parents)
        k = len(matching)
        before, classes = _stats(parents, children, matching)
        if before.asc_o == 0:
            # images[S] is the image of S minus its top pair, moved by the
            # top pair: the order in which `_apply` applies them
            images = [(parents, children)]
            for mask in range(1, 1 << k):
                top = mask.bit_length() - 1
                images.append(_phi(*images[mask ^ 1 << top], matching[top]))
            once = [images[1 << t] for t in range(k)]
            even_mask = sum((c & 1) << t for t, c in enumerate(classes))
            kept = []  # kept[mask]: the image of mask has the same matching
            for mask in range(1 << k):
                flipped_odd = (mask & ~even_mask).bit_count()
                report = _orbit_check(
                    parents, matching, before, flipped_odd, *images[mask]
                )
                kept.append(report.matching_preserved)
                if not report.ok and not transport:
                    subset = {t + 1 for t in range(k) if mask >> t & 1}
                    transport = f"transport failed at {parents} S={subset}"
            orbits[parents] = [
                images[mask][0] for mask in range(1 << k) if not mask & even_mask
            ]
        else:
            images = None
            once = [_phi(parents, children, pair) for pair in matching]
        for a in range(k):
            same = kept[1 << a] if images else _matching(*once[a]) == matching
            if not same and not preserve:
                preserve = f"matching broken at {parents} pair {a + 1}"
            if _phi(*once[a], matching[a])[0] != parents and not involution:
                involution = f"not involutive at {parents} pair {a + 1}"
            for b in range(a + 1, k):
                # phi_b after phi_a is the image of the subset {a, b}
                if images:
                    ab = images[1 << a | 1 << b][0]
                else:
                    ab = _phi(*once[a], matching[b])[0]
                ba = _phi(*once[b], matching[a])[0]
                if ab != ba and not commutation:
                    commutation = (
                        f"no commutation at {parents} pairs {a + 1},{b + 1}"
                    )

    partition = ""
    for matching, members in groups.items():
        seen: set = set()
        for rep in members:
            if rep not in orbits:
                continue
            orbit = set(orbits[rep])
            if (len(orbit) != len(orbits[rep]) or orbit & seen) and not partition:
                partition = f"orbit defect at representative {rep}"
            seen |= orbit
        if seen != set(members) and not partition:
            partition = f"orbits do not partition matching {matching}"
    return involution, commutation, preserve, transport, partition

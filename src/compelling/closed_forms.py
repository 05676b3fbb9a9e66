"""Closed-form values of the edge- and connectivity-compelling chromatic
numbers on the families where they are known exactly, the table
:data:`FAMILIES` that names each family's instances and closed forms, plus
the chord machinery for maximal outerplanar graphs.

These functions are independent of the exact solver and serve as oracles
for it: the ``family-table`` command and the family suites of
:mod:`compelling.verify` both read :data:`FAMILIES`.
"""

from __future__ import annotations

import itertools

from .graphs import (
    Graph,
    chromatic_number,
    connected_domination_number,
    is_complete_bipartite,
    is_mop,
    is_tree,
    make_cycle,
    make_double_broom,
    make_fan,
    make_path,
    make_random_mop,
    make_random_tree,
    make_split_graph,
    mop_three_coloring,
    radius,
)
from .properties import SubsetProperty
from .solver import Coloring, canonical_colors


def chi_edge_path(n: int) -> int:
    """Edge-compelling chromatic number of the path on n >= 2 vertices."""
    if n < 2:
        raise ValueError("a single vertex has no subset containing an edge")
    if n <= 3:
        return 2
    if n <= 6:
        return 3
    return 4


def chi_edge_cycle(n: int) -> int:
    """Edge-compelling chromatic number of the cycle on n >= 3 vertices."""
    if n < 3:
        raise ValueError("cycle needs at least three vertices")
    if n == 4:
        return 2
    if n <= 7:
        return 3
    return 4


def is_double_broom(t: Graph) -> bool:
    """Recognize trees built from two stars by joining a leaf of each.

    Structure: an edge x-y with both endpoints of degree 2, whose outer
    neighbors s and s2 absorb every remaining vertex as a leaf.  This
    matches the generator's outputs exactly, including the degenerate
    one-leaf stars (paths on 4 or 5 vertices and brooms).
    """
    if not is_tree(t):
        raise ValueError("double-broom recognition expects a tree")
    if t.n < 4:
        return False
    for x, y in t.edges:
        if t.degree(x) != 2 or t.degree(y) != 2:
            continue
        # x and y have degree 2, so each has one neighbour besides the other;
        # the two differ, as s-x-y would otherwise close a triangle
        s = (t.adj_bits[x] & ~(1 << y)).bit_length() - 1
        s2 = (t.adj_bits[y] & ~(1 << x)).bit_length() - 1
        core = {s, x, y, s2}
        if all(
            v in core or (t.degree(v) == 1 and (t.has_edge(v, s) or t.has_edge(v, s2)))
            for v in range(t.n)
        ):
            return True
    return False


def chi_edge_tree(t: Graph) -> int:
    """Edge-compelling chromatic number of a tree on >= 2 vertices.

    2 exactly for the complete bipartite trees (stars and the single edge),
    3 exactly for trees of radius 2 and double brooms, else 4 (the general
    chromatic-number-plus-two cap is tight for every other tree).
    """
    if not is_tree(t):
        raise ValueError("expected a tree")
    if t.n < 2:
        raise ValueError("a single vertex has no subset containing an edge")
    if is_complete_bipartite(t):
        return 2
    if radius(t) == 2 or is_double_broom(t):
        return 3
    return 4


def chi_conn_path(n: int) -> int:
    """Connectivity-compelling chromatic number of the path: n-1 for
    n >= 3, and 2 for the single edge."""
    if n < 2:
        raise ValueError("path needs at least two vertices")
    return 2 if n == 2 else n - 1


def chi_conn_cycle(n: int) -> int:
    """Connectivity-compelling chromatic number of the cycle: 3 and 2 for
    the triangle and square, n-1 from five vertices on."""
    if n < 3:
        raise ValueError("cycle needs at least three vertices")
    if n == 3:
        return 3
    if n == 4:
        return 2
    return n - 1


def interior_count(t: Graph) -> int:
    """Number of non-leaf vertices of a tree."""
    if not is_tree(t):
        raise ValueError("expected a tree")
    return sum(1 for v in range(t.n) if t.degree(v) >= 2)


def chi_conn_tree(t: Graph) -> int:
    """Connectivity-compelling chromatic number of a tree: one more than
    its interior vertex count for order >= 3; the single edge gives 2."""
    if not is_tree(t):
        raise ValueError("expected a tree")
    if t.n < 2:
        raise ValueError("tree of order 1 is out of range")
    if t.n == 2:
        return 2
    return 1 + interior_count(t)


def chi_conn_mop(g: Graph) -> int:
    """Connectivity-compelling chromatic number of a maximal outerplanar
    graph: its connected domination number plus two."""
    ok, _ = is_mop(g)
    if not ok:
        raise ValueError("expected a maximal outerplanar graph")
    return connected_domination_number(g) + 2


def chi_edge_high_chromatic(g: Graph) -> int | None:
    """When the chromatic number is at least n/2 + 1 every proper coloring
    compels an edge, so the edge-compelling value equals it; returns None
    when that condition does not hold."""
    chi = chromatic_number(g)
    if 2 * chi >= g.n + 2:
        return chi
    return None


# ---------------------------------------------------------------------------
# Families with closed forms
# ---------------------------------------------------------------------------

_EDGE = SubsetProperty.EDGE
_CONNECTED = SubsetProperty.CONNECTED
_TREE_FORMS = {_EDGE: chi_edge_tree, _CONNECTED: chi_conn_tree}

# Per family: the smallest n; the order of the instance at n, known before
# it is built, so an order over a cap is refused without building it; the
# instance at n and seed; and the closed forms of its value, by property,
# each applied to an instance of two vertices or more.
FAMILIES = {
    "path": (
        1,
        lambda n: n,
        lambda n, seed: make_path(n),
        {_EDGE: lambda g: chi_edge_path(g.n), _CONNECTED: lambda g: chi_conn_path(g.n)},
    ),
    "cycle": (
        3,
        lambda n: n,
        lambda n, seed: make_cycle(n),
        {
            _EDGE: lambda g: chi_edge_cycle(g.n),
            _CONNECTED: lambda g: chi_conn_cycle(g.n),
        },
    ),
    "tree-random": (
        1,
        lambda n: n,
        lambda n, seed: make_random_tree(n, seed=seed * 1_000_003 + n),
        _TREE_FORMS,
    ),
    "mop-random": (
        3,
        lambda n: n,
        lambda n, seed: make_random_mop(n, seed=seed * 1_000_003 + n),
        {_CONNECTED: chi_conn_mop},
    ),
    "double-broom": (
        1,
        lambda n: 2 * n + 2,
        lambda n, seed: make_double_broom(n, n),
        _TREE_FORMS,
    ),
    "split": (2, lambda n: 2 * n, lambda n, seed: make_split_graph(n), {}),
    "fan": (1, lambda n: n + 1, lambda n, seed: make_fan(n), {}),
}


# ---------------------------------------------------------------------------
# Chords of maximal outerplanar graphs
# ---------------------------------------------------------------------------


def mop_chords(g: Graph) -> list[tuple[int, int]]:
    """Edges of a maximal outerplanar graph not on its outer cycle.

    The cycle is the one :func:`is_mop` recovers, never the ``outer_cycle``
    annotation, which a parsed file may get wrong: a maximal outerplanar
    graph has exactly one Hamiltonian cycle."""
    ok, cycle = is_mop(g)
    if not ok:
        raise ValueError("expected a maximal outerplanar graph")
    n = g.n
    outer = set()
    for i in range(n):
        u, v = cycle[i], cycle[(i + 1) % n]
        outer.add((min(u, v), max(u, v)))
    return [e for e in g.edges if e not in outer]


def is_chord_cover(g: Graph, members) -> bool:
    """True when the vertex set meets every chord of the graph.

    Each call recognizes the graph as a MOP again (O(n^2)); a loop over
    many vertex sets of one graph should compute ``mop_chords`` once and
    test against it."""
    s = set(members)
    return all(u in s or v in s for u, v in mop_chords(g))


def chord_covers(g: Graph):
    """Every nonempty vertex set over chord endpoints that meets every
    chord, in size-then-lex order (none when there are no chords)."""
    chords = mop_chords(g)
    endpoints = sorted({v for e in chords for v in e})
    for size in range(1, len(endpoints) + 1):
        for combo in itertools.combinations(endpoints, size):
            s = set(combo)
            if all(u in s or v in s for u, v in chords):
                yield combo


def min_chord_cover(g: Graph) -> tuple[int, ...]:
    """First minimum chord cover in size-then-lex order over chord
    endpoints (the empty set when there are no chords)."""
    return next(chord_covers(g), ())


def edge_compelling_five_coloring(g: Graph) -> Coloring:
    """Five-color edge-compelling construction for a maximal outerplanar
    graph: two adjacent vertices get unique colors and the rest keeps a
    proper 3-coloring, so every committee contains that edge.

    Picks the first edge (lex order) leaving all three base classes
    nonempty; needs roughly seven or more vertices for that to exist.
    """
    base = list(mop_three_coloring(g))
    counts = [base.count(c) for c in range(3)]
    for u, v in g.edges:
        remaining = counts[:]
        remaining[base[u]] -= 1
        remaining[base[v]] -= 1
        if all(r > 0 for r in remaining):
            colors = base[:]
            colors[u] = 3
            colors[v] = 4
            return Coloring(canonical_colors(colors))
    raise ValueError("graph too small for the five-color construction")

"""Polynomial-time test for total dominator chromatic number 3, the brute
force oracle it is validated against, and the connectivity-compelling
consequence.

A total dominator coloring (TDC) is a proper coloring in which every
vertex is adjacent to every vertex of some other color class.  Three-class
TDCs split into structured shapes that can be guessed and checked in
polynomial time:

* case 1:   some class R where all of R are clones whose common open
            neighborhood is exactly the rest of the graph, and the rest is
            2-colorable;
* case 2.1: two same-colored vertices u, v with different target classes,
            and likewise x, y in a second class; the guesses determine all
            three classes;
* case 2.2: u, v as above while the other two classes target each other,
            forcing the subgraph induced by N(u) union N(v) to be complete
            bipartite, which hands over the classes.

Every candidate is re-validated with the full TDC definition before being
returned, so any slack in the case analysis cannot produce a bad witness.
The scan order (case 1 vertices ascending, case 2.2 pairs, case 2.1
pairs-of-pairs, all lexicographic) makes the returned witness
deterministic.  Cases 2.2 and 2.1 try each guessed class once, under the
first pair in that order that gives it: the witness stays the same, and
the scan costs one try per distinct guessed class, not one per pair (or
pair of pairs).  Case 2.1 skips a pair of guesses whose third class (the
vertices in neither) is not independent before the full check, which
would reject it anyway.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import (
    EXACT_CHROMATIC_CAP,
    Graph,
    canonical_walk,
    check_order,
    is_complete_bipartite,
    is_connected,
    iter_bits,
    mask_bipartition,
    mask_independent,
)
from .solver import (
    Coloring,
    _covered,
    canonical_colors,
    validate_coloring,
)


@dataclass(frozen=True)
class TdcWitness:
    """A 3-class total dominator coloring plus how it was found."""

    coloring: Coloring
    case_tag: str
    guessed_vertices: tuple[int, ...]


def is_total_dominator_coloring(g: Graph, coloring: Coloring) -> bool:
    """Every vertex adjacent to all of some other color class.

    A graph with an isolated vertex has no such coloring.
    """
    validate_coloring(g, coloring)
    return _covered(g.adj_bits, coloring.class_masks)


def has_tdc_bruteforce(g: Graph, k: int) -> bool:
    """Whether g has a total dominator coloring with exactly k classes, by
    canonical coloring enumeration; never with an isolated vertex.

    The enumeration is the plain walk :func:`graphs.canonical_walk`, with
    no cut, so this reference shares no cut rule with the tester and the
    solver it checks.  A cut would also take a large-n benchmark pass
    under the roughly 26 ms below which the benchmark's speed sampler has
    no sample in the timed region and reports NaN."""
    adj = g.adj_bits
    if not all(adj):
        return False
    for _, masks in canonical_walk(adj, k):
        if _covered(adj, masks):
            return True
    return False


def chi_td_bruteforce(g: Graph, max_n: int = EXACT_CHROMATIC_CAP) -> int | None:
    """Minimum class count of a total dominator coloring by
    :func:`has_tdc_bruteforce`; None when an isolated vertex rules them
    all out."""
    check_order(g.n, max_n)
    return next((k for k in range(1, g.n + 1) if has_tdc_bruteforce(g, k)), None)


def _witness_from_masks(g: Graph, masks, tag: str, guessed) -> TdcWitness | None:
    """Validate a candidate three-class partition and package the witness."""
    if any(m == 0 for m in masks):
        return None
    if masks[0] | masks[1] | masks[2] != g.full_mask:
        return None
    if masks[0] & masks[1] or masks[0] & masks[2] or masks[1] & masks[2]:
        return None
    if not all(mask_independent(g.adj_bits, m) for m in masks):
        return None
    if not _covered(g.adj_bits, masks):
        return None
    colors = [0] * g.n
    for idx, m in enumerate(masks):
        for v in iter_bits(m):
            colors[v] = idx
    return TdcWitness(Coloring(canonical_colors(colors)), tag, tuple(guessed))


def _split_bipartition(g: Graph, rest: int) -> tuple[int, int] | None:
    """Proper 2-coloring of the subgraph induced by ``rest`` with both
    sides nonempty when possible; None if not 2-colorable or too small.

    When the induced subgraph is edgeless the standard sweep would put
    everything on one side, so one vertex is moved over.
    """
    split = mask_bipartition(g.adj_bits, rest)
    if split is None:
        return None
    side_a, side_b = split
    if side_b == 0:
        if side_a.bit_count() < 2:
            return None
        move = side_a & -side_a
        side_a ^= move
        side_b = move
    return side_a, side_b


def has_tdc3(g: Graph) -> TdcWitness | None:
    """Find a 3-class total dominator coloring in polynomial time, or
    report that none exists."""
    n = g.n
    if n < 3:
        return None
    if 0 in g.adj_bits:
        return None
    adj = g.adj_bits
    full = g.full_mask

    # Case 1: a class of clones adjacent to everything outside it.
    for v in range(n):
        red = full & ~adj[v]
        rest = adj[v]
        if all(adj[w] == rest for w in iter_bits(red)):
            split = _split_bipartition(g, rest)
            if split is None:
                continue
            witness = _witness_from_masks(g, (red, *split), "case1", (v,))
            if witness is not None:
                return witness

    # Cases 2.2 and 2.1 guess red as the vertices adjacent to neither of a
    # pair (u, v).  A candidate depends only on the guessed masks, so each
    # independent mask is tried once, under the first pair that gives it:
    # the first pair (or pair of pairs) to succeed is the first occurrence
    # of its masks, and the witness is the one the scan over all pairs finds.
    firsts: dict[int, tuple[int, int]] = {}
    for u in range(n):
        for v in range(u + 1, n):
            firsts.setdefault(full & ~(adj[u] | adj[v]), (u, v))
    reds = [
        (red, pair)
        for red, pair in firsts.items()
        if red and mask_independent(adj, red)
    ]

    # Case 2.2: the other two classes pair off against each other, so
    # N(u) union N(v) must induce a connected complete bipartite graph.  Its
    # sides are then the neighbours of its lowest vertex and the rest, which
    # is the split a breadth-first 2-coloring from that vertex gives.
    for red, uv in reds:
        rest = full & ~red
        low = rest & -rest
        side_b = adj[low.bit_length() - 1] & rest
        side_a = rest ^ side_b
        if side_b == 0 or not mask_independent(adj, side_b):
            continue
        if any(adj[w] & rest != side_b for w in iter_bits(side_a)):
            continue
        witness = _witness_from_masks(g, (red, side_a, side_b), "case22", uv)
        if witness is not None:
            return witness

    # Case 2.1: guessed pairs determine red and blue outright.
    for red, uv in reds:
        for blue, xy in reds:
            if red & blue:
                continue
            green = full & ~(red | blue)
            if green == 0 or not mask_independent(adj, green):
                continue
            witness = _witness_from_masks(g, (red, blue, green), "case21", uv + xy)
            if witness is not None:
                return witness
    return None


def chi_td_is_3(g: Graph) -> bool:
    """True exactly when the total dominator chromatic number equals 3.

    The only 2-class total dominator colorings are the bipartition
    colorings of complete bipartite graphs, so those are carved out.
    """
    if is_complete_bipartite(g):
        return False
    return has_tdc3(g) is not None


def chi_connected_is_3(g: Graph) -> bool:
    """True exactly when the connectivity-compelling chromatic number of a
    connected graph equals 3.

    A 3-subset is a total dominating set exactly when it is a connected
    dominating set, so a 3-coloring compels connectivity exactly when it
    is a total dominator coloring; the value-2 case is complete bipartite.
    """
    if not is_connected(g):
        raise ValueError("expected a connected graph")
    if 0 in g.adj_bits:
        raise ValueError("expected a graph without isolated vertices")
    return chi_td_is_3(g)

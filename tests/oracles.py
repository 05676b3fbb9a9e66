"""Independent brute-force oracles used by the tests.

Everything here works on plain vertex sets with itertools enumeration, on
purpose: the package's bitmask kernels are checked against these, so the
oracles must not share code with them.
"""

from __future__ import annotations

import itertools

from compelling import Graph, SubsetProperty


def brute_chromatic_number(g: Graph) -> int:
    """Smallest k such that some of the k^n assignments is proper."""
    edges = g.edges
    for k in range(1, g.n + 1):
        for assign in itertools.product(range(k), repeat=g.n):
            if all(assign[u] != assign[v] for u, v in edges):
                return k
    raise AssertionError("n colors always suffice")


def is_dominating(g: Graph, s: set[int]) -> bool:
    return all(v in s or g.adj[v] & s for v in range(g.n))


def is_total_dominating(g: Graph, s: set[int]) -> bool:
    return all(g.adj[v] & s for v in range(g.n))


def induces_connected(g: Graph, s: set[int]) -> bool:
    start = next(iter(s))
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in g.adj[u] & s:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen == s


def distances(g: Graph, root: int) -> dict[int, int]:
    """Distance from ``root`` to every vertex of its component."""
    dist = {root: 0}
    queue = [root]
    for u in queue:
        for v in g.adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def bipartition(g: Graph) -> tuple[set[int], set[int]] | None:
    """The two parts by distance parity from the lowest vertex of each
    component (that vertex in part 0), or None when an edge joins two
    vertices of equal parity."""
    parity: dict[int, int] = {}
    for root in range(g.n):
        if root not in parity:
            parity.update((v, d % 2) for v, d in distances(g, root).items())
    if any(parity[u] == parity[v] for u, v in g.edges):
        return None
    return (
        {v for v in range(g.n) if parity[v] == 0},
        {v for v in range(g.n) if parity[v] == 1},
    )


def set_property(prop: SubsetProperty, g: Graph, s: set[int]) -> bool:
    """Set-level restatement of each property definition."""
    if not s:
        raise ValueError("empty set")
    if prop is SubsetProperty.DOM:
        return is_dominating(g, s)
    if prop is SubsetProperty.TDOM:
        return is_total_dominating(g, s)
    if prop is SubsetProperty.ISOLATE_FREE:
        return all(g.adj[v] & s for v in s)
    if prop is SubsetProperty.EDGE:
        return any(u in g.adj[v] for u, v in itertools.combinations(sorted(s), 2))
    if prop is SubsetProperty.CONNECTED:
        return induces_connected(g, s)
    if prop is SubsetProperty.CDOM:
        return induces_connected(g, s) and is_dominating(g, s)
    raise AssertionError(prop)


def brute_min_witness(prop: SubsetProperty, g: Graph) -> tuple[int, ...] | None:
    """First qualifying subset in size-then-lex order by plain subset
    enumeration, or None when none qualifies."""
    for size in range(1, g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            if set_property(prop, g, set(combo)):
                return combo
    return None


def brute_min_size(prop: SubsetProperty, g: Graph) -> int | None:
    """Minimum qualifying subset size by plain subset enumeration."""
    witness = brute_min_witness(prop, g)
    return None if witness is None else len(witness)


def brute_compelling(g: Graph, colors, prop: SubsetProperty) -> bool:
    """Every committee of one vertex per color class satisfies the property."""
    k = max(colors) + 1
    classes = [[v for v in range(g.n) if colors[v] == c] for c in range(k)]
    return all(
        set_property(prop, g, set(committee))
        for committee in itertools.product(*classes)
    )

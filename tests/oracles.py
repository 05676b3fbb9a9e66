"""Independent brute-force oracles used by the tests.

Everything here works on plain vertex sets with itertools enumeration, on
purpose: the package's bitmask kernels are checked against these, so the
oracles must not share code with them.
"""

from __future__ import annotations

import itertools

from compelling import Graph, SubsetProperty


def relabelled(g: Graph, perm) -> Graph:
    """g with each vertex u renamed ``perm[u]``."""
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def brute_chromatic_number(g: Graph) -> int:
    """Smallest k such that some of the k^n assignments is proper.  The
    assignments are built vertex by vertex in index order, and one that
    gives two adjacent vertices one color is dropped with all its
    extensions, so a complete graph on 8 vertices takes milliseconds."""
    for k in range(1, g.n + 1):
        proper = [()]
        for v in range(g.n):
            earlier = [u for u in g.adj[v] if u < v]
            proper = [
                a + (c,)
                for a in proper
                for c in range(k)
                if all(a[u] != c for u in earlier)
            ]
        if proper:
            return k
    raise AssertionError("n colors always suffice")


def brute_canonical_colorings(g: Graph, k: int) -> list[tuple[int, ...]]:
    """Every proper coloring of g that uses exactly k colors and is a
    restricted-growth string (each vertex's color at most one more than
    the largest color before it), in lexicographic order: the k^n
    assignments in that order, each tested in full.  n entries
    take at most n colors, so k > n gives none, and every such string
    starts with color 0, so the scan stops at the first assignment that
    does not."""
    if k > g.n:
        return []
    edges = [(u, v) for u in range(g.n) for v in g.adj[u] if u < v]
    out = []
    for a in itertools.product(range(k), repeat=g.n):
        if a[0]:
            break
        if (
            len(set(a)) == k
            and all(a[v] <= max(a[:v], default=-1) + 1 for v in range(g.n))
            and all(a[u] != a[v] for u, v in edges)
        ):
            out.append(a)
    return out


def improper_coloring_message(g: Graph, colors) -> str | None:
    """The error that rejects ``colors`` on g, from a walk over the edges
    in sorted order: a wrong length, else the first edge whose ends share
    a color; None for a total proper coloring."""
    if len(colors) != g.n:
        return f"coloring assigns {len(colors)} vertices, graph has {g.n}"
    for u, v in sorted((u, v) for u in range(g.n) for v in g.adj[u] if u < v):
        if colors[u] == colors[v]:
            return (
                f"improper coloring: adjacent vertices {u} and {v} "
                f"both have color {colors[u]}"
            )
    return None


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


def components(g: Graph, without=frozenset()) -> list[set[int]]:
    """The components of G - ``without``, a vertex set (G itself when it
    is empty), each a vertex set, in order of their lowest vertex."""
    rest = set(range(g.n)) - set(without)
    comps = []
    while rest:
        root = min(rest)
        comp = {root}
        stack = [root]
        while stack:
            for v in g.adj[stack.pop()] & rest:
                if v not in comp:
                    comp.add(v)
                    stack.append(v)
        comps.append(comp)
        rest -= comp
    return comps


def splitting_vertices(g: Graph, without=frozenset()) -> int:
    """With S the vertex set ``without``: the bitmask with bit x set, for
    each vertex x outside S, when G - S - x has two components or more,
    and bit n set when G - S itself has; one component search each."""
    rest = set(range(g.n)) - set(without)
    mask = sum(1 << x for x in rest if len(components(g, set(without) | {x})) > 1)
    return mask | (len(components(g, without)) > 1) << g.n


def separating_pairs(g: Graph) -> set[frozenset[int]]:
    """Each pair {x, y} such that G - x and G - y are connected and
    G - {x, y} is not."""
    whole = [len(components(g, {x})) <= 1 for x in range(g.n)]
    return {
        frozenset((x, y))
        for x, y in itertools.combinations(range(g.n), 2)
        if whole[x] and whole[y] and len(components(g, {x, y})) > 1
    }


def bipartition(
    g: Graph, within: set[int] | None = None
) -> tuple[set[int], set[int]] | None:
    """The two parts of the subgraph induced by ``within`` (every vertex by
    default) by distance parity from the lowest vertex of each component
    (that vertex in part 0), or None when an edge joins two vertices of
    equal parity."""
    verts = set(range(g.n)) if within is None else within
    parity: dict[int, int] = {}
    for root in sorted(verts):
        if root not in parity:
            parity[root] = 0
            queue = [root]
            for u in queue:
                for v in g.adj[u] & verts:
                    if v not in parity:
                        parity[v] = parity[u] ^ 1
                        queue.append(v)
    if any(parity[u] == parity[v] for u in verts for v in g.adj[u] & verts):
        return None
    return (
        {v for v in verts if parity[v] == 0},
        {v for v in verts if parity[v] == 1},
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


def tdc3_pair_scan(g: Graph):
    """The three-class total dominator coloring search of ``td3.has_tdc3``
    run over every guess: case 1 for each vertex, then case 2.2 for each
    pair and case 2.1 for each pair of pairs, all in lexicographic order,
    with every candidate checked in full.  Returns (colors, case tag,
    guessed vertices) of the first candidate that passes, or None."""
    n = g.n
    if n < 3 or any(not g.adj[v] for v in range(n)):
        return None
    everything = set(range(n))

    def witness(classes, tag, guessed):
        if any(not c for c in classes) or sum(map(len, classes)) != n:
            return None
        if set().union(*classes) != everything:
            return None
        if any(g.adj[v] & c for c in classes for v in c):
            return None
        if not all(any(c <= g.adj[v] for c in classes) for v in range(n)):
            return None
        color = {v: i for i, c in enumerate(classes) for v in c}
        relabel: dict[int, int] = {}
        colors = tuple(relabel.setdefault(color[v], len(relabel)) for v in range(n))
        return colors, tag, tuple(guessed)

    def two_sides(rest):
        parts = bipartition(g, rest)
        if parts is None:
            return None
        a, b = parts
        if not b:
            if len(a) < 2:
                return None
            low = min(a)
            a, b = a - {low}, {low}
        return a, b

    for v in range(n):
        rest = set(g.adj[v])
        red = everything - rest
        if rest and all(g.adj[w] == rest for w in red):
            sides = two_sides(rest)
            if sides is not None:
                found = witness((red, *sides), "case1", (v,))
                if found is not None:
                    return found
    pairs = [
        (u, v, everything - g.adj[u] - g.adj[v])
        for u, v in itertools.combinations(range(n), 2)
    ]
    for u, v, red in pairs:
        rest = everything - red
        if not red or not rest:
            continue
        sides = two_sides(rest)
        if sides is None:
            continue
        a, b = sides
        if all(g.adj[w] & rest == b for w in a):
            found = witness((red, a, b), "case22", (u, v))
            if found is not None:
                return found
    for u, v, red in pairs:
        for x, y, blue in pairs:
            if not red or not blue or red & blue:
                continue
            green = everything - red - blue
            if green:
                found = witness((red, blue, green), "case21", (u, v, x, y))
                if found is not None:
                    return found
    return None

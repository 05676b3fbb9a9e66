"""Small simple-graph toolkit: immutable graphs held as adjacency
bitmasks, family generators, exact classical invariants, and a plain text
file format.

Vertices are always the dense range 0..n-1, and a :class:`Graph` keeps one
table, ``adj_bits``, with bit v of row u set when u and v are adjacent;
every routine of the package reads it, and the frozenset view ``adj`` is
built only when a set-based caller asks for it.  Every function here is
pure and every :class:`Graph` is immutable after construction, so values
are safe to share between threads (two threads may both compute an
invariant that is not stored yet; they store the same value).  The
exponential routines (exact chromatic number, subset enumerations) take
an explicit ``max_n`` cap so callers opt in to larger searches
deliberately.

Every breadth-first search over a vertex bitmask goes through
:func:`bfs_layers`: connectivity, components and bipartitions here, and the
induced-subgraph checks of the other modules.  Every least dominating-type
set (domination, total and connected domination) comes from one pruned
subset search, :func:`least_covering_set`.  The plain canonical-coloring
walk, :func:`canonical_walk`, serves the exact chromatic number past its
first-fit bound and every enumeration that needs no cut.  This module
imports no other module of the package.

Each invariant that a graph is asked for again and again is computed once
per :class:`Graph` and stored on it by :func:`graph_memo`: connectivity,
the chromatic number, the least dominating, total dominating and connected
dominating sets, the cut vertices of :func:`cut_vertices` and the
separation-pair table of :func:`separation_pairs`.  A stored value
lives exactly as long as its graph.  The memo is keyed by the invariant
alone: a deadline does not change a value, so a search that times out
stores nothing and a stored value is returned to every later call, timed
or not.  Size caps are checked before the lookup, on every call.
"""

from __future__ import annotations

import bisect
import itertools
import random
import time
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

# Default size caps for the exponential routines.  Callers may pass a larger
# max_n explicitly; the defaults keep accidental huge searches from hanging.
EXACT_CHROMATIC_CAP = 16
SUBSET_ENUM_CAP = 20


class SearchTimeout(RuntimeError):
    """Raised when an exact search exceeds its time budget."""


class GraphTooLarge(ValueError):
    """Raised when a graph has more vertices, ``n``, than a size cap allows."""

    def __init__(self, n: int, max_n: int) -> None:
        super().__init__(f"graph has {n} vertices, over the cap of {max_n}")
        self.n = n


def check_order(n: int, max_n: int) -> None:
    """Refuse an order ``n`` over the cap ``max_n``."""
    if n > max_n:
        raise GraphTooLarge(n, max_n)


def iter_bits(mask: int):
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bfs_layers(adj_bits: tuple[int, ...], mask: int, start: int | None = None):
    """Yield (depth, layer) pairs of a breadth-first search of the subgraph
    induced by the bitmask ``mask``.

    Components are searched one after another, each from its lowest vertex
    (the first from ``start`` when given, which must lie in ``mask``), so
    depth 0 marks the start of a new component.  ``layer`` is the bitmask
    of the component's vertices at that distance from its start.  Each
    layer is grown from the neighbourhoods of the one before, so every
    vertex is expanded once.
    """
    rest = mask
    layer = mask & -mask if start is None else 1 << start
    while layer:
        depth = 0
        while layer:
            yield depth, layer
            rest ^= layer
            reach = 0
            while layer:
                low = layer & -layer
                reach |= adj_bits[low.bit_length() - 1]
                layer ^= low
            layer = reach & rest
            depth += 1
        layer = rest & -rest


def mask_connected(adj_bits: tuple[int, ...], mask: int) -> bool:
    """True if the subgraph induced by the bitmask ``mask`` is connected.

    The empty mask is rejected; a single vertex counts as connected.
    """
    if mask == 0:
        raise ValueError("connectivity of the empty set is undefined")
    layers = bfs_layers(adj_bits, mask)
    next(layers)
    for depth, _ in layers:
        if not depth:  # a second component
            return False
    return True


def mask_bipartition(adj_bits: tuple[int, ...], mask: int) -> tuple[int, int] | None:
    """Proper 2-coloring of the subgraph induced by ``mask`` as two
    bitmasks, or None when it has an odd cycle.

    The lowest vertex of each component goes in the first part, and every
    other vertex goes by the parity of its distance from it.
    """
    sides = [0, 0]
    for depth, layer in bfs_layers(adj_bits, mask):
        sides[depth & 1] |= layer
    a, b = sides
    if mask_independent(adj_bits, a) and mask_independent(adj_bits, b):
        return a, b
    return None


def mask_independent(adj_bits: tuple[int, ...], mask: int) -> bool:
    """True if no two vertices of the bitmask ``mask`` are adjacent."""
    rest = mask
    while rest:
        low = rest & -rest
        if adj_bits[low.bit_length() - 1] & mask:
            return False
        rest ^= low
    return True


_MISSING = object()


def graph_memo(g: "Graph", key: str, compute=None):
    """The value stored on ``g`` under ``key``, or else ``compute()``,
    stored there once it returns.  With no ``compute``, the stored value
    or None.

    Values go in the graph's ``__dict__``, where
    :func:`functools.cached_property` keeps ``closed_bits``, so a value lives
    exactly as long as its graph.  A ``compute`` that raises stores
    nothing.  ``key`` names one invariant; it must not clash with an
    attribute of :class:`Graph`, and leaves out what does not change the
    value, such as a deadline.
    """
    store = g.__dict__
    value = store.get(key, _MISSING)
    if value is _MISSING:
        if compute is None:
            return None
        value = store[key] = compute()
    return value


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1, held as its adjacency
    bitmasks: bit v of ``adj_bits[u]`` is set when u and v are adjacent.

    Equality and hashing use ``n`` and ``adj_bits`` alone.  ``name`` and
    ``outer_cycle`` are annotations (generator provenance and, for maximal
    outerplanar graphs, the outer-cycle vertex order); they are excluded
    from equality and hashing.  ``adj``, the neighbourhoods as frozensets,
    is a view derived on demand for set-based callers.
    """

    n: int
    adj_bits: tuple[int, ...]
    name: str = field(default="", compare=False)
    outer_cycle: tuple[int, ...] | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        n = self.n
        if n < 1:
            raise ValueError("a graph needs at least one vertex")
        rows = self.adj_bits
        if len(rows) != n:
            raise ValueError("adjacency table length differs from vertex count")
        # under[v]: the neighbours of v below it, read from their rows, so
        # each unordered pair is looked at once
        under = [0] * n
        for u, bits in enumerate(rows):
            if bits < 0 or bits >> n:
                raise ValueError(f"a neighbor of vertex {u} is out of range")
            bit = 1 << u
            if bits & bit:
                raise ValueError(f"self-loop at vertex {u}")
            if bits & bit - 1 != under[u]:
                w = ((bits & bit - 1) ^ under[u]).bit_length() - 1
                raise ValueError(f"asymmetric adjacency between {u} and {w}")
            above = bits >> u + 1
            v = u
            while above:
                skip = (above & -above).bit_length()
                v += skip
                above >>= skip
                under[v] |= bit
        if self.outer_cycle is not None:
            if sorted(self.outer_cycle) != list(range(n)):
                raise ValueError("outer cycle must be a permutation of the vertices")

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges,
        name: str = "",
        outer_cycle=None,
    ) -> "Graph":
        bits = [0] * n
        one = [1 << v for v in range(n)]
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            bits[u] |= one[v]
            bits[v] |= one[u]
        return cls(
            n,
            tuple(bits),
            name=name,
            outer_cycle=tuple(outer_cycle) if outer_cycle is not None else None,
        )

    @cached_property
    def adj(self) -> tuple[frozenset[int], ...]:
        """Open neighborhoods as frozensets, derived from ``adj_bits``."""
        return tuple(frozenset(iter_bits(bits)) for bits in self.adj_bits)

    @cached_property
    def closed_bits(self) -> tuple[int, ...]:
        """Closed neighborhoods N[v] as bitmasks."""
        return tuple(bits | (1 << v) for v, bits in enumerate(self.adj_bits))

    @cached_property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """All edges as (u, v) pairs with u < v, sorted."""
        out = []
        for u, bits in enumerate(self.adj_bits):
            above = bits >> u + 1
            v = u
            while above:
                skip = (above & -above).bit_length()
                v += skip
                above >>= skip
                out.append((u, v))
        return tuple(out)

    @property
    def edge_count(self) -> int:
        return sum(bits.bit_count() for bits in self.adj_bits) >> 1

    def degree(self, v: int) -> int:
        return self.adj_bits[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj_bits[u] >> v & 1)


# ---------------------------------------------------------------------------
# Family generators
# ---------------------------------------------------------------------------


def make_path(n: int) -> Graph:
    """Path v0-v1-...-v(n-1); n >= 1."""
    if n < 1:
        raise ValueError("path needs at least one vertex")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)], name=f"P{n}")


def make_cycle(n: int) -> Graph:
    """Cycle on n >= 3 vertices in index order."""
    if n < 3:
        raise ValueError("cycle needs at least three vertices")
    edges = [(i, (i + 1) % n) for i in range(n)]
    return Graph.from_edges(n, edges, name=f"C{n}")


def make_complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs at least one vertex")
    return Graph.from_edges(n, itertools.combinations(range(n), 2), name=f"K{n}")


def make_complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b} with part A = 0..a-1 and part B = a..a+b-1."""
    if a < 1 or b < 1:
        raise ValueError("both sides of a complete bipartite graph must be nonempty")
    edges = [(i, a + j) for i in range(a) for j in range(b)]
    return Graph.from_edges(a + b, edges, name=f"K{a},{b}")


def make_star(m: int) -> Graph:
    """Star K_{1,m}: center 0 with m >= 1 leaves."""
    if m < 1:
        raise ValueError("star needs at least one leaf")
    return Graph.from_edges(m + 1, [(0, i) for i in range(1, m + 1)], name=f"K1,{m}")


def make_empty(n: int) -> Graph:
    """Edgeless graph on n vertices."""
    if n < 1:
        raise ValueError("a graph needs at least one vertex")
    return Graph.from_edges(n, [], name=f"E{n}")


def make_double_broom(a: int, b: int) -> Graph:
    """Two stars with a and b leaves, one leaf of each joined by an edge.

    Layout: center 0 with leaves 1..a (leaf 1 is the joined one), center a+1
    with leaves a+2..a+b+1 (leaf a+2 is the joined one).  For a, b >= 2 the
    result is a caterpillar of diameter 5; a = 1 or b = 1 degenerates to a
    path or a broom, which this generator allows.
    """
    if a < 1 or b < 1:
        raise ValueError("each star needs at least one leaf")
    s, s2 = 0, a + 1
    edges = [(s, i) for i in range(1, a + 1)]
    edges += [(s2, i) for i in range(a + 2, a + b + 2)]
    edges.append((1, a + 2))
    return Graph.from_edges(a + b + 2, edges, name=f"double_broom({a},{b})")


def make_split_graph(m: int) -> Graph:
    """Clique 0..m-1 plus independent set m..2m-1, with independent vertex
    m+i adjacent to every clique vertex except i."""
    if m < 2:
        raise ValueError("split graph needs m >= 2")
    edges = list(itertools.combinations(range(m), 2))
    edges += [(j, m + i) for i in range(m) for j in range(m) if j != i]
    return Graph.from_edges(2 * m, edges, name=f"S{m}")


def make_fan(n: int) -> Graph:
    """Path on vertices 0..n-1 joined to a universal hub vertex n."""
    if n < 1:
        raise ValueError("fan needs a nonempty path")
    edges = [(i, i + 1) for i in range(n - 1)] + [(i, n) for i in range(n)]
    return Graph.from_edges(n + 1, edges, name=f"fan({n})")


def join_dominator(g: Graph) -> Graph:
    """Add one new vertex adjacent to every existing vertex."""
    rows = tuple(bits | 1 << g.n for bits in g.adj_bits) + (g.full_mask,)
    return Graph(g.n + 1, rows, name=f"{g.name or 'G'}+dominator")


def make_random_graph(n: int, p: float, seed: int, name: str = "") -> Graph:
    """Erdos-Renyi G(n, p), deterministic for a fixed seed."""
    if n < 1:
        raise ValueError("a graph needs at least one vertex")
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges, name=name or f"G({n},{p};{seed})")


def make_random_tree(n: int, seed: int) -> Graph:
    """Uniform random labeled tree on n >= 1 vertices (Pruefer decoding)."""
    if n < 1:
        raise ValueError("tree needs at least one vertex")
    if n == 1:
        return Graph.from_edges(1, [], name=f"T({n};{seed})")
    rng = random.Random(seed)
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    leaves = sorted(v for v in range(n) if degree[v] == 1)
    for v in seq:
        leaf = leaves.pop(0)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            bisect.insort(leaves, v)
    edges.append((leaves[0], leaves[1]))
    return Graph.from_edges(n, edges, name=f"T({n};{seed})")


def make_random_mop(n: int, seed: int) -> Graph:
    """Random maximal outerplanar graph on n >= 3 vertices.

    Ear insertion: start from the triangle 0,1,2 and insert each vertex i
    between a uniformly chosen adjacent pair on the current outer cycle.  The
    final outer-cycle order is recorded on the graph.  2n-3 edges always.
    """
    if n < 3:
        raise ValueError("maximal outerplanar graph needs at least three vertices")
    rng = random.Random(seed)
    edges = [(0, 1), (1, 2), (0, 2)]
    cycle = [0, 1, 2]
    for v in range(3, n):
        pos = rng.randrange(len(cycle))
        a, b = cycle[pos], cycle[(pos + 1) % len(cycle)]
        edges += [(a, v), (b, v)]
        cycle.insert(pos + 1, v)
    return Graph.from_edges(n, edges, name=f"MOP({n};{seed})", outer_cycle=cycle)


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """Disjoint union, with h's vertices shifted up by g.n."""
    rows = g.adj_bits + tuple(bits << g.n for bits in h.adj_bits)
    return Graph(g.n + h.n, rows, name=f"{g.name or 'G'}|{h.name or 'H'}")


# ---------------------------------------------------------------------------
# Maximal outerplanar recognition
# ---------------------------------------------------------------------------


def _mop_reduction(g: Graph):
    """Reduce g to a triangle by repeatedly removing a degree-2 vertex whose
    neighbors are adjacent (lowest index first), then certify the result by
    rebuilding the outer cycle: each removed ear must reinsert between a
    consecutive pair of the partial cycle.  The rebuild step is what
    rejects the non-outerplanar graphs (some 2-trees) that ear removal
    alone would accept.

    Returns (removals, triangle, cycle), where removals is the list of
    (v, x, y) steps taken and cycle the outer cycle, or None when g is not
    maximal outerplanar.
    """
    n = g.n
    if n < 3 or g.edge_count != 2 * n - 3:
        return None
    nbrs = list(g.adj_bits)
    alive = [True] * n
    removals: list[tuple[int, int, int]] = []
    remaining = n
    while remaining > 3:
        pick = None
        for v in range(n):
            if alive[v] and nbrs[v].bit_count() == 2:
                low = nbrs[v] & -nbrs[v]
                x, y = low.bit_length() - 1, (nbrs[v] ^ low).bit_length() - 1
                if nbrs[x] >> y & 1:
                    pick = (v, x, y)
                    break
        if pick is None:
            return None
        v, x, y = pick
        nbrs[x] &= ~(1 << v)
        nbrs[y] &= ~(1 << v)
        nbrs[v] = 0
        alive[v] = False
        removals.append((v, x, y))
        remaining -= 1
    # each removal took a vertex and its two edges, so the three left keep
    # 2n - 3 - 2(n - 3) = 3 edges among themselves: a triangle
    triangle = [v for v in range(n) if alive[v]]
    cycle = list(triangle)
    for v, x, y in reversed(removals):
        i = cycle.index(x)
        j = cycle.index(y)
        size = len(cycle)
        if (i + 1) % size == j:
            cycle.insert(i + 1, v)
        elif (j + 1) % size == i:
            cycle.insert(j + 1, v)
        else:
            return None
    return removals, triangle, tuple(cycle)


def is_mop(g: Graph) -> tuple[bool, tuple[int, ...] | None]:
    """Recognize maximal outerplanar graphs and recover the outer cycle,
    by the certified ear reduction of :func:`_mop_reduction`."""
    reduction = _mop_reduction(g)
    return (False, None) if reduction is None else (True, reduction[2])


def mop_three_coloring(g: Graph) -> tuple[int, ...]:
    """A proper 3-coloring of a maximal outerplanar graph.

    Colors the reduction's final triangle 0,1,2 and replays the removed ears
    in reverse, giving each the color its two attachment vertices miss.
    """
    reduction = _mop_reduction(g)
    if reduction is None:
        raise ValueError("not a maximal outerplanar graph")
    removals, triangle, _ = reduction
    colors = [-1] * g.n
    for c, v in enumerate(triangle):
        colors[v] = c
    for v, x, y in reversed(removals):
        colors[v] = 3 - colors[x] - colors[y]
    return tuple(colors)


# ---------------------------------------------------------------------------
# Classical invariants
# ---------------------------------------------------------------------------


def components(g: Graph) -> list[frozenset[int]]:
    """Connected components, ordered by their smallest vertex."""
    masks: list[int] = []
    for depth, layer in bfs_layers(g.adj_bits, g.full_mask):
        if not depth:
            masks.append(0)
        masks[-1] |= layer
    return [frozenset(iter_bits(m)) for m in masks]


def is_connected(g: Graph) -> bool:
    return graph_memo(
        g, "_connected", lambda: mask_connected(g.adj_bits, g.full_mask)
    )


def cut_vertices(g: Graph) -> int:
    """The bitmask with bit x set, for x in 0..n-1, when G - x has two
    components or more, and bit n set when G itself has.  On a connected
    graph the bits below n are the cut vertices.

    One low-link depth-first search per component (Hopcroft and Tarjan,
    1973), O(n + m), stored on ``g``.
    """
    return graph_memo(g, "_cut_vertices", lambda: _cut_mask(g, g.full_mask))


def separation_pairs(g: Graph, deadline: float | None = None, *, build: bool = True):
    """The separation-pair table of ``g``, stored on ``g``: the tuple
    ``partners``.  With ``build`` false, the stored table, or None when
    none is stored yet.

    A separating pair here is a pair {x, y} such that G - x and G - y are
    connected and G - {x, y} is not: on a connected graph, two vertices
    that are not cut vertices and together split it (a separation pair of
    Hopcroft and Tarjan, 1973, in a 2-connected block).  ``partners[x]`` is
    the bitmask of the vertices that form one with x.  A tree has none, as
    its blocks are edges, and so has a disconnected graph, where G - x is
    connected only when x is an isolated vertex and G has two components.

    The table takes O(n) space and one low-link search (:func:`cut_vertices`)
    of G - x for each x with G - x connected, O(n(n + m)) time.  With a
    ``deadline`` (a ``time.monotonic()`` value) the build raises
    SearchTimeout once it is passed, checked about every 1024 vertex
    visits, as the searches check theirs: each row counts n, so a small
    table is built whole and a large one stops within a row.
    """
    if not build:
        return graph_memo(g, "_separation_pairs")
    return graph_memo(g, "_separation_pairs", lambda: _separation_pairs(g, deadline))


def _separation_pairs(g: Graph, deadline: float | None):
    n = g.n
    whole = g.full_mask & ~cut_vertices(g)  # G - x is connected
    partners = [0] * n
    visits = 0  # since the last deadline check; each row visits n vertices
    for x in iter_bits(whole):
        visits += n
        if visits > 0x3FF and deadline is not None:
            visits = 0
            if time.monotonic() > deadline:
                raise SearchTimeout("the deadline passed building the separation pairs")
        partners[x] = whole & _cut_mask(g, g.full_mask & ~(1 << x))
    return tuple(partners)


def _cut_mask(g: Graph, mask: int) -> int:
    """:func:`cut_vertices` of the subgraph induced by the bitmask
    ``mask``, in the vertices of ``g``: bit n stands for removing no
    vertex, and no vertex outside ``mask`` is set."""
    n = g.n
    adj = g.adj_bits
    order = [-1] * n  # discovery index
    # low[v]: the least discovery index that the subtree of v reaches by
    # one edge
    low = [0] * n
    todo = [0] * n  # the neighbours of each vertex not yet scanned
    cuts = lone = comps = count = 0
    for r in iter_bits(mask):
        if order[r] >= 0:
            continue
        comps += 1
        order[r] = low[r] = count
        count += 1
        todo[r] = adj[r] & mask
        if not todo[r]:
            lone |= 1 << r
            continue
        children = 0  # of the root r
        stack = [r]
        while stack:
            v = stack[-1]
            rest = todo[v]
            if rest:
                bit = rest & -rest
                todo[v] = rest ^ bit
                w = bit.bit_length() - 1
                if order[w] < 0:
                    order[w] = low[w] = count
                    count += 1
                    todo[w] = adj[w] & mask
                    stack.append(w)
                elif order[w] < low[v]:  # the tree edge to v's parent too
                    low[v] = order[w]
                continue
            stack.pop()
            if not stack:
                break
            p = stack[-1]
            if low[v] < low[p]:
                low[p] = low[v]
            if p == r:
                children += 1
            elif low[v] >= order[p]:  # no edge leaves v's subtree above p
                cuts |= 1 << p
        if children > 1:
            cuts |= 1 << r
    # With three components or more, every G - x keeps two; with two, so
    # does every G - x but the isolated vertices'
    if comps > 2:
        cuts = mask
    elif comps == 2:
        cuts |= mask & ~lone
    return cuts | (comps > 1) << n


def eccentricities(g: Graph) -> list[int]:
    if not is_connected(g):
        raise ValueError("eccentricities require a connected graph")
    return [
        max(depth for depth, _ in bfs_layers(g.adj_bits, g.full_mask, v))
        for v in range(g.n)
    ]


def diameter(g: Graph) -> int:
    """Largest vertex eccentricity; connected input required."""
    return max(eccentricities(g))


def radius(g: Graph) -> int:
    """Smallest vertex eccentricity; connected input required."""
    return min(eccentricities(g))


def is_bipartite(g: Graph) -> tuple[bool, tuple[frozenset[int], frozenset[int]] | None]:
    """Two-colorability test; on success also returns the bipartition.

    Each component puts its lowest vertex in the first part, so the
    returned parts are deterministic.
    """
    sides = mask_bipartition(g.adj_bits, g.full_mask)
    if sides is None:
        return False, None
    return True, (frozenset(iter_bits(sides[0])), frozenset(iter_bits(sides[1])))


def is_tree(g: Graph) -> bool:
    return g.edge_count == g.n - 1 and is_connected(g)


def is_complete(g: Graph) -> bool:
    return g.edge_count == g.n * (g.n - 1) // 2


def is_complete_bipartite(g: Graph) -> bool:
    """True for K_{a,b} with both sides nonempty (hence connected)."""
    ok, parts = is_bipartite(g)
    if not ok:
        return False
    a, b = parts
    return len(a) >= 1 and len(b) >= 1 and g.edge_count == len(a) * len(b)


def _greedy_clique(g: Graph, order) -> list[int]:
    """Greedy clique, taking vertices in ``order``; a chromatic lower bound."""
    clique: list[int] = []
    cand = g.full_mask
    for v in order:
        if cand >> v & 1:
            clique.append(v)
            cand &= g.adj_bits[v]
    return clique


def chromatic_number(
    g: Graph, max_n: int = EXACT_CHROMATIC_CAP, *, deadline: float | None = None
) -> int:
    """Exact chromatic number: a first-fit bound, then the canonical walk
    in degree order.

    A greedy clique, taken in degree order, is the lower bound, and a
    first-fit coloring, the clique first and then the rest in degree
    order, the upper one; when the two meet that is the answer.  Otherwise
    the answer is the least k from the clique's size up at which
    :func:`canonical_walk` yields a coloring with exactly k colors of the
    adjacency bitmasks of ``g`` relabelled in that order, or the
    first-fit count when no k below it does.  The canonical rule gives the
    clique's vertices, which come first, colors 0 to its size - 1.  The
    walk is a loop, not a recursion, so any order fits under ``max_n``.

    With a ``deadline`` (a ``time.monotonic()`` value) the search raises
    SearchTimeout once it is passed, checked every 1024 search steps of
    each k.  The value is stored on ``g`` (:func:`graph_memo`).
    """
    check_order(g.n, max_n)
    return graph_memo(g, "_chromatic_number", lambda: _chromatic_search(g, deadline))


def _chromatic_search(g: Graph, deadline: float | None) -> int:
    # largest degree first, for the clique and then the rest
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    clique = _greedy_clique(g, order)
    in_clique = set(clique)
    order = clique + [v for v in order if v not in in_clique]
    masks: list[int] = []  # the first-fit classes
    for v in order:
        nb = g.adj_bits[v]
        for c, m in enumerate(masks):
            if not m & nb:
                masks[c] = m | 1 << v
                break
        else:
            masks.append(1 << v)
    if len(masks) == len(clique):
        return len(clique)
    # the adjacency bitmasks relabelled in that order: order[i] becomes i
    new_bit = [1 << i for i in sorted(range(g.n), key=order.__getitem__)]
    adj = tuple(sum(new_bit[u] for u in iter_bits(g.adj_bits[v])) for v in order)
    try:
        for k in range(len(clique), len(masks)):
            if next(canonical_walk(adj, k, deadline), None) is not None:
                return k
    except SearchTimeout:
        raise SearchTimeout(
            "the deadline passed in the chromatic number search"
        ) from None
    return len(masks)


def canonical_walk(adj_bits: tuple[int, ...], k: int, deadline: float | None = None):
    """Yield every canonical proper coloring with exactly k colors of the
    graph whose adjacency bitmasks are ``adj_bits``, as the
    restricted-growth strings in lexicographic order; nothing when k is
    not in 1..n.

    Canonical means a vertex may take color c only when c is at most one
    more than the largest color used on earlier vertices, which picks one
    representative per color permutation.  Yields (colors, class_masks) as
    live lists; consumers must copy anything they keep.  The last two
    vertices are coloured in place: under each color of vertex n - 2, one
    leaf for each color the last vertex can take: any class it has no
    neighbour in once all k colors are open, else the one still to open.

    With a ``deadline`` (a ``time.monotonic()`` value) the walk raises
    SearchTimeout once it is passed, checked every 1024 vertex visits.
    """
    n = len(adj_bits)
    if k < 1 or k > n:
        return
    if n == 1:  # then k == 1
        yield [0], [1]
        return
    pen = n - 2
    last = n - 1
    last_nb, last_bit = adj_bits[last], 1 << last
    colors = [0] * n
    masks = [0] * k
    # used_at[v]: the colors open on reaching vertex v
    used_at = [0] * n
    steps = 0
    v = 0
    c = 0  # the next color to try at v
    while True:
        used = used_at[v]
        if k - used <= n - v:
            if deadline is not None:
                steps += 1
                if not steps & 0x3FF and time.monotonic() > deadline:
                    raise SearchTimeout(f"the deadline passed at {k} colors")
            nb = adj_bits[v]
            top = used if used < k else k - 1
            if v == pen:
                bit = 1 << v
                for c in range(top + 1):
                    if masks[c] & nb:
                        continue
                    colors[v] = c
                    masks[c] |= bit
                    now = used + 1 if c == used else used
                    if now == k:
                        for d in range(k):
                            if not masks[d] & last_nb:
                                colors[last] = d
                                masks[d] |= last_bit
                                yield colors, masks
                                masks[d] ^= last_bit
                    elif now == k - 1:
                        colors[last] = now
                        masks[now] = last_bit
                        yield colors, masks
                        masks[now] = 0
                    masks[c] ^= bit
            else:
                while c <= top and masks[c] & nb:
                    c += 1
                if c <= top:
                    colors[v] = c
                    masks[c] |= 1 << v
                    v += 1
                    used_at[v] = used + 1 if c == used else used
                    c = 0
                    continue
        if not v:
            return
        v -= 1
        c = colors[v]
        masks[c] &= ~(1 << v)
        c += 1


def least_covering_set(
    cover: tuple[int, ...],
    adj_bits: tuple[int, ...] | None = None,
    *,
    must: int = 0,
    deadline: float | None = None,
) -> tuple[int, ...] | None:
    """First vertex subset in size-then-lex order whose ``cover`` bitmasks
    together hold every vertex and that holds every vertex of the bitmask
    ``must``, or None when no subset does.

    With ``adj_bits`` the subset must also induce a connected subgraph, and
    each ``cover[v]`` must hold v and its neighbours in ``adj_bits``; the
    closed neighbourhoods give connected domination, and its ``must`` are
    the cut vertices, which every connected dominating set holds.

    Each size is searched depth-first with the picks in ascending order, so
    the first hit is the subset ``itertools.combinations`` meets first.
    Each vertex of ``must`` also covers a marker of its own, an element
    beyond the n vertices, so a subset covers every marker exactly when it
    holds ``must``; sizes below the number of markers are skipped.  Three
    cuts drop only branches that hold no qualifying subset:

    - stranded element: an uncovered vertex or marker that no candidate
      from the next pick on covers can never be covered; for a marker,
      that is a candidate passing over an unpicked ``must`` vertex, as the
      picks ascend;
    - count bound: the uncovered elements cannot outnumber the picks left
      times the largest cover among the candidates left, which at the root
      rules out every size below n over the largest cover;
    - connected sets: each of the s - 1 edges of a spanning tree of the
      subset puts both its ends in both their covers, so s vertices with
      covers of at most M elements cover at most s(M - 2) + 2 vertices;
      smaller sizes are skipped (a marker in the largest cover only
      weakens this).

    Both of the first two only get stronger as the candidate index grows,
    so when one fails every later candidate at that depth fails too.  An
    empty ``must`` adds no marker and no test.

    With a ``deadline`` (a ``time.monotonic()`` value) the search raises
    SearchTimeout once it is passed, checked every 1024 search steps.
    """
    n = len(cover)
    marks = must.bit_count()
    if marks:
        cover = list(cover)
        for j, u in enumerate(iter_bits(must)):
            cover[u] |= 1 << (n + j)
    full = (1 << (n + marks)) - 1
    # dead[v]: the elements that no candidate at index v or later covers;
    # most[v]: the largest cover among those candidates
    dead = [full] * (n + 1)
    most = [0] * (n + 1)
    later = 0
    for v in range(n - 1, -1, -1):
        later |= cover[v]
        dead[v] = full & ~later
        most[v] = max(most[v + 1], cover[v].bit_count())
    top = most[0]
    steps = 0
    for size in range(max(marks, 1), n + 1):
        if adj_bits is not None and size * (top - 2) + 2 < n:
            continue
        picks = [0] * size
        # uncovered[i]: the elements the first i picks leave uncovered
        uncovered = [full] * (size + 1)
        i = 0
        v = 0  # the next candidate for pick i
        while True:
            rest = uncovered[i]
            left = size - i
            if (
                v <= n - left
                and not rest & dead[v]
                and rest.bit_count() <= left * most[v]
            ):
                if deadline is not None:
                    steps += 1
                    if not steps & 0x3FF and time.monotonic() > deadline:
                        raise SearchTimeout(
                            f"the deadline passed in the subset search at size {size}"
                        )
                picks[i] = v
                rest &= ~cover[v]
                v += 1
                if left > 1:
                    i += 1
                    uncovered[i] = rest
                    continue
                if not rest and (
                    adj_bits is None
                    or mask_connected(adj_bits, sum(1 << p for p in picks))
                ):
                    return tuple(picks)
                continue
            if not i:
                break
            i -= 1
            v = picks[i] + 1
    return None


def connected_domination_number(
    g: Graph, max_n: int = SUBSET_ENUM_CAP, *, deadline: float | None = None
) -> int:
    """Minimum size of a connected dominating set; connected input required."""
    return len(minimum_connected_dominating_set(g, max_n=max_n, deadline=deadline))


def minimum_connected_dominating_set(
    g: Graph, max_n: int = SUBSET_ENUM_CAP, *, deadline: float | None = None
) -> tuple[int, ...]:
    """First minimum connected dominating set in size-then-lex order,
    stored on ``g`` (:func:`graph_memo`).

    Every cut vertex x is in every connected dominating set D: a connected
    D that avoids x lies in one component of G - x, and the vertices of
    another component have no neighbour in D.  So the cut vertices of
    :func:`cut_vertices` are the must-pick set of the search.
    """
    check_order(g.n, max_n)
    if not is_connected(g):
        raise ValueError("connected domination requires a connected graph")
    return graph_memo(
        g,
        "_least_cdom",
        lambda: least_covering_set(
            g.closed_bits, g.adj_bits, must=cut_vertices(g), deadline=deadline
        ),
    )


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------
#
# Line 1: "n m".  Then m lines "u v" with 0 <= u < v < n.  Lines starting
# with '#' are comments.  An optional final line "outer: v0 v1 ... v(n-1)"
# records a maximal outerplanar graph's outer-cycle order.


def format_graph(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count}"]
    lines += [f"{u} {v}" for u, v in g.edges]
    if g.outer_cycle is not None:
        lines.append("outer: " + " ".join(str(v) for v in g.outer_cycle))
    return "\n".join(lines) + "\n"


def parse_graph(text: str, name: str = "", max_n: int | None = None) -> Graph:
    """Read the ``n m`` header, m ``u v`` edge lines and an optional
    ``outer:`` line.  With ``max_n`` an order over the cap is refused from
    the header, before any edge line is parsed or the graph is built."""
    data_lines = []
    outer_line = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("outer:"):
            if outer_line is not None:
                raise ValueError("duplicate outer-cycle line")
            outer_line = line
            continue
        data_lines.append(line)
    if not data_lines:
        raise ValueError("empty graph file")
    header = data_lines[0].split()
    if len(header) != 2:
        raise ValueError(f"bad header line {data_lines[0]!r}, expected 'n m'")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError as exc:
        raise ValueError(f"bad header line {data_lines[0]!r}") from exc
    if n < 1:
        raise ValueError("graph must have at least one vertex")
    if max_n is not None:
        check_order(n, max_n)
    if len(data_lines) - 1 != m:
        raise ValueError(f"expected {m} edge lines, found {len(data_lines) - 1}")
    edges = []
    seen = set()
    for line in data_lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ValueError(f"bad edge line {line!r}") from exc
        if not (0 <= u < v < n):
            raise ValueError(f"edge ({u}, {v}) violates 0 <= u < v < n={n}")
        if (u, v) in seen:
            raise ValueError(f"duplicate edge ({u}, {v})")
        seen.add((u, v))
        edges.append((u, v))
    outer = None
    if outer_line is not None:
        try:
            outer = tuple(int(t) for t in outer_line[len("outer:"):].split())
        except ValueError as exc:
            raise ValueError("bad outer-cycle line") from exc
        if sorted(outer) != list(range(n)):
            raise ValueError("outer cycle is not a permutation of the vertices")
    return Graph.from_edges(n, edges, name=name, outer_cycle=outer)


def load_graph(path, max_n: int | None = None) -> Graph:
    p = Path(path)
    return parse_graph(p.read_text(), name=p.name, max_n=max_n)


def save_graph(g: Graph, path) -> None:
    Path(path).write_text(format_graph(g))

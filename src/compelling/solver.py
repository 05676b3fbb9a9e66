"""Compellingness checking and the exact compelling chromatic number.

A rainbow committee of a proper coloring is a vertex set with exactly one
vertex of each color.  A coloring compels a subset property when every
rainbow committee satisfies it; the compelling chromatic number of a graph
is the minimum number of colors over all compelling proper colorings, or
infeasible when none exists at any number of colors.  A counterexample is
always the least violating committee in class-index-then-vertex order.

Each property has one verdict kernel, shared by the checker, the search,
the total dominator tester and the suites (:func:`is_compelling`):

* DOM, TDOM, ISOLATE_FREE: the per-vertex test, :func:`_uncovered_committee`;
* EDGE, CONNECTED: the pruned committee walk, :func:`_committee_pick`;
* CDOM: the lesser of the CONNECTED and DOM committees;
* yes or no for any set of properties: the scanner, :func:`_failed_props`.

:func:`compelling_chromatic_number` runs the cut search
:func:`_iter_canonical` at each color count, on the property that
:func:`_search_property` picks.  Each cut drops only subtrees with no
compelling leaf, as the docstring of :func:`_iter_canonical` argues:

* per-vertex (DOM, TDOM, ISOLATE_FREE, CONNECTED): :func:`_search_cover`;
* count (the same properties): :func:`_outnumbered`;
* doomed (CONNECTED): :func:`graphs.cut_vertices` and :func:`_doomed_by`;
* committee, once all k colors are open (EDGE, CONNECTED), and early
  (CONNECTED): :func:`_committee_pick`.

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
    _ALL_BITS,
    _BIT,
    SubsetProperty,
    eval_property_mask,
    min_property_size,
    property_bits,
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
        return tuple(tuple(iter_bits(m)) for m in self.class_masks)

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
    return not _failed_props(g, coloring.class_masks, _BIT[prop])


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


def _failed_props(g: Graph, class_masks, want: int, memo=None) -> int:
    """Which of the properties ``want`` some rainbow committee of the
    classes ``class_masks`` fails, both as :func:`properties.property_bits`
    bits: 0 means the coloring compels every property in ``want``.

    The scan walks the committees in class-index-then-vertex order, builds
    each one's vertex set as the sum of one vertex bit per class, judges it
    in one pass of :func:`properties.property_bits`, and stops once every
    property in ``want`` has failed.  With no ``memo`` the pass judges
    ``want`` only, so the connectivity BFS runs only for CONNECTED or CDOM.

    ``memo``, a dict shared by any scans of one graph, maps each vertex set
    already judged to the bits of all six properties it fails; a set met
    again is not judged again, whichever properties the scan wants.
    """
    ask = _ALL_BITS if memo is not None else want
    failed = 0
    # the pools as a list: unpacking a map builds an oversized tuple and
    # shrinks it, which leaves one tuple per call on CPython's free list
    pools = [_vertex_bits(m) for m in class_masks]
    for mask in map(sum, itertools.product(*pools)):
        bits = None if memo is None else memo.get(mask)
        if bits is None:
            bits = _ALL_BITS ^ property_bits(g, mask, ask)
            if memo is not None:
                memo[mask] = bits
        failed |= bits & want
        if failed == want:
            break
    return failed


@cache
def _vertex_bits(mask: int) -> tuple[int, ...]:
    """The one-vertex bitmasks of ``mask``, ascending."""
    return tuple(1 << v for v in iter_bits(mask))


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
    completions all qualify, or for EDGE all hold an edge.  A set fails
    CDOM exactly when it fails CONNECTED or DOM, so CDOM takes the lesser
    of the CONNECTED and DOM committees.

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
    CDOM through :func:`_search_property`.  The search takes every cut that
    ``prop`` has on g.  The per-vertex cut, with the table of
    :func:`_search_cover`, tests each color c tried for a vertex v.  For a
    c that passes it, one chain of rules runs, and the first to fire cuts:
    for CONNECTED the doomed cut; then one committee walk, the committee
    cut once all k colors are open (EDGE and CONNECTED), or else the early
    committee cut (CONNECTED).  A cut sends the search back to v for its
    next color.

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

    The doomed cut (CONNECTED) marks the vertices that no compelling
    completion puts in a class of two or more vertices.  ``doomed`` holds
    the cut vertices of :func:`graphs.cut_vertices`, with bit n on a
    disconnected graph, where bit n of ``multi``, the placed vertices in
    classes of two or more, stands for the graph itself.  Once the
    separation-pair table of :func:`graphs.separation_pairs` is read, it
    also holds the partners of every vertex of ``multi``, except that the
    two vertices of a two-vertex class do not doom each other
    (:func:`_doomed_by`).  Take a completion, with its k colors, and a
    doomed vertex x in a class of two or more.  Let S be {x} for a cut
    vertex, empty for bit n, and {x, y} for a partner of y in ``multi``.
    Then G - S is disconnected and every class keeps a vertex outside S:
    x's class holds another vertex, and when x and y share a class it is
    not the whole of it.  So the vertices outside S carry all k colors.
    If a component of G - S holds two colors, a vertex of another
    component differs in color from one of them; else each component has
    one color, and two components differ.  Either way the committee
    through two vertices of different colors in different components that
    avoids S is disconnected.  Every completion has k colors, so ``k > 1``
    is the whole gate; it spares one color on an edgeless graph, whose
    committees are single vertices.  The cut fires when k > 1 and a vertex
    of ``multi`` is doomed, or when every vertex after v is doomed and
    they outnumber the k - now_used classes still to be opened.  In a
    completion each new class is opened by one vertex after v, so some
    vertex u after v opens none and ends in a class of two or more; if u
    is doomed as the partner of a placed y, y's class already has two
    placed vertices, so u and y are not a two-vertex class.  The doomed
    vertices grow along the path as classes grow.  The table costs up to n
    low-link searches, so it is read when it is stored on g already, and
    else built only once n committee searches in a row before all k
    colors are open have cut, and only when G has as many edges as
    vertices; then the doomed vertices are recomputed along the current
    path.  It holds only the pairs of vertices that are not cut vertices;
    trees, the connected graphs with fewer edges, and disconnected graphs
    have none.  On a cycle every two vertices that are not adjacent form
    such a pair.

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
    at most one placed vertex has joined an open class: P + U is then G
    less one vertex, disconnected only at a cut vertex, which the doomed
    cut covers.

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
    # the cuts of CONNECTED alone: the doomed cut; the committee cut
    # before all k colors are open, and its table, built when it first
    # runs; the separation-pair table, stored on g or built once
    # ``streak``, the early committee searches that cut in a row, reaches n
    connected = prop is _CONNECTED
    unplaced = None
    partners = separation_pairs(g, build=False) if connected else None
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
    # inside[c] of v's class c before v joined it.  For CONNECTED,
    # multi_at[v] holds the vertices in classes of two or more vertices,
    # and bit n, which needs no class; doomed_at[v] holds the vertices that
    # no compelling completion puts in such a class: the cut vertices (and
    # bit n on a disconnected graph), and once the separation-pair table
    # is read, the partners of the vertices of multi_at[v].
    used_at = [0] * (n + 1)
    loose_at = [full] * (n + 1)
    held_at = [0] * n
    multi_at = [1 << n] * (n + 1)
    doomed_at = [cut_vertices(g) if connected else 0] * (n + 1)
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
                    cut = False
                    if connected:
                        multi = multi_at[v]
                        doomed = doomed_at[v]
                        if c < used:
                            multi |= masks[c] | 1 << v
                            if partners:
                                doomed |= _doomed_by(partners, masks[c], v)
                        # read only once v is placed
                        multi_at[v + 1] = multi
                        doomed_at[v + 1] = doomed
                        cut = k > 1 and (
                            multi & doomed
                            or (
                                n - v - 1 > k - now_used
                                and not (full & ~doomed) >> v + 1
                            )
                        )
                    if not cut and now_used == k:
                        part = masks.copy()
                        part[c] = 1 << v
                        cut = _committee_pick(g, part, prop, deadline) is not None
                    elif not cut and connected and c < used and 1 < used < v:
                        if unplaced is None:
                            unplaced = _unplaced_tables(g)
                        part = masks[:used]
                        part[c] |= 1 << v
                        cut = (
                            _committee_pick(g, part, prop, deadline, unplaced[v])
                            is not None
                        )
                        if partners is None:
                            streak = streak + 1 if cut else 0
                            if streak == n and g.edge_count >= n:
                                partners = separation_pairs(g, deadline)
                                # along the path; v was just cut, and its
                                # next color redoes its own step
                                for d in range(v):
                                    old = masks[colors[d]] & ((1 << d) - 1)
                                    doomed_at[d + 1] = doomed_at[d] | _doomed_by(
                                        partners, old, d
                                    )
                    if cut:  # come back to v for the next color
                        inside[c] = held
                        c += 1
                        continue
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


def _doomed_by(partners, old: int, v: int) -> int:
    """The vertices that v dooms in :func:`_iter_canonical` when it joins
    the class ``old`` (0 when v opens a class), with ``partners`` the table
    of :func:`graphs.separation_pairs`.  A class of two or more dooms the
    partners of its vertices, but the two vertices of a two-vertex class
    do not doom each other: when v joins {w}, neither v nor w is doomed by
    the other, and when v joins {w, x}, w and x are doomed if they are
    partners."""
    if not old:
        return 0
    w = (old & -old).bit_length() - 1
    rest = old ^ (1 << w)
    if not rest:
        return (partners[v] | partners[w]) & ~(old | 1 << v)
    if not rest & (rest - 1) and partners[w] & rest:
        return partners[v] | old
    return partners[v]


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
    CONNECTED is not cut there.
    """
    if prop is SubsetProperty.DOM:
        return g.closed_bits
    if prop is SubsetProperty.CONNECTED and g.n >= 2 and is_connected(g):
        return g.closed_bits
    if prop in (SubsetProperty.TDOM, SubsetProperty.ISOLATE_FREE):
        return g.adj_bits
    return None


def _search_property(g: Graph, prop: SubsetProperty) -> SubsetProperty:
    """The property whose compelling colorings of g the search looks for:
    CONNECTED for CDOM on a connected graph, ``prop`` otherwise.  There the
    two compel the same colorings: with n >= 2 a coloring compelling
    connectivity compels domination too (:func:`_search_cover`), and with
    n = 1 both have the witness (0,)."""
    return _CONNECTED if prop is _CDOM and is_connected(g) else prop


def compelling_chromatic_number(
    g: Graph,
    prop: SubsetProperty,
    max_n: int = EXACT_CHROMATIC_CAP,
    timeout_s: float | None = None,
) -> ChiResult:
    """Exact minimum number of colors in a proper coloring compelling
    ``prop``, with a witness coloring.

    Scans k upward from the lower bound over canonical colorings, so the
    first success is the minimum by definition.  The scan does not rely on
    monotonicity: for the upwards-closed properties the feasible k run
    from the value to n (splitting a class of two or more vertices into a
    singleton and the rest keeps a coloring compelling), but not for
    CONNECTED: on an edgeless graph of two or more vertices one color
    compels it and no other count does.  The witness is the first
    compelling coloring in canonical enumeration order.

    Each level k is the cut search :func:`_iter_canonical` on the property
    of :func:`_search_property`.  Every leaf that survives is compelling,
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
        prop = _search_property(g, prop)
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

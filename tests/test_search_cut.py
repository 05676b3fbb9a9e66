"""The cuts inside the searches.

``compelling_chromatic_number`` searches CDOM as CONNECTED, since on a
connected graph the two compel the same colorings.  The cut search takes
the property and picks its cuts: per-vertex neighbourhood tests, the
separator test and its two-vertex form, the separation-pair test
(CONNECTED), and the committee test (EDGE, CONNECTED), which asks the
committee search for a violating committee once all k colors are open,
and for CONNECTED also before, with each unplaced vertex as a class of
its own.  Those tests compare its leaves with the compelling leaves of
the uncut walk, and the search with a leaf-only reference: the uncut
enumeration from the lower bound up, with each completed coloring judged
by the set-level oracle.

``is_compelling`` takes the least DOM, TDOM and ISOLATE_FREE committees
from the per-vertex test, walks the committees for EDGE and CONNECTED,
cutting subtrees whose completions all qualify, or for EDGE all hold an
edge, and takes CDOM's as the lesser of CONNECTED's and DOM's.  It is
compared against the plain committee scan and the set-level oracle in all
six properties, and the walk also on the partial class masks the
committee cut passes, and for CONNECTED with the unplaced vertices as a
base.  The plain scan for several properties at once is compared against
one scan per property, and the connected domination search of the bounds
against plain subset enumeration.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compelling import (
    ChiResult,
    Coloring,
    Graph,
    SubsetProperty,
    chi_bounds,
    closed_forms,
    compelling_chromatic_number,
    disjoint_union,
    is_compelling,
    make_complete,
    make_cycle,
    make_empty,
    make_path,
    make_random_graph,
    make_random_mop,
    make_random_tree,
    minimum_connected_dominating_set,
)
from compelling import solver
from compelling.graphs import canonical_walk, separation_pairs
from compelling.properties import eval_property_mask
from compelling.solver import (
    _classes_from_masks,
    _committee_pick,
    _find_violating_committee,
    _iter_canonical,
    _search_cover,
    _unplaced_tables,
)
from compelling.verify import main_corpus
from oracles import brute_compelling, brute_min_witness, components, relabelled

P = SubsetProperty

CUT_SETTINGS = settings(max_examples=200, deadline=None)
COMMITTEE_PROPS = (P.EDGE, P.CONNECTED, P.CDOM)
WALK_PROPS = (P.EDGE, P.CONNECTED)  # the properties the committee walk takes
COVER_PROPS = (P.DOM, P.TDOM, P.ISOLATE_FREE)  # the per-vertex cut alone
# the properties the cut search takes; it runs CDOM as CONNECTED
SEARCH_PROPS = (P.DOM, P.TDOM, P.ISOLATE_FREE, P.EDGE, P.CONNECTED)


def leaf_only_chi(g: Graph, prop: SubsetProperty, keep=None) -> ChiResult:
    """The search without the cuts: every canonical coloring from the lower
    bound up, each judged at its leaf by the set-level oracle.  ``keep``,
    given (colors, masks), drops the leaves it rejects first, to test one
    cut's rule alone at the leaves."""
    bounds = chi_bounds(g, prop)
    if bounds is None:
        return ChiResult(None, None, None, None)
    lower, upper = bounds
    for k in range(lower, g.n + 1):
        for colors, masks in canonical_walk(g.adj_bits, k):
            if keep is not None and not keep(colors, masks):
                continue
            if brute_compelling(g, colors, prop):
                return ChiResult(k, Coloring(tuple(colors)), lower, upper)
    return ChiResult(None, None, lower, upper)


def every_vertex_holds_a_class(cover, masks) -> bool:
    return all(any(not m & ~cover[u] for m in masks) for u in range(len(cover)))


def separated(g: Graph, colors) -> bool:
    """Some x (or no vertex, on a disconnected graph) has a second vertex in
    its class and two components of G - x holding vertices of different
    colors: the coloring the separator cut drops, tested at its leaf."""
    for x in [None, *range(g.n)]:
        if x is not None and colors.count(colors[x]) < 2:
            continue
        without = set() if x is None else {x}
        seen = [{colors[u] for u in comp} for comp in components(g, without)]
        for s, t in itertools.combinations(seen, 2):
            if any(a != b for a in s for b in t):
                return True
    return False


@st.composite
def small_graphs(draw, max_n=8):
    """A graph on at most ``max_n`` vertices, drawn as G(n, p) over a range
    of densities or edge by edge; edgeless and disconnected graphs are
    included."""
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    density = draw(st.sampled_from((0.0, 0.15, 0.3, 0.5, 0.8)))
    seed = draw(st.integers(0, 2**20))
    if draw(st.booleans()):
        return make_random_graph(n, density, seed)
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [e for e, k in zip(pairs, keep) if k])


@st.composite
def connected_graphs(draw, min_n=1, max_n=8):
    """A connected graph on ``min_n`` to ``max_n`` vertices: a cycle, or a
    random tree with no edge added, up to two (which leaves many cut
    vertices) or up to all of them."""
    n = draw(st.integers(min_n, max_n))
    if n >= 3 and not draw(st.integers(0, 3)):
        return make_cycle(n)
    tree = make_random_tree(n, draw(st.integers(0, 2**20)))
    pairs = list(itertools.combinations(range(n), 2))
    most = draw(st.sampled_from((0, 2, len(pairs))))
    added = draw(st.lists(st.sampled_from(pairs), max_size=most)) if pairs else []
    return Graph.from_edges(n, set(tree.edges) | set(added))


@st.composite
def mop_graphs(draw, max_n=8):
    """A random maximal outerplanar graph on 3 to ``max_n`` vertices, whose
    chords are separating pairs."""
    return make_random_mop(draw(st.integers(3, max_n)), draw(st.integers(0, 2**20)))


@CUT_SETTINGS
@given(small_graphs(), st.sampled_from(list(P)))
def test_chi_matches_leaf_only_reference(g, prop):
    assert compelling_chromatic_number(g, prop) == leaf_only_chi(g, prop)


@CUT_SETTINGS
@given(connected_graphs(min_n=2))
def test_cdom_and_connected_agree_on_connected_graphs(g):
    # the same value, witness and bounds: CDOM is searched as CONNECTED,
    # and CONNECTED takes the bounds of CDOM
    cdom = compelling_chromatic_number(g, P.CDOM)
    assert cdom == compelling_chromatic_number(g, P.CONNECTED)
    assert cdom == leaf_only_chi(g, P.CDOM)


@CUT_SETTINGS
@given(connected_graphs(max_n=9))
def test_connected_domination_matches_size_lex_oracle(g):
    assert minimum_connected_dominating_set(g) == brute_min_witness(P.CDOM, g)


def test_chi_matches_leaf_only_reference_on_main_corpus():
    for g in main_corpus():
        for prop in P:
            assert compelling_chromatic_number(g, prop) == leaf_only_chi(g, prop), (
                g.name,
                prop,
            )


# ---------------------------------------------------------------------------
# The leaves of the cut search
# ---------------------------------------------------------------------------


@CUT_SETTINGS
@given(st.sampled_from((*SEARCH_PROPS, P.CDOM)), st.data())
def test_search_leaves_are_the_compelling_uncut_leaves(prop, data):
    # every cut of the search drops only colorings that do not compel, and
    # none lets one through.  CDOM, which has bounds on connected graphs
    # only, is searched as CONNECTED.
    shapes = (connected_graphs(), mop_graphs())
    if prop is not P.CDOM:
        shapes += (small_graphs(),)
    g = data.draw(st.one_of(*shapes))
    k = data.draw(st.integers(1, g.n))
    search = P.CONNECTED if prop is P.CDOM else prop
    cut = [(tuple(c), tuple(m)) for c, m in _iter_canonical(g, k, search)]
    kept = [
        (tuple(c), tuple(m))
        for c, m in canonical_walk(g.adj_bits, k)
        if brute_compelling(g, c, prop)
    ]
    assert cut == kept


@CUT_SETTINGS
@given(small_graphs(), st.sampled_from(COVER_PROPS), st.data())
def test_cut_leaves_are_filtered_uncut_leaves(g, prop, data):
    # DOM, TDOM and ISOLATE_FREE take the per-vertex cut alone: the leaves
    # are the uncut leaves in which every vertex holds a class of its table
    cover = _search_cover(g, prop)
    k = data.draw(st.integers(1, g.n))
    cut = [(tuple(c), tuple(m)) for c, m in _iter_canonical(g, k, prop)]
    kept = [
        (tuple(c), tuple(m))
        for c, m in canonical_walk(g.adj_bits, k)
        if every_vertex_holds_a_class(cover, m)
    ]
    assert cut == kept


@CUT_SETTINGS
@given(small_graphs(), st.booleans(), st.data())
def test_separator_cut_leaves_are_filtered_uncut_leaves(g, with_cover, data):
    # the separator test, and with_cover the per-vertex test of CONNECTED,
    # pass every compelling uncut leaf, and the CONNECTED search keeps just
    # the compelling ones of the leaves they pass
    k = data.draw(st.integers(1, g.n))
    cover = _search_cover(g, P.CONNECTED) if with_cover else None
    walk = [(tuple(c), tuple(m)) for c, m in canonical_walk(g.adj_bits, k)]
    passed = {
        (c, m)
        for c, m in walk
        if not separated(g, c)
        and (cover is None or every_vertex_holds_a_class(cover, m))
    }
    compelling = [leaf for leaf in walk if brute_compelling(g, leaf[0], P.CONNECTED)]
    assert passed.issuperset(compelling)
    cut = [(tuple(c), tuple(m)) for c, m in _iter_canonical(g, k, P.CONNECTED)]
    assert cut == [leaf for leaf in walk if leaf in passed and leaf in compelling]


@CUT_SETTINGS
@given(small_graphs(), st.sampled_from(WALK_PROPS), st.data())
def test_edge_cut_leaves_are_filtered_uncut_leaves(g, prop, data):
    # at a leaf the committee test is the set-level oracle, and the EDGE
    # and CONNECTED searches keep exactly the leaves it passes
    k = data.draw(st.integers(1, g.n))
    walk = [(tuple(c), tuple(m)) for c, m in canonical_walk(g.adj_bits, k)]
    kept = [leaf for leaf in walk if _committee_pick(g, leaf[1], prop) is None]
    assert kept == [leaf for leaf in walk if brute_compelling(g, leaf[0], prop)]
    cut = [(tuple(c), tuple(m)) for c, m in _iter_canonical(g, k, prop)]
    assert cut == kept


@CUT_SETTINGS
@given(small_graphs(), st.sampled_from((P.CONNECTED, P.CDOM)))
def test_separator_cut_matches_leaf_only_reference(g, prop):
    # the separator test alone, at the leaves, drops no coloring the
    # reference needs
    want = leaf_only_chi(g, prop)
    assert leaf_only_chi(g, prop, keep=lambda c, m: not separated(g, c)) == want
    assert compelling_chromatic_number(g, prop) == want


@CUT_SETTINGS
@given(small_graphs(), st.sampled_from(COMMITTEE_PROPS))
def test_edge_cut_matches_leaf_only_reference(g, prop):
    # the committee test alone, at the leaves; CDOM is searched with
    # CONNECTED's committee cut
    walk = P.CONNECTED if prop is P.CDOM else prop
    want = leaf_only_chi(g, prop)
    def no_committee(colors, masks):
        return _committee_pick(g, masks, walk) is None

    assert leaf_only_chi(g, prop, keep=no_committee) == want
    assert compelling_chromatic_number(g, prop) == want


def test_committee_cut_fires_before_all_colors_are_open(monkeypatch):
    # C10 has no coloring with 8 colors that compels connectivity; the
    # committee search over the open classes, with the unplaced vertices as
    # its base, cuts its branches before the eighth color opens
    g = make_cycle(10)
    prop = P.CONNECTED
    search = solver._committee_pick
    opened = []  # the classes passed to each search that finds a committee

    def search_spy(graph, class_masks, *rest):
        found = search(graph, class_masks, *rest)
        if found is not None:
            opened.append(len(class_masks))
        return found

    monkeypatch.setattr(solver, "_committee_pick", search_spy)
    assert not list(_iter_canonical(g, 8, prop))
    assert opened
    assert min(opened) < 8


def test_count_rule():
    # P5, closed neighbourhoods; one class still to open, after vertex 1:
    # no cover[w], w > 1, holds both 0 and 4, and cover[3] holds 3 and 4,
    # while no vertex is left after vertex 4
    covers = make_path(5).closed_bits
    assert solver._outnumbered(covers, 0b10001, 1, 1)
    assert not solver._outnumbered(covers, 0b10001, 2, 1)
    assert not solver._outnumbered(covers, 0b11000, 1, 1)
    assert solver._outnumbered(covers, 0b11000, 1, 4)
    # with no class still to open, any loose vertex is outnumbered
    assert solver._outnumbered(covers, 0b1, 0, 0)
    assert not solver._outnumbered(covers, 0, 0, 0)


@pytest.mark.parametrize(
    "seed, prop, witness",
    [(1003, P.DOM, "0001112122345"), (1004, P.ISOLATE_FREE, "0010022345002")],
    ids=["G13-1003-dom", "G13-1004-if"],
)
def test_count_rule_cuts(monkeypatch, seed, prop, witness):
    # chi-ladder graphs: the count rule cuts branches that pass the check of
    # the vertices that can gain no class, and the witness is the one the
    # search gave without it
    rule = solver._outnumbered
    cuts = []

    def rule_spy(*args):
        cut = rule(*args)
        cuts.append(cut)
        return cut

    monkeypatch.setattr(solver, "_outnumbered", rule_spy)
    res = compelling_chromatic_number(make_random_graph(13, 0.3, seed), prop)
    assert (res.value, res.witness.colors) == (6, tuple(map(int, witness)))
    assert any(cuts)


@CUT_SETTINGS
@given(small_graphs(), st.sampled_from(WALK_PROPS))
def test_edge_leaves_that_survive_have_no_independent_committee(g, prop):
    # so compelling_chromatic_number can take every EDGE and CONNECTED leaf
    # it reaches as compelling
    for k in range(1, g.n + 1):
        for _, masks in _iter_canonical(g, k, prop):
            assert _committee_pick(g, masks, prop) is None


# ---------------------------------------------------------------------------
# The separation-pair cut (CONNECTED, and CDOM searched as CONNECTED)
# ---------------------------------------------------------------------------


@CUT_SETTINGS
@given(
    st.one_of(small_graphs(), connected_graphs(), mop_graphs()),
    st.sampled_from(list(P)),
)
def test_pair_cut_matches_leaf_only_reference(g, prop):
    # the table stored first, so the cut runs from the first committee
    # search even where a search would not build it
    separation_pairs(g)
    assert compelling_chromatic_number(g, prop) == leaf_only_chi(g, prop)


@CUT_SETTINGS
@given(st.sampled_from((P.CONNECTED, P.CDOM)), st.data())
def test_pair_cut_leaves_are_the_compelling_uncut_leaves(prop, data):
    # with the table stored first, the pair cut runs from the first
    # committee search, even where the search would not build the table
    shapes = (connected_graphs(), mop_graphs())
    if prop is P.CONNECTED:
        shapes += (small_graphs(),)
    g = data.draw(st.one_of(*shapes))
    separation_pairs(g)
    k = data.draw(st.integers(1, g.n))
    cut = [(tuple(c), tuple(m)) for c, m in _iter_canonical(g, k, P.CONNECTED)]
    kept = [
        (tuple(c), tuple(m))
        for c, m in canonical_walk(g.adj_bits, k)
        if brute_compelling(g, c, prop)
    ]
    assert cut == kept


@CUT_SETTINGS
@given(
    st.one_of(small_graphs(max_n=9), connected_graphs(max_n=9), mop_graphs(max_n=9)),
    st.data(),
)
def test_chi_is_invariant_under_relabelling(g, data):
    # the search and its cuts follow the vertex order; the value does not
    h = relabelled(g, data.draw(st.permutations(range(g.n))))
    for prop in P:
        want = compelling_chromatic_number(g, prop).value
        assert compelling_chromatic_number(h, prop).value == want, prop


@settings(max_examples=60, deadline=None)
@given(st.integers(5, 20), st.data())
def test_pair_cut_on_relabelled_cycles(n, data):
    g = relabelled(make_cycle(n), data.draw(st.permutations(range(n))))
    separation_pairs(g)
    res = compelling_chromatic_number(g, P.CONNECTED, max_n=40, timeout_s=10)
    assert res.value == closed_forms.chi_conn_cycle(n)
    assert res.witness.k == res.value
    assert brute_compelling(g, res.witness.colors, P.CONNECTED)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(3, 14),
    st.integers(0, 2**20),
    st.sampled_from((P.CONNECTED, P.CDOM)),
    st.data(),
)
def test_pair_cut_on_relabelled_mops(n, seed, prop, data):
    mop = make_random_mop(n, seed)
    g = relabelled(mop, data.draw(st.permutations(range(n))))
    separation_pairs(g)
    res = compelling_chromatic_number(g, prop, max_n=40, timeout_s=10)
    assert res.value == closed_forms.chi_conn_mop(mop)
    assert brute_compelling(g, res.witness.colors, prop)


def test_pair_cut_fires_on_a_cycle(monkeypatch):
    # C12 refutes 10 colors by disconnected committees; the search builds
    # the table after its first 12 early committee searches, all of which
    # cut, and the pair cut then takes the place of most of the rest
    rule = solver._paired
    hits = []

    def rule_spy(*args):
        hit = rule(*args)
        hits.append(hit)
        return hit

    monkeypatch.setattr(solver, "_paired", rule_spy)
    g = make_cycle(12)
    res = compelling_chromatic_number(g, P.CONNECTED)
    assert res.value == closed_forms.chi_conn_cycle(12)
    assert separation_pairs(g, build=False) is not None
    assert sum(hits) > len(hits) / 2
    # a tree has no separating pair, so no search builds its table
    tree = make_random_tree(20, 3)
    compelling_chromatic_number(tree, P.CONNECTED, max_n=40)
    assert separation_pairs(tree, build=False) is None


# ---------------------------------------------------------------------------
# CONNECTED is cut only on connected graphs with at least two vertices
# ---------------------------------------------------------------------------

GATE_EXAMPLES = {
    "E1": make_empty(1),
    "E4": make_empty(4),
    "K2+K1": disjoint_union(make_complete(2), make_empty(1)),
    "P4+K1": disjoint_union(make_path(4), make_empty(1)),
}


@pytest.mark.parametrize("name", sorted(GATE_EXAMPLES))
def test_connected_cut_is_gated_off(name):
    g = GATE_EXAMPLES[name]
    assert _search_cover(g, P.CONNECTED) is None
    assert compelling_chromatic_number(g, P.CONNECTED) == leaf_only_chi(g, P.CONNECTED)


def test_connected_gate_examples_values():
    # one color compels connectivity on an edgeless graph, where no single
    # vertex dominates
    assert compelling_chromatic_number(GATE_EXAMPLES["E1"], P.CONNECTED).value == 1
    assert compelling_chromatic_number(GATE_EXAMPLES["E4"], P.CONNECTED).value == 1
    assert compelling_chromatic_number(GATE_EXAMPLES["E4"], P.DOM).value == 4
    for name in ("K2+K1", "P4+K1"):
        assert compelling_chromatic_number(GATE_EXAMPLES[name], P.CONNECTED).infeasible


def test_cover_tables():
    g = make_path(4)
    assert _search_cover(g, P.CONNECTED) == g.closed_bits
    assert _search_cover(g, P.DOM) == g.closed_bits
    assert _search_cover(g, P.CDOM) is None
    assert _search_cover(g, P.TDOM) == g.adj_bits
    assert _search_cover(g, P.ISOLATE_FREE) == g.adj_bits
    assert _search_cover(g, P.EDGE) is None


# ---------------------------------------------------------------------------
# Instances the uncut search could not finish in a minute
# ---------------------------------------------------------------------------


T16_3, T20_3, T20_8 = (make_random_tree(n, s) for n, s in ((16, 3), (20, 3), (20, 8)))
MOP20_5 = make_random_mop(20, 5)
FRONTIER = {
    "T(16;3)-connected": (T16_3, P.CONNECTED, closed_forms.chi_conn_tree(T16_3)),
    "T(20;3)-connected": (T20_3, P.CONNECTED, closed_forms.chi_conn_tree(T20_3)),
    "T(20;8)-edge": (T20_8, P.EDGE, closed_forms.chi_edge_tree(T20_8)),
    "C20-edge": (make_cycle(20), P.EDGE, closed_forms.chi_edge_cycle(20)),
    "C18-connected": (make_cycle(18), P.CONNECTED, closed_forms.chi_conn_cycle(18)),
    "MOP(20;5)-connected": (MOP20_5, P.CONNECTED, closed_forms.chi_conn_mop(MOP20_5)),
    "MOP(20;5)-cdom": (MOP20_5, P.CDOM, closed_forms.chi_conn_mop(MOP20_5)),
}


@pytest.mark.parametrize("name", FRONTIER)
def test_frontier_trees_and_cycles(name):
    # the separator and committee cuts bring these from 1-30 s or more to a
    # second or less
    g, prop, want = FRONTIER[name]
    res = compelling_chromatic_number(g, prop, max_n=40, timeout_s=10)
    assert res.value == want
    assert res.witness.k == res.value
    assert brute_compelling(g, res.witness.colors, prop)


def test_frontier_long_cycle_edge():
    # the witness has classes of 750, 749, 1 and 1 vertices; the EDGE cut
    # leaves no independent committee in it, so nothing walks their pairs
    g = make_cycle(1501)
    res = compelling_chromatic_number(g, P.EDGE, max_n=2000, timeout_s=1)
    assert res.value == closed_forms.chi_edge_cycle(1501) == 4
    assert sorted(map(len, res.witness.classes)) == [1, 1, 749, 750]


def test_long_cycle_edge_witness_check():
    # the two singleton classes of the witness are adjacent, so every
    # committee holds that edge and the check ends before any pick
    g = make_cycle(1501)
    witness = compelling_chromatic_number(g, P.EDGE, max_n=2000, timeout_s=1).witness
    assert is_compelling(g, witness, P.EDGE, timeout_s=1).compelling


def test_frontier_instances():
    mop = make_random_mop(16, 5)
    want = closed_forms.chi_conn_mop(mop)
    for prop in (P.CONNECTED, P.CDOM):
        res = compelling_chromatic_number(mop, prop)
        assert res.value == want
    g = make_random_graph(16, 0.3, 3)
    res = compelling_chromatic_number(g, P.DOM)
    assert res.witness.k == res.value
    assert brute_compelling(g, res.witness.colors, P.DOM)


@pytest.mark.parametrize(
    "n, prop, value, witness",
    [
        (20, P.DOM, 7, "01023141044150146001"),
        (22, P.TDOM, 8, "0100022234544024226724"),
    ],
    ids=["G(20,0.3;3)-dom", "G(22,0.3;3)-tdom"],
)
def test_frontier_random_graphs(n, prop, value, witness):
    # the count rule takes these from a tenth of a second and several
    # seconds to a few ms and under a second; value and witness are the ones
    # the search gave before it
    res = compelling_chromatic_number(make_random_graph(n, 0.3, 3), prop, max_n=40)
    assert res.value == value
    assert res.witness.colors == tuple(map(int, witness))


# ---------------------------------------------------------------------------
# The least violating committee of the checker, and the committee walk
# ---------------------------------------------------------------------------


def committee_of(masks, pick):
    """The committee of a walk's pick: the picked vertices for the classes
    of two or more vertices, in order, and the singleton classes' own."""
    if pick is None:
        return None
    picked = iter(pick)
    return tuple(next(picked) if m & (m - 1) else m.bit_length() - 1 for m in masks)


@st.composite
def canonical_colorings(draw):
    """A small graph and one of its canonical colorings."""
    g = draw(small_graphs())
    k = draw(st.integers(1, g.n))
    colorings = [tuple(c) for c, _ in canonical_walk(g.adj_bits, k)]
    if not colorings:
        return g, None
    return g, colorings[draw(st.integers(0, len(colorings) - 1))]


@st.composite
def class_colorings(draw):
    """Up to 8 classes of up to 3 vertices, on shuffled vertex labels, with
    each pair of classes joined fully, not at all or edge by edge at random.
    Picks here can stay disconnected for several classes and then join."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=8))
    order = [c for c, size in enumerate(sizes) for _ in range(size)]
    labels = draw(st.permutations(range(len(order))))
    colors = [0] * len(order)
    for c, v in zip(order, labels):
        colors[v] = c
    joins = {}
    for a, b in itertools.combinations(range(len(sizes)), 2):
        joins[a, b] = joins[b, a] = draw(st.sampled_from((0.0, 0.5, 1.0)))
    rng = random.Random(draw(st.integers(0, 2**20)))
    edges = [
        (u, v)
        for u, v in itertools.combinations(range(len(colors)), 2)
        if colors[u] != colors[v] and rng.random() < joins[colors[u], colors[v]]
    ]
    return Graph.from_edges(len(colors), edges), tuple(colors)


@settings(max_examples=400, deadline=None)
@given(st.one_of(canonical_colorings(), class_colorings()))
def test_committee_search_matches_the_scan(case):
    g, colors = case
    if colors is None:
        return
    coloring = Coloring(colors)
    for prop in P:
        cx = is_compelling(g, coloring, prop).counterexample
        assert (cx,) == _find_violating_committee(g, coloring.classes, (prop,))
        assert (cx is None) == brute_compelling(g, colors, prop)


@settings(max_examples=400, deadline=None)
@given(small_graphs(), st.data())
def test_committee_search_with_the_unplaced_base(g, data):
    # as the early committee cut calls it, for CONNECTED: the classes of
    # the placed vertices 0..v, all nonempty, with the vertices after v as
    # the base U that joins every committee.  The coloring need not be
    # proper: the search does not rely on it.
    v = data.draw(st.integers(0, g.n - 1))
    colors = []
    for _ in range(v + 1):
        colors.append(data.draw(st.integers(0, max(colors, default=-1) + 1)))
    masks = list(Coloring(tuple(colors)).class_masks)
    unplaced = g.full_mask & ~((2 << v) - 1)
    expected = None
    for committee in itertools.product(*_classes_from_masks(masks)):
        bits = sum(1 << u for u in committee)
        if not eval_property_mask(P.CONNECTED, g, bits | unplaced):
            expected = committee
            break
    pick = _committee_pick(g, masks, P.CONNECTED, None, _unplaced_tables(g)[v])
    assert committee_of(masks, pick) == expected


@settings(max_examples=400, deadline=None)
@given(small_graphs(), st.data())
def test_committee_search_on_partial_masks(g, data):
    # partial class masks, as the committee cut passes them: many classes are
    # singletons, and some may be empty, which leaves no committee at all.
    # Before all k colors are open the cut adds each vertex not placed as a
    # class of its own.
    k = data.draw(st.integers(1, 6))
    masks = [0] * k
    unplaced = []
    for v in range(g.n):
        c = data.draw(st.integers(-1, k - 1))  # -1: v is not placed
        if c >= 0:
            masks[c] |= 1 << v
        else:
            unplaced.append(1 << v)
    if data.draw(st.booleans()):
        masks += unplaced
    for prop in WALK_PROPS:
        cx = committee_of(masks, _committee_pick(g, masks, prop))
        if not all(masks):
            assert cx is None
        else:
            assert (cx,) == _find_violating_committee(
                g, _classes_from_masks(masks), (prop,)
            )


# ---------------------------------------------------------------------------
# One committee scan for several properties
# ---------------------------------------------------------------------------


@settings(max_examples=400, deadline=None)
@given(small_graphs(max_n=7), st.permutations(list(P)), st.integers(1, 6))
def test_one_scan_for_several_properties(g, order, count):
    # every canonical coloring with at most 4 colors, as the equivalences
    # suite scans them: each property gets the committee of its own scan,
    # also when all the scans of the graph share one memo
    props = tuple(order[:count])
    memo: dict[int, int] = {}
    for k in range(1, min(4, g.n) + 1):
        for _, masks in canonical_walk(g.adj_bits, k):
            classes = _classes_from_masks(masks)
            alone = tuple(_find_violating_committee(g, classes, (p,))[0] for p in props)
            assert _find_violating_committee(g, classes, props) == alone
            assert _find_violating_committee(g, classes, props, memo=memo) == alone
    for mask, failed in memo.items():
        want = sum(1 << i for i, p in enumerate(props) if not eval_property_mask(p, g, mask))
        assert failed == want


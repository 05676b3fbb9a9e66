import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from compelling import (
    Graph,
    SubsetProperty,
    connected_domination_number,
    disjoint_union,
    eval_property,
    is_connected,
    make_complete,
    make_cycle,
    make_empty,
    make_path,
    make_random_graph,
    make_random_mop,
    make_random_tree,
    make_star,
    min_property_size,
    min_property_witness,
)
from compelling.properties import property_bits
from oracles import brute_min_size, brute_min_witness, relabelled, set_property

P = SubsetProperty

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def graphs(draw, min_n=1, max_n=7):
    n = draw(st.integers(min_n, max_n))
    p = draw(st.sampled_from((0.2, 0.4, 0.6, 0.8)))
    seed = draw(st.integers(0, 2**20))
    return make_random_graph(n, p, seed)


def tiny_corpus(count=25, max_n=6, seed=7):
    import random

    rng = random.Random(seed)
    out = [make_path(4), make_cycle(5), make_star(3), make_complete(4)]
    for _ in range(count):
        n = rng.randint(1, max_n)
        out.append(make_random_graph(n, rng.choice((0.3, 0.5, 0.7)), rng.getrandbits(32)))
    return out


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def test_eval_examples():
    assert eval_property(P.EDGE, make_path(3), {0, 2}) is False
    assert eval_property(P.DOM, make_cycle(5), {0, 1, 2}) is True
    assert eval_property(P.CONNECTED, make_cycle(5), {0, 1, 3}) is False
    assert eval_property(P.ISOLATE_FREE, make_cycle(5), {2}) is False


def test_eval_rejects_bad_sets():
    g = make_path(3)
    with pytest.raises(ValueError):
        eval_property(P.DOM, g, set())
    with pytest.raises(ValueError):
        eval_property(P.DOM, g, {3})


@PROPERTY_SETTINGS
@given(graphs(), st.data())
def test_eval_matches_set_level_definitions(g, data):
    members = data.draw(
        st.sets(st.integers(0, g.n - 1), min_size=1, max_size=g.n)
    )
    for prop in P:
        assert eval_property(prop, g, members) == set_property(prop, g, set(members))


@PROPERTY_SETTINGS
@given(graphs(max_n=8), st.data())
def test_upwards_closed_properties_survive_supersets(g, data):
    members = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1, max_size=g.n))
    extra = data.draw(st.sets(st.integers(0, g.n - 1), max_size=g.n))
    superset = set(members) | extra
    for prop in P:
        if prop.upwards_closed and eval_property(prop, g, members):
            assert eval_property(prop, g, superset), (prop, members, superset)


@PROPERTY_SETTINGS
@given(graphs(), st.data())
def test_cdom_implies_connected_and_dominating(g, data):
    members = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1, max_size=g.n))
    if eval_property(P.CDOM, g, members):
        assert eval_property(P.CONNECTED, g, members)
        assert eval_property(P.DOM, g, members)


def test_property_bits_follow_declaration_order():
    # bit i is the i-th member; the scanner and the equivalences suite
    # address the bits by this order
    assert [p.value for p in P] == ["dom", "tdom", "if", "edge", "connected", "cdom"]
    p3 = make_path(3)
    two_edges = Graph.from_edges(4, [(0, 1), (2, 3)])
    edge_and_vertex = Graph.from_edges(3, [(0, 1)])
    cases = [
        (p3, 0b010, 0b110001),  # DOM, CONNECTED, CDOM
        (p3, 0b101, 0b000001),  # DOM alone
        (p3, 0b011, 0b111111),  # all six
        (make_empty(2), 0b01, 0b010000),  # CONNECTED alone
        (two_edges, 0b1111, 0b001111),  # all but CONNECTED and CDOM
        (edge_and_vertex, 0b111, 0b001001),  # DOM and EDGE
        (make_path(4), 0b1001, 0b000001),  # DOM, not TDOM
    ]
    for g, mask, bits in cases:
        assert property_bits(g, mask) == bits, (g.name, bin(mask))
        members = {v for v in range(g.n) if mask >> v & 1}
        for i, prop in enumerate(P):
            assert bool(bits >> i & 1) == set_property(prop, g, members), prop


@st.composite
def edge_subsets(draw, max_n=7):
    """A graph on at most ``max_n`` vertices with any subset of the edges:
    edgeless and disconnected graphs come up often."""
    n = draw(st.integers(1, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [e for e, k in zip(pairs, keep) if k])


@settings(max_examples=150, deadline=None)
@given(edge_subsets(), st.integers(0, (1 << len(P)) - 1))
@example(make_empty(1), 0b111111)
@example(make_empty(5), 0b010000)  # CONNECTED alone
@example(Graph.from_edges(6, [(0, 1), (1, 2), (3, 4)]), 0b000001)  # DOM: no BFS
@example(Graph.from_edges(6, [(0, 1), (1, 2), (3, 4)]), 0b100000)  # CDOM alone
@example(make_complete(7), 0b001111)  # all but the two that need the BFS
def test_property_bits_match_set_level_definitions(g, want):
    # every nonempty vertex set, the single vertices included, against the
    # oracle's definition of each of the six properties: all six by
    # default, and exactly the bits of ``want`` when the caller names them
    for mask in range(1, 1 << g.n):
        members = {v for v in range(g.n) if mask >> v & 1}
        has = sum(set_property(p, g, members) << i for i, p in enumerate(P))
        assert property_bits(g, mask) == has, (g.edges, sorted(members))
        assert property_bits(g, mask, want) == has & want, (g.edges, sorted(members))


# ---------------------------------------------------------------------------
# Minimum qualifying sizes
# ---------------------------------------------------------------------------


def test_min_size_examples():
    assert min_property_size(P.EDGE, make_path(4)) == 2
    assert min_property_size(P.CONNECTED, make_empty(3)) == 1
    assert min_property_size(P.CDOM, make_path(5)) == 3
    assert min_property_size(P.TDOM, make_empty(2)) is None
    assert min_property_size(P.EDGE, make_empty(4)) is None


def test_min_size_matches_bruteforce():
    for g in tiny_corpus():
        for prop in P:
            assert min_property_size(prop, g) == brute_min_size(prop, g), (
                g.name,
                prop,
            )


def test_domination_numbers_match_bruteforce_up_to_ten_vertices():
    for g in tiny_corpus(count=20, max_n=10, seed=12):
        for prop in (P.DOM, P.TDOM, P.CDOM):
            assert min_property_size(prop, g) == brute_min_size(prop, g), (
                g.name,
                prop,
            )


def test_min_cdom_equals_connected_domination_number():
    for g in tiny_corpus(count=15, seed=8):
        if is_connected(g):
            assert min_property_size(P.CDOM, g) == connected_domination_number(g)
        else:
            assert min_property_size(P.CDOM, g) is None


def test_min_witness_is_first_in_size_lex_order():
    g = make_path(5)
    # size-2 subsets in lex order: (0,1) is the first edge
    assert min_property_witness(P.EDGE, g) == (0, 1)
    assert min_property_witness(P.CONNECTED, g) == (0,)
    assert min_property_witness(P.CDOM, g) == (1, 2, 3)


SCATTERED = disjoint_union(disjoint_union(make_cycle(5), make_empty(1)), make_path(4))


@settings(max_examples=200, deadline=None)
@given(graphs(max_n=10))
@example(make_path(1))
@example(make_empty(6))
@example(SCATTERED)
def test_min_witness_matches_size_lex_oracle(g):
    for prop in P:
        assert min_property_witness(prop, g) == brute_min_witness(prop, g), prop


FAMILIES = {
    "path": make_path,
    "cycle": make_cycle,
    "tree": lambda n: make_random_tree(n, seed=n),
    "mop": lambda n: make_random_mop(n, seed=n),
}


@pytest.mark.parametrize("n", range(3, 15))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_domination_witnesses_on_relabelled_families(family, n):
    # paths and cycles need connected dominating sets of n - 2 vertices,
    # so the connected-set bound skips nearly every size on them
    perm = list(range(n))
    random.Random(n).shuffle(perm)
    g = relabelled(FAMILIES[family](n), perm)
    for prop in (P.DOM, P.TDOM, P.CDOM):
        assert min_property_witness(prop, g) == brute_min_witness(prop, g), prop


def test_min_size_cap():
    with pytest.raises(ValueError):
        min_property_size(P.DOM, make_path(5), max_n=4)


# ---------------------------------------------------------------------------
# Metadata flags
# ---------------------------------------------------------------------------


def test_metadata_table():
    expected = {
        P.DOM: (True, True),
        P.TDOM: (True, True),
        P.ISOLATE_FREE: (False, True),
        P.EDGE: (True, False),
        P.CONNECTED: (False, False),
        P.CDOM: (True, False),
    }
    for prop, (up, dist) in expected.items():
        assert prop.upwards_closed is up, prop
        assert prop.distributes_over_disjoint_union is dist, prop


def test_from_name():
    assert P.from_name("Dom") is P.DOM
    assert P.from_name("IF") is P.ISOLATE_FREE
    assert P.from_name(" connected ") is P.CONNECTED
    with pytest.raises(ValueError):
        P.from_name("clique")


def test_upwards_closed_flags_match_exhaustive_check():
    # over every subset pair S <= T of every corpus graph with n <= 5:
    # the flag is True exactly when no violation exists anywhere
    corpus = [g for g in tiny_corpus(count=20, max_n=5, seed=9)]
    violated = {prop: False for prop in P}
    for g in corpus:
        verts = range(g.n)
        for size in range(1, g.n + 1):
            for combo in itertools.combinations(verts, size):
                s = set(combo)
                for prop in P:
                    if violated[prop] or not set_property(prop, g, s):
                        continue
                    for extra in verts:
                        if extra not in s and not set_property(prop, g, s | {extra}):
                            violated[prop] = True
                            break
    for prop in P:
        assert prop.upwards_closed == (not violated[prop]), prop


def test_dom_tdom_distribute_over_disjoint_union():
    g1 = make_random_graph(4, 0.5, seed=21)
    g2 = make_random_graph(4, 0.5, seed=22)
    u = disjoint_union(g1, g2)
    for prop in (P.DOM, P.TDOM, P.ISOLATE_FREE):
        for s1_size in range(1, 5):
            for s1 in itertools.combinations(range(4), s1_size):
                for s2_size in range(1, 5):
                    for s2 in itertools.combinations(range(4), s2_size):
                        shifted = {v + 4 for v in s2}
                        assert eval_property(prop, u, set(s1) | shifted) == (
                            eval_property(prop, g1, set(s1))
                            and eval_property(prop, g2, set(s2))
                        )


def test_edge_connected_cdom_do_not_distribute():
    # explicit counterexamples: one side supplies the structure, the union
    # then satisfies/fails differently from the conjunction
    g1 = make_complete(2)
    g2 = make_empty(1)
    u = disjoint_union(g1, g2)
    # edge: union set contains the g1 edge, but the single g2 vertex fails alone
    assert eval_property(P.EDGE, u, {0, 1, 2})
    assert not eval_property(P.EDGE, g2, {0})
    # connected: both sides connected alone, union is not
    assert eval_property(P.CONNECTED, g1, {0, 1})
    assert eval_property(P.CONNECTED, g2, {0})
    assert not eval_property(P.CONNECTED, u, {0, 1, 2})
    # cdom: both sides are connected dominating sets of their own graphs
    assert eval_property(P.CDOM, g1, {0, 1})
    assert eval_property(P.CDOM, g2, {0})
    assert not eval_property(P.CDOM, u, {0, 1, 2})

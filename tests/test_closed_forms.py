import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compelling import (
    Graph,
    SubsetProperty,
    chi_conn_cycle,
    chi_conn_mop,
    chi_conn_path,
    chi_conn_tree,
    chi_edge_cycle,
    chi_edge_high_chromatic,
    chi_edge_path,
    chi_edge_tree,
    chromatic_number,
    compelling_chromatic_number,
    edge_compelling_five_coloring,
    format_graph,
    interior_count,
    is_chord_cover,
    is_compelling,
    is_double_broom,
    make_complete,
    make_cycle,
    make_double_broom,
    make_path,
    make_random_mop,
    make_split_graph,
    make_star,
    min_chord_cover,
    mop_chords,
    parse_graph,
)
from compelling.closed_forms import FAMILIES
from oracles import relabelled

P = SubsetProperty


# ---------------------------------------------------------------------------
# Path and cycle closed forms (frozen tables)
# ---------------------------------------------------------------------------


def test_chi_edge_path_table():
    assert [chi_edge_path(n) for n in range(2, 13)] == [2, 2, 3, 3, 3, 4, 4, 4, 4, 4, 4]
    assert chi_edge_path(100) == 4
    with pytest.raises(ValueError):
        chi_edge_path(1)


def test_chi_edge_cycle_table():
    assert [chi_edge_cycle(n) for n in range(3, 13)] == [3, 2, 3, 3, 3, 4, 4, 4, 4, 4]
    with pytest.raises(ValueError):
        chi_edge_cycle(2)


def test_chi_conn_path_table():
    assert chi_conn_path(2) == 2
    assert [chi_conn_path(n) for n in range(3, 10)] == [2, 3, 4, 5, 6, 7, 8]
    assert chi_conn_path(6) == 5
    with pytest.raises(ValueError):
        chi_conn_path(1)


def test_chi_conn_cycle_table():
    assert [chi_conn_cycle(n) for n in range(3, 10)] == [3, 2, 4, 5, 6, 7, 8]
    with pytest.raises(ValueError):
        chi_conn_cycle(2)


@pytest.mark.parametrize("seed", [1729, 3729])
def test_family_table_closed_forms_match_the_solver(seed):
    # every closed form of the family table, on each instance it builds
    # from two vertices up to order 12
    checked = 0
    for family, (floor, order, build, forms) in FAMILIES.items():
        for n in itertools.takewhile(lambda n: order(n) <= 12, itertools.count(floor)):
            g = build(n, seed)
            if g.n < 2:
                continue
            for prop, form in forms.items():
                want = compelling_chromatic_number(g, prop).value
                assert form(g) == want, (family, n, prop)
                checked += 1
    assert checked == 84


# ---------------------------------------------------------------------------
# Double brooms
# ---------------------------------------------------------------------------


def test_double_broom_generator_roundtrip():
    # the recognizer must accept exactly the generator's outputs, under any
    # vertex labels; any mismatch over this grid is a build failure
    rng = random.Random(11)
    for a in range(1, 6):
        for b in range(1, 6):
            g = make_double_broom(a, b)
            assert is_double_broom(g), (a, b)
            for _ in range(4):
                perm = rng.sample(range(g.n), g.n)
                assert is_double_broom(relabelled(g, perm)), (a, b, perm)


def test_double_broom_path_boundary():
    # the six-vertex path arises from two two-leaf stars; seven is too long
    assert is_double_broom(make_path(4))
    assert is_double_broom(make_path(5))
    assert is_double_broom(make_path(6))
    assert not is_double_broom(make_path(7))
    assert not is_double_broom(make_path(8))


def test_double_broom_negatives():
    assert not is_double_broom(make_star(4))
    # double star: centers adjacent directly, no joining leaf pair
    double_star = Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (3, 4), (3, 5)])
    assert not is_double_broom(double_star)
    # a double broom has four vertices or more
    for n in range(1, 4):
        assert not is_double_broom(make_path(n))
    with pytest.raises(ValueError):
        is_double_broom(make_cycle(5))


# ---------------------------------------------------------------------------
# Trees
# ---------------------------------------------------------------------------


def test_chi_edge_tree_examples():
    assert chi_edge_tree(make_star(5)) == 2
    assert chi_edge_tree(make_double_broom(3, 4)) == 3
    assert chi_edge_tree(make_path(7)) == 4


def test_chi_edge_tree_matches_path_closed_form():
    for n in range(2, 13):
        assert chi_edge_tree(make_path(n)) == chi_edge_path(n)


def test_chi_edge_tree_rejects_non_trees():
    with pytest.raises(ValueError):
        chi_edge_tree(make_cycle(4))
    with pytest.raises(ValueError):
        chi_edge_tree(make_path(1))


def test_chi_conn_tree_examples():
    assert chi_conn_tree(make_star(4)) == 2
    assert interior_count(make_double_broom(2, 2)) == 4
    assert chi_conn_tree(make_double_broom(2, 2)) == 5
    assert chi_conn_tree(make_double_broom(2, 2)) == chi_conn_path(6)
    assert chi_conn_tree(make_path(2)) == 2


def test_chi_conn_tree_matches_path_closed_form():
    for n in range(2, 10):
        assert chi_conn_tree(make_path(n)) == chi_conn_path(n)


# ---------------------------------------------------------------------------
# Maximal outerplanar graphs
# ---------------------------------------------------------------------------


def test_chi_conn_mop_small():
    assert chi_conn_mop(make_complete(3)) == 3
    assert chi_conn_mop(make_random_mop(4, 1)) == 3
    with pytest.raises(ValueError):
        chi_conn_mop(make_cycle(6))


def test_chi_conn_mop_matches_solver():
    for seed in range(4):
        g = make_random_mop(9, seed)
        assert (
            chi_conn_mop(g)
            == compelling_chromatic_number(g, P.CONNECTED).value
        )


def test_mop_chords():
    assert mop_chords(make_complete(3)) == []
    assert min_chord_cover(make_complete(3)) == ()
    m4 = make_random_mop(4, 0)
    assert len(mop_chords(m4)) == 1
    assert len(min_chord_cover(m4)) == 1


def test_mop_chords_ignore_a_wrong_outer_line():
    # the file's outer: line lists the identity order, which is not the
    # outer cycle of this MOP; the chords come from the graph alone
    g = make_random_mop(7, 3)
    lines = format_graph(g).splitlines()
    assert lines[-1].startswith("outer: ")
    bad = parse_graph("\n".join(lines[:-1] + ["outer: 0 1 2 3 4 5 6"]))
    assert bad.outer_cycle == tuple(range(7))
    assert mop_chords(bad) == mop_chords(g) == [(0, 1), (1, 2), (1, 3), (1, 4)]
    assert min_chord_cover(bad) == (1,)


@settings(max_examples=100, deadline=None)
@given(st.integers(3, 12), st.integers(0, 2**20), st.randoms(use_true_random=False))
def test_mop_chords_do_not_read_the_outer_annotation(n, seed, rng):
    # the generator's true outer cycle, a shuffled one and none at all
    # give the same chords
    g = make_random_mop(n, seed)
    shuffled = list(range(n))
    rng.shuffle(shuffled)
    bare = Graph.from_edges(n, g.edges)
    misnamed = Graph.from_edges(n, g.edges, outer_cycle=shuffled)
    assert bare.outer_cycle is None
    assert mop_chords(g) == mop_chords(bare) == mop_chords(misnamed)


def test_min_chord_cover_is_minimal_cover():
    for seed in range(5):
        g = make_random_mop(9, seed)
        cover = min_chord_cover(g)
        assert is_chord_cover(g, cover)
        chords = mop_chords(g)
        endpoints = sorted({v for e in chords for v in e})
        for smaller in range(len(cover)):
            assert not any(
                is_chord_cover(g, combo)
                for combo in itertools.combinations(endpoints, smaller)
            )


def test_chord_machinery_rejects_non_mops():
    with pytest.raises(ValueError):
        mop_chords(make_cycle(6))


def test_five_color_construction():
    g = make_random_mop(20, 9)
    coloring = edge_compelling_five_coloring(g)
    assert coloring.k == 5
    report = is_compelling(g, coloring, P.EDGE)
    assert report.compelling


# ---------------------------------------------------------------------------
# High chromatic number collapse
# ---------------------------------------------------------------------------


def test_chi_edge_high_chromatic():
    assert chi_edge_high_chromatic(make_complete(5)) == 5
    # complete graph on five vertices minus one edge: chromatic number 4,
    # which is at least 5/2 + 1
    k5e = Graph.from_edges(
        5, [e for e in itertools.combinations(range(5), 2) if e != (0, 1)]
    )
    assert chromatic_number(k5e) == 4
    assert chi_edge_high_chromatic(k5e) == 4
    # split graph with chromatic number exactly n/2: not applicable
    assert chi_edge_high_chromatic(make_split_graph(4)) is None


# ---------------------------------------------------------------------------
# The near-complete example with a pendant vertex
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [5, 6, 7])
def test_near_complete_plus_leaf_values(n):
    # complete graph on n-1 vertices, one edge removed, leaf on one end:
    # chromatic number n-2 but connectivity-compelling value n-1
    edges = [e for e in itertools.combinations(range(n - 1), 2) if e != (0, 1)]
    edges.append((0, n - 1))
    g = Graph.from_edges(n, edges)
    assert chromatic_number(g) == n - 2
    assert compelling_chromatic_number(g, P.CONNECTED).value == n - 1

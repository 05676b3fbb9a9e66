import itertools
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import compelling
from compelling import (
    Graph,
    SearchTimeout,
    SubsetProperty,
    chromatic_number,
    components,
    connected_domination_number,
    diameter,
    disjoint_union,
    format_graph,
    is_bipartite,
    is_connected,
    is_mop,
    is_tree,
    join_dominator,
    make_complete,
    make_complete_bipartite,
    make_cycle,
    make_double_broom,
    make_empty,
    make_fan,
    make_path,
    make_random_graph,
    make_random_mop,
    make_random_tree,
    make_split_graph,
    make_star,
    minimum_connected_dominating_set,
    mop_three_coloring,
    parse_graph,
    radius,
)
from compelling.graphs import (
    GraphTooLarge,
    _cut_mask,
    cut_vertices,
    eccentricities,
    iter_bits,
    least_covering_set,
    mask_connected,
    separation_pairs,
)
from oracles import (
    bipartition,
    brute_chromatic_number,
    brute_min_witness,
    distances,
    induces_connected,
    is_dominating,
    relabelled,
    separating_pairs,
    splitting_vertices,
)


def small_corpus(count=30, max_n=7, seed=99):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, max_n)
        p = rng.choice((0.2, 0.4, 0.6, 0.8))
        out.append(make_random_graph(n, p, seed=rng.getrandbits(32)))
    return out


# ---------------------------------------------------------------------------
# Graph type invariants
# ---------------------------------------------------------------------------


def test_graph_rejects_self_loop():
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 0)])


def test_graph_rejects_out_of_range():
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 2)])


def test_graph_rejects_asymmetric_adjacency():
    with pytest.raises(ValueError, match="asymmetric"):
        Graph(2, (0b10, 0))


def test_graph_rejects_empty():
    with pytest.raises(ValueError):
        Graph(0, ())


def test_adjacency_is_symmetric():
    g = make_random_graph(8, 0.5, seed=4)
    for u in range(g.n):
        for v in g.adj[u]:
            assert u in g.adj[v]
            assert v != u


@pytest.mark.parametrize(
    "n,rows",
    [
        (0, ()),  # no vertex
        (2, (0b10,)),  # a row short
        (2, (0b10, 0b01, 0)),  # a row over
        (2, (-1, 0)),  # a negative row
        (2, (0b100, 0)),  # a neighbour past n - 1
        (3, (0b1000, 0, 0)),  # a neighbour past n - 1 in a wider int
        (2, (0b11, 0b01)),  # a self-loop
        (2, (0b10, 0)),  # an edge its upper end does not list
        (3, (0, 0, 0b010)),  # an edge its lower end does not list
        (4, (0b1010, 1, 0, 0b0100)),  # 3 lists 2, not 0: counts agree, sets do not
    ],
)
def test_graph_rejects_malformed_mask_table(n, rows):
    with pytest.raises(ValueError):
        Graph(n, rows)


def _edge_lists(max_n=12):
    """(n, edges) with 1 <= n <= max_n, repeats and both orientations."""
    return st.integers(1, max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                    lambda e: e[0] != e[1]
                ),
                max_size=3 * n,
            ),
        )
    )


@settings(max_examples=150, deadline=None)
@given(_edge_lists(), st.randoms(use_true_random=False))
@example((1, []), random.Random(0))
@example((5, []), random.Random(0))
@example((4, [(0, 1), (1, 0), (0, 1), (3, 2)]), random.Random(0))
def test_mask_table_matches_set_neighbourhoods(case, rnd):
    n, edges = case
    g = Graph.from_edges(n, edges, name="g")
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    assert g.adj == tuple(frozenset(s) for s in nbrs)
    pairs = sorted({(min(e), max(e)) for e in edges})
    assert list(g.edges) == pairs
    assert g.edge_count == len(pairs)
    for u in range(n):
        assert g.degree(u) == len(nbrs[u])
        assert [g.has_edge(u, v) for v in range(n)] == [v in nbrs[u] for v in range(n)]
    # edge order, orientation, repeats and name leave the graph as it is
    turned = [(v, u) if rnd.random() < 0.5 else (u, v) for u, v in edges]
    rnd.shuffle(turned)
    h = Graph.from_edges(n, turned + turned[:2], name="h")
    assert h == g and hash(h) == hash(g)
    assert Graph(n, g.adj_bits) == g
    if pairs:
        assert Graph.from_edges(n, pairs[1:]) != g


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 9))
def test_path_edge_count(n):
    assert make_path(n).edge_count == n - 1


@pytest.mark.parametrize("n", range(3, 9))
def test_cycle_edge_count_and_regularity(n):
    g = make_cycle(n)
    assert g.edge_count == n
    assert all(g.degree(v) == 2 for v in range(n))


@pytest.mark.parametrize("n", range(1, 7))
def test_complete_edge_count(n):
    assert make_complete(n).edge_count == n * (n - 1) // 2


@pytest.mark.parametrize("a,b", [(1, 1), (2, 3), (3, 3), (1, 5)])
def test_complete_bipartite_edge_count(a, b):
    g = make_complete_bipartite(a, b)
    assert g.edge_count == a * b
    assert is_bipartite(g)[0]


def test_generator_size_validation():
    with pytest.raises(ValueError):
        make_path(0)
    with pytest.raises(ValueError):
        make_cycle(2)
    with pytest.raises(ValueError):
        make_complete(0)
    with pytest.raises(ValueError):
        make_complete_bipartite(0, 3)
    with pytest.raises(ValueError):
        make_star(0)
    with pytest.raises(ValueError):
        make_split_graph(1)
    with pytest.raises(ValueError):
        make_random_mop(2, 1)


def test_path_examples():
    assert make_path(1).edge_count == 0
    assert make_path(2).edges == ((0, 1),)
    p7 = make_path(7)
    assert p7.edge_count == 6
    assert diameter(p7) == 6


def test_star_structure():
    g = make_star(4)
    assert g.degree(0) == 4
    assert all(g.degree(v) == 1 for v in range(1, 5))


def test_split_graph_m2_exact_edges():
    # clique {0,1}, independent {2,3}; independent vertex m+i misses clique vertex i
    g = make_split_graph(2)
    assert g.edges == ((0, 1), (0, 3), (1, 2))


def test_split_graph_order_and_chromatic():
    for m in (3, 4):
        g = make_split_graph(m)
        assert g.n == 2 * m
        assert chromatic_number(g) == m


def test_double_broom_smallest():
    # one-leaf stars degenerate to a path on four vertices
    g = make_double_broom(1, 1)
    assert g.n == 4 and is_tree(g)
    assert sorted(g.degree(v) for v in range(4)) == [1, 1, 2, 2]


def test_double_broom_2_2_is_six_vertex_diameter_5():
    g = make_double_broom(2, 2)
    assert g.n == 6 and is_tree(g)
    assert diameter(g) == 5
    # all degrees at most 2: it is the six-vertex path
    assert max(g.degree(v) for v in range(6)) == 2


def test_double_broom_3_3():
    g = make_double_broom(3, 3)
    assert g.n == 8 and is_tree(g)
    assert diameter(g) == 5


def test_fan_contains_induced_path():
    g = make_fan(10)
    assert g.degree(10) == 10
    for i in range(10):
        for j in range(i + 1, 10):
            assert g.has_edge(i, j) == (j == i + 1)


def test_fan_smallest():
    assert make_fan(1).edges == ((0, 1),)


def test_join_dominator_on_empty_graph_is_star():
    # same shape as the star, with the hub last instead of first
    g = join_dominator(make_empty(3))
    assert sorted(g.degree(v) for v in range(4)) == [1, 1, 1, 3]
    assert is_tree(g)


def test_join_dominator_of_path_is_fan():
    assert join_dominator(make_path(3)) == make_fan(3)


def test_wheel_chromatic_number():
    # brute-force oracle value for the cycle-plus-dominator graph
    w = join_dominator(make_cycle(5))
    assert chromatic_number(w) == 4
    assert brute_chromatic_number(w) == 4


# ---------------------------------------------------------------------------
# Maximal outerplanar graphs
# ---------------------------------------------------------------------------


def test_mop_smallest_cases():
    assert make_random_mop(3, 0) == make_complete(3)
    m4 = make_random_mop(4, 5)
    assert m4.edge_count == 5  # the unique triangulation of a square


@pytest.mark.parametrize("seed", range(5))
def test_mop_eight_vertices(seed):
    g = make_random_mop(8, seed)
    assert g.edge_count == 13
    ok, cycle = is_mop(g)
    assert ok and len(cycle) == 8


def test_mop_generator_recognizer_roundtrip():
    for n in range(3, 15):
        for seed in range(20):
            g = make_random_mop(n, seed)
            assert g.edge_count == 2 * n - 3
            ok, cycle = is_mop(g)
            assert ok, (n, seed)
            assert sorted(cycle) == list(range(n))


def test_is_mop_rejects_non_mops():
    assert is_mop(make_cycle(6)) == (False, None)
    assert is_mop(make_complete(4)) == (False, None)
    assert is_mop(make_path(5)) == (False, None)
    # 2n - 3 edges, but no vertex of degree 2 to start the reduction
    assert is_mop(make_complete_bipartite(3, 3)) == (False, None)


def test_is_mop_rejects_non_outerplanar_two_tree():
    # two ears stacked on the same edge: reducible to a triangle but the
    # outer-cycle rebuild fails (it contains a K_{2,3})
    g = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (0, 4), (1, 4)])
    assert g.edge_count == 2 * g.n - 3
    assert is_mop(g) == (False, None)


def test_mop_three_coloring_is_proper():
    for seed in range(6):
        g = make_random_mop(11, seed)
        colors = mop_three_coloring(g)
        assert set(colors) == {0, 1, 2}
        assert all(colors[u] != colors[v] for u, v in g.edges)


def test_mop_three_coloring_rejects_non_mop():
    with pytest.raises(ValueError):
        mop_three_coloring(make_cycle(5))
    with pytest.raises(ValueError):
        mop_three_coloring(make_complete_bipartite(3, 3))


# ---------------------------------------------------------------------------
# Invariants
# ---------------------------------------------------------------------------


def test_chromatic_examples():
    assert chromatic_number(make_cycle(5)) == 3
    assert chromatic_number(make_split_graph(3)) == 3
    # complete graph on 5 vertices minus an edge, plus a leaf on one end
    edges = [e for e in itertools.combinations(range(5), 2) if e != (0, 1)]
    edges.append((0, 5))
    g = Graph.from_edges(6, edges)
    assert chromatic_number(g) == 4
    # crown graph, sides interleaved: greedy needs 5 colors, the search 2
    crown = [(2 * i, 2 * j + 1) for i in range(5) for j in range(5) if i != j]
    assert chromatic_number(Graph.from_edges(10, crown)) == 2


def test_chromatic_number_cap():
    with pytest.raises(ValueError):
        chromatic_number(make_path(9), max_n=8)


def test_chromatic_number_deadline():
    # the first-fit coloring needs more colors than the clique it starts
    # from, so the search runs well past 1024 steps here.  The timed-out
    # search stores nothing, so the untimed call after it still searches.
    g = make_random_graph(30, 0.5, 2)
    with pytest.raises(SearchTimeout, match="chromatic number search"):
        chromatic_number(g, max_n=30, deadline=time.monotonic() - 1)
    assert chromatic_number(g, max_n=30) == 7


def test_stored_chromatic_number_needs_no_search():
    # a value is stored on the graph, so a later call past its deadline
    # returns it; the size cap is still checked on every call
    g = make_random_graph(30, 0.5, 2)
    assert chromatic_number(g, max_n=30) == 7
    assert chromatic_number(g, max_n=30, deadline=time.monotonic() - 1) == 7
    with pytest.raises(GraphTooLarge):
        chromatic_number(g, max_n=29)


def test_chromatic_number_has_no_depth_limit():
    # one search level per vertex, far past the interpreter's recursion limit
    assert chromatic_number(make_cycle(1501), max_n=2000) == 3


# paths, even cycles and MOPs past the brute oracle's reach, with their
# chromatic numbers
FAMILY_CHI = (
    *((make_path(n), 2) for n in (18, 19, 20)),
    *((make_cycle(n), 2) for n in (18, 20)),
    *((make_random_mop(n, n), 3) for n in (18, 19, 20)),
)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(10, 24),
    st.sampled_from((0.3, 0.5, 0.7)),
    st.integers(0, 2**20),
    st.data(),
)
def test_chromatic_number_is_invariant_under_relabelling(n, p, seed, data):
    # relabelling moves the degree order, and with it the clique and the
    # first-fit count that bound the enumerator's levels
    g = make_random_graph(n, p, seed)
    h = relabelled(g, data.draw(st.permutations(range(n))))
    assert chromatic_number(h, max_n=24) == chromatic_number(g, max_n=24)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FAMILY_CHI), st.data())
def test_chromatic_number_of_relabelled_families(family, data):
    g, chi = family
    perm = data.draw(st.permutations(range(g.n)))
    assert chromatic_number(relabelled(g, perm), max_n=20) == chi


def test_relabelled_families_reach_the_enumerator(monkeypatch):
    # on one of three seeded relabellings of each family graph, first fit
    # in degree order overshoots the clique, so the tests above reach the
    # enumerator, not only the first-fit gate; the clique is the answer
    # there, so one level settles it
    levels = []
    walk = compelling.graphs.canonical_walk

    def spy(adj_bits, k, *rest, **kw):
        levels.append(k)
        return walk(adj_bits, k, *rest, **kw)

    monkeypatch.setattr(compelling.graphs, "canonical_walk", spy)
    for g, chi in FAMILY_CHI:
        runs = []
        for seed in range(3):
            perm = list(range(g.n))
            random.Random(seed).shuffle(perm)
            levels.clear()
            assert chromatic_number(relabelled(g, perm), max_n=20) == chi
            runs.append(tuple(levels))
        assert (chi,) in runs, g.name
        assert set(runs) <= {(), (chi,)}, g.name


def test_graphs_module_imports_alone():
    # a fresh interpreter imports the graph toolkit and computes a chromatic
    # number with it; test_imports.py checks that the toolkit imports no
    # other module of the package
    src = str(Path(compelling.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    for code, out in (
        (
            "from compelling.graphs import chromatic_number, make_cycle; "
            "print(chromatic_number(make_cycle(5)))",
            "3\n",
        ),
        ("import compelling.graphs", ""),
    ):
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, out, "")


def test_connected_domination_examples():
    assert connected_domination_number(make_star(4)) == 1
    assert connected_domination_number(make_path(5)) == 3


@pytest.mark.parametrize("n", range(3, 11))
def test_connected_domination_of_paths(n):
    assert connected_domination_number(make_path(n)) == n - 2


def test_connected_domination_matches_bruteforce():
    for g in small_corpus(count=15, max_n=10, seed=5):
        if not is_connected(g):
            with pytest.raises(ValueError):
                connected_domination_number(g)
            continue
        want = None
        for size in range(1, g.n + 1):
            combos = (
                set(c)
                for c in itertools.combinations(range(g.n), size)
            )
            if any(is_dominating(g, s) and induces_connected(g, s) for s in combos):
                want = size
                break
        assert connected_domination_number(g) == want


def test_minimum_cds_is_valid_and_deterministic():
    g = make_random_mop(9, 2)
    cds = minimum_connected_dominating_set(g)
    assert is_dominating(g, set(cds)) and induces_connected(g, set(cds))
    assert cds == minimum_connected_dominating_set(g)


@pytest.mark.parametrize("n, seed", [(24, 5), (28, 3)])
def test_cut_vertices_settle_tree_connected_domination(n, seed):
    # every interior vertex of a tree is a cut vertex, so the must-pick cut
    # finds the interior in under 1024 steps: a passed deadline is never
    # checked (without the cut these searches take seconds)
    t = make_random_tree(n, seed)
    interior = tuple(v for v in range(n) if t.degree(v) > 1)
    deadline = time.monotonic() - 1
    assert minimum_connected_dominating_set(t, max_n=40, deadline=deadline) == interior


def test_least_covering_set_reports_an_uncoverable_vertex():
    # vertex 2 lies in no cover, then in the cover of vertex 2 alone
    assert least_covering_set((0b011, 0b011, 0b000)) is None
    assert least_covering_set((0b011, 0b011, 0b100)) == (0, 2)


def test_distance_parameters():
    assert diameter(make_path(7)) == 6
    assert radius(make_path(7)) == 3
    assert diameter(make_double_broom(3, 3)) == 5
    with pytest.raises(ValueError):
        diameter(make_empty(3))


def test_bipartite_parts():
    ok, parts = is_bipartite(make_cycle(4))
    assert ok and parts == (frozenset({0, 2}), frozenset({1, 3}))
    assert is_bipartite(make_cycle(5)) == (False, None)


def test_components():
    g = disjoint_union(make_path(3), make_complete(2))
    assert components(g) == [frozenset({0, 1, 2}), frozenset({3, 4})]


# ---------------------------------------------------------------------------
# The shared bitmask BFS against the set-based oracles
# ---------------------------------------------------------------------------

BFS_SETTINGS = settings(max_examples=200, deadline=None)
EDGELESS = make_empty(6)
SCATTERED = disjoint_union(disjoint_union(make_cycle(5), make_empty(1)), make_path(4))


@st.composite
def graphs_up_to(draw, max_n=10):
    """A graph on at most ``max_n`` vertices, as G(n, p) over a range of
    densities or edge by edge; edgeless, complete and disconnected graphs
    are included."""
    n = draw(st.integers(1, max_n))
    if draw(st.booleans()):
        density = draw(st.sampled_from((0.0, 0.1, 0.2, 0.35, 0.6)))
        return make_random_graph(n, density, draw(st.integers(0, 2**20)))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [e for e, k in zip(pairs, keep) if k])


def examples(*graphs):
    """Run a hypothesis test on each of ``graphs`` as an explicit example."""

    def add(test):
        for g in graphs:
            test = example(g)(test)
        return test

    return add


@BFS_SETTINGS
@given(graphs_up_to(8))
@examples(
    *small_corpus(),
    EDGELESS,
    make_complete(8),
    disjoint_union(make_cycle(5), make_path(3)),
)
def test_chromatic_number_matches_bruteforce_oracle(g):
    assert chromatic_number(g) == brute_chromatic_number(g)


@BFS_SETTINGS
@given(graphs_up_to())
@example(EDGELESS)
@example(SCATTERED)
def test_is_bipartite_matches_parity_oracle(g):
    parts = bipartition(g)
    if parts is None:
        assert is_bipartite(g) == (False, None)
    else:
        assert is_bipartite(g) == (True, (frozenset(parts[0]), frozenset(parts[1])))


@BFS_SETTINGS
@given(graphs_up_to())
@example(EDGELESS)
@example(SCATTERED)
def test_components_match_connectivity_oracle(g):
    comps = components(g)
    assert sorted(v for c in comps for v in c) == list(range(g.n))
    assert [min(c) for c in comps] == sorted(min(c) for c in comps)
    for c in comps:
        # connected, and no edge leaves it: a maximal connected set
        assert induces_connected(g, set(c))
        assert all(g.adj[v] <= c for v in c)


@BFS_SETTINGS
@given(graphs_up_to(), st.integers(1, 2**10 - 1))
@example(EDGELESS, 0b100100)
@example(SCATTERED, 2**10 - 1)
def test_mask_connected_matches_oracle(g, bits):
    mask = bits & g.full_mask or g.full_mask  # a nonempty vertex set of g
    want = induces_connected(g, set(iter_bits(mask)))
    assert mask_connected(g.adj_bits, mask) == want


@BFS_SETTINGS
@given(graphs_up_to())
@example(make_path(1))
@example(SCATTERED)
def test_minimum_cds_matches_size_lex_oracle(g):
    if not is_connected(g):
        with pytest.raises(ValueError):
            minimum_connected_dominating_set(g)
        return
    want = brute_min_witness(SubsetProperty.CDOM, g)
    assert minimum_connected_dominating_set(g) == want


@st.composite
def trees_and_cycles(draw, max_n=10):
    """A random tree or a cycle on at most ``max_n`` vertices."""
    n = draw(st.integers(1, max_n))
    if n >= 3 and draw(st.booleans()):
        return make_cycle(n)
    return make_random_tree(n, draw(st.integers(0, 2**20)))


@BFS_SETTINGS
@given(
    st.one_of(
        graphs_up_to(),
        trees_and_cycles(),
        st.builds(disjoint_union, trees_and_cycles(5), trees_and_cycles(5)),
    )
)
@examples(
    make_path(1),
    make_complete(2),
    disjoint_union(make_complete(2), make_empty(1)),
    make_cycle(10),
    make_star(6),
    EDGELESS,
    SCATTERED,
)
def test_cut_vertices_match_component_oracle(g):
    assert cut_vertices(g) == splitting_vertices(g)


@BFS_SETTINGS
@given(
    st.one_of(
        graphs_up_to(),
        st.builds(disjoint_union, trees_and_cycles(5), trees_and_cycles(5)),
    )
)
def test_cut_vertices_bit_n_is_disconnection(g):
    assert cut_vertices(g) >> g.n == (not is_connected(g))


def test_cut_vertices_by_component_count():
    # two isolated vertices: only bit n; with three components every
    # vertex splits G - x; a single vertex splits nothing
    assert cut_vertices(make_empty(2)) == 0b100
    g = disjoint_union(disjoint_union(make_complete(2), make_empty(1)), make_empty(1))
    assert cut_vertices(g) == 0b11111
    assert cut_vertices(make_path(1)) == 0


@st.composite
def mops(draw, max_n=10):
    """A random maximal outerplanar graph on 3 to ``max_n`` vertices."""
    return make_random_mop(draw(st.integers(3, max_n)), draw(st.integers(0, 2**20)))


@BFS_SETTINGS
@given(
    st.one_of(
        graphs_up_to(),
        trees_and_cycles(),
        mops(),
        st.builds(disjoint_union, trees_and_cycles(5), mops(5)),
    )
)
@examples(
    make_path(1),
    make_complete(2),
    make_path(3),
    make_complete(3),
    make_complete(4),
    make_cycle(4),
    make_empty(2),
    disjoint_union(make_complete(2), make_empty(1)),
    EDGELESS,
    SCATTERED,
)
def test_separation_pairs_match_component_oracle(g):
    # the cut vertices of every G - x against one component search per
    # pair, and the pairs of vertices that are not cut vertices against the
    # component oracle
    def bits(vertices):
        return sum(1 << x for x in set(vertices))

    rows = [_cut_mask(g, g.full_mask & ~(1 << x)) for x in range(g.n)]
    assert rows == [splitting_vertices(g, {x}) for x in range(g.n)]
    partners = separation_pairs(g)
    pairs = separating_pairs(g)
    assert partners == tuple(
        bits(y for y in range(g.n) if frozenset((x, y)) in pairs) for x in range(g.n)
    )
    paired = bits(x for x in range(g.n) if partners[x])
    assert paired == bits(x for pair in pairs for x in pair)


def test_separation_pairs_of_small_graphs():
    # C6: the pairs are the vertices at distance two or three; C6 - 0 is
    # the path 1..5, split by 2, 3 and 4
    g = make_cycle(6)
    assert _cut_mask(g, g.full_mask & ~1) == 0b011100
    partners = separation_pairs(g)
    assert partners[0] == 0b011100
    assert all(partners)  # every vertex lies in a pair
    # K4 is 3-connected, and trees and disconnected graphs have no pair of
    # vertices that are not cut vertices
    for g in (
        make_complete(4),
        make_path(6),
        make_star(4),
        disjoint_union(make_cycle(4), make_empty(1)),
    ):
        assert not any(separation_pairs(g))


def test_separation_pairs_deadline_is_checked_per_row():
    # the table of C1501 takes seconds; each of its rows counts 1501 vertex
    # visits, more than the 1024 between two deadline checks, so the
    # deadline stops it within a row, and a table that timed out is not
    # stored.  A passed deadline stops it before its first row.
    g = make_cycle(1501)
    start = time.monotonic()
    with pytest.raises(SearchTimeout, match="separation pairs"):
        separation_pairs(g, deadline=start + 0.05)
    assert time.monotonic() - start < 1
    assert separation_pairs(g, build=False) is None
    with pytest.raises(SearchTimeout, match="separation pairs"):
        separation_pairs(make_cycle(1501), deadline=start - 1)
    assert time.monotonic() - start < 1
    # C8's table, 8 rows of 8 visits, is built whole before any check
    assert separation_pairs(make_cycle(8), deadline=start - 1) == separation_pairs(
        make_cycle(8)
    )


@BFS_SETTINGS
@given(graphs_up_to(8), st.integers(0, 2**8 - 1), st.booleans())
@example(make_star(3), 0b100, False)
@example(make_path(5), 0b10001, True)
def test_least_covering_set_holds_its_must_vertices(g, bits, connected):
    # with must vertices that no cut implies, the search gives the first
    # dominating (and connected) set in size-then-lex order that holds them
    must = {v for v in range(g.n) if bits >> v & 1}
    want = next(
        (
            combo
            for size in range(1, g.n + 1)
            for combo in itertools.combinations(range(g.n), size)
            if must <= set(combo)
            and is_dominating(g, set(combo))
            and (not connected or induces_connected(g, set(combo)))
        ),
        None,
    )
    adj_bits = g.adj_bits if connected else None
    got = least_covering_set(g.closed_bits, adj_bits, must=bits & g.full_mask)
    assert got == want


@BFS_SETTINGS
@given(graphs_up_to())
def test_eccentricities_match_distance_oracle(g):
    if not is_connected(g):
        with pytest.raises(ValueError):
            eccentricities(g)
        return
    want = [max(distances(g, v).values()) for v in range(g.n)]
    assert eccentricities(g) == want


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------


def test_format_parse_roundtrip():
    for g in (make_cycle(5), make_path(1), make_random_graph(7, 0.5, seed=3)):
        assert parse_graph(format_graph(g)) == g


def test_format_roundtrip_preserves_outer_cycle():
    g = make_random_mop(8, 4)
    parsed = parse_graph(format_graph(g))
    assert parsed == g
    assert parsed.outer_cycle == g.outer_cycle


def test_parse_accepts_comments():
    g = parse_graph("# a triangle\n3 3\n0 1\n# middle comment\n0 2\n1 2\n")
    assert g == make_complete(3)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "3\n",
        "3 2\n0 1\n",  # wrong edge count
        "3 1\n1 0\n",  # u >= v
        "3 1\n0 3\n",  # out of range
        "3 2\n0 1\n0 1\n",  # duplicate
        "0 0\n",  # empty graph
        "3 1\n0 1\nouter: 0 1\n",  # outer not a permutation
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_graph(text)


def test_random_generators_deterministic():
    assert make_random_graph(8, 0.5, seed=12) == make_random_graph(8, 0.5, seed=12)
    assert make_random_tree(8, seed=12) == make_random_tree(8, seed=12)
    assert make_random_mop(8, seed=12) == make_random_mop(8, seed=12)


def test_random_tree_on_two_vertices_is_the_edge():
    for seed in (0, 1, 12, 1729, 2**40):
        t = make_random_tree(2, seed)
        assert (t.n, t.adj_bits, t.name) == (2, (0b10, 0b01), f"T(2;{seed})")


@pytest.mark.parametrize("n", range(1, 10))
def test_random_tree_is_tree(n):
    for seed in range(5):
        assert is_tree(make_random_tree(n, seed))

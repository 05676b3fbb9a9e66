import itertools
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compelling import (
    Coloring,
    Graph,
    SubsetProperty,
    chi_connected_is_3,
    chi_td_bruteforce,
    chi_td_is_3,
    compelling_chromatic_number,
    disjoint_union,
    eval_property,
    has_tdc3,
    is_connected,
    is_total_dominator_coloring,
    make_complete,
    make_complete_bipartite,
    make_cycle,
    make_empty,
    make_path,
    make_random_graph,
    make_random_mop,
    make_split_graph,
)
from compelling.td3 import has_tdc_bruteforce
from compelling.verify import named_families, td3_corpus
from oracles import brute_canonical_colorings, tdc3_pair_scan

P = SubsetProperty


def td3_test_corpus(count=80, max_n=9, seed=17):
    import random

    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(3, max_n)
        out.append(make_random_graph(n, rng.choice((0.3, 0.5, 0.7)), rng.getrandbits(32)))
    return out


# ---------------------------------------------------------------------------
# Total dominator colorings
# ---------------------------------------------------------------------------


def test_is_tdc_complete_bipartite():
    g = make_complete_bipartite(2, 3)
    assert is_total_dominator_coloring(g, Coloring((0, 0, 1, 1, 1)))


def test_is_tdc_path_bipartition_fails():
    # an endpoint is adjacent to one vertex of the other class, not all
    assert not is_total_dominator_coloring(make_path(4), Coloring((0, 1, 0, 1)))


def test_is_tdc_five_cycle_four_coloring():
    # direct per-vertex evaluation: each vertex sees a full other class
    assert is_total_dominator_coloring(make_cycle(5), Coloring((0, 1, 0, 2, 3)))


def test_chi_td_bruteforce_values():
    assert chi_td_bruteforce(make_complete_bipartite(2, 3)) == 2
    assert chi_td_bruteforce(make_complete_bipartite(4, 4)) == 2
    assert chi_td_bruteforce(make_complete(3)) == 3
    assert chi_td_bruteforce(make_cycle(5)) == 4
    assert chi_td_bruteforce(disjoint_union(make_complete(2), make_empty(1))) is None


@st.composite
def td_graphs(draw):
    """G(n, p) on at most 7 vertices, sometimes with an isolated vertex
    added."""
    n = draw(st.integers(1, 7))
    p = draw(st.sampled_from((0.3, 0.5, 0.7, 0.9)))
    g = make_random_graph(n, p, draw(st.integers(0, 2**20)))
    if n < 7 and draw(st.booleans()):
        g = disjoint_union(g, make_empty(1))
    return g


@settings(max_examples=60, deadline=None)
@given(td_graphs())
def test_chi_td_bruteforce_matches_the_brute_force_colorings(g):
    # the least k at which one of the k^n assignments is a canonical total
    # dominator coloring: an oracle that shares no code with the walk
    want = next(
        (
            k
            for k in range(1, g.n + 1)
            if any(
                is_total_dominator_coloring(g, Coloring(colors))
                for colors in brute_canonical_colorings(g, k)
            )
        ),
        None,
    )
    assert chi_td_bruteforce(g) == want
    if any(not g.adj[v] for v in range(g.n)):
        assert want is None


# ---------------------------------------------------------------------------
# The polynomial tester
# ---------------------------------------------------------------------------


def test_has_tdc3_triangle():
    witness = has_tdc3(make_complete(3))
    assert witness is not None
    assert witness.coloring.colors == (0, 1, 2)
    assert is_total_dominator_coloring(make_complete(3), witness.coloring)


def test_has_tdc3_four_cycle_matches_bruteforce():
    g = make_complete_bipartite(2, 2)
    assert (has_tdc3(g) is not None) == has_tdc_bruteforce(g, 3)


def test_has_tdc3_rejects_isolated_vertices():
    assert has_tdc3(disjoint_union(make_complete(2), make_empty(1))) is None
    assert has_tdc3(make_path(2)) is None


def test_has_tdc3_agrees_with_bruteforce_on_corpus():
    for g in td3_test_corpus():
        witness = has_tdc3(g)
        assert (witness is not None) == has_tdc_bruteforce(g, 3), g.name
        if witness is not None:
            assert witness.coloring.k == 3
            assert is_total_dominator_coloring(g, witness.coloring)
            assert witness.case_tag in ("case1", "case21", "case22")


def test_has_tdc3_agrees_on_named_families():
    graphs = []
    graphs += [make_path(n) for n in range(3, 10)]
    graphs += [make_cycle(n) for n in range(3, 10)]
    graphs += [make_complete(n) for n in range(3, 10)]
    graphs += [make_complete_bipartite(a, b) for a in range(1, 5) for b in range(a, 5)]
    for g in graphs:
        assert (has_tdc3(g) is not None) == has_tdc_bruteforce(g, 3), g.name


def test_has_tdc3_deterministic_witness():
    g = make_random_graph(8, 0.5, seed=23)
    first = has_tdc3(g)
    second = has_tdc3(g)
    assert first == second


def planted_tdc3(n, extra, seed):
    """A graph with a planted three-class total dominator coloring: each
    vertex is joined to the whole of a random other class, and each other
    pair of differently colored vertices to probability ``extra``.  Case
    2.1 of the tester finds most of their witnesses, which the random and
    named graphs above never reach."""
    rng = random.Random(seed)
    color = [v % 3 for v in range(n)]
    rng.shuffle(color)
    edges = set()
    for v in range(n):
        target = rng.choice([c for c in range(3) if c != color[v]])
        edges.update((min(v, w), max(v, w)) for w in range(n) if color[w] == target)
    for u, w in itertools.combinations(range(n), 2):
        if color[u] != color[w] and rng.random() < extra:
            edges.add((u, w))
    return Graph.from_edges(n, sorted(edges), name=f"T3({n},{extra};{seed})")


def _tester_and_pair_scan(g):
    witness = has_tdc3(g)
    got = None
    if witness is not None:
        got = (witness.coloring.colors, witness.case_tag, witness.guessed_vertices)
    return got, tdc3_pair_scan(g)


def test_has_tdc3_witnesses_match_the_pair_scan():
    # the tester tries each guessed class once; the reference tries every
    # pair and pair of pairs, and both must return the same witness
    graphs = list(td3_corpus()) + named_families(9)
    graphs += [make_split_graph(m) for m in (2, 3, 4, 5, 8, 11, 15)]
    graphs += [make_random_mop(n, n) for n in (6, 10, 15, 20, 25, 30)]
    graphs += [
        planted_tdc3(n, extra, seed)
        for n in (6, 7, 8, 9, 12, 16, 20, 30)
        for extra in (0.0, 0.3)
        for seed in range(6)
    ]
    tags = set()
    for g in graphs:
        got, want = _tester_and_pair_scan(g)
        assert got == want, g.name
        if got is not None:
            tags.add(got[1])
    assert tags == {"case1", "case21", "case22"}


@settings(max_examples=200, deadline=None)
@given(st.integers(3, 12), st.sampled_from((0.3, 0.5, 0.7)), st.integers(0, 2**20))
def test_has_tdc3_matches_the_pair_scan_on_random_graphs(n, p, seed):
    got, want = _tester_and_pair_scan(make_random_graph(n, p, seed))
    assert got == want


@settings(max_examples=200, deadline=None)
@given(st.integers(3, 12), st.sampled_from((0.0, 0.3, 0.5)), st.integers(0, 2**20))
def test_has_tdc3_matches_the_pair_scan_on_planted_graphs(n, extra, seed):
    got, want = _tester_and_pair_scan(planted_tdc3(n, extra, seed))
    assert got == want


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 9), st.integers(0, 2**20))
def test_has_tdc3_soundness(n, seed):
    g = make_random_graph(n, 0.5, seed)
    witness = has_tdc3(g)
    if witness is not None:
        assert witness.coloring.k == 3
        assert is_total_dominator_coloring(g, witness.coloring)


# ---------------------------------------------------------------------------
# Value-3 deciders
# ---------------------------------------------------------------------------


def test_chi_td_is_3_examples():
    assert not chi_td_is_3(make_complete_bipartite(2, 3))
    assert chi_td_is_3(make_complete(3))


def test_chi_td_is_3_matches_bruteforce():
    for g in td3_test_corpus(count=40, max_n=8, seed=19):
        assert chi_td_is_3(g) == (chi_td_bruteforce(g) == 3), g.name


def test_chi_connected_is_3_examples():
    assert not chi_connected_is_3(make_cycle(5))
    assert chi_connected_is_3(make_complete(3))
    with pytest.raises(ValueError):
        chi_connected_is_3(disjoint_union(make_complete(2), make_complete(2)))


def test_chi_connected_is_3_matches_solver():
    checked = 0
    for g in td3_test_corpus(count=60, max_n=8, seed=29):
        if not is_connected(g):
            continue
        checked += 1
        want = compelling_chromatic_number(g, P.CONNECTED).value == 3
        assert chi_connected_is_3(g) == want, g.name
    assert checked > 20


def test_size_three_sets_total_dominating_iff_connected_dominating():
    # the equivalence the connectivity consequence rests on
    for g in td3_test_corpus(count=40, max_n=7, seed=37):
        for combo in itertools.combinations(range(g.n), 3):
            assert eval_property(P.TDOM, g, combo) == eval_property(
                P.CDOM, g, combo
            ), (g.name, combo)


# ---------------------------------------------------------------------------
# Polynomial behavior sanity curve
# ---------------------------------------------------------------------------


def test_runtime_growth_on_paths_is_polynomial():
    # crude exponent fit on doubling path sizes; long paths exercise the
    # full quartic guessing loop since they admit no 3-class coloring
    def timed(n):
        g = make_path(n)
        best = math.inf
        for _ in range(2):
            t0 = time.perf_counter()
            assert has_tdc3(g) is None
            best = min(best, time.perf_counter() - t0)
        return max(best, 1e-4)

    t12, t48 = timed(12), timed(48)
    exponent = math.log(t48 / t12) / math.log(4)
    print(f"path tester times: t(12)={t12:.4f}s t(48)={t48:.4f}s exponent={exponent:.2f}")
    assert exponent < 5.5

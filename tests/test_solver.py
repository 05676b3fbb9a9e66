import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from compelling import (
    Coloring,
    disjoint_union,
    Graph,
    SearchTimeout,
    SubsetProperty,
    canonical_colorings,
    chi_bounds,
    compelling_chromatic_number,
    disjoint_union_bounds,
    is_compelling,
    is_compelling_naive,
    make_complete,
    make_complete_bipartite,
    make_cycle,
    make_empty,
    make_path,
    make_random_graph,
    make_random_tree,
    min_property_witness,
    rainbow_committees,
    validate_coloring,
)
from compelling import solver
from compelling.closed_forms import chi_conn_path, chi_edge_path
from compelling.graphs import canonical_walk, separation_pairs
from compelling.solver import _iter_canonical
from oracles import (
    brute_canonical_colorings,
    brute_compelling,
    improper_coloring_message,
)

P = SubsetProperty

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def graphs(draw, min_n=1, max_n=6):
    n = draw(st.integers(min_n, max_n))
    p = draw(st.sampled_from((0.2, 0.4, 0.6, 0.8)))
    seed = draw(st.integers(0, 2**20))
    return make_random_graph(n, p, seed)


def solver_corpus(count=25, max_n=8, seed=31):
    import random

    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(2, max_n)
        out.append(make_random_graph(n, rng.choice((0.3, 0.5, 0.7)), rng.getrandbits(32)))
    return out


# ---------------------------------------------------------------------------
# Coloring type
# ---------------------------------------------------------------------------


def test_coloring_rejects_gaps_and_negatives():
    with pytest.raises(ValueError):
        Coloring((0, 2))
    with pytest.raises(ValueError):
        Coloring((-1, 0))
    with pytest.raises(ValueError):
        Coloring(())
    # only the first unused color is looked for, not every one below the max
    with pytest.raises(ValueError, match="color 1 is unused"):
        Coloring((0, 10**12, 0))


def test_coloring_classes():
    c = Coloring((0, 1, 0, 1, 2))
    assert c.k == 3
    assert c.classes == ((0, 2), (1, 3), (4,))
    assert c.class_masks == (0b00101, 0b01010, 0b10000)


def test_coloring_canonical_relabels_by_first_use():
    assert Coloring((1, 0, 1, 2, 0)).canonical().colors == (0, 1, 0, 2, 1)


def test_validate_coloring_names_the_bad_edge():
    with pytest.raises(ValueError, match="0 and 1"):
        validate_coloring(make_path(2), Coloring((0, 0)))
    with pytest.raises(ValueError, match="assigns"):
        validate_coloring(make_path(3), Coloring((0, 1)))


@settings(max_examples=300, deadline=None)
@given(graphs(max_n=9), st.data())
def test_validate_coloring_matches_the_edge_walk(g, data):
    # the per-vertex test names the least clashing edge, as a walk over
    # the sorted edges does; a coloring of the wrong length is drawn too
    size = data.draw(st.one_of(st.just(g.n), st.integers(1, g.n + 2)))
    colors: list[int] = []
    for _ in range(size):
        colors.append(data.draw(st.integers(0, min(max(colors, default=-1) + 1, 3))))
    want = improper_coloring_message(g, colors)
    try:
        validate_coloring(g, Coloring(tuple(colors)))
    except ValueError as err:
        assert str(err) == want
    else:
        assert want is None


def test_rainbow_committees_order():
    c = Coloring((0, 1, 0, 1, 2))
    assert list(rainbow_committees(c)) == [
        (0, 1, 4),
        (0, 3, 4),
        (2, 1, 4),
        (2, 3, 4),
    ]


# ---------------------------------------------------------------------------
# Compellingness checking
# ---------------------------------------------------------------------------


def test_five_cycle_three_coloring():
    c5 = make_cycle(5)
    coloring = Coloring((0, 1, 0, 1, 2))
    dom = is_compelling(c5, coloring, P.DOM)
    assert dom.compelling and dom.counterexample is None
    assert dom.method == "per-vertex-fast"
    conn = is_compelling(c5, coloring, P.CONNECTED)
    assert not conn.compelling
    assert conn.method == "rc-search"
    # least violating committee in class-then-vertex order
    assert conn.counterexample == (2, 1, 4)


def test_five_cycle_four_coloring_compels_connectivity():
    report = is_compelling(make_cycle(5), Coloring((0, 1, 0, 2, 3)), P.CONNECTED)
    assert report.compelling


def test_all_distinct_colors_compel_edge():
    g = make_random_graph(5, 0.5, seed=77)
    assert g.edge_count > 0
    report = is_compelling(g, Coloring(tuple(range(5))), P.EDGE)
    assert report.compelling


def test_independent_committee_search_has_no_depth_limit():
    # one search level per class of two, far past the interpreter's
    # recursion limit
    n = 2400
    coloring = Coloring(tuple(v // 2 for v in range(n)))
    report = is_compelling(make_empty(n), coloring, P.EDGE)
    assert not report.compelling
    assert report.counterexample == tuple(range(0, n, 2))


def test_singleton_classes_take_no_search_step():
    # singleton classes start the pick, so an edgeless graph with every
    # vertex its own class is settled before the first deadline check
    n = 1200
    coloring = Coloring(tuple(range(n)))
    report = is_compelling(make_empty(n), coloring, P.EDGE, timeout_s=0)
    assert not report.compelling
    assert report.counterexample == tuple(range(n))


def class_graph(parts, size, edge):
    """A graph on ``parts`` classes of ``size`` consecutive vertices, with
    the edge uv (u < v, in different classes) exactly when ``edge(u, v)``,
    and its class coloring."""
    n = parts * size
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if u // size != v // size and edge(u, v)
    ]
    return Graph.from_edges(n, edges), Coloring(tuple(v // size for v in range(n)))


def test_committee_search_on_ten_classes_of_six():
    g, coloring = class_graph(10, 6, lambda u, v: True)
    for prop in (P.CONNECTED, P.CDOM):
        report = is_compelling(g, coloring, prop, timeout_s=5)
        assert report == is_compelling(g, coloring, prop)
        assert report.compelling


@pytest.mark.parametrize(
    "g, coloring, prop, search",
    [
        # each class joined to the next only: every pick is connected, and
        # the cut waits for the last class, after 21,844 steps
        (*class_graph(8, 4, lambda u, v: v // 4 - u // 4 == 1), P.CONNECTED,
         "committee search"),
        # class 0 joined only to class 7: every pick stays disconnected
        # until the last class, whose vertices each join both components,
        # so the search cuts there after 21,844 steps
        (*class_graph(8, 4, lambda u, v: u > 3 or v > 27), P.CONNECTED,
         "committee search"),
        # CDOM walks CONNECTED: the chain above, with every committee
        # dominating
        (*class_graph(8, 4, lambda u, v: v // 4 - u // 4 == 1), P.CDOM,
         "committee search"),
        # 1200 classes of two, one search step each
        (make_empty(2400), Coloring(tuple(v // 2 for v in range(2400))), P.EDGE,
         "committee search"),
    ],
    ids=["connected-chain", "connected-unjoined", "cdom", "edge"],
)
def test_check_timeout(g, coloring, prop, search):
    with pytest.raises(SearchTimeout, match=f"within 0s: .*{search}"):
        is_compelling(g, coloring, prop, timeout_s=0)


def test_least_committees_on_a_path():
    # P4 colored 0101: ISOLATE_FREE differs from TDOM, whose least
    # committee (0, 1) is an edge, and CDOM from CONNECTED, since (0, 1)
    # is connected but does not dominate vertex 3
    g, coloring = make_path(4), Coloring((0, 1, 0, 1))
    want = {
        P.DOM: (0, 1),
        P.TDOM: (0, 1),
        P.ISOLATE_FREE: (0, 3),
        P.EDGE: (0, 3),
        P.CONNECTED: (0, 3),
        P.CDOM: (0, 1),
    }
    for prop, cx in want.items():
        assert is_compelling(g, coloring, prop).counterexample == cx, prop


def test_per_vertex_committee_takes_no_scan():
    # vertex 0 misses the last vertex of every class, so the least
    # undominating committee, (1, 7, 11, ..., 31), comes after 32,767
    # others in committee order; the per-vertex test names it at once
    g, coloring = class_graph(8, 4, lambda u, v: u or v % 4 != 3)
    report = is_compelling(g, coloring, P.DOM, timeout_s=0)
    assert report.counterexample == (1, 7, *range(11, 32, 4))
    # ten classes of six, 6^10 committees: the DOM committee swaps vertex
    # 1 in for 0, the others keep 0, which sees none of the rest
    g, coloring = class_graph(10, 6, lambda u, v: u or v % 6 != 5)
    rest = tuple(range(11, 60, 6))
    for prop in (P.DOM, P.TDOM, P.ISOLATE_FREE, P.CDOM):
        report = is_compelling(g, coloring, prop, timeout_s=0)
        assert report.counterexample == (int(prop is P.DOM), *rest), prop


def test_committee_search_cuts_once_a_pick_reconnects():
    # classes 0 and 1 unjoined: a pick of both is disconnected, and the
    # third pick joins it, after which every completion is connected
    g, coloring = class_graph(8, 4, lambda u, v: v // 4 > 1)
    assert is_compelling(g, coloring, P.CONNECTED, timeout_s=0).compelling


def test_committee_search_cuts_a_pick_every_later_vertex_joins():
    # class 0 joined only to class 4: every pick stays disconnected until
    # the last class, each of whose vertices joins both components, so the
    # search cuts before it, after 340 steps instead of visiting all 1,024
    # committees
    g, coloring = class_graph(5, 4, lambda u, v: u > 3 or v > 15)
    assert is_compelling(g, coloring, P.CONNECTED, timeout_s=0).compelling


def test_is_compelling_rejects_bad_colorings():
    with pytest.raises(ValueError):
        is_compelling(make_path(2), Coloring((0, 0)), P.DOM)
    with pytest.raises(ValueError):
        is_compelling(make_path(3), Coloring((0, 1)), P.DOM)


def test_counterexample_violates_and_is_least():
    import itertools

    from compelling.properties import eval_property_mask

    for g in solver_corpus(count=10, max_n=7, seed=41):
        for k in range(2, min(4, g.n) + 1):
            for coloring in canonical_colorings(g, k):
                for prop in P:
                    report = is_compelling(g, coloring, prop)
                    if report.compelling:
                        assert report.counterexample is None
                        continue
                    cx = report.counterexample
                    # one vertex per class, in class order
                    assert len(cx) == coloring.k
                    assert all(
                        coloring.colors[v] == i for i, v in enumerate(cx)
                    )
                    mask = sum(1 << v for v in cx)
                    assert not eval_property_mask(prop, g, mask)
                    # nothing earlier in committee order violates
                    for committee in rainbow_committees(coloring):
                        if committee == cx:
                            break
                        m = sum(1 << v for v in committee)
                        assert eval_property_mask(prop, g, m)


def test_fast_paths_agree_with_naive_enumeration():
    # every canonical proper coloring with up to 5 colors, all properties
    for g in solver_corpus(count=25, max_n=8, seed=31):
        for k in range(1, min(5, g.n) + 1):
            for coloring in canonical_colorings(g, k):
                for prop in P:
                    fast = is_compelling(g, coloring, prop).compelling
                    assert fast == is_compelling_naive(g, coloring, prop), (
                        g.name,
                        coloring.colors,
                        prop,
                    )


@PROPERTY_SETTINGS
@given(graphs(min_n=2, max_n=6), st.data())
def test_verdict_matches_set_level_oracle(g, data):
    k = data.draw(st.integers(1, min(4, g.n)))
    colorings = list(canonical_colorings(g, k))
    if not colorings:
        return
    coloring = colorings[data.draw(st.integers(0, len(colorings) - 1))]
    prop = data.draw(st.sampled_from(list(P)))
    assert is_compelling(g, coloring, prop).compelling == brute_compelling(
        g, coloring.colors, prop
    )


# ---------------------------------------------------------------------------
# Exact values
# ---------------------------------------------------------------------------


def test_chi_examples():
    assert compelling_chromatic_number(make_cycle(5), P.DOM).value == 3
    assert compelling_chromatic_number(make_cycle(5), P.CONNECTED).value == 4
    assert compelling_chromatic_number(make_path(7), P.EDGE).value == 4
    assert compelling_chromatic_number(make_complete_bipartite(2, 3), P.EDGE).value == 2


def test_chi_infeasible_cases():
    res = compelling_chromatic_number(make_empty(4), P.EDGE)
    assert res.infeasible and res.witness is None
    assert res.lower_bound is None and res.upper_bound is None
    # graph with an isolated vertex: no subset totally dominates
    from compelling import disjoint_union

    g = disjoint_union(make_complete(2), make_empty(1))
    assert compelling_chromatic_number(g, P.TDOM).infeasible
    # connectivity on a disconnected graph: feasible sets exist but no
    # coloring compels, so the scan itself reports infeasible with bounds
    res = compelling_chromatic_number(g, P.CONNECTED)
    assert res.infeasible and res.lower_bound == 2 and res.upper_bound is None


def test_chi_witness_is_compelling_and_canonical_first():
    g = make_cycle(5)
    res = compelling_chromatic_number(g, P.CONNECTED)
    assert res.witness.colors == (0, 1, 0, 2, 3)
    assert is_compelling(g, res.witness, P.CONNECTED).compelling


def test_chi_within_bounds_on_corpus():
    for g in solver_corpus(count=15, max_n=7, seed=51):
        for prop in P:
            bounds = chi_bounds(g, prop)
            res = compelling_chromatic_number(g, prop)
            if bounds is None:
                assert res.infeasible
                continue
            lo, hi = bounds
            assert (res.lower_bound, res.upper_bound) == (lo, hi)
            if res.value is not None:
                assert res.witness.k == res.value
                assert is_compelling(g, res.witness, prop).compelling
                assert lo <= res.value
                if hi is not None:
                    assert res.value <= hi


def test_chi_dom_equals_bruteforce_dominator_chromatic_number():
    for g in solver_corpus(count=12, max_n=8, seed=61):
        want = None
        for k in range(1, g.n + 1):
            if any(
                brute_compelling(g, c.colors, P.DOM) for c in canonical_colorings(g, k)
            ):
                want = k
                break
        assert compelling_chromatic_number(g, P.DOM).value == want


def test_chi_deterministic():
    g = make_random_graph(7, 0.5, seed=71)
    first = compelling_chromatic_number(g, P.EDGE)
    second = compelling_chromatic_number(g, P.EDGE)
    assert first == second


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=7))
@example(make_path(4))  # its least dominating and total dominating sets differ
@example(disjoint_union(make_complete(2), make_empty(1)))
@example(make_random_tree(7, 2))
def test_stored_values_match_a_fresh_graph(g):
    # one graph asked for every property in turn, its invariants stored on
    # it as they come, gives what a fresh equal graph gives each property
    for prop in P:
        fresh = Graph.from_edges(g.n, g.edges)
        assert min_property_witness(prop, g) == min_property_witness(prop, fresh)
        assert chi_bounds(g, prop) == chi_bounds(fresh, prop)
        want = compelling_chromatic_number(fresh, prop)
        assert compelling_chromatic_number(g, prop) == want


def test_chi_size_cap():
    with pytest.raises(ValueError):
        compelling_chromatic_number(make_path(9), P.DOM, max_n=8)


def test_chi_timeout():
    # the EDGE cut leaves over 1024 search steps at 4 colors here
    with pytest.raises(SearchTimeout):
        compelling_chromatic_number(
            make_random_tree(20, 8), P.EDGE, max_n=40, timeout_s=0.0
        )


@pytest.mark.parametrize(
    "g, prop",
    [(make_cycle(14), P.CONNECTED), (make_random_graph(20, 0.3, 3), P.DOM)],
    ids=["C14-connected", "G20-dom"],
)
def test_chi_timeout_on_cut_search(g, prop):
    # the count rule finishes G(16,0.3;3) dom in under 1024 steps; G(20,0.3;3)
    # still passes them at 7 colors
    with pytest.raises(SearchTimeout, match="within 0.0s"):
        compelling_chromatic_number(g, prop, max_n=40, timeout_s=0.0)


def test_chi_timeout_in_the_enumeration(monkeypatch):
    # a zero timeout stops C12 connected when the separation-pair table is
    # built; with that table stored before the call, and a clock that
    # passes the deadline only once the bounds are in, the enumerator's own
    # check stops the refutation of 10 colors
    g = make_cycle(12)
    separation_pairs(g)
    now = [0.0]
    monkeypatch.setattr(solver.time, "monotonic", lambda: now[0])
    bounds = solver.chi_bounds

    def bounds_then_late(*args, **kwargs):
        found = bounds(*args, **kwargs)
        now[0] = 10.0
        return found

    monkeypatch.setattr(solver, "chi_bounds", bounds_then_late)
    message = "^no verdict for C12 within 1.0s: the deadline passed at 10 colors$"
    with pytest.raises(SearchTimeout, match=message):
        compelling_chromatic_number(g, P.CONNECTED, timeout_s=1.0)


@pytest.mark.parametrize(
    "g, prop, want",
    [
        (make_path(12), P.EDGE, chi_edge_path(12)),
        (make_path(14), P.CONNECTED, chi_conn_path(14)),
    ],
    ids=["P12-edge", "P14-connected"],
)
def test_chi_finishes_where_it_used_to_time_out(g, prop, want):
    # these searches took thousands of steps before the separator and EDGE
    # cuts, and a zero timeout stopped them
    assert compelling_chromatic_number(g, prop, timeout_s=5).value == want


def test_chi_timeout_covers_the_bounds_phase():
    # the connected domination number alone takes well over 1024 search
    # steps here, so the deadline passes inside the bounds
    g = make_random_graph(30, 0.1, 4)
    with pytest.raises(SearchTimeout, match="within 0.0s: .*subset search"):
        compelling_chromatic_number(g, P.CDOM, max_n=40, timeout_s=0.0)


def test_chi_timeout_covers_the_chromatic_number_search():
    # the least edge is found at once, then the chromatic number search
    # runs past 1024 steps
    g = make_random_graph(30, 0.5, 2)
    with pytest.raises(SearchTimeout, match="within 0.0s: .*chromatic number search"):
        compelling_chromatic_number(g, P.EDGE, max_n=40, timeout_s=0.0)


def test_deadline_counts_search_steps_not_leaves():
    # dom at 6 colors on G(22,0.3;3): every branch is cut, no coloring comes
    # out, after more than 1024 steps (P16 at 7 colors, the input before the
    # count rule, now takes fewer)
    g = make_random_graph(22, 0.3, 3)
    assert not any(True for _ in _iter_canonical(g, 6, P.DOM))
    with pytest.raises(SearchTimeout, match="at 6 colors"):
        for _ in _iter_canonical(g, 6, P.DOM, deadline=time.monotonic() - 1):
            pass


# ---------------------------------------------------------------------------
# The uncut canonical enumeration
# ---------------------------------------------------------------------------


def _enumerator_piece(draw, n):
    kind = draw(st.sampled_from(("random", "edgeless", "complete")))
    if kind == "edgeless":
        return make_empty(n)
    if kind == "complete":
        return make_complete(n)
    p = draw(st.sampled_from((0.2, 0.4, 0.6, 0.8)))
    return make_random_graph(n, p, draw(st.integers(0, 2**20)))


@st.composite
def enumerator_cases(draw, max_n=7):
    """A graph on at most ``max_n`` vertices, G(n, p), edgeless or
    complete, or the disjoint union of two of those, and a color count k
    from -1 to n + 1."""
    n = draw(st.integers(1, max_n))
    g = _enumerator_piece(draw, n)
    if n < max_n and draw(st.booleans()):
        g = disjoint_union(g, _enumerator_piece(draw, draw(st.integers(1, max_n - n))))
    return g, draw(st.integers(-1, g.n + 1))


@settings(max_examples=150, deadline=None)
@given(enumerator_cases())
@example((make_empty(1), 1))
@example((make_complete(1), 2))
@example((make_empty(6), 3))
@example((disjoint_union(make_complete(3), make_complete(3)), 3))
def test_uncut_enumeration_matches_brute_force(case):
    g, k = case
    seen = []
    for colors, masks in canonical_walk(g.adj_bits, k):
        seen.append(tuple(colors))
        classes = [sum(1 << v for v in range(g.n) if colors[v] == c) for c in range(k)]
        assert list(masks) == classes
    assert seen == brute_canonical_colorings(g, k)


def test_uncut_enumeration_of_no_vertices():
    # the walk takes bare bitmasks, so no Graph rules out n = 0: it yields
    # nothing at any k, as for every k outside 1..n
    assert [list(canonical_walk((), k)) for k in (-1, 0, 1)] == [[], [], []]


def _stirling2(n: int, k: int) -> int:
    """S(n, k), the partitions of n items into k nonempty blocks, by the
    recurrence S(n, k) = k S(n-1, k) + S(n-1, k-1)."""
    row = [1]  # S(0, 0)
    for m in range(1, n + 1):
        row = [0] + [j * (row[j] if j < m else 0) + row[j - 1] for j in range(1, m + 1)]
    return row[k] if 0 <= k <= n else 0


def test_uncut_enumeration_counts_past_the_oracle():
    # canonical colorings with exactly k colors are the partitions of the
    # vertices into k independent classes: S(n, k) on E_n, S(n-1, k-1) on
    # P_n (no two consecutive vertices in one class), and one on K_n at
    # k = n.  Each count up to 10,000 is walked, for n up to 14.
    assert [_stirling2(9, k) for k in range(2, 6)] == [255, 3025, 7770, 6951]
    walked = 0
    for n in range(1, 15):
        for k in range(-1, n + 2):
            want = [
                (make_path(n), _stirling2(n - 1, k - 1)),
                (make_empty(n), _stirling2(n, k)),
                (make_complete(n), int(k == n)),
            ]
            for g, count in want:
                if count <= 10_000:
                    walk = canonical_walk(g.adj_bits, k)
                    assert sum(1 for _ in walk) == count, (g.name, k)
                    walked += 1
    assert walked == 384
    p10 = make_path(10)
    counts = [sum(1 for _ in canonical_walk(p10.adj_bits, k)) for k in range(3, 7)]
    assert counts == [255, 3025, 7770, 6951]


def test_uncut_enumeration_deadline():
    # P12 at 4 colors has 28,501 colorings, at most 4 for each visit of the
    # last vertex, so the walk takes well over 1024 search steps
    g = make_path(12)
    assert sum(1 for _ in canonical_walk(g.adj_bits, 4)) == 28_501
    with pytest.raises(SearchTimeout, match="^the deadline passed at 4 colors$"):
        for _ in canonical_walk(g.adj_bits, 4, deadline=time.monotonic() - 1):
            pass


def test_monotonicity_probe():
    # whether compellingness is monotone in the color count is open; record
    # any (graph, property, k) with k compelling but k+1 not, never assert
    findings = []
    scanned = 0
    for g in solver_corpus(count=10, max_n=6, seed=81):
        for prop in P:
            compelled_at = set()
            for k in range(1, g.n + 1):
                if any(
                    is_compelling(g, c, prop).compelling
                    for c in canonical_colorings(g, k)
                ):
                    compelled_at.add(k)
                scanned += 1
            for k in compelled_at:
                if k + 1 <= g.n and k + 1 not in compelled_at:
                    findings.append((g.name, prop.value, k))
    print(f"monotonicity probe: scanned {scanned} levels, findings: {findings}")
    assert scanned > 0


# ---------------------------------------------------------------------------
# Bounds
# ---------------------------------------------------------------------------


def test_bounds_examples():
    assert chi_bounds(make_path(7), P.EDGE) == (2, 4)
    assert chi_bounds(make_cycle(6), P.CONNECTED) == (4, 6)
    assert chi_bounds(make_complete(4), P.EDGE) == (4, 6)
    assert compelling_chromatic_number(make_complete(4), P.EDGE).value == 4


def test_bounds_infeasible_propagates():
    assert chi_bounds(make_empty(4), P.EDGE) is None


def test_disjoint_union_bounds_examples():
    assert disjoint_union_bounds(P.DOM, [(3, 2), (3, 2)]) == (5, 6)
    assert disjoint_union_bounds(P.DOM, [(4, 2)]) == (4, 4)
    lo, hi = disjoint_union_bounds(P.TDOM, [(2, 2), (3, 3)])
    assert lo == hi == 5


def test_disjoint_union_bounds_rejects_non_distributing():
    with pytest.raises(ValueError):
        disjoint_union_bounds(P.EDGE, [(3, 2), (3, 2)])
    with pytest.raises(ValueError):
        disjoint_union_bounds(P.DOM, [])

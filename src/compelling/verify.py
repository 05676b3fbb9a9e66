"""Verification suites: seeded corpora plus the cross-checks between the
exact solver, the closed forms, the per-vertex fast paths, and the
polynomial tester.

Each suite returns a :class:`SuiteResult` with one :class:`CheckResult`
per assertion; the CLI's ``verify`` subcommand and the acceptance tests
both run these.  All randomness flows from a single seed, so a rerun with
the same seed reproduces every corpus and every verdict.

The suites hold no verdict code of their own: the per-vertex kernels and
the committee scanner are the solver's, the total domination test is the
solver's TDOM kernel, and induced-subgraph searches go through
:func:`compelling.graphs.bfs_layers`.  The per-graph invariants that
several suites ask for (connectivity, chromatic number, least qualifying
sets) are stored on each graph by the library itself; compelling
chromatic numbers are memoized here with :func:`functools.cache`.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field
from functools import cache, lru_cache

from .closed_forms import (
    chi_conn_cycle,
    chi_conn_mop,
    chi_conn_path,
    chi_conn_tree,
    chi_edge_cycle,
    chi_edge_path,
    chi_edge_tree,
    chord_covers,
    edge_compelling_five_coloring,
)
from .graphs import (
    Graph,
    bfs_layers,
    canonical_walk,
    chromatic_number,
    diameter,
    disjoint_union,
    is_complete,
    is_complete_bipartite,
    is_connected,
    iter_bits,
    join_dominator,
    make_cycle,
    make_double_broom,
    make_fan,
    make_path,
    make_random_graph,
    make_random_mop,
    make_random_tree,
    make_split_graph,
    make_star,
    mask_independent,
    minimum_connected_dominating_set,
)
from .properties import SubsetProperty, eval_property, min_property_size
from .solver import (
    _classes_from_masks,
    _covered,
    _find_violating_committee,
    compelling_chromatic_number,
    disjoint_union_bounds,
    is_compelling,
)
from .td3 import (
    chi_connected_is_3,
    has_tdc3,
    has_tdc_bruteforce,
    is_total_dominator_coloring,
)

DEFAULT_SEED = 1729
CORPUS_SIZE = 500


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class SuiteResult:
    suite: str
    checks: list[CheckResult] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append(CheckResult(name, passed, detail))

    def add_violations(self, name: str, bad: list, detail: str = "") -> None:
        """A check that passes when ``bad`` is empty; a failure shows the
        first three violations in place of ``detail``."""
        self.add(name, not bad, f"violations={bad[:3]}" if bad else detail)


# ---------------------------------------------------------------------------
# Corpora
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def main_corpus(seed: int = DEFAULT_SEED) -> tuple[Graph, ...]:
    """500 seeded random graphs with 3..8 vertices and mixed densities."""
    rng = random.Random(seed)
    out = []
    for i in range(CORPUS_SIZE):
        n = rng.randint(3, 8)
        p = rng.choice((0.3, 0.5, 0.7))
        out.append(make_random_graph(n, p, seed=rng.getrandbits(32), name=f"corpus8[{i}]"))
    return tuple(out)


@lru_cache(maxsize=8)
def td3_corpus(seed: int = DEFAULT_SEED) -> tuple[Graph, ...]:
    """500 seeded random graphs with 3..9 vertices for the tester checks."""
    rng = random.Random(seed + 7)
    out = []
    for i in range(CORPUS_SIZE):
        n = rng.randint(3, 9)
        p = rng.choice((0.3, 0.5, 0.7))
        out.append(make_random_graph(n, p, seed=rng.getrandbits(32), name=f"corpus9[{i}]"))
    return tuple(out)


def named_families(max_n: int = 9) -> list[Graph]:
    """Paths, cycles, stars, double brooms, and fans of order <= max_n."""
    graphs: list[Graph] = []
    graphs += [make_path(n) for n in range(2, max_n + 1)]
    graphs += [make_cycle(n) for n in range(3, max_n + 1)]
    graphs += [make_star(m) for m in range(1, max_n)]
    graphs += [
        make_double_broom(a, b)
        for a in range(1, max_n)
        for b in range(a, max_n)
        if a + b + 2 <= max_n
    ]
    graphs += [make_fan(n) for n in range(1, max_n)]
    return graphs


# Several suites ask for the compelling chromatic number of the same
# corpus graph, so it is memoized process-wide.  The body calls the
# module-level function, so a wrapper bound to that name sees every
# computed value.


@cache
def _chi_p(g: Graph, prop: SubsetProperty) -> int | None:
    return compelling_chromatic_number(g, prop).value


# ---------------------------------------------------------------------------
# Small helpers
# ---------------------------------------------------------------------------


def _induced_is_forest(g: Graph, mask: int) -> bool:
    adj = g.adj_bits
    edges = sum((adj[v] & mask).bit_count() for v in iter_bits(mask)) // 2
    comps = sum(1 for depth, _ in bfs_layers(adj, mask) if not depth)
    return edges == mask.bit_count() - comps


def _minimal_cds_samples(g: Graph, rng: random.Random, tries: int = 4):
    """The minimum connected dominating set plus a few deletion-minimal
    ones obtained by shrinking the full vertex set in random orders."""
    samples = {tuple(minimum_connected_dominating_set(g))}
    for _ in range(tries):
        order = list(range(g.n))
        rng.shuffle(order)
        current = set(range(g.n))
        changed = True
        while changed:
            changed = False
            for v in order:
                if v in current and len(current) > 1:
                    if eval_property(SubsetProperty.CDOM, g, current - {v}):
                        current.discard(v)
                        changed = True
        samples.add(tuple(sorted(current)))
    return sorted(samples)


# ---------------------------------------------------------------------------
# Family table suites (exact solver vs closed forms)
# ---------------------------------------------------------------------------


def _family_suite(suite, prop, families, limit_s, timing) -> SuiteResult:
    """One check per (label, make, closed, sizes) in ``families`` and n in
    ``sizes``: the solver's value of ``prop`` on ``make(n)`` against
    ``closed(n)``, named ``label`` + n; then the check ``timing`` that all
    of them took under ``limit_s`` seconds."""
    result = SuiteResult(suite)
    start = time.perf_counter()
    for label, make, closed, sizes in families:
        for n in sizes:
            want = closed(n)
            got = compelling_chromatic_number(make(n), prop).value
            result.add(f"{label}{n}", got == want, f"solver={got} closed={want}")
    elapsed = time.perf_counter() - start
    result.add(timing, elapsed < limit_s, f"{elapsed:.2f}s")
    return result


def suite_path_edge(seed: int = DEFAULT_SEED) -> SuiteResult:
    """Edge-compelling values on paths P_2..P_12 against the closed form."""
    return _family_suite(
        "path-edge",
        SubsetProperty.EDGE,
        [("edge-compelling P_", make_path, chi_edge_path, range(2, 13))],
        10.0,
        "paths finished under 10s",
    )


def suite_cycle_edge(seed: int = DEFAULT_SEED) -> SuiteResult:
    """Edge-compelling values on cycles C_3..C_12 against the closed form."""
    return _family_suite(
        "cycle-edge",
        SubsetProperty.EDGE,
        [("edge-compelling C_", make_cycle, chi_edge_cycle, range(3, 13))],
        30.0,
        "cycles finished under 30s",
    )


def suite_connected_families(seed: int = DEFAULT_SEED) -> SuiteResult:
    """Connectivity-compelling values on paths and cycles up to order 9."""
    return _family_suite(
        "connected-families",
        SubsetProperty.CONNECTED,
        [
            ("connectivity-compelling P_", make_path, chi_conn_path, range(3, 10)),
            ("connectivity-compelling C_", make_cycle, chi_conn_cycle, range(3, 10)),
        ],
        300.0,
        "paths and cycles finished under 5min",
    )


def suite_trees(seed: int = DEFAULT_SEED) -> SuiteResult:
    """50 random trees: interior-count formula and the radius-2/double-broom
    characterization, both against the solver."""
    result = SuiteResult("trees")
    rng = random.Random(seed + 11)
    bad_conn = []
    bad_edge = []
    for i in range(50):
        n = rng.randint(4, 9)
        t = make_random_tree(n, seed=rng.getrandbits(32))
        conn = compelling_chromatic_number(t, SubsetProperty.CONNECTED).value
        if conn != chi_conn_tree(t):
            bad_conn.append((t.name, conn, chi_conn_tree(t)))
        edge = compelling_chromatic_number(t, SubsetProperty.EDGE).value
        if edge != chi_edge_tree(t):
            bad_edge.append((t.name, edge, chi_edge_tree(t)))
    result.add_violations(
        "trees: connectivity value is 1 + interior count", bad_conn, "50 trees"
    )
    result.add_violations(
        "trees: edge value matches the tree characterization", bad_edge, "50 trees"
    )
    return result


def suite_mop_claims(seed: int = DEFAULT_SEED) -> SuiteResult:
    """30 random maximal outerplanar graphs: the connected-domination-plus-2
    law and the supporting structural claims."""
    result = SuiteResult("mop-claims")
    rng = random.Random(seed + 13)
    bad_value = []
    bad_acyclic = []
    bad_cover = []
    bad_minimal = []
    for i in range(30):
        n = rng.randint(4, 11)
        g = make_random_mop(n, seed=rng.getrandbits(32))
        got = compelling_chromatic_number(g, SubsetProperty.CONNECTED).value
        want = chi_conn_mop(g)
        if got != want:
            bad_value.append((g.name, got, want))
        cds_samples = _minimal_cds_samples(g, rng)
        for cds in cds_samples:
            mask = g.full_mask & ~sum(1 << v for v in cds)
            if not _induced_is_forest(g, mask):
                bad_acyclic.append((g.name, cds))
            if mask_independent(g.adj_bits, mask):
                bad_minimal.append((g.name, cds))
        # every chord cover over chord endpoints is a connected dominating set
        for combo in chord_covers(g):
            if not eval_property(SubsetProperty.CDOM, g, combo):
                bad_cover.append((g.name, combo))
    result.add_violations(
        "mops: connectivity value is connected domination number + 2",
        bad_value,
        "30 mops",
    )
    result.add_violations(
        "mops: removing a connected dominating set leaves a forest", bad_acyclic
    )
    result.add_violations("mops: chord covers are connected dominating sets", bad_cover)
    result.add_violations(
        "mops: complement of a minimal connected dominating set has an edge",
        bad_minimal,
    )
    return result


# ---------------------------------------------------------------------------
# Corpus suites
# ---------------------------------------------------------------------------


def suite_equivalences(seed: int = DEFAULT_SEED) -> SuiteResult:
    """Per-coloring equivalences over every canonical proper coloring with
    at most 4 colors of every corpus graph: the per-vertex dominator and
    total-dominator characterizations, isolate-freeness matching total
    domination, and connectivity matching connected domination on connected
    graphs with an edge.

    The plain committee scan is the independent side of every check.  It
    runs once per coloring for all the properties compared there: DOM,
    TDOM and ISOLATE_FREE, plus CONNECTED and CDOM on connected graphs with
    an edge.  The scans of one graph share a memo, so each vertex set is
    tested against those properties once."""
    result = SuiteResult("equivalences")
    corpus = main_corpus(seed)
    violations: dict[str, list] = {"dom": [], "tdom": [], "if": [], "conn": []}
    colorings_checked = 0
    for g in corpus:
        props = (SubsetProperty.DOM, SubsetProperty.TDOM, SubsetProperty.ISOLATE_FREE)
        if g.edge_count > 0 and is_connected(g):
            props += (SubsetProperty.CONNECTED, SubsetProperty.CDOM)
        failed: dict[int, int] = {}  # vertex set -> the props it fails
        for k in range(1, min(4, g.n) + 1):
            for colors, masks in canonical_walk(g.adj_bits, k):
                colorings_checked += 1
                dom, tdom, isolate_free, *conn = (
                    cx is None
                    for cx in _find_violating_committee(
                        g, _classes_from_masks(masks), props, memo=failed
                    )
                )
                if _covered(g.closed_bits, masks) != dom:
                    violations["dom"].append((g.name, tuple(colors)))
                if _covered(g.adj_bits, masks) != tdom:
                    violations["tdom"].append((g.name, tuple(colors)))
                if isolate_free != tdom:
                    violations["if"].append((g.name, tuple(colors)))
                if conn and conn[0] != conn[1]:
                    violations["conn"].append((g.name, tuple(colors)))
    detail = f"{len(corpus)} graphs, {colorings_checked} colorings"
    for key, name in (
        ("dom", "dominator coloring matches domination compelling"),
        ("tdom", "total dominator coloring matches total-domination compelling"),
        ("if", "isolate-free compelling matches total-domination compelling"),
        ("conn", "connectivity compelling matches connected-domination compelling"),
    ):
        result.add_violations(name, violations[key], detail)
    return result


def suite_bounds(seed: int = DEFAULT_SEED) -> SuiteResult:
    """General sandwich bounds for the upwards-closed properties, and the
    chromatic/connected-domination bounds for connectivity."""
    result = SuiteResult("bounds")
    corpus = main_corpus(seed)
    up_props = (
        SubsetProperty.DOM,
        SubsetProperty.TDOM,
        SubsetProperty.EDGE,
        SubsetProperty.CDOM,
    )
    bad_general = []
    bad_conn = []
    for g in corpus:
        chi = chromatic_number(g)
        for prop in up_props:
            m = min_property_size(prop, g)
            if m is None:
                continue
            value = _chi_p(g, prop)
            if value is None or not max(m, chi) <= value <= m + chi:
                bad_general.append((g.name, prop.value, value, m, chi))
        if g.n >= 2 and is_connected(g):
            gamma = min_property_size(SubsetProperty.CDOM, g)
            value = _chi_p(g, SubsetProperty.CONNECTED)
            if value is None or not max(chi, gamma) <= value <= chi + gamma:
                bad_conn.append((g.name, value, gamma, chi))
    result.add_violations(
        "upwards-closed sandwich bounds", bad_general, f"{len(corpus)} graphs"
    )
    result.add_violations("connectivity bounds via connected domination", bad_conn)
    return result


def suite_disjoint_union(seed: int = DEFAULT_SEED) -> SuiteResult:
    """Disjoint-union bounds for the distributing domination properties on
    sampled pairs of small corpus graphs, including the equality case."""
    result = SuiteResult("disjoint-union")
    corpus = [g for g in main_corpus(seed) if g.n <= 5]
    rng = random.Random(seed + 17)
    pairs = [(rng.choice(corpus), rng.choice(corpus)) for _ in range(40)]
    bad_chain = []
    bad_equality = []
    checked = 0
    for g1, g2 in pairs:
        union = disjoint_union(g1, g2)
        for prop in (SubsetProperty.DOM, SubsetProperty.TDOM):
            m1 = min_property_size(prop, g1)
            m2 = min_property_size(prop, g2)
            if m1 is None or m2 is None:
                continue
            c1 = _chi_p(g1, prop)
            c2 = _chi_p(g2, prop)
            lo, hi = disjoint_union_bounds(prop, [(c1, m1), (c2, m2)])
            cu = compelling_chromatic_number(union, prop).value
            checked += 1
            if cu is None or not lo <= cu <= hi:
                bad_chain.append((g1.name, g2.name, prop.value, lo, cu, hi))
            elif m1 == c1 and m2 == c2 and not lo == cu == hi:
                bad_equality.append((g1.name, g2.name, prop.value, lo, cu, hi))
    result.add_violations("disjoint-union chain holds", bad_chain, f"{checked} cases")
    result.add_violations("equality when both components are tight", bad_equality)
    return result


def suite_extremal(seed: int = DEFAULT_SEED) -> SuiteResult:
    """Extremal characterizations on the order <= 7 corpus slice: the
    value-2 and value-n characterizations and the high-chromatic collapse
    of the edge-compelling value."""
    result = SuiteResult("extremal")
    corpus = [g for g in main_corpus(seed) if g.n <= 7]
    bad_edge2 = []
    bad_conn2 = []
    bad_connn = []
    bad_high = []
    probe_hits: dict[tuple, list[str]] = {}
    for g in corpus:
        cb = is_complete_bipartite(g)
        edge = _chi_p(g, SubsetProperty.EDGE)
        conn = _chi_p(g, SubsetProperty.CONNECTED)
        chi = chromatic_number(g)
        if (edge == 2) != cb:
            bad_edge2.append((g.name, edge, cb))
        if (conn == 2) != cb:
            bad_conn2.append((g.name, conn, cb))
        if (conn == g.n) != is_complete(g):
            bad_connn.append((g.name, conn))
        if 2 * chi >= g.n + 2 and edge != chi:
            bad_high.append((g.name, chi, edge))
        if 2 * chi == g.n + 1 and edge != chi:
            shape = "connected" if is_connected(g) else "disconnected"
            probe_hits.setdefault((shape, g.n, chi, edge), []).append(g.name)
    for (shape, n, chi, edge), names in sorted(probe_hits.items()):
        result.notes.append(
            f"probe: {len(names)} {shape} graph(s) with n={n} have chromatic "
            f"number (n+1)/2 = {chi} but edge-compelling value {edge} "
            f"(e.g. {', '.join(names[:3])})"
        )
    result.add_violations(
        "edge-compelling equals 2 exactly for complete bipartite",
        bad_edge2,
        f"{len(corpus)} graphs",
    )
    result.add_violations(
        "connectivity-compelling equals 2 exactly for complete bipartite", bad_conn2
    )
    result.add_violations(
        "connectivity-compelling equals n exactly for complete graphs", bad_connn
    )
    result.add_violations(
        "chromatic number at least n/2+1 collapses the edge value", bad_high
    )
    if not result.notes:
        result.notes.append("probe: no graph at the (n+1)/2 threshold deviated")
    return result


def suite_diameter(seed: int = DEFAULT_SEED) -> SuiteResult:
    """Edge-compelling value 3 forces diameter at most 5 (on connected
    graphs, where diameter is defined)."""
    result = SuiteResult("diameter")
    corpus = main_corpus(seed)
    bad = []
    hits = 0
    for g in corpus:
        if not is_connected(g):
            continue
        if _chi_p(g, SubsetProperty.EDGE) == 3:
            hits += 1
            if diameter(g) > 5:
                bad.append((g.name, diameter(g)))
    result.add_violations(
        "edge value 3 implies diameter at most 5", bad, f"{hits} graphs with value 3"
    )
    return result


def suite_split(seed: int = DEFAULT_SEED) -> SuiteResult:
    """Split graphs S_m: the independent half is a committee under any
    m-coloring, so the edge-compelling value exceeds m."""
    result = SuiteResult("split")
    values = []
    for m in (3, 4, 5):
        g = make_split_graph(m)
        value = compelling_chromatic_number(g, SubsetProperty.EDGE).value
        values.append((m, value))
        result.add(
            f"edge-compelling S_{m} exceeds its chromatic number {m}",
            value is not None and value > m,
            f"value={value}",
        )
    result.notes.append(f"recorded exact values: {values}")
    return result


def suite_td3(seed: int = DEFAULT_SEED) -> SuiteResult:
    """The polynomial tester against brute-force 3-class enumeration, plus
    the connectivity-equals-3 consequence against the exact solver."""
    result = SuiteResult("td3")
    graphs = list(td3_corpus(seed)) + named_families(9)
    bad_agree = []
    bad_sound = []
    slow = 0.0
    for g in graphs:
        t0 = time.perf_counter()
        witness = has_tdc3(g)
        took = time.perf_counter() - t0
        if g.n == 9:
            slow = max(slow, took)
        if witness is not None:
            ok = (
                witness.coloring.k == 3
                and is_total_dominator_coloring(g, witness.coloring)
            )
            if not ok:
                bad_sound.append((g.name, witness))
        brute = has_tdc_bruteforce(g, 3)
        if (witness is not None) != brute:
            bad_agree.append((g.name, witness is not None, brute))
    result.add_violations(
        "tester agrees with brute-force 3-class existence",
        bad_agree,
        f"{len(graphs)} graphs",
    )
    result.add_violations(
        "tester witnesses are valid total dominator colorings", bad_sound
    )
    result.add(
        "tester under 1s per graph at order 9",
        slow < 1.0,
        f"max={slow * 1000:.1f}ms",
    )
    bad_conn3 = []
    for g in main_corpus(seed):
        if g.n < 2 or not is_connected(g):
            continue
        want = _chi_p(g, SubsetProperty.CONNECTED) == 3
        if chi_connected_is_3(g) != want:
            bad_conn3.append((g.name, want))
    result.add_violations("connectivity-equals-3 matches the exact solver", bad_conn3)
    return result


def suite_gadget(seed: int = DEFAULT_SEED) -> SuiteResult:
    """Universal-vertex gadget on all 64 labeled 4-vertex graphs: the
    augmented graph has edge-compelling value at most 4 exactly when the
    base graph is 3-colorable."""
    result = SuiteResult("gadget")
    slots = list(itertools.combinations(range(4), 2))
    bad = []
    for bits in range(64):
        edges = [slots[i] for i in range(6) if bits >> i & 1]
        g = Graph.from_edges(4, edges, name=f"G4#{bits}")
        three_colorable = any(
            all(assign[u] != assign[v] for u, v in edges)
            for assign in itertools.product(range(3), repeat=4)
        )
        value = compelling_chromatic_number(join_dominator(g), SubsetProperty.EDGE).value
        if (value is not None and value <= 4) != three_colorable:
            bad.append((bits, value, three_colorable))
    result.add_violations(
        "gadget: edge value at most 4 iff base 3-colorable", bad, "64 graphs"
    )
    return result


def suite_large_mop(seed: int = DEFAULT_SEED) -> SuiteResult:
    """Five-color construction on an 80-vertex maximal outerplanar graph:
    two unique adjacent colors on an edge plus a proper 3-coloring of the
    rest compels an edge in every committee.  (One-sided check; the exact
    value at this order is out of reach.)"""
    result = SuiteResult("large-mop")
    g = make_random_mop(80, seed=seed + 23)
    coloring = edge_compelling_five_coloring(g)
    report = is_compelling(g, coloring, SubsetProperty.EDGE)
    result.add(
        "five-color construction compels an edge on an 80-vertex mop",
        coloring.k == 5 and report.compelling,
        f"k={coloring.k} compelling={report.compelling}",
    )
    return result


SUITES = {
    "path-edge": suite_path_edge,
    "cycle-edge": suite_cycle_edge,
    "connected-families": suite_connected_families,
    "trees": suite_trees,
    "mop-claims": suite_mop_claims,
    "equivalences": suite_equivalences,
    "bounds": suite_bounds,
    "disjoint-union": suite_disjoint_union,
    "extremal": suite_extremal,
    "diameter": suite_diameter,
    "split": suite_split,
    "td3": suite_td3,
    "gadget": suite_gadget,
    "large-mop": suite_large_mop,
}


def run_suite(name: str, seed: int = DEFAULT_SEED) -> list[SuiteResult]:
    """Run one suite by name, or every suite for the name 'all'."""
    if name == "all":
        return [fn(seed) for fn in SUITES.values()]
    if name not in SUITES:
        valid = ", ".join(sorted(SUITES) + ["all"])
        raise ValueError(f"unknown suite {name!r}; expected one of: {valid}")
    return [SUITES[name](seed)]

"""The benchmark's three workloads: inputs made from the seed, the calls of
one timed pass, and the correctness gate run outside the timed region.

A workload is built in a fresh interpreter by :func:`build`, which returns a
list of :class:`Call`.  Each call's ``run`` produces a text output; the
gate checks outputs against independent oracles, and the runner compares
the outputs of every pass with the first and, at the default seed, with the
outputs recorded from the seed commit in ``golden/``.

The program is always reached through module attributes looked up at call
time (``solver.is_compelling``, ``cli.main``), so traced passes see the
wrapped functions.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
from dataclasses import dataclass
from typing import Callable

from compelling import cli, closed_forms, graphs, properties, solver, td3
from compelling.graphs import Graph
from compelling.properties import SubsetProperty as P

CHI_TIMEOUT_S = 60
NAIVE_COMMITTEE_CAP = 100_000


@dataclass
class Call:
    """One top-level call of a pass: ``run`` returns its output text and
    ``check`` returns a list of problems with that output (empty when it is
    correct)."""

    name: str
    run: Callable[[], str]
    check: Callable[[str], list]


def _permutation(n: int, rng: random.Random) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def relabel(g: Graph, rng: random.Random, name: str) -> Graph:
    """A copy of ``g`` under a random vertex permutation (outer cycle too)."""
    return _permuted(g, _permutation(g.n, rng), name)


def _permuted(g: Graph, perm: list[int], name: str) -> Graph:
    outer = None if g.outer_cycle is None else [perm[v] for v in g.outer_cycle]
    edges = [(perm[u], perm[v]) for u, v in g.edges]
    return Graph.from_edges(g.n, edges, name=name, outer_cycle=outer)


def _rng(seed: int, *parts) -> random.Random:
    return random.Random(f"{seed}:" + ":".join(str(p) for p in parts))


def _multipartite(parts: int, size: int) -> tuple[Graph, tuple[int, ...]]:
    """Complete multipartite graph with ``parts`` classes of ``size`` and its
    class coloring."""
    n = parts * size
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if u // size != v // size]
    g = Graph.from_edges(n, edges, name=f"K{parts}x{size}")
    return g, tuple(v // size for v in range(n))


def _relabel_coloring(g: Graph, colors, rng: random.Random, name: str):
    """``relabel`` for a graph together with a coloring of it."""
    perm = _permutation(g.n, rng)
    out = [0] * g.n
    for v, c in enumerate(colors):
        out[perm[v]] = c
    return _permuted(g, perm, name), solver.canonical_colors(out)


def _has_isolated(g: Graph) -> bool:
    return any(not g.adj[v] for v in range(g.n))


# ---------------------------------------------------------------------------
# chi-ladder
# ---------------------------------------------------------------------------

# Base instances: (label, graph factory, property, closed form or None,
# relabelled copies per pass).  The seed picks the vertex labels of every
# copy; canonical enumeration follows vertex order, so the copies exercise
# label-dependent search paths, while a full scan over every k (the
# infeasible calls and every k below the value) does the same work under
# any labelling.
LADDER = (
    # infeasible: an isolated vertex sinks every committee, every k scanned
    ("G11-3", lambda: graphs.make_random_graph(11, 0.3, 3), P.ISOLATE_FREE, None, 1),
    ("G11-1006", lambda: graphs.make_random_graph(11, 0.3, 1006), P.ISOLATE_FREE, None, 1),
    # feasible searches that stop at the first witness
    ("MOP12-1002", lambda: graphs.make_random_mop(12, 1002), P.CONNECTED, "mop", 1),
    ("MOP12-1003", lambda: graphs.make_random_mop(12, 1003), P.CONNECTED, "mop", 2),
    ("MOP11-1003", lambda: graphs.make_random_mop(11, 1003), P.CONNECTED, "mop", 2),
    ("MOP12-1000", lambda: graphs.make_random_mop(12, 1000), P.CDOM, None, 3),
    ("MOP12-1002", lambda: graphs.make_random_mop(12, 1002), P.EDGE, None, 2),
    ("G13-1003", lambda: graphs.make_random_graph(13, 0.3, 1003), P.DOM, None, 3),
    ("G13-1000", lambda: graphs.make_random_graph(13, 0.3, 1000), P.DOM, None, 3),
    ("G12-1004", lambda: graphs.make_random_graph(12, 0.3, 1004), P.TDOM, None, 2),
    ("G12-1000", lambda: graphs.make_random_graph(12, 0.3, 1000), P.TDOM, None, 2),
    ("G13-1004", lambda: graphs.make_random_graph(13, 0.3, 1004), P.ISOLATE_FREE, None, 1),
    ("G13-1003", lambda: graphs.make_random_graph(13, 0.3, 1003), P.EDGE, None, 2),
    # closed-form families
    ("P16", lambda: graphs.make_path(16), P.CONNECTED, "path", 1),
    ("P14", lambda: graphs.make_path(14), P.CONNECTED, "path", 2),
    ("P12", lambda: graphs.make_path(12), P.CONNECTED, "path", 2),
    ("C12", lambda: graphs.make_cycle(12), P.CONNECTED, "cycle", 3),
    ("C11", lambda: graphs.make_cycle(11), P.CONNECTED, "cycle", 2),
    ("C10", lambda: graphs.make_cycle(10), P.EDGE, "cycle", 3),
    ("T11-3", lambda: graphs.make_random_tree(11, 3), P.CONNECTED, "tree", 2),
    ("T11-4", lambda: graphs.make_random_tree(11, 4), P.CONNECTED, "tree", 1),
    ("T13-8", lambda: graphs.make_random_tree(13, 8), P.EDGE, "tree", 2),
)

_CLOSED = {
    ("mop", P.CONNECTED): closed_forms.chi_conn_mop,
    ("path", P.CONNECTED): lambda g: closed_forms.chi_conn_path(g.n),
    ("path", P.EDGE): lambda g: closed_forms.chi_edge_path(g.n),
    ("cycle", P.CONNECTED): lambda g: closed_forms.chi_conn_cycle(g.n),
    ("cycle", P.EDGE): lambda g: closed_forms.chi_edge_cycle(g.n),
    ("tree", P.CONNECTED): closed_forms.chi_conn_tree,
    ("tree", P.EDGE): closed_forms.chi_edge_tree,
}


def _cli(argv: list[str]) -> str:
    """Run the CLI in-process and return its standard output; a non-zero
    exit status is an error."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"compelling {' '.join(argv)} exited with {code}")
    return out.getvalue()


def _chi_output(text: str) -> str:
    """The chi JSON report without its timing field."""
    report = json.loads(text)
    report.pop("elapsed_s", None)
    return json.dumps(report, sort_keys=True)


def _check_chi(g: Graph, prop: P, family: str | None, text: str) -> list:
    row = json.loads(text)["results"][0]
    value, witness = row["value"], row["witness"]
    problems = []
    if value is None:
        # every infeasible call in the ladder is infeasible by construction
        if not (prop is P.ISOLATE_FREE and _has_isolated(g)):
            problems.append("unexpected INFEASIBLE")
        return problems
    try:
        coloring = solver.Coloring(tuple(witness))
        solver.validate_coloring(g, coloring)
    except ValueError as exc:
        return [f"bad witness: {exc}"]
    if coloring.k != value:
        problems.append(f"witness uses {coloring.k} colors, value is {value}")
    if not solver.is_compelling_naive(g, coloring, prop):
        problems.append("witness does not compel the property")
    if family is not None:
        want = _CLOSED[family, prop](g)
        if value != want:
            problems.append(f"value {value} differs from closed form {want}")
    return problems


def chi_ladder(seed: int, workdir) -> list[Call]:
    calls = []
    for label, make, prop, family, copies in LADDER:
        base = make()
        for copy in range(copies):
            name = f"{label}.{prop.value}.{copy}"
            g = relabel(base, _rng(seed, name), f"{name}.txt")
            graphs.save_graph(g, workdir / g.name)
            argv = ["chi", g.name, "--property", prop.value, "--format", "json",
                    "--timeout-secs", str(CHI_TIMEOUT_S)]
            calls.append(
                Call(
                    name,
                    lambda argv=argv: _chi_output(_cli(argv)),
                    lambda text, g=g, prop=prop, family=family: _check_chi(
                        g, prop, family, text
                    ),
                )
            )
    return calls


# ---------------------------------------------------------------------------
# verify-all
# ---------------------------------------------------------------------------

# Checks whose detail is a measured time; their detail is masked before
# outputs are compared.
_TIMED_CHECK = re.compile(r"\bunder \d+(s|min)\b")


def _verify_output(text: str) -> str:
    report = json.loads(text)
    for row in report["results"]:
        if _TIMED_CHECK.search(row["check"]):
            row["detail"] = "<time>"
    return json.dumps(report, sort_keys=True)


def _check_verify(text: str) -> list:
    report = json.loads(text)
    return [
        f"{row['suite']}: {row['check']} failed ({row['detail']})"
        for row in report["results"]
        if not row["passed"]
    ]


# verify-all runs the whole verification at these offsets from the seed: the
# corpora of one seed cost up to a tenth more or less than those of another,
# and five of them average that out.
VERIFY_SEED_OFFSETS = (0, 1000, 2000, 3000, 4000)


def verify_all(seed: int, workdir) -> list[Call]:
    calls = []
    for offset in VERIFY_SEED_OFFSETS:
        argv = ["verify", "all", "--seed", str(seed + offset), "--format", "json"]
        calls.append(
            Call(
                f"verify-all.{seed + offset}",
                lambda argv=argv: _verify_output(_cli(argv)),
                _check_verify,
            )
        )
    return calls


# ---------------------------------------------------------------------------
# large-n
# ---------------------------------------------------------------------------


def _report_text(report) -> str:
    return json.dumps(
        {
            "compelling": report.compelling,
            "counterexample": report.counterexample,
            "method": report.method,
        }
    )


def _check_report(g: Graph, colors, prop: P, expect: bool | None, text: str) -> list:
    out = json.loads(text)
    coloring = solver.Coloring(tuple(colors))
    problems = []
    if expect is not None and out["compelling"] != expect:
        problems.append(f"verdict {out['compelling']}, expected {expect}")
    cx = out["counterexample"]
    if out["compelling"]:
        if cx is not None:
            problems.append("compelling verdict carries a counterexample")
        size = 1
        for cls in coloring.classes:
            size *= len(cls)
        if size <= NAIVE_COMMITTEE_CAP and not solver.is_compelling_naive(g, coloring, prop):
            problems.append("naive check finds a violating committee")
    else:
        mask = 0
        for v in cx or ():
            mask |= 1 << v
        classes = [coloring.colors[v] for v in cx or ()]
        if classes != list(range(coloring.k)) or properties.eval_property_mask(prop, g, mask):
            problems.append(f"counterexample {cx} is not a violating committee")
    return problems


def _tdc3_text(w) -> str:
    if w is None:
        return json.dumps(None)
    return json.dumps({"colors": w.coloring.colors, "case": w.case_tag,
                       "guessed": w.guessed_vertices})


def _check_tdc3(g: Graph, expect: bool, text: str) -> list:
    out = json.loads(text)
    if (out is not None) != expect:
        return [f"has_tdc3 answered {out is not None}, expected {expect}"]
    if out is not None:
        coloring = solver.Coloring(tuple(out["colors"]))
        if coloring.k != 3 or not td3.is_total_dominator_coloring(g, coloring):
            return ["witness is not a 3-class total dominator coloring"]
    return []


def _check_bounds(want: tuple[int, int], text: str) -> list:
    got = tuple(json.loads(text))
    return [] if got == want else [f"bounds {got}, expected {want}"]


def _mop_bounds(g: Graph) -> tuple[int, int]:
    """Bounds for connected and cdom on a maximal outerplanar graph, from
    its connected domination number and chromatic number 3."""
    gamma_c = graphs.connected_domination_number(g)
    return max(gamma_c, 3), gamma_c + 3


def _check_bruteforce(g: Graph, text: str) -> list:
    value = json.loads(text)
    tester = td3.has_tdc3(g) is not None and not graphs.is_complete_bipartite(g)
    if (value == 3) != tester:
        return [f"brute force gives {value}, tester says td=3 is {tester}"]
    return []


def large_n(seed: int, workdir) -> list[Call]:
    calls = []

    def check_call(name, g, colors, prop, expect):
        coloring = solver.Coloring(tuple(colors))
        calls.append(
            Call(
                name,
                lambda: _report_text(solver.is_compelling(g, coloring, prop)),
                lambda text: _check_report(g, colors, prop, expect, text),
            )
        )

    # committee enumeration on class colorings of complete multipartite graphs
    for parts, size in ((7, 4), (8, 4), (6, 6)):
        for prop in (P.CONNECTED, P.CDOM):
            name = f"K{parts}x{size}.{prop.value}"
            g, colors = _relabel_coloring(*_multipartite(parts, size), _rng(seed, name), name)
            check_call(name, g, colors, prop, True)

    # the five-color construction on an 80-vertex maximal outerplanar graph
    mop = graphs.make_random_mop(80, seed=_rng(seed, "mop80").getrandbits(32))
    five = closed_forms.edge_compelling_five_coloring(mop).colors
    check_call("MOP80.five.edge", mop, five, P.EDGE, True)
    check_call("MOP80.five.dom", mop, five, P.DOM, None)
    check_call("MOP80.five.connected", mop, five, P.CONNECTED, None)
    three = graphs.mop_three_coloring(mop)
    check_call("MOP80.three.tdom", mop, three, P.TDOM, None)

    # the polynomial tester at n = 20, 40, 60
    for n in (20, 40, 60):
        cases = [
            (f"fan{n}", graphs.make_fan(n - 1), True),
            (f"K{n // 2},{n // 2}", graphs.make_complete_bipartite(n // 2, n // 2), True),
            (f"MOP{n}", graphs.make_random_mop(n, _rng(seed, "tdc3", n).getrandbits(32)), None),
        ]
        if n <= 40:
            cases.append((f"S{n // 2}", graphs.make_split_graph(n // 2), False))
        for label, base, expect in cases:
            g = relabel(base, _rng(seed, "tdc3", label), label)
            if expect is None:
                # a maximal outerplanar graph has one exactly when some
                # vertex is adjacent to all others
                expect = any(g.degree(v) == g.n - 1 for v in range(g.n))
            calls.append(
                Call(
                    f"has_tdc3.{label}",
                    lambda g=g: _tdc3_text(td3.has_tdc3(g)),
                    lambda text, g=g, expect=expect: _check_tdc3(g, expect, text),
                )
            )

    # the bounds phase alone, at the subset-enumeration cap; the expected
    # bounds come from the domination numbers of paths and cycles, and from
    # connected domination on maximal outerplanar graphs
    for label, base, prop, want in (
        ("P18", graphs.make_path(18), P.DOM, lambda g: (6, 8)),
        ("C20", graphs.make_cycle(20), P.TDOM, lambda g: (10, 12)),
        ("MOP20-7", graphs.make_random_mop(20, 7), P.CDOM, _mop_bounds),
        ("MOP19-3", graphs.make_random_mop(19, 3), P.CONNECTED, _mop_bounds),
    ):
        g = relabel(base, _rng(seed, "bounds", label), label)
        calls.append(
            Call(
                f"chi_bounds.{label}.{prop.value}",
                lambda g=g, prop=prop: json.dumps(solver.chi_bounds(g, prop, max_n=20)),
                lambda text, g=g, want=want: _check_bounds(want(g), text),
            )
        )

    # brute-force total dominator chromatic number, the tester's oracle
    for label, base in (
        ("C10", graphs.make_cycle(10)),
        ("P10", graphs.make_path(10)),
        ("T10-3", graphs.make_random_tree(10, 3)),
        ("K5,5", graphs.make_complete_bipartite(5, 5)),
    ):
        g = relabel(base, _rng(seed, "bruteforce", label), label)
        calls.append(
            Call(
                f"bruteforce.{label}",
                lambda g=g: json.dumps(td3.chi_td_bruteforce(g)),
                lambda text, g=g: _check_bruteforce(g, text),
            )
        )
    return calls


WORKLOADS = {"chi-ladder": chi_ladder, "verify-all": verify_all, "large-n": large_n}


def build(workload: str, seed: int, workdir) -> list[Call]:
    return WORKLOADS[workload](seed, workdir)

import argparse
import csv
import hashlib
import io
import itertools
import json
import os
import re
import resource
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import compelling
from compelling import cli, solver, verify
from compelling import (
    Graph,
    format_graph,
    make_complete_bipartite,
    make_cycle,
    make_empty,
    make_path,
    make_random_graph,
)
from compelling.closed_forms import FAMILIES, chi_edge_cycle
from compelling.cli import main, render_family_csv
from compelling.verify import SuiteResult


@pytest.fixture
def c5_file(tmp_path):
    path = tmp_path / "c5.graph"
    path.write_text(format_graph(make_cycle(5)))
    return str(path)


@pytest.fixture
def c5_coloring(tmp_path):
    path = tmp_path / "c5.coloring"
    path.write_text("0 0\n1 1\n2 0\n3 1\n4 2\n")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_capped(*argv, limit=2_000_000_000):
    """``python -m compelling`` in a child process whose address space is
    capped at ``limit`` bytes, 2 GB by default, so building a huge graph
    fails fast with a MemoryError instead of filling the machine's memory."""
    src = str(Path(compelling.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    return subprocess.run(
        [sys.executable, "-m", "compelling", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )


# ---------------------------------------------------------------------------
# chi
# ---------------------------------------------------------------------------


def test_chi_connected_five_cycle(capsys, c5_file):
    code, out, _ = run(capsys, "chi", c5_file, "--property", "connected")
    assert code == 0
    assert "chi: 4" in out
    assert "witness:" in out


def test_chi_edge_six_path(capsys, tmp_path):
    path = tmp_path / "p6.graph"
    path.write_text(format_graph(make_path(6)))
    code, out, _ = run(capsys, "chi", str(path), "--property", "edge")
    assert code == 0
    assert "chi: 3" in out
    # witness lines are "v: c" and form a proper coloring with 3 colors
    lines = out[out.index("witness:") :].splitlines()[1:]
    colors = [int(line.split(": ")[1]) for line in lines]
    assert len(colors) == 6 and max(colors) == 2
    assert all(colors[i] != colors[i + 1] for i in range(5))


def test_chi_infeasible_exits_zero(capsys, tmp_path):
    path = tmp_path / "e4.graph"
    path.write_text(format_graph(make_empty(4)))
    code, out, _ = run(capsys, "chi", str(path), "--property", "edge")
    assert code == 0
    assert "INFEASIBLE" in out


def test_chi_malformed_graph_exits_two(capsys, tmp_path):
    path = tmp_path / "bad.graph"
    path.write_text("3 9\n0 1\n")
    code, _, err = run(capsys, "chi", str(path), "--property", "dom")
    assert code == 2
    assert "error" in err


def test_chi_missing_file_exits_two(capsys, tmp_path):
    code, _, err = run(capsys, "chi", str(tmp_path / "nope"), "--property", "dom")
    assert code == 2


def test_chi_unknown_property_exits_two(capsys, c5_file):
    code, _, err = run(capsys, "chi", c5_file, "--property", "clique")
    assert code == 2
    assert "unknown property" in err


def test_chi_json_format(capsys, c5_file):
    code, out, _ = run(capsys, "chi", c5_file, "--property", "dom", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["results"][0]["value"] == 3


def test_chi_timeout_exits_one(capsys, tmp_path):
    # the search at 6 colors runs past 1024 steps, where its deadline check
    # stops it; the doomed cut finishes cycles as long as C14 in fewer
    path = tmp_path / "g16.graph"
    path.write_text(format_graph(make_random_graph(16, 0.3, 2)))
    code, _, err = run(
        capsys, "chi", str(path), "--property", "connected", "--timeout-secs", "0"
    )
    assert code == 1
    assert "timeout" in err


def test_chi_on_a_long_cycle_times_out_without_a_traceback(capsys, tmp_path):
    # the bounds run a chromatic number search one level per vertex
    path = tmp_path / "c1501.graph"
    path.write_text(format_graph(make_cycle(1501)))
    code, _, err = run(
        capsys,
        "chi",
        str(path),
        "--property",
        "edge",
        "--max-n",
        "2000",
        "--timeout-secs",
        "0",
    )
    assert code == 1
    assert err.startswith("timeout:")
    assert "Traceback" not in err


def test_chi_on_a_long_cycle_finishes(capsys, tmp_path):
    # the EDGE cut ends every branch at once, so the search finishes
    path = tmp_path / "c1501.graph"
    path.write_text(format_graph(make_cycle(1501)))
    code, out, err = run(
        capsys,
        "chi",
        str(path),
        "--property",
        "edge",
        "--max-n",
        "2000",
        "--timeout-secs",
        "60",
    )
    assert code == 0
    assert f"chi: {chi_edge_cycle(1501)}" in out
    assert "Traceback" not in err


def test_chi_connected_on_a_long_cycle_times_out_in_a_small_heap(tmp_path):
    # the early committee searches of C1501 at 1,499 colors all cut, so the
    # search builds the separation-pair table, 1,501 low-link searches of
    # 1,500 vertices; it stops at the deadline within a row, in 250 MB
    path = tmp_path / "c1501.graph"
    path.write_text(format_graph(make_cycle(1501)))
    done = run_capped(
        "chi", str(path), "--property", "connected", "--max-n", "2000",
        "--timeout-secs", "1", limit=250_000_000,
    )
    assert done.returncode == 1
    assert done.stderr.startswith("timeout:")
    assert "Traceback" not in done.stderr
    assert not done.stdout


def test_chi_refuses_an_order_over_the_cap_from_the_header(tmp_path):
    # a graph of 99,999,999,999 vertices is never built
    path = tmp_path / "huge.graph"
    path.write_text("99999999999 0\n")
    done = run_capped("chi", str(path), "--property", "dom")
    assert done.returncode == 2
    assert done.stderr == "error: graph has 99999999999 vertices, over the cap of 16\n"
    assert not done.stdout


def test_chi_runs_out_of_memory_loading_a_huge_graph(tmp_path):
    # a --max-n over the header lets the graph be built, which fails under
    # the address-space cap; 250 MB keeps the failed build short
    path = tmp_path / "huge.graph"
    path.write_text("99999999999 0\n")
    done = run_capped(
        "chi", str(path), "--property", "dom", "--max-n", "99999999999",
        limit=250_000_000,
    )
    assert done.returncode == 2
    assert done.stderr == f"error: cannot load graph file {path}: out of memory\n"
    assert not done.stdout


def test_chi_times_out_in_the_bounds_without_a_traceback(capsys, tmp_path):
    # the connected domination search of the bounds outlasts the deadline
    path = tmp_path / "g30.graph"
    path.write_text(format_graph(make_random_graph(30, 0.1, 4)))
    code, _, err = run(
        capsys,
        "chi",
        str(path),
        "--property",
        "cdom",
        "--max-n",
        "40",
        "--timeout-secs",
        "0",
    )
    assert code == 1
    assert err.startswith("timeout:")
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def test_check_refuses_a_graph_over_the_coloring_from_its_header(tmp_path):
    # the coloring names every vertex, one a line, so a graph of
    # 99,999,999,999 vertices is refused from its header and never built
    graph = tmp_path / "huge.graph"
    graph.write_text("99999999999 0\n")
    coloring = tmp_path / "two.coloring"
    coloring.write_text("0 0\n1 1\n")
    done = run_capped("check", str(graph), str(coloring), "--property", "dom")
    assert done.returncode == 2
    assert done.stderr == "error: coloring is partial: vertex 2 unassigned\n"
    assert not done.stdout


def test_check_compelling(capsys, c5_file, c5_coloring):
    code, out, _ = run(capsys, "check", c5_file, c5_coloring, "--property", "dom")
    assert code == 0
    assert out.strip() == "COMPELLING"


def test_check_not_compelling_prints_committee(capsys, c5_file, c5_coloring):
    code, out, _ = run(capsys, "check", c5_file, c5_coloring, "--property", "connected")
    assert code == 0
    assert "NOT-COMPELLING" in out
    assert "counterexample committee: 2 1 4" in out


def test_check_improper_coloring_names_edge(capsys, c5_file, tmp_path):
    bad = tmp_path / "bad.coloring"
    bad.write_text("0 0\n1 0\n2 1\n3 0\n4 1\n")
    code, _, err = run(capsys, "check", c5_file, str(bad), "--property", "dom")
    assert code == 2
    assert "0 and 1" in err


def test_check_partial_coloring_rejected(capsys, c5_file, tmp_path):
    bad = tmp_path / "partial.coloring"
    bad.write_text("0 0\n1 1\n2 0\n3 1\n")
    code, _, err = run(capsys, "check", c5_file, str(bad), "--property", "dom")
    assert code == 2
    assert "partial" in err


def test_check_undecodable_coloring_rejected(capsys, c5_file, tmp_path):
    bad = tmp_path / "binary.coloring"
    bad.write_bytes(b"\xff\xfe\x00")
    code, _, err = run(capsys, "check", c5_file, str(bad), "--property", "dom")
    assert code == 2
    assert "bad coloring file" in err


def test_check_gap_coloring_rejected(capsys, c5_file, tmp_path):
    bad = tmp_path / "gap.coloring"
    bad.write_text("0 0\n1 2\n2 0\n3 2\n4 3\n")
    code, _, err = run(capsys, "check", c5_file, str(bad), "--property", "dom")
    assert code == 2
    assert "unused" in err


def class_coloring_files(tmp_path, parts, size, edge):
    """Files of a graph on ``parts`` classes of ``size`` consecutive
    vertices, with the edge uv (u < v, in different classes) exactly when
    ``edge(u, v)``, and of its class coloring."""
    n = parts * size
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if u // size != v // size and edge(u, v)
    ]
    graph = tmp_path / "classes.graph"
    graph.write_text(format_graph(Graph.from_edges(n, edges)))
    coloring = tmp_path / "classes.coloring"
    coloring.write_text("".join(f"{v} {v // size}\n" for v in range(n)))
    return str(graph), str(coloring)


@pytest.mark.parametrize("prop", ["connected", "cdom"])
def test_check_ten_classes_of_six_within_the_timeout(capsys, tmp_path, prop):
    # the complete multipartite graph: 6^10 committees, and the committee
    # search cuts after at most two picks
    graph, coloring = class_coloring_files(tmp_path, 10, 6, lambda u, v: True)
    code, out, _ = run(
        capsys, "check", graph, coloring, "--property", prop, "--timeout-secs", "5"
    )
    assert code == 0
    assert out.strip() == "COMPELLING"


@pytest.mark.parametrize("prop", ["dom", "tdom", "if", "cdom"])
def test_check_ten_classes_of_six_names_the_committee_at_once(
    capsys, tmp_path, prop
):
    # vertex 0 misses the last vertex of every class: the per-vertex test
    # names the least committee of 6^10 with no committee scan
    graph, coloring = class_coloring_files(
        tmp_path, 10, 6, lambda u, v: u or v % 6 != 5
    )
    code, out, _ = run(
        capsys, "check", graph, coloring, "--property", prop, "--timeout-secs", "0"
    )
    first = 1 if prop == "dom" else 0
    assert code == 0
    assert out.splitlines() == [
        "NOT-COMPELLING",
        "counterexample committee: " + " ".join(map(str, [first, *range(11, 60, 6)])),
    ]


def test_check_timeout_exits_one_without_a_traceback(capsys, tmp_path):
    # each class joined to the next only: the committee search cuts at the
    # last class, after 21,844 steps
    graph, coloring = class_coloring_files(
        tmp_path, 8, 4, lambda u, v: v // 4 - u // 4 == 1
    )
    code, out, err = run(
        capsys, "check", graph, coloring, "--property", "connected",
        "--timeout-secs", "0",
    )
    assert code == 1
    assert out == ""
    assert err.startswith("timeout:")
    assert "committee search" in err
    assert "Traceback" not in err


BAD_TIMEOUTS = ("nan", "inf", "-inf", "-1", "soon")


def run_usage_error(capsys, *argv):
    """Run the CLI on arguments argparse must refuse; return its stderr."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    return capsys.readouterr().err


@pytest.mark.parametrize("value", BAD_TIMEOUTS)
def test_chi_rejects_a_bad_timeout(capsys, c5_file, value):
    err = run_usage_error(
        capsys, "chi", c5_file, "--property", "dom", f"--timeout-secs={value}"
    )
    assert "--timeout-secs" in err


@pytest.mark.parametrize("value", BAD_TIMEOUTS)
def test_check_rejects_a_bad_timeout(capsys, c5_file, c5_coloring, value):
    err = run_usage_error(
        capsys,
        "check",
        c5_file,
        c5_coloring,
        "--property",
        "dom",
        f"--timeout-secs={value}",
    )
    assert "--timeout-secs" in err


# ---------------------------------------------------------------------------
# family-table
# ---------------------------------------------------------------------------


def parse_family_csv(text: str) -> list[dict]:
    """The rows of a ``family-table`` CSV report: the inverse of
    :func:`compelling.cli.render_family_csv`."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if header != ["n", "solver", "closed_form", "match"]:
        raise ValueError(f"unexpected header {header}")
    rows = []
    for rec in reader:
        if not rec:
            continue
        n, solver_value, closed, match = rec
        rows.append(
            {
                "n": int(n),
                "solver": None if solver_value == "infeasible" else int(solver_value),
                "closed_form": int(closed) if closed else None,
                "match": None if match == "" else match == "true",
            }
        )
    return rows


def test_family_table_paths_all_match(capsys):
    code, out, _ = run(
        capsys, "family-table", "path", "--n-range", "2:12", "--property", "edge"
    )
    assert code == 0
    rows = parse_family_csv(out)
    assert [r["n"] for r in rows] == list(range(2, 13))
    assert all(r["match"] is True for r in rows)
    assert [r["solver"] for r in rows] == [2, 2, 3, 3, 3, 4, 4, 4, 4, 4, 4]


def test_family_table_cycles_connected(capsys):
    code, out, _ = run(
        capsys, "family-table", "cycle", "--n-range", "3:12", "--property", "connected"
    )
    assert code == 0
    rows = parse_family_csv(out)
    assert [r["solver"] for r in rows] == [3, 2, 4, 5, 6, 7, 8, 9, 10, 11]
    assert all(r["match"] is True for r in rows)


def test_family_table_random_mops(capsys):
    code, out, _ = run(
        capsys,
        "family-table",
        "mop-random",
        "--n-range",
        "3:11",
        "--property",
        "connected",
        "--seed",
        "5",
    )
    assert code == 0
    rows = parse_family_csv(out)
    assert len(rows) == 9
    assert all(r["match"] is True for r in rows)


@pytest.mark.parametrize("value", BAD_TIMEOUTS)
def test_family_table_rejects_a_bad_timeout(capsys, value):
    err = run_usage_error(
        capsys,
        "family-table",
        "path",
        "--n-range",
        "2:6",
        "--property",
        "edge",
        f"--timeout-secs={value}",
    )
    assert "--timeout-secs" in err


def test_zero_timeout_is_accepted(capsys, c5_file):
    # zero is a valid budget: the search stops at its first deadline check
    code, out, _ = run(
        capsys, "chi", c5_file, "--property", "dom", "--timeout-secs", "0"
    )
    assert code == 0
    assert "chi: 3" in out


@pytest.mark.parametrize("prop", ["dom", "tdom", "if", "edge", "connected", "cdom"])
@pytest.mark.parametrize(
    "graph", [make_path(4), make_cycle(5), make_cycle(8)], ids=["P4", "C5", "C8"]
)
def test_zero_timeout_answers_as_untimed(capsys, tmp_path, graph, prop):
    # these searches, and C8's separation-pair table, end before any
    # deadline check fires
    path = tmp_path / "g.graph"
    path.write_text(format_graph(graph))
    untimed = run(capsys, "chi", str(path), "--property", prop)
    timed = run(capsys, "chi", str(path), "--property", prop, "--timeout-secs", "0")
    assert timed[:2] == untimed[:2]
    assert untimed[0] == 0


def test_family_table_csv_roundtrip(capsys):
    code, out, _ = run(
        capsys, "family-table", "path", "--n-range", "2:6", "--property", "edge"
    )
    rows = parse_family_csv(out)
    assert parse_family_csv(render_family_csv(rows)) == rows


def test_family_table_truncates_beyond_cap(capsys):
    code, out, err = run(
        capsys,
        "family-table",
        "path",
        "--n-range",
        "2:20",
        "--property",
        "edge",
        "--max-n",
        "8",
    )
    assert code == 0
    rows = parse_family_csv(out)
    assert rows[-1]["n"] == 8
    assert "truncated" in err


def test_family_table_truncates_before_building_an_order_over_the_cap():
    done = run_capped(
        "family-table", "path", "--n-range", "99999999999:99999999999",
        "--property", "dom",
    )
    assert done.returncode == 0
    assert done.stderr == (
        "warning: range truncated at n=99999999999: "
        "instance has 99999999999 vertices, cap is 16\n"
    )
    assert parse_family_csv(done.stdout) == []


def test_family_table_skips_a_far_negative_range_with_one_warning(capsys):
    # the n below the family minimum are skipped in one step, with one
    # line for all of them
    start = time.perf_counter()
    code, out, err = run(
        capsys, "family-table", "path", "--n-range=-2000000:1", "--property", "dom"
    )
    assert time.perf_counter() - start < 5
    assert code == 0
    assert err == "warning: skipping n=-2000000..0: below the path family minimum\n"
    assert parse_family_csv(out) == [
        {"n": 1, "solver": 1, "closed_form": None, "match": None}
    ]


def test_family_table_keeps_the_line_of_a_single_skipped_n(capsys):
    code, _, err = run(
        capsys, "family-table", "cycle", "--n-range", "2:3", "--property", "edge"
    )
    assert code == 0
    assert err == "warning: skipping n=2: below the cycle family minimum\n"


def test_family_table_budget_runs_out_between_instances(capsys, monkeypatch):
    # the clock passes the deadline once P2 is solved, so P3 is never built
    now = [0.0]
    monkeypatch.setattr(cli.time, "monotonic", lambda: now[0])
    solve = cli.compelling_chromatic_number
    built = []

    def solve_then_late(g, *args, **kwargs):
        built.append(g.n)
        found = solve(g, *args, **kwargs)
        now[0] = 10.0
        return found

    monkeypatch.setattr(cli, "compelling_chromatic_number", solve_then_late)
    code, out, err = run(
        capsys, "family-table", "path", "--n-range", "2:6", "--property", "edge",
        "--timeout-secs", "1",
    )
    assert code == 0
    assert err == "warning: range truncated at n=3: time budget exhausted\n"
    assert parse_family_csv(out) == [
        {"n": 2, "solver": 2, "closed_form": 2, "match": True}
    ]
    assert built == [2]


def test_family_table_budget_runs_out_inside_an_instance(capsys, monkeypatch):
    # the clock passes the deadline once the bounds of the 16-vertex tree
    # are in, and its EDGE search at 4 colors runs past 1024 steps, so the
    # solver raises inside that instance; the row of n=15 stays
    now = [0.0]
    monkeypatch.setattr(solver.time, "monotonic", lambda: now[0])
    bounds = solver.chi_bounds

    def bounds_then_late(g, *args, **kwargs):
        found = bounds(g, *args, **kwargs)
        if g.n == 16:
            now[0] = 10.0
        return found

    monkeypatch.setattr(solver, "chi_bounds", bounds_then_late)
    code, out, err = run(
        capsys, "family-table", "tree-random", "--n-range", "15:16",
        "--property", "edge", "--timeout-secs", "1",
    )
    assert code == 0
    assert err == "warning: range truncated at n=16: time budget exhausted\n"
    assert parse_family_csv(out) == [
        {"n": 15, "solver": 4, "closed_form": 4, "match": True}
    ]


def test_family_order_is_the_instance_order():
    for floor, order, build, _ in FAMILIES.values():
        for n in range(floor, floor + 6):
            assert order(n) == build(n, 1729).n


def test_family_table_unknown_family(capsys):
    code, _, err = run(
        capsys, "family-table", "torus", "--n-range", "2:4", "--property", "edge"
    )
    assert code == 2
    assert "unknown family" in err


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    parser = cli.build_parser()
    action = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    return action.choices


def test_readme_usage_lines_name_the_parser_options():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI\n\n```sh\n", 1)[1].split("```", 1)[0]
    usage = {
        line.split()[1]: set(re.findall(r"--[\w-]+", line))
        for line in block.splitlines()
    }
    options = {
        name: {o for a in sub._actions for o in a.option_strings} - {"-h", "--help"}
        for name, sub in _subcommands().items()
    }
    assert usage == options


def test_readme_and_family_help_list_the_families():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = re.search(r"families: ((?:`[\w-]+`,?\s*)+)", text).group(1)
    assert re.findall(r"`([\w-]+)`", listed) == list(FAMILIES)
    family = next(
        a for a in _subcommands()["family-table"]._actions if a.dest == "family"
    )
    assert family.help.split("|") == list(FAMILIES)


def test_family_table_bad_range(capsys):
    code, _, err = run(
        capsys, "family-table", "path", "--n-range", "abc", "--property", "edge"
    )
    assert code == 2


def test_family_table_reversed_range(capsys):
    code, out, err = run(
        capsys, "family-table", "path", "--n-range", "5:3", "--property", "edge"
    )
    assert code == 2
    assert not out
    assert "5 is above 3" in err


def test_family_table_seed_reproducible(capsys):
    args = (
        "family-table",
        "tree-random",
        "--n-range",
        "4:8",
        "--property",
        "connected",
        "--seed",
        "11",
        "--format",
        "json",
    )
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    r1, r2 = json.loads(out1), json.loads(out2)
    r1.pop("elapsed_s"), r2.pop("elapsed_s")
    assert r1 == r2


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_split_suite(capsys):
    code, out, _ = run(capsys, "verify", "split")
    assert code == 0
    assert out.count("PASS") == 3
    assert "NOTE" in out


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "bogus")
    assert code == 2
    assert "unknown suite" in err


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "gadget", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert all(r["passed"] for r in report["results"])


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_exits_one_when_a_check_fails(capsys, monkeypatch, fmt):
    good, bad = SuiteResult("good"), SuiteResult("bad")
    good.add("holds", True)
    bad.add("holds", True)
    bad.add("breaks", False, "a counterexample")
    results = {"passing": [good], "failing": [good, bad, SuiteResult("empty")]}
    monkeypatch.setattr(cli, "run_suite", lambda name, seed: results[name])
    code, _, _ = run(capsys, "verify", "passing", "--format", fmt)
    assert code == 0
    code, out, _ = run(capsys, "verify", "failing", "--format", fmt)
    assert code == 1
    assert "breaks" in out and "a counterexample" in out


# Reports of `verify td3`, `verify equivalences` and `verify mop-claims`
# with `--seed 1729 --format json`, which a rerun must reproduce.  Checks
# named after a time limit ("under 1s") carry a measured time as their
# detail, and elapsed_s is a measured time, so both are masked.
_TIMED_CHECK = re.compile(r"\bunder \d+(s|min)\b")
_PINNED_VERIFY_REPORTS = {
    "td3": [
        ("tester agrees with brute-force 3-class existence", "543 graphs"),
        ("tester witnesses are valid total dominator colorings", ""),
        ("tester under 1s per graph at order 9", "<time>"),
        ("connectivity-equals-3 matches the exact solver", ""),
    ],
    "equivalences": [
        (check, "500 graphs, 15766 colorings")
        for check in (
            "dominator coloring matches domination compelling",
            "total dominator coloring matches total-domination compelling",
            "isolate-free compelling matches total-domination compelling",
            "connectivity compelling matches connected-domination compelling",
        )
    ],
    "mop-claims": [
        ("mops: connectivity value is connected domination number + 2", "30 mops"),
        ("mops: removing a connected dominating set leaves a forest", ""),
        ("mops: chord covers are connected dominating sets", ""),
        ("mops: complement of a minimal connected dominating set has an edge", ""),
    ],
}


@pytest.mark.parametrize("suite", sorted(_PINNED_VERIFY_REPORTS))
def test_seeded_verify_report_is_pinned(capsys, suite):
    code, out, _ = run(capsys, "verify", suite, "--seed", "1729", "--format", "json")
    assert code == 0
    report = json.loads(out)
    report["elapsed_s"] = 0.0
    for row in report["results"]:
        if _TIMED_CHECK.search(row["check"]):
            row["detail"] = "<time>"
    assert report == {
        "command": f"verify {suite}",
        "elapsed_s": 0.0,
        "notes": [],
        "results": [
            {"check": check, "detail": detail, "passed": True, "suite": suite}
            for check, detail in _PINNED_VERIFY_REPORTS[suite]
        ],
        "seed": 1729,
    }


# a digest of each corpus's names and adjacency masks at seed 1729: the
# verify reports record only counts and verdicts, which hold on many corpora
_PINNED_CORPORA = {
    "main_corpus": "eccc0c8b401a297c",
    "td3_corpus": "acc2b05d84ed946a",
}


@pytest.mark.parametrize("corpus", sorted(_PINNED_CORPORA))
def test_verify_corpora_are_pinned(corpus):
    graphs = getattr(verify, corpus)(1729)
    text = "".join(f"{g.name} {' '.join(map(str, g.adj_bits))}\n" for g in graphs)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert (len(graphs), digest[:16]) == (500, _PINNED_CORPORA[corpus])


def test_check_json(capsys, c5_file, c5_coloring):
    code, out, _ = run(
        capsys, "check", c5_file, c5_coloring, "--property", "connected",
        "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["results"][0]["compelling"] is False
    assert report["results"][0]["counterexample"] == [2, 1, 4]


# ---------------------------------------------------------------------------
# One parser per process
# ---------------------------------------------------------------------------


def mixed_calls(tmp_path) -> list[list[str]]:
    """chi, check, verify and family-table in every format, with a usage
    error and a --help among them."""
    graph, coloring = tmp_path / "c5.graph", tmp_path / "c5.coloring"
    graph.write_text(format_graph(make_cycle(5)))
    coloring.write_text("0 0\n1 1\n2 0\n3 1\n4 2\n")
    g, c = str(graph), str(coloring)
    calls = []
    for fmt in ("text", "json"):
        calls.append(["chi", g, "--property", "connected", "--format", fmt])
        calls.append(["check", g, c, "--property", "dom", "--format", fmt])
        calls.append(["verify", "split", "--format", fmt])
    table = ["family-table", "cycle", "--n-range", "1:6", "--property", "connected"]
    calls += [table + ["--format", fmt] for fmt in ("csv", "text", "json")]
    calls[4:4] = [
        ["chi", g, "--property", "connected", "--format", "xml"],
        ["family-table", "--help"],
    ]
    return calls


def outcome(argv) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of ``main(argv)``, with the measured
    elapsed_s of a JSON report masked."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors and --help
            code = exc.code
    text = re.sub(r'"elapsed_s": [^,\n]+', '"elapsed_s": <time>', out.getvalue())
    return code, text, err.getvalue()


def test_repeated_main_calls_give_the_same_output(tmp_path):
    calls = mixed_calls(tmp_path)
    first = [outcome(argv) for argv in calls]
    assert [outcome(argv) for argv in calls] == first
    code, _, err = first[4]
    assert code == 2 and "invalid choice: 'xml'" in err
    code, out, _ = first[5]
    assert code == 0 and out.startswith("usage: compelling family-table")
    assert all(code == 0 for code, _, _ in first[:4] + first[6:])


def test_main_builds_the_parser_once_per_process(tmp_path, monkeypatch):
    # one build makes the parser and the parsers of its four subcommands;
    # every later call, a usage error and --help included, reuses them
    built = []
    init = argparse.ArgumentParser.__init__

    def init_spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    cli.build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", init_spy)
    for argv in mixed_calls(tmp_path) * 2:
        outcome(argv)
    assert len(built) == 5
    assert built[0] == "compelling"


def test_report_json_is_the_text_of_its_fields(tmp_path, monkeypatch):
    # the text json.dumps gives the deep copy that dataclasses.asdict makes
    reports = []
    to_json = cli.RunReport.to_json

    def to_json_spy(self):
        text = to_json(self)
        reports.append((self, text))
        return text

    monkeypatch.setattr(cli.RunReport, "to_json", to_json_spy)
    for argv in mixed_calls(tmp_path):
        if argv[-2:] == ["--format", "json"]:
            assert outcome(argv)[0] == 0
    commands = sorted(report.command.split()[0] for report, _ in reports)
    assert commands == ["check", "chi", "family-table", "verify"]
    assert any(report.notes for report, _ in reports)
    assert any(report.seed is None for report, _ in reports)
    assert any(report.seed is not None for report, _ in reports)
    rows = [row for report, _ in reports for row in report.results]
    assert any(isinstance(row.get("witness"), list) for row in rows)
    for report, text in reports:
        assert text == json.dumps(asdict(report), sort_keys=True, indent=2)


# ---------------------------------------------------------------------------
# python -m compelling
# ---------------------------------------------------------------------------


def test_module_entry_point_runs_the_cli():
    src = str(Path(compelling.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    done = subprocess.run(
        [sys.executable, "-m", "compelling", "--help"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert "family-table" in done.stdout


# ---------------------------------------------------------------------------
# Fuzzing the CLI in process
# ---------------------------------------------------------------------------

PROPERTY_NAMES = st.sampled_from(
    ("dom", "tdom", "if", "edge", "connected", " CDom ", "", "nope")
)
# nan, inf, negative values and "soon" are usage errors
TIMEOUTS = st.sampled_from(("0", "0.01", "1", "5", "5", "-1", "nan", "inf", "soon"))
# mostly none; else a stray line or a tail that is not UTF-8
FILE_FAULTS = st.sampled_from(
    (None,) * 6 + ("# c", "", "x y", "0 1 2", b"\xff\xfe", b"\x80 0\n")
)


@st.composite
def file_bytes(draw, lines):
    """``lines`` as a file, at times with a stray line or a tail that is
    not UTF-8."""
    lines = list(lines)
    fault = draw(FILE_FAULTS)
    if isinstance(fault, str):
        lines.insert(draw(st.integers(0, len(lines))), fault)
    text = "\n".join(lines).encode() + b"\n"
    return text + fault if isinstance(fault, bytes) else text


@st.composite
def graph_and_coloring_files(draw, n):
    """Graph and coloring files for a graph claiming ``n`` vertices.  For
    n of 1 to 8 the edges are mostly a graph on them and the coloring
    mostly a canonical one, proper or not; otherwise the edge and coloring
    lines are any pairs of small numbers."""
    pairs = st.lists(st.tuples(st.integers(-1, 9), st.integers(-1, 9)), max_size=9)
    if 1 <= n <= 8 and draw(st.integers(0, 3)) < 3:
        edges = [e for e in itertools.combinations(range(n), 2) if draw(st.booleans())]
        colors: list[int] = []
        for v in range(n):
            near = {colors[u] for u, w in edges if w == v}
            free = [c for c in range(max(colors, default=-1) + 2) if c not in near]
            colors.append(draw(st.sampled_from(free + [0])))
        assigned = list(enumerate(colors))
    else:
        edges = draw(pairs)
        assigned = draw(pairs)
    m = len(edges) + draw(st.sampled_from((0, 0, 0, 1)))
    lines = [f"{n} {m}", *(f"{u} {v}" for u, v in edges)]
    if 1 <= n <= 8 and not draw(st.integers(0, 3)):
        lines.append("outer: " + " ".join(map(str, draw(st.permutations(range(n))))))
    graph = draw(file_bytes(lines))
    return graph, draw(file_bytes(f"{v} {c}" for v, c in assigned))


def cli_code(argv) -> int:
    """The exit code of ``main(argv)``, its output swallowed."""
    code, _, err = outcome(argv)
    assert "Traceback" not in err
    return code


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_cli_fuzz_exits_zero_one_or_two(tmp_path_factory, data):
    # orders stay small in process: chi refuses a header over 8 vertices
    # by the --max-n drawn with it, check by the coloring's few lines, and
    # family-table instances have at most 14 (huge orders are run_capped's);
    # a range end far below the family minimum is skipped in one step
    draw = data.draw
    n = draw(st.integers(-1, 9))
    n = 99999999999 if n == 9 else n
    small = st.integers(-1, 12)
    max_n = draw(st.one_of(small, st.just(99999999999)) if n <= 8 else small)
    folder = tmp_path_factory.mktemp("fuzz")
    graph, coloring = folder / "g.graph", folder / "c.coloring"
    graph_text, coloring_text = draw(graph_and_coloring_files(n))
    graph.write_bytes(graph_text)
    coloring.write_bytes(coloring_text)
    options = ["--property", draw(PROPERTY_NAMES)]
    if draw(st.booleans()):
        options += ["--timeout-secs", draw(TIMEOUTS)]
    command = draw(st.sampled_from(("chi", "check", "family-table")))
    if command == "chi":
        argv = ["chi", str(graph), "--max-n", str(max_n), *options]
    elif command == "check":
        argv = ["check", str(graph), str(coloring), *options]
    else:
        family = draw(st.sampled_from(sorted(FAMILIES) + ["nope"]))
        ends = st.one_of(st.integers(-3, 6), st.integers(-99999999999, -4))
        lo, hi = draw(ends), draw(ends)
        span = f"{lo}{draw(st.sampled_from((':', ':', '..', '-', '~')))}{hi}"
        argv = ["family-table", family, f"--n-range={span}", "--max-n", str(max_n)]
        argv += options
    if draw(st.booleans()):
        argv += ["--format", "json"]
    assert cli_code(argv) in (0, 1, 2), argv

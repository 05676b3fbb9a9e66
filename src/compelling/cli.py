"""Command-line front end.

Subcommands: ``chi`` (exact compelling chromatic number of a graph file),
``check`` (is a given coloring compelling), ``family-table`` (solver vs
closed form over a parameter range of a family of
``closed_forms.FAMILIES``, CSV by default), and ``verify`` (run a
verification suite of :mod:`compelling.verify`).  The module holds the
commands only; the families and their closed forms live in
:mod:`compelling.closed_forms`.

Exit codes: 0 on success (including infeasible and not-compelling
verdicts), 1 on a failed verification assertion or timeout, 2 on usage,
parse, or input errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from dataclasses import dataclass, field
from functools import cache

from .closed_forms import FAMILIES
from .graphs import EXACT_CHROMATIC_CAP, Graph, GraphTooLarge, load_graph
from .properties import SubsetProperty
from .solver import (
    Coloring,
    SearchTimeout,
    compelling_chromatic_number,
    is_compelling,
    validate_coloring,
)
from .verify import DEFAULT_SEED, run_suite


@dataclass
class RunReport:
    """Machine-readable record of one CLI invocation.

    Rerunning with the same seed reproduces everything except the timing
    field.
    """

    command: str
    seed: int | None
    results: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    elapsed_s: float = 0.0

    def to_json(self) -> str:
        # the fields as they are: ``dataclasses.asdict`` would deep-copy
        # every result row first, for the same text
        return json.dumps(vars(self), sort_keys=True, indent=2)


class CliError(Exception):
    """Usage or input problem; maps to exit code 2."""


def _load_graph(path: str, max_n: int | None = None) -> Graph:
    try:
        return load_graph(path, max_n)
    except OSError as exc:
        raise CliError(f"cannot read graph file {path}: {exc}")
    except GraphTooLarge as exc:
        raise CliError(str(exc)) from exc
    except ValueError as exc:
        raise CliError(f"bad graph file {path}: {exc}")
    except MemoryError:
        raise CliError(f"cannot load graph file {path}: out of memory") from None


def _coloring_lines(path: str) -> list[str]:
    """The lines of a coloring file, blank lines and comments left out."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read coloring file {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise CliError(f"bad coloring file {path}: {exc}")
    stripped = (raw.strip() for raw in text.splitlines())
    return [line for line in stripped if line and not line.startswith("#")]


def _parse_coloring(lines: list[str], n: int) -> Coloring:
    """The coloring of a graph on ``n`` vertices that ``lines`` give, one
    'vertex color' a line; every vertex must have one."""
    assigned: dict[int, int] = {}
    for line in lines:
        parts = line.split()
        if len(parts) != 2:
            raise CliError(f"bad coloring line {line!r}, expected 'vertex color'")
        try:
            v, c = int(parts[0]), int(parts[1])
        except ValueError:
            raise CliError(f"bad coloring line {line!r}")
        if not 0 <= v < n:
            raise CliError(f"vertex {v} out of range for a graph on {n} vertices")
        if v in assigned:
            raise CliError(f"vertex {v} assigned twice")
        assigned[v] = c
    missing = next((v for v in range(n) if v not in assigned), None)
    if missing is not None:
        raise CliError(f"coloring is partial: vertex {missing} unassigned")
    try:
        return Coloring(tuple(assigned[v] for v in range(n)))
    except ValueError as exc:
        raise CliError(str(exc))


def _parse_property(name: str) -> SubsetProperty:
    try:
        return SubsetProperty.from_name(name)
    except ValueError as exc:
        raise CliError(str(exc))


def _parse_range(text: str) -> tuple[int, int]:
    for sep in (":", "..", "-"):
        if sep in text:
            lo, hi = text.split(sep, 1)
            try:
                low, high = int(lo), int(hi)
            except ValueError:
                break
            if low <= high:
                return low, high
            raise CliError(f"bad range {text!r}: {low} is above {high}")
    raise CliError(f"bad range {text!r}, expected like 3:12")


def _timeout_secs(text: str) -> float:
    """A ``--timeout-secs`` value: a finite number of seconds, zero or more.
    NaN would never compare past a deadline, so it is refused too."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(
            f"must be a finite number of seconds, zero or more, not {text!r}"
        )
    return value


# ---------------------------------------------------------------------------
# chi
# ---------------------------------------------------------------------------


def cmd_chi(args) -> int:
    g = _load_graph(args.graph, args.max_n)
    prop = _parse_property(args.property)
    start = time.perf_counter()
    try:
        res = compelling_chromatic_number(
            g, prop, max_n=args.max_n, timeout_s=args.timeout_secs
        )
    except SearchTimeout as exc:
        print(f"timeout: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        raise CliError(str(exc))
    report = RunReport(
        command=f"chi {args.graph} {prop.value}",
        seed=None,
        elapsed_s=time.perf_counter() - start,
    )
    row = {
        "graph": args.graph,
        "n": g.n,
        "m": g.edge_count,
        "property": prop.value,
        "value": res.value,
        "infeasible": res.infeasible,
        "lower_bound": res.lower_bound,
        "upper_bound": res.upper_bound,
        "witness": list(res.witness.colors) if res.witness else None,
    }
    report.results.append(row)
    if args.format == "json":
        print(report.to_json())
        return 0
    print(f"graph: {args.graph} (n={g.n}, m={g.edge_count})")
    print(f"property: {prop.value}")
    if res.infeasible:
        reason = (
            "no vertex subset satisfies the property"
            if res.lower_bound is None
            else "no compelling coloring exists at any number of colors"
        )
        print(f"chi: INFEASIBLE ({reason})")
        return 0
    print(f"chi: {res.value}")
    upper = res.upper_bound if res.upper_bound is not None else "unknown"
    print(f"bounds: lower={res.lower_bound} upper={upper}")
    print("witness:")
    for v, c in enumerate(res.witness.colors):
        print(f"{v}: {c}")
    return 0


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def cmd_check(args) -> int:
    # every vertex needs a line of the coloring, so a graph with more
    # vertices than that is refused from its header, before it is built,
    # with the error the coloring gives on a graph of that order
    lines = _coloring_lines(args.coloring)
    try:
        g = _load_graph(args.graph, len(lines))
    except CliError as exc:
        if isinstance(exc.__cause__, GraphTooLarge):
            _parse_coloring(lines, exc.__cause__.n)  # raises: it is partial
        raise
    coloring = _parse_coloring(lines, g.n)
    try:
        validate_coloring(g, coloring)
    except ValueError as exc:
        raise CliError(str(exc))
    prop = _parse_property(args.property)
    try:
        report = is_compelling(g, coloring, prop, timeout_s=args.timeout_secs)
    except SearchTimeout as exc:
        print(f"timeout: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        out = RunReport(
            command=f"check {args.graph} {args.coloring} {prop.value}",
            seed=None,
            results=[
                {
                    "compelling": report.compelling,
                    "method": report.method,
                    "counterexample": list(report.counterexample)
                    if report.counterexample
                    else None,
                }
            ],
        )
        print(out.to_json())
        return 0
    if report.compelling:
        print("COMPELLING")
    else:
        committee = " ".join(str(v) for v in report.counterexample)
        print("NOT-COMPELLING")
        print(f"counterexample committee: {committee}")
    return 0


# ---------------------------------------------------------------------------
# family-table
# ---------------------------------------------------------------------------


def family_rows(
    family: str,
    lo: int,
    hi: int,
    prop: SubsetProperty,
    seed: int,
    max_n: int,
    timeout_s: float | None = None,
) -> tuple[list[dict], list[str]]:
    if family not in FAMILIES:
        raise CliError(
            f"unknown family {family!r}; expected one of: "
            + ", ".join(sorted(FAMILIES))
        )
    floor, family_order, build, forms = FAMILIES[family]
    rows = []
    warnings = []
    deadline = None if timeout_s is None else time.monotonic() + timeout_s
    below = min(hi, floor - 1)  # the last n skipped, when lo <= below
    if lo <= below:
        span = f"{lo}" if lo == below else f"{lo}..{below}"
        warnings.append(f"skipping n={span}: below the {family} family minimum")
    for n in range(max(lo, floor), hi + 1):
        order = family_order(n)
        if order > max_n:
            warnings.append(
                f"range truncated at n={n}: instance has {order} vertices, cap is {max_n}"
            )
            break
        budget = None if deadline is None else deadline - time.monotonic()
        try:  # a budget spent before the instance or inside its search
            if budget is not None and budget <= 0:
                raise SearchTimeout
            g = build(n, seed)
            value = compelling_chromatic_number(g, prop, max_n=max_n, timeout_s=budget).value
        except SearchTimeout:
            warnings.append(f"range truncated at n={n}: time budget exhausted")
            break
        form = forms.get(prop)
        closed = form(g) if form is not None and g.n >= 2 else None
        rows.append(
            {
                "n": n,
                "solver": value,
                "closed_form": closed,
                "match": (value == closed) if closed is not None else None,
            }
        )
    return rows, warnings


def render_family_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["n", "solver", "closed_form", "match"])
    for row in rows:
        writer.writerow(
            [
                row["n"],
                "infeasible" if row["solver"] is None else row["solver"],
                "" if row["closed_form"] is None else row["closed_form"],
                "" if row["match"] is None else str(row["match"]).lower(),
            ]
        )
    return buf.getvalue()


def cmd_family_table(args) -> int:
    prop = _parse_property(args.property)
    lo, hi = _parse_range(args.n_range)
    start = time.perf_counter()
    rows, warnings = family_rows(
        args.family, lo, hi, prop, args.seed, args.max_n, args.timeout_secs
    )
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    if args.format == "json":
        report = RunReport(
            command=f"family-table {args.family} {args.n_range} {prop.value}",
            seed=args.seed,
            results=rows,
            notes=warnings,
            elapsed_s=time.perf_counter() - start,
        )
        print(report.to_json())
    elif args.format == "text":
        for row in rows:
            solver = "infeasible" if row["solver"] is None else row["solver"]
            closed = "-" if row["closed_form"] is None else row["closed_form"]
            match = "-" if row["match"] is None else str(row["match"]).lower()
            print(f"n={row['n']} solver={solver} closed={closed} match={match}")
    else:
        sys.stdout.write(render_family_csv(rows))
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    try:
        suite_results = run_suite(args.suite, seed=args.seed)
    except ValueError as exc:
        raise CliError(str(exc))
    if args.format == "json":
        report = RunReport(command=f"verify {args.suite}", seed=args.seed)
        for suite in suite_results:
            for check in suite.checks:
                report.results.append(
                    {
                        "suite": suite.suite,
                        "check": check.name,
                        "passed": check.passed,
                        "detail": check.detail,
                    }
                )
            report.notes.extend(f"{suite.suite}: {note}" for note in suite.notes)
        print(report.to_json())
    else:
        for suite in suite_results:
            for check in suite.checks:
                tag = "PASS" if check.passed else "FAIL"
                detail = f" ({check.detail})" if check.detail else ""
                print(f"{tag} [{suite.suite}] {check.name}{detail}")
            for note in suite.notes:
                print(f"NOTE [{suite.suite}] {note}")
    return 0 if all(suite.passed for suite in suite_results) else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`.  It is built once per process and
    shared by every call, so callers must not change it; parsing leaves it
    unchanged."""
    parser = argparse.ArgumentParser(
        prog="compelling",
        description="Exact compelling chromatic numbers of small graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_chi = sub.add_parser("chi", help="exact compelling chromatic number")
    p_chi.add_argument("graph", help="graph file ('n m' header then edge lines)")
    p_chi.add_argument("--property", required=True, help="dom|tdom|if|edge|connected|cdom")
    p_chi.add_argument("--max-n", type=int, default=EXACT_CHROMATIC_CAP)
    p_chi.add_argument("--timeout-secs", type=_timeout_secs, default=None)
    p_chi.add_argument("--format", choices=("text", "json"), default="text")
    p_chi.set_defaults(func=cmd_chi)

    p_check = sub.add_parser("check", help="is a given coloring compelling")
    p_check.add_argument("graph")
    p_check.add_argument("coloring", help="coloring file, one 'vertex color' per line")
    p_check.add_argument("--property", required=True)
    p_check.add_argument("--timeout-secs", type=_timeout_secs, default=None)
    p_check.add_argument("--format", choices=("text", "json"), default="text")
    p_check.set_defaults(func=cmd_check)

    p_table = sub.add_parser(
        "family-table", help="solver vs closed form over a family range"
    )
    p_table.add_argument("family", help="|".join(FAMILIES))
    p_table.add_argument("--n-range", required=True, help="inclusive range like 2:12")
    p_table.add_argument("--property", required=True)
    p_table.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_table.add_argument("--max-n", type=int, default=EXACT_CHROMATIC_CAP)
    p_table.add_argument("--timeout-secs", type=_timeout_secs, default=None)
    p_table.add_argument("--format", choices=("csv", "text", "json"), default="csv")
    p_table.set_defaults(func=cmd_family_table)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", help="suite name, or 'all'")
    p_verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark runner for the ``compelling`` package.

    python3 bench/run.py --workload chi-ladder --seed 1729 --seconds 30 --trace 0

Run from the root of a source checkout.  The runner repeats passes of one
workload until ``--seconds`` are used, each pass in a fresh interpreter
(``worker.py``) so no in-process cache survives from one pass to the next.
It prints one line per pass, the environment, every metric with its unit,
and as its last line a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  It exits 1 when an output is wrong and 2 when
the checkout holds no package source.

Times are reported in reference seconds: measured seconds scaled by the
speed of the CPU while they were measured.  A thread in the worker times a
fixed reference loop every 25 ms (``worker.SpeedSampler``); on a shared
machine the CPU speed flips between states within seconds and drifts by a
quarter or more, and the scaling removes most of that.  A reference second
is the time a second of work takes when the reference loop runs in
``REF_NOMINAL_S``.  Call times are scaled by the mean sample of the timed
region, and the set-up time by the mean sample of the set-up; samples that
caught a garbage collection or a lock hand-off are left out.  The time
the sampler holds the interpreter lock is taken out of every call and of
the set-up.  Raw seconds and the scale factors of each pass are printed,
and the medians of the raw seconds follow the metrics.

With ``--trace 0`` the metrics are the end-to-end ones in BENCHMARK.json;
with ``--trace 1`` the runner alternates untraced and traced passes and
reports the per-layer ones (see ``tracing.py``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1729
REF_NOMINAL_S = 0.001
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
RUN_LIMIT_S = 170.0

# Per-layer metrics read from a traced pass: (metric, kind, key).
# ``calls``/``count`` are exact counts; ``incl`` is inclusive and ``self``
# self time of a layer's spans.
LAYER_METRICS = [
    ("solver.colorings", "count", "solver.colorings"),
    ("solver.chi.calls", "calls", "solver.chi"),
    ("solver.bounds_s", "incl", "solver.bounds"),
    ("solver.check.calls", "calls", "solver.check"),
    ("solver.check_s", "incl", "solver.check"),
    ("properties.eval.calls", "count", "properties.eval"),
    ("graphs.chromatic_number.calls", "calls", "graphs.chromatic_number"),
    ("graphs.chromatic_number_s", "incl", "graphs.chromatic_number"),
    ("graphs.cds.calls", "calls", "graphs.cds"),
    ("graphs.cds_s", "incl", "graphs.cds"),
    ("properties.min_size.calls", "calls", "properties.min_size"),
    ("properties.min_size_s", "incl", "properties.min_size"),
    ("td3.has_tdc3.calls", "calls", "td3.has_tdc3"),
    ("td3.has_tdc3_s", "incl", "td3.has_tdc3"),
    ("td3.has_tdc3.n20_s", "incl", "td3.has_tdc3.n20"),
    ("td3.has_tdc3.n40_s", "incl", "td3.has_tdc3.n40"),
    ("td3.has_tdc3.n60_s", "incl", "td3.has_tdc3.n60"),
    ("td3.bruteforce.calls", "calls", "td3.bruteforce"),
    ("td3.bruteforce_s", "incl", "td3.bruteforce"),
    ("verify.corpus_s", "incl", "verify.corpus"),
    ("closed_forms.calls", "calls", "closed_forms"),
    ("closed_forms_s", "incl", "closed_forms"),
    ("solver.classes.calls", "calls", "solver.classes"),
    ("solver.classes_s", "incl", "solver.classes"),
    ("cli.self_s", "self", "cli"),
    ("graphs.load_s", "incl", "graphs.load"),
]
for _kernel in ("dom", "tdom", "edge", "committee"):
    LAYER_METRICS += [
        (f"solver.verdict.{_kernel}.calls", "calls", f"solver.verdict.{_kernel}"),
        (f"solver.verdict.{_kernel}_s", "incl", f"solver.verdict.{_kernel}"),
    ]
# One ``verify.suite.<name>_s`` metric per suite named in BENCHMARK.json;
# the runner lists suites named there but not traced, and the reverse.
SUITE_PREFIX = "verify.suite."


class BenchError(Exception):
    """The benchmark cannot run here."""


def _commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _run_pass(args, index: int, traced: bool, gate: bool, workdir: Path, deadline: float) -> dict:
    """Run one pass in a fresh interpreter and return the worker's result."""
    passdir = workdir / f"pass{index}"
    passdir.mkdir()
    out = workdir / f"pass{index}.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--workdir", str(passdir), "--out", str(out), "--src", str(SRC),
        "--trace", str(int(traced)), "--gate", str(int(gate)),
    ]
    spawned_at = time.monotonic()
    proc = subprocess.run(
        cmd + ["--spawned-at", repr(spawned_at)],
        env=env,
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - spawned_at),
    )
    if proc.returncode != 0:
        raise BenchError(f"pass {index} exited with {proc.returncode}:\n{proc.stderr}")
    result = json.loads(out.read_text())
    result["traced"] = traced
    result["factor"] = REF_NOMINAL_S / result["ref_s"]
    result["setup_factor"] = REF_NOMINAL_S / result["setup_ref_s"]
    return result


def _suite_metrics(spec: dict) -> list:
    return [
        (entry["name"], "incl", entry["name"][: -len("_s")])
        for entry in spec["per_layer"]
        if entry["name"].startswith(SUITE_PREFIX) and entry["name"].endswith("_s")
    ]


def _layer_values(result: dict, suite_metrics: list) -> dict:
    """Per-layer metrics of one traced pass, times in reference seconds."""
    trace, factor = result["trace"], result["factor"]
    values = {}
    for metric, kind, key in LAYER_METRICS + suite_metrics:
        if kind == "calls":
            values[metric] = trace["calls"].get(key, 0)
        elif kind == "count":
            values[metric] = trace["counts"].get(key, 0)
        else:
            values[metric] = trace[kind].get(key, 0.0) * factor
    enum_s = trace["incl"].get("solver.enumerate", 0.0) * factor
    colorings = values["solver.colorings"]
    values["solver.colorings_per_s"] = colorings / enum_s if enum_s else 0.0
    chi_s = trace["incl"].get("solver.chi", 0.0) * factor
    bounds_in_chi = trace["edge"].get("solver.chi>solver.bounds", 0.0) * factor
    values["solver.search_s"] = chi_s - bounds_in_chi
    in_chi = trace["counts"].get("solver.colorings_in_chi", 0)
    witnesses = trace["counts"].get("solver.witnesses", 0)
    values["solver.leaf_yield"] = witnesses / in_chi if in_chi else 0.0
    return values


def _pass_times(result: dict, raw: bool = False) -> dict:
    """End-to-end times of one pass, in reference seconds or, with ``raw``,
    in measured seconds."""
    factor = 1.0 if raw else result["factor"]
    setup_factor = 1.0 if raw else result["setup_factor"]
    durations = result["durations"]
    return {
        "wall_s": sum(durations) * factor,
        "geomean_call_s": math.exp(statistics.fmean(math.log(d) for d in durations)) * factor,
        "setup_s": result["setup_s"] * setup_factor,
    }


def _covers(output, recorded) -> bool:
    """Whether ``output`` holds every recorded field with the recorded
    value; fields added since the recording are allowed."""
    if isinstance(recorded, dict):
        return isinstance(output, dict) and all(
            key in output and _covers(output[key], value) for key, value in recorded.items()
        )
    if isinstance(recorded, list):
        return (
            isinstance(output, list)
            and len(output) == len(recorded)
            and all(_covers(o, r) for o, r in zip(output, recorded))
        )
    return output == recorded


def _load_golden(workload: str):
    path = BENCH / "golden" / f"{workload}.json"
    return json.loads(path.read_text()) if path.exists() else None


def measure(args, spec: dict) -> tuple[dict, int, int, list]:
    """Run the passes; return (metrics, attempted, failed, problems)."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    results = []
    try:
        while True:
            index = len(results)
            untraced = sum(not r["traced"] for r in results)
            traced_n = len(results) - untraced
            if args.trace:
                # untraced first, then two traced, then alternate
                need = untraced < 1 or traced_n < MIN_TRACED_PASSES
                traced = untraced >= 1 and traced_n < max(MIN_TRACED_PASSES, untraced + 1)
            else:
                need = index < MIN_PASSES
                traced = False
            elapsed = time.monotonic() - start
            longest = max((r["elapsed"] for r in results), default=0.0)
            if not need and elapsed + longest > args.seconds:
                break
            t0 = time.monotonic()
            result = _run_pass(args, index, traced, index == 0, workdir, deadline)
            result["elapsed"] = time.monotonic() - t0
            results.append(result)
            times = _pass_times(result)
            print(
                f"pass {index}{' traced' if traced else ''}: "
                f"wall {sum(result['durations']):.3f} raw s, "
                f"speed factor {result['factor']:.3f}, "
                f"wall {times['wall_s']:.3f} ref s, "
                f"setup {result['setup_s']:.3f} raw s, "
                f"setup factor {result['setup_factor']:.3f}, "
                f"setup {times['setup_s']:.3f} ref s",
                flush=True,
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run is still using it
            pass

    first = results[0]
    names = first["names"]
    problems = []
    golden = _load_golden(args.workload) if args.seed == DEFAULT_SEED else None
    if args.seed == DEFAULT_SEED and golden is None:
        problems.append(f"no recorded outputs in golden/{args.workload}.json")
    # The oracles and the recorded outputs are checked on the first pass;
    # a later pass fails a call when it raised, when its output differs
    # from the first pass, or when it repeats an output that failed there.
    first_bad = []
    for i, name in enumerate(names):
        bad = list(first["problems"][i])
        if golden is not None and not (
            first["outputs"][i] is not None
            and name in golden
            and _covers(json.loads(first["outputs"][i]), json.loads(golden[name]))
        ):
            bad.append("output differs from the recorded seed-commit output")
        first_bad.append(bool(bad))
        problems += [f"{name}: {b}" for b in bad]
    failed_calls = sum(first_bad)
    for index, r in enumerate(results[1:], start=1):
        for i, name in enumerate(names):
            bad = list(r["problems"][i])
            if r["outputs"][i] != first["outputs"][i]:
                bad.append("output differs from the first pass")
            problems += [f"{name}: pass {index}: {b}" for b in bad]
            failed_calls += bool(bad) or first_bad[i]
    attempted = len(names) * len(results)

    untraced = [r for r in results if not r["traced"]]
    if not args.trace:
        per_pass = [_pass_times(r) for r in untraced]
        metrics = {
            key: statistics.median(p[key] for p in per_pass)
            for key in ("wall_s", "geomean_call_s", "setup_s")
        }
        metrics["ok_ratio"] = (attempted - failed_calls) / attempted
        metrics["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in untraced)
        raw = [_pass_times(r, raw=True) for r in untraced]
        print(
            "raw seconds (median over passes): "
            + ", ".join(f"{k} {statistics.median(p[k] for p in raw):.6g}" for k in raw[0])
        )
        wanted = spec["end_to_end"]
    else:
        traced = [r for r in results if r["traced"]]
        suite_metrics = _suite_metrics(spec)
        layers = [_layer_values(r, suite_metrics) for r in traced]
        counts = [m for m, kind, _ in LAYER_METRICS if kind in ("calls", "count")]
        for m in counts:
            seen = {v[m] for v in layers}
            if len(seen) > 1:
                problems.append(f"count {m} differs between traced passes: {sorted(seen)}")
        metrics = {
            m: layers[0][m] if m in counts else statistics.median(v[m] for v in layers)
            for m in layers[0]
        }
        metrics["trace_overhead"] = statistics.median(
            _pass_times(r)["wall_s"] for r in traced
        ) / statistics.median(_pass_times(r)["wall_s"] for r in untraced)
        missing = {name for r in traced for name in r["trace"]["missing"]}
        wrapped = {s for r in traced for s in r["trace"]["suites"]}
        named = {key[len(SUITE_PREFIX):] for _, _, key in suite_metrics}
        missing |= {f"compelling.verify.SUITES[{s!r}]" for s in named - wrapped}
        if missing:
            print("trace: targets not found, their metrics read 0: " + ", ".join(sorted(missing)))
        if wrapped - named:
            print(
                "trace: suites traced but not named in BENCHMARK.json: "
                + ", ".join(sorted(wrapped - named))
            )
        wanted = spec["per_layer"]

    out = {}
    for entry in wanted:
        if entry["name"] not in metrics:
            raise BenchError(f"metric {entry['name']} is not measured")
        out[entry["name"]] = {"value": metrics[entry["name"]], "unit": entry["unit"]}
    return out, attempted, failed_calls, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "compelling" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no package source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    print(
        f"workload {args.workload} seed {args.seed} trace {args.trace}: "
        f"python {platform.python_version()}, {len(os.sched_getaffinity(0))} cores, "
        f"commit {_commit()}"
    )
    try:
        metrics, attempted, failed, problems = measure(args, spec)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for problem in problems:
        print(f"FAIL {problem}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"fail_ratio = {failed / attempted:.6g} ratio")
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

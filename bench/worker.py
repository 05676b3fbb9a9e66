"""One pass of a workload, in a fresh interpreter started by ``run.py``.

Set-up (interpreter start, import, input generation and writing) is timed
from the moment the parent spawned this process.  The timed region runs the
calls one at a time.  From the start of ``main`` to the end of the timed
region a sampler thread times a short fixed reference loop every
``SAMPLE_INTERVAL_S``.  The samples taken during set-up give the speed of
the CPU during set-up, and those taken in the timed region its speed during
the calls (see ``run.py``).  Outputs are checked after the timed region, and
the result goes to ``--out`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import threading
import time
from pathlib import Path

SAMPLE_INTERVAL_S = 0.025
# A sample longer than this many times the median caught a garbage
# collection or a lock hand-off (5 ms) and is left out.  The CPU speed
# states seen on a shared machine are less than twice apart.
SPIKE_FACTOR = 3.0
REF_ITERS = 1_600
REF_GRAPH = tuple((1 << (v - 1) % 8) | (1 << (v + 1) % 8) for v in range(8))  # C8


def _ref_colorings(k: int):
    """Proper k-colorings of REF_GRAPH by recursive generators, in the style
    of the solver's enumeration."""
    n = len(REF_GRAPH)
    masks = [0] * k

    def assign(v: int, used: int):
        if v == n:
            if used == k:
                yield masks
            return
        for c in range(min(used, k - 1) + 1):
            if masks[c] & REF_GRAPH[v]:
                continue
            masks[c] |= 1 << v
            yield from assign(v + 1, used + (c == used))
            masks[c] &= ~(1 << v)

    return assign(0, 0)


def reference_chunk() -> float:
    """Time a fixed mix of integer, bit and list work and of recursive
    generator enumeration (about 1 ms)."""
    start = time.perf_counter()
    table = [0] * 64
    x = 1
    for i in range(REF_ITERS):
        x = (x * 1_103_515_245 + 12_345) & 0xFFFF_FFFF
        table[x & 63] ^= x >> (i & 7)
    for masks in _ref_colorings(4):
        x ^= masks[0]
    return time.perf_counter() - start


class SpeedSampler:
    """Times ``reference_chunk`` every ``SAMPLE_INTERVAL_S`` on a thread.

    The CPU speed of a shared machine flips between states within seconds,
    so samples spread evenly over the timed region, not taken before or
    after it, are what track the speed the calls ran at."""

    def __init__(self) -> None:
        # (start time, duration, CPU time of the sampler thread)
        self.samples: list[tuple[float, float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while True:
            start, cpu = time.perf_counter(), time.thread_time()
            duration = reference_chunk()
            self.samples.append((start, duration, time.thread_time() - cpu))
            if self._stop.wait(SAMPLE_INTERVAL_S):
                return

    def __enter__(self) -> "SpeedSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)
        if self._thread.is_alive():
            raise RuntimeError("speed sampler did not stop")

    def mean_between(self, start: float, end: float) -> float:
        """Mean of the samples taken inside [start, end], spikes left out.

        The mean follows a pass that changes speed state part way through;
        a median would jump to whichever state held most of it."""
        inside = [d for t, d, _ in self.samples if start <= t <= end]
        if not inside:
            return float("nan")
        cap = SPIKE_FACTOR * statistics.median(inside)
        return statistics.fmean(d for d in inside if d <= cap)

    def stolen(self, start: float, end: float) -> float:
        """Time the sampler ran inside [start, end], which the main thread
        spent waiting for the interpreter lock.

        A sample that the main thread interrupted lasts longer than the CPU
        time the sampler used, so each sample's CPU time is spread evenly
        over its duration and only the share inside [start, end] counts.
        That keeps a call that ran inside an interrupted sample above 0."""
        return sum(
            c * max(0.0, min(end, t + d) - max(start, t)) / d for t, d, c in self.samples
        )


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--gate", type=int, default=0)
    parser.add_argument("--src", required=True)
    args = parser.parse_args()

    sampled_from = time.perf_counter()
    with SpeedSampler() as sampler:
        import compelling
        import workloads

        src = Path(args.src).resolve()
        if src not in Path(compelling.__file__).resolve().parents:
            raise SystemExit(f"compelling imported from {compelling.__file__}, not {src}")

        workdir = Path(args.workdir)
        os.chdir(workdir)
        calls = workloads.build(args.workload, args.seed, workdir)
        setup_end = time.perf_counter()
        setup_s = (
            time.monotonic() - args.spawned_at - sampler.stolen(sampled_from, setup_end)
        )

        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)

        outputs, spans, errors = [], [], []
        region_start = time.perf_counter()
        for call in calls:
            error = None
            start = time.perf_counter()
            try:
                output = call.run()
            except Exception as exc:  # a failed call is counted, the pass goes on
                output = None
                error = f"{type(exc).__name__}: {exc}"
            spans.append((start, time.perf_counter()))
            outputs.append(output)
            errors.append(error)
        region_end = time.perf_counter()
    durations = [end - start - sampler.stolen(start, end) for start, end in spans]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    trace = None
    if tracer is not None:
        trace = {
            "calls": dict(tracer.calls),
            "counts": dict(tracer.counts),
            "incl": dict(tracer.incl),
            "self": dict(tracer.self_time),
            "edge": {f"{a}>{b}": t for (a, b), t in tracer.edge.items()},
            "missing": tracer.missing,
            "suites": tracer.suites,
        }

    problems = [[] if e is None else [e] for e in errors]
    if args.gate:
        for i, call in enumerate(calls):
            if outputs[i] is not None:
                try:
                    problems[i] += call.check(outputs[i])
                except Exception as exc:  # a malformed output fails its call
                    problems[i].append(f"check raised {type(exc).__name__}: {exc}")

    result = {
        "names": [c.name for c in calls],
        "outputs": outputs,
        "problems": problems,
        "durations": durations,
        "ref_s": sampler.mean_between(region_start, region_end),
        "setup_ref_s": sampler.mean_between(sampled_from, setup_end),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "trace": trace,
    }
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

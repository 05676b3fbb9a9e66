"""Check that the speed factor does not depend on the program's heap.

    python3 bench/scale_check.py

Run from the root of a source checkout.  The main thread repeats the first
four large-n calls in chunks for ``SECONDS``, with ``worker.SpeedSampler``
on, and holds a ballast of ``BALLAST`` GC-tracked objects during every other
chunk.  A
bigger heap makes garbage collections longer; if they landed in the
reference samples, the mean sample of the ballast chunks would grow and
the scaled times would hide a slowdown the program causes itself.  The
script prints, for chunks with and without ballast, the median of the raw
and of the scaled chunk times and their IQR as a share of the median.
"""

from __future__ import annotations

import statistics
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import worker  # noqa: E402
import workloads  # noqa: E402
from run import DEFAULT_SEED, REF_NOMINAL_S  # noqa: E402

SECONDS = 90
BALLAST = 600_000


def _iqr_share(values: list) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main() -> int:
    scratch = BENCH.parent / ".bench_work"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as workdir:
        calls = workloads.build("large-n", DEFAULT_SEED, Path(workdir))[:4]
        chunks = []
        with worker.SpeedSampler() as sampler:
            start = time.perf_counter()
            while time.perf_counter() - start < SECONDS:
                held = len(chunks) % 2 == 1
                ballast = [(i, [i]) for i in range(BALLAST)] if held else None
                t0 = time.perf_counter()
                for call in calls:
                    call.run()
                chunks.append((held, t0, time.perf_counter()))
                del ballast
    try:
        scratch.rmdir()
    except OSError:  # a benchmark run is still using it
        pass

    for held in (False, True):
        raw, scaled = [], []
        for _, a, b in (c for c in chunks if c[0] == held):
            seconds = b - a - sampler.stolen(a, b)
            raw.append(seconds)
            scaled.append(seconds * REF_NOMINAL_S / sampler.mean_between(a, b))
        print(
            f"ballast {BALLAST if held else 0}: {len(raw)} chunks, "
            f"raw median {statistics.median(raw):.4f} s (IQR {_iqr_share(raw):.3f}), "
            f"scaled median {statistics.median(scaled):.4f} s (IQR {_iqr_share(scaled):.3f})"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())

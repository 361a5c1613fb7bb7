"""Host-calibration self-tests: the normalised op time must follow the
program, not the host.

    python3 perfbench/hostcal_selftest.py [--seconds 20] [--test competitor|footprint]

``competitor``: pins this process to one CPU and runs ``paper`` ops three
times: alone, with a busy-looping competitor process pinned to the same
CPU (which takes about half of it), and alone again.  Passes when the
loaded phase moved the raw median by more than ``op_s.p50``'s bound while
the normalised median stayed within it.

``footprint``: on a quiet host, checks that the program's own memory
footprint does not move the yardstick, in two steps.  First the in-op
sample alone: its reading right after a pass over a 16 MiB buffer
(which evicts the caches the kernel uses) against its reading right
after another sample, over ``FOOTPRINT_SAMPLES`` alternations (a
one-shot kernel run is shown next to it for comparison).  Then whole
ops: one ``matrix`` row alternated with the same row followed by passes
over the buffer, which cost about a third of a row more.  The op
changes, the host does not, so the normalised time must grow by the
same ratio as the unscaled time (wall time less run-queue wait and
sampling, the time the normalisation scales).  Passes when the sample
ratio and the gap between the two growth ratios are each within
``FOOTPRINT_TOLERANCE``.

Both tests run by default; the exit code is non-zero when any fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import hostcal  # noqa: E402
import numpy as np  # noqa: E402
import ops  # noqa: E402
import run  # noqa: E402
import seeded  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
CAL_NOMINAL = float(
    BENCHMARK["command"][BENCHMARK["command"].index("--cal-nominal") + 1]
)
BOUND = next(m["bound"] for m in BENCHMARK["end_to_end"] if m["name"] == "op_s.p50")
#: Largest relative gap allowed between the normalised and the unscaled
#: growth of the footprint test.
FOOTPRINT_TOLERANCE = 0.02
#: The footprint test's buffer: 16 MiB, well past the L2 cache.
FOOTPRINT_WORDS = 2 * 1024 * 1024
#: Passes over the buffer per heavy op, and words per NumPy call (small
#: calls, so that the interval-timer samples land among them).
FOOTPRINT_PASSES = 56
FOOTPRINT_CHUNK = 32 * 1024
#: Alternations of the sample-level check.
FOOTPRINT_SAMPLES = 1000


def phase(workload, seconds: float) -> tuple[float, float]:
    """(raw, normalised) op time medians of ``seconds`` of paper ops."""
    records = run.run_loop(workload, seconds, ops.load_expected())
    if any(record.problems for record in records):
        raise SystemExit("an op failed its check")
    raw = statistics.median(r.wall for r in records)
    normalised = statistics.median(
        r.seconds * CAL_NOMINAL / r.cal for r in records)
    return raw, normalised


def competitor(seconds: float) -> bool:
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    workload, _ = ops.make("paper", seed=0)
    quiet = phase(workload, seconds)
    busy = subprocess.Popen([sys.executable, "-c", "while True: pass"])
    try:
        os.sched_setaffinity(busy.pid, {cpu})
        loaded = phase(workload, seconds)
    finally:
        busy.kill()
        busy.wait()
    after = phase(workload, seconds)
    base_raw = statistics.fmean((quiet[0], after[0]))
    base_norm = statistics.fmean((quiet[1], after[1]))
    print("competitor: paper ops alone, with a pinned busy loop, alone")
    print(f"{'phase':>8}  {'raw p50 s':>10}  {'normalised p50 s':>16}")
    for name, (raw, norm) in (("quiet", quiet), ("loaded", loaded), ("quiet", after)):
        print(f"{name:>8}  {raw:10.5f}  {norm:16.5f}")
    raw_moved = loaded[0] / base_raw - 1
    norm_moved = loaded[1] / base_norm - 1
    print(f"loaded vs quiet: raw {raw_moved:+.1%}, normalised {norm_moved:+.1%} "
          f"(bound {BOUND:.0%})")
    return raw_moved > BOUND and abs(norm_moved) <= BOUND


def footprint(seconds: float) -> bool:
    buffer = np.zeros(FOOTPRINT_WORDS, dtype=np.int64)

    def stream(passes: int = 1) -> None:
        for _ in range(passes):
            for start in range(0, FOOTPRINT_WORDS, FOOTPRINT_CHUNK):
                buffer[start:start + FOOTPRINT_CHUNK] += 1

    def one_shot() -> float:
        return hostcal._kernel_seconds(hostcal.SAMPLE_TRIPS)

    ratios: dict[str, list[float]] = {"sample": [], "one-shot": []}
    for _ in range(FOOTPRINT_SAMPLES):
        for name, read in (("sample", lambda: hostcal.sample()[0]),
                           ("one-shot", one_shot)):
            read()
            idle = read()
            stream()
            ratios[name].append(read() / idle)
    after = {name: statistics.median(r) for name, r in ratios.items()}
    print(f"footprint: kernel reading after a buffer pass over one after "
          f"idle: sample x{after['sample']:.4f}, one-shot "
          f"x{after['one-shot']:.4f} ({FOOTPRINT_SAMPLES} alternations)")

    workload, _ = ops.make("matrix", seed=0)
    item = seeded.Input("scenario1-pair-H", 0)
    expected = ops.load_expected()

    def heavy():
        results = workload.run(item)
        stream(FOOTPRINT_PASSES)
        return results

    # Growth ratios are taken per adjacent (plain, heavy) pair, which
    # shares the host's load phase, and their median is reported.
    pairs: list[tuple[float, float]] = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(pairs) < 10:
        plain, loaded = (hostcal.timed(fn) for fn in (lambda: workload.run(item), heavy))
        for timing in (plain, loaded):
            if workload.check(item, timing.result, expected):
                raise SystemExit("an op failed its check")
        unscaled = loaded.seconds / plain.seconds
        pairs.append((unscaled, unscaled * plain.cal / loaded.cal))

    unscaled, normalised = (statistics.median(p[k] for p in pairs) for k in (0, 1))
    gap = statistics.median(p[1] / p[0] for p in pairs) - 1
    print(f"footprint: {len(pairs)} pairs of one matrix row without "
          f"and with {FOOTPRINT_PASSES} passes over a "
          f"{FOOTPRINT_WORDS * 8 >> 20} MiB buffer")
    print(f"heavy vs plain: unscaled x{unscaled:.4f}, normalised "
          f"x{normalised:.4f}, gap {gap:+.2%} "
          f"(tolerance {FOOTPRINT_TOLERANCE:.0%})")
    return (abs(after["sample"] - 1) <= FOOTPRINT_TOLERANCE
            and abs(gap) <= FOOTPRINT_TOLERANCE)


TESTS = {"competitor": competitor, "footprint": footprint}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--test", choices=sorted(TESTS), action="append")
    args = parser.parse_args()
    # The competitor test pins this process, so it runs last.
    names = args.test or ["footprint", "competitor"]
    passed = [TESTS[name](args.seconds) for name in names]
    return 0 if all(passed) else 1


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end benchmark of the repro library: paper, matrix and service.

    python3 perfbench/run.py --cal-nominal S --workload paper|matrix|service \\
        --seed N --seconds T --trace 0|1

Run from the root of a checkout; the library is imported from ``src/``
there.  One run sets the workload up, then runs ops closed-loop with one
client for ``--seconds`` (finishing the round in progress, and making at
least ``MIN_OPS`` ops), checks every op's output and prints one JSON
object as the last line of stdout.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs every
other round with layer wrappers installed, reports per-layer metrics
and writes the spans to ``perfbench/out/trace-<workload>-<seed>.json``
(Chrome trace-event format).  The exit code is 0 when every op passed
its check, 1 when any failed, 2 when the benchmark cannot run at all.

Times of the CPU-bound workloads (``paper``, ``matrix``) and of set-up
are reported at a nominal host speed, ``t * cal_nominal / t_cal``, where
``t_cal`` is the calibration kernel's time measured in the same thread
around and during the op (see ``hostcal.py``); ``service`` is mostly
sleeps in poll and lease loops and is timed raw.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fresh-interpreter set-ups per run (the run's own included);
#: ``setup_s`` is their median.
SETUPS = 3
#: Ops a run makes at least, so that ``op_s.p90`` has ten samples
#: beyond it even when a slow host phase stretches every op.
MIN_OPS = 100
#: ``host.slow_share`` counts ops whose calibration ran this much slower
#: than nominal.
SLOW = 1.25


def _require_library() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro library under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--cal-nominal", type=float, required=True,
                        help="calibration kernel time of the nominal host, s")
    parser.add_argument("--workload", required=True,
                        choices=("paper", "matrix", "service"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# Set-up: timed in fresh interpreters
# ----------------------------------------------------------------------
def probe_setups(args) -> list[dict]:
    """Run ``SETUPS - 1`` more set-ups, each in a fresh interpreter, one
    after the other (the run's own is the remaining one)."""
    probes = []
    for _ in range(SETUPS - 1):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"),
             args.workload, str(args.seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        probes.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return probes


def _nominal(sample: dict, cal_nominal: float) -> dict:
    """A set-up sample with its times at nominal host speed."""
    factor = cal_nominal / sample["cal_s"]
    return {**sample, "setup_s": sample["setup_s"] * factor,
            "import_s": sample["import_s"] * factor}


# ----------------------------------------------------------------------
# The closed loop
# ----------------------------------------------------------------------
class OpRecord:
    __slots__ = ("round", "label", "wall", "seconds", "cal", "bg_cpu",
                 "cells", "problems", "traced")

    def __init__(self, round_index, label, traced):
        self.round = round_index
        self.label = label
        self.traced = traced
        self.problems: list[str] = []
        self.cells = 0


def _attempt(workload, item):
    """One op; an op that raises counts as failed, so keep the error."""
    try:
        return workload.run(item), None
    except Exception as exc:
        return None, exc


def run_loop(workload, seconds, expected, recorder=None) -> list[OpRecord]:
    """Ops until ``seconds`` have passed and at least ``MIN_OPS`` ran,
    finishing the round in progress.

    With a recorder, even rounds run with the layer wrappers installed
    and odd rounds without, which gives ``trace.overhead`` its base.
    """
    import hostcal

    records: list[OpRecord] = []
    deadline = time.perf_counter() + seconds
    # A traced run needs a plain round too, as trace.overhead's base.
    min_rounds = 2 if recorder is not None else 1
    for round_index, items in enumerate(workload.rounds()):
        if (
            round_index >= min_rounds
            and len(records) >= MIN_OPS
            and time.perf_counter() >= deadline
        ):
            break
        traced = recorder is not None and round_index % 2 == 0
        if traced:
            recorder.install()
        try:
            for item in items:
                record = OpRecord(round_index, workload.describe(item), traced)
                gc.collect()
                if traced:
                    recorder.op = len(records)
                cpu0, main0 = time.process_time(), time.thread_time()
                timing = hostcal.timed(
                    functools.partial(_attempt, workload, item),
                    normalise=workload.normalised,
                )
                record.bg_cpu = (time.process_time() - cpu0) - (
                    time.thread_time() - main0
                )
                record.wall, record.seconds = timing.wall, timing.seconds
                record.cal = timing.cal
                output, error = timing.result
                if traced:
                    recorder.op = None
                    recorder.record("op", timing.start, timing.end,
                                    len(records), {"input": record.label})
                if error is not None:
                    record.problems.append(f"raised {error!r}")
                else:
                    record.cells = len(output)
                    record.problems += workload.check(item, output, expected)
                records.append(record)
        finally:
            if traced:
                recorder.uninstall()
    else:
        if time.perf_counter() < deadline or len(records) < MIN_OPS:
            print(f"perfbench: the inputs ran out after {len(records)} ops, "
                  f"before the run's {seconds:g} s or {MIN_OPS} ops",
                  file=sys.stderr)
    return records


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(records, probes, scale) -> dict:
    times = [r.seconds * scale(r) for r in records]
    cells = sum(r.cells for r in records if not r.problems)
    return {
        "setup_s": (statistics.median(p["setup_s"] for p in probes), "s"),
        "op_s.p50": (statistics.median(times), "s"),
        "op_s.p90": (_p90(times), "s"),
        "cells_per_s": (cells / sum(times), "1/s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
        ),
    }


#: Work counts summed over round 0, whose inputs are the same in every
#: run (canonical levels), so they repeat exactly from run to run.
#: ``("calls", layer)`` counts a layer's spans, ``("count", name)`` sums
#: a counter the wrappers keep.
ROUND0_COUNTS = {
    "engine.jobs": ("count", "engine.jobs"),
    "workloads.build.calls": ("calls", "workloads.build"),
    "workloads.pad.calls": ("calls", "workloads.pad"),
    "sim.compile.calls": ("calls", "sim.compile"),
    "sim.run.calls": ("calls", "sim.run"),
    "sim.requests": ("count", "sim.requests"),
    "core.bound.calls": ("calls", "core.bound"),
    "ilp.solves": ("count", "ilp.solves"),
    "ilp.simplex_iterations": ("count", "ilp.simplex_iterations"),
    "ilp.nodes": ("count", "ilp.nodes"),
}
#: Counts that depend on timing (polls, leases), as means per traced op.
PER_OP_COUNTS = {
    "service.poll.sleeps": ("calls", "service.poll", "count"),
    "service.lease.calls": ("count", "service.lease.calls", "count"),
    "wire.calls": ("count", "wire.calls", "count"),
    "wire.bytes": ("count", "wire.bytes", "B"),
    "store.queue.calls": ("calls", "store.queue", "count"),
    "store.results.rows": ("count", "store.results.rows", "count"),
}
#: Self times, as means per traced op (at nominal host speed on the
#: CPU-bound workloads).
SELF_TIMES = {
    "engine.self_s": "engine.run",
    "workloads.build.self_s": "workloads.build",
    "workloads.pad.self_s": "workloads.pad",
    "sim.compile.self_s": "sim.compile",
    "sim.run.self_s": "sim.run",
    "core.bound.self_s": "core.bound",
    "wire.self_s": "wire",
    "store.queue.self_s": "store.queue",
    "store.results.self_s": "store.results",
}
#: Whole-span times (children included), as means per traced op.
DURATIONS = {
    "service.poll.wait_s": "service.poll",
    "service.exec_s": "service.exec",
}


def per_layer(records, probes, recorder, scale, cal_nominal) -> dict:
    traced = [i for i, r in enumerate(records) if r.traced]
    plain = [i for i, r in enumerate(records) if not r.traced]
    round0 = [i for i in traced if records[i].round == 0]
    calls: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    self_s: dict[str, float] = defaultdict(float)
    whole_s: dict[str, float] = defaultdict(float)
    for span in recorder.spans:
        factor = scale(records[span.op]) / 1e9
        calls[span.op][span.layer] += 1
        self_s[span.layer] += span.self_ns * factor
        whole_s[span.layer] += (span.end - span.start) * factor

    def total(kind, key, ops):
        table = calls if kind == "calls" else recorder.counts
        return sum(table[i].get(key, 0) for i in ops)

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    n = len(traced)
    cals = [r.cal for r in records]
    metrics = {
        "host.cal_s": (statistics.median(cals), "s"),
        "host.wall_op_s.p50": (statistics.median(records[i].wall for i in plain), "s"),
        "host.slow_share": (
            sum(c > SLOW * cal_nominal for c in cals) / len(cals), "ratio"),
        "host.bg_cpu_s": (statistics.fmean(r.bg_cpu for r in records), "s"),
        "import.repro_s": (statistics.median(p["import_s"] for p in probes), "s"),
        "import.modules": (statistics.median(p["modules"] for p in probes), "count"),
    }
    for name, (kind, key) in ROUND0_COUNTS.items():
        metrics[name] = (total(kind, key, round0), "count")
    for name, (kind, key, unit) in PER_OP_COUNTS.items():
        metrics[name] = (total(kind, key, traced) / n, unit)
    for name, layer in SELF_TIMES.items():
        metrics[name] = (self_s[layer] / n, "s")
    for name, layer in DURATIONS.items():
        metrics[name] = (whole_s[layer] / n, "s")
    metrics["ilp.warm_hit_ratio"] = (ratio(
        total("count", "ilp.warm_hits", traced),
        total("count", "ilp.solves", traced)), "ratio")
    metrics["sim.ns_per_request"] = (ratio(
        self_s["sim.run"] * 1e9, total("count", "sim.requests", traced)), "ns")
    metrics["service.lease.empty_ratio"] = (ratio(
        total("count", "service.lease.empty", traced),
        total("count", "service.lease.calls", traced)), "ratio")
    times = [r.seconds * scale(r) for r in records]
    metrics["trace.overhead"] = (
        statistics.median(times[i] for i in traced)
        / statistics.median(times[i] for i in plain), "ratio")
    return metrics


# ----------------------------------------------------------------------
def main(argv=None, expected=None) -> int:
    args = parse_args(argv)
    _require_library()
    import ops
    import spans

    expected = expected if expected is not None else ops.load_expected()
    probes = probe_setups(args)
    workload, own = ops.make(args.workload, args.seed)
    probes = [_nominal(sample, args.cal_nominal) for sample in (*probes, own)]
    try:
        recorder = spans.Recorder() if args.trace else None
        records = run_loop(workload, args.seconds, expected, recorder)
    finally:
        workload.close()

    def scale(record):
        return args.cal_nominal / record.cal if workload.normalised else 1.0

    if args.trace:
        metrics = per_layer(records, probes, recorder, scale, args.cal_nominal)
        path = ops.OUT / f"trace-{args.workload}-{args.seed}.json"
        recorder.write_chrome(str(path), {"workload": args.workload,
                                          "seed": args.seed})
        print(f"perfbench: trace written to {path}", file=sys.stderr)
    else:
        metrics = end_to_end(records, probes, scale)
    failed = [r for r in records if r.problems]
    for record in failed[:10]:
        print(f"perfbench: op {record.label} failed: {'; '.join(record.problems)}",
              file=sys.stderr)
    raw = [r.wall for r in records]
    print(f"perfbench: {args.workload} seed {args.seed}: {len(records)} ops, "
          f"raw p50 {statistics.median(raw):.4f} s, "
          f"cal p50 {statistics.median(r.cal for r in records) * 1e3:.3f} ms",
          file=sys.stderr)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())

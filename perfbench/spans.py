"""Layer spans for the traced run, recorded from the benchmark's side.

:class:`Recorder` wraps the public functions through which the program's
layers are entered, keeps one span per call in memory and writes them
out at the end as Chrome trace-event JSON, which Perfetto
(ui.perfetto.dev) and chrome://tracing open as they are.  Nothing inside
the program changes: each wrapper replaces a function or method on the
module or class that the callers look it up on, and
:meth:`Recorder.uninstall` puts the originals back.

A span's *self time* is its duration minus the part its child spans
cover.  Spans nest per thread (the service's worker thread keeps its own
stack), and children of one span never overlap, so the covered part is
the sum of the children's durations.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable

#: Layer names whose spans count as wire calls (one per encode/decode).
WIRE = "wire"


class Span:
    __slots__ = ("layer", "tid", "start", "end", "parent", "child_ns", "op", "args")

    def __init__(self, layer, tid, start, parent, op, args=None):
        self.layer = layer
        self.tid = tid
        self.start = start
        self.end = start
        self.parent = parent
        self.child_ns = 0
        self.op = op
        self.args = args

    @property
    def self_ns(self) -> int:
        return self.end - self.start - self.child_ns


class Recorder:
    """In-memory spans and per-op counters of the traced ops."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: op index -> counter name -> value
        self.counts: dict[int, dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        #: Index of the op in progress; ``None`` outside traced ops.
        self.op: int | None = None
        self._local = threading.local()
        #: thread ident -> name, for the trace's thread rows
        self._threads: dict[int, str] = {}
        self._patches: list[tuple[Any, str, Any, Any]] | None = None

    # -- recording -------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            thread = threading.current_thread()
            self._threads[thread.ident] = thread.name
        return stack

    def count(self, name: str, value: float = 1) -> None:
        if self.op is not None:
            self.counts[self.op][name] += value

    def record(self, layer: str, start: int, end: int, op: int, args=None) -> None:
        """Add a span the caller timed itself (the benchmark's op spans)."""
        self._stack()
        span = Span(layer, threading.get_ident(), start, None, op, args)
        span.end = end
        self.spans.append(span)

    def wrap(
        self,
        layer: str,
        fn: Callable,
        before: Callable | None = None,
        after: Callable | None = None,
    ) -> Callable:
        """``fn`` timed as a ``layer`` span.

        ``before(stack, args)`` runs first and returns a state;
        ``after(state, stack, args, result)`` sees the call's result.
        """
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            state = before(stack, args) if before is not None else None
            span = Span(
                layer,
                threading.get_ident(),
                time.perf_counter_ns(),
                stack[-1] if stack else None,
                recorder.op,
            )
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter_ns()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_ns += span.end - span.start
                if span.op is not None:
                    recorder.spans.append(span)
            if after is not None and span.op is not None:
                after(state, stack, args, result)
            return result

        return wrapper

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        """Wrap every layer entry point (see :func:`layer_targets`).

        The places to patch are found on the first call and reused, so
        installing for every traced round stays cheap.
        """
        if self._patches is None:
            self._patches = list(self._find_patches())
        for owner, name, _, wrapper in self._patches:
            setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original, _ in reversed(self._patches or ()):
            setattr(owner, name, original)

    def _find_patches(self):
        """``(owner, attribute, original, wrapper)`` for every binding."""
        for layer, owner, name, before, after in layer_targets(self):
            original = owner.__dict__[name]
            wrapper = self.wrap(layer, original, before, after)
            if isinstance(owner, type):
                yield owner, name, original, wrapper
                continue
            # A function: replace it in every repro module binding it.
            for module_name, module in list(sys.modules.items()):
                if module is None or not module_name.startswith("repro"):
                    continue
                for attr, value in vars(module).items():
                    if value is original:
                        yield module, attr, original, wrapper

    # -- results ---------------------------------------------------------
    def write_chrome(self, path: str, metadata: dict | None = None) -> None:
        """Write the spans as Chrome trace-event JSON (``ph: "X"``)."""
        origin = min((span.start for span in self.spans), default=0)
        threads: dict[int, int] = {}
        pid = os.getpid()
        events = []
        for span in sorted(self.spans, key=lambda s: (s.start, -s.end)):
            tid = threads.setdefault(span.tid, len(threads) + 1)
            args = {"op": span.op, "self_us": span.self_ns / 1000}
            if span.args:
                args.update(span.args)
            events.append(
                {
                    "name": span.layer,
                    "cat": span.layer.split(".")[0],
                    "ph": "X",
                    "ts": (span.start - origin) / 1000,
                    "dur": (span.end - span.start) / 1000,
                    "pid": pid,
                    "tid": tid,
                    "args": args,
                }
            )
        for ident, tid in threads.items():
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": self._threads.get(ident, str(ident))},
                }
            )
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as handle:
            json.dump(
                {
                    "traceEvents": events,
                    "displayTimeUnit": "ms",
                    "otherData": metadata or {},
                },
                handle,
            )


def _inside(stack: list[Span], layer: str) -> bool:
    return any(span.layer == layer for span in stack)


def layer_targets(recorder: Recorder):
    """``(layer, owner, attribute, before, after)`` per wrapped entry point.

    A class owner has its method replaced; a module owner names a
    function that is replaced in every module binding it by name (for
    example ``contention_bound``, which ``engine/experiment.py`` and
    ``analysis/experiments.py`` both import).
    """
    from repro.core import wcet
    from repro.engine import batch, runner, scenario
    from repro.engine.remote import wire, worker
    from repro.ilp.batch import default_batch_solver
    from repro.service import retry, store as queue_store
    from repro.sim import program, system
    from repro.store import resultstore
    from repro.workloads import footprint

    def solver_before(stack, args):
        if _inside(stack, "engine.job"):
            return None  # a nested job: the outer one counts the solves
        return _solver_stats(default_batch_solver())

    def solver_after(state, stack, args, result):
        if state is None:
            return
        recorder.count("engine.jobs")
        after = _solver_stats(default_batch_solver())
        for key, value in after.items():
            recorder.count(f"ilp.{key}", value - state[key])

    def sim_after(state, stack, args, result):
        requests = sum(
            stats.count
            for core in result.cores.values()
            for stats in core.transactions.values()
        )
        requests += sum(agent.served for agent in result.dma.values())
        recorder.count("sim.requests", requests)

    def wire_after(name):
        def after(state, stack, args, result):
            if _inside(stack, WIRE):
                return  # nested inside another wire call
            recorder.count("wire.calls")
            payload = result if name.startswith("encode_") else args[0] if args else None
            if isinstance(payload, (bytes, bytearray)):
                recorder.count("wire.bytes", len(payload))
            if name == "encode_lease":
                recorder.count("service.lease.calls")
                if args[0] is None:
                    recorder.count("service.lease.empty")

        return after

    def rows_after(state, stack, args, result):
        recorder.count("store.results.rows", result)

    targets = [
        ("engine.run", runner.ExperimentEngine, "run", None, None),
        ("engine.job", batch.Job, "run", solver_before, solver_after),
        ("workloads.build", scenario.ScenarioSpec, "app_program", None, None),
        ("workloads.build", scenario.ScenarioSpec, "contender_programs", None, None),
        ("workloads.pad", footprint, "isolation_cycles", None, None),
        ("sim.compile", program, "compile_program", None, None),
        ("sim.run", system.SystemSimulator, "run", None, sim_after),
        ("core.bound", wcet, "contention_bound", None, None),
        ("service.poll", retry.Backoff, "sleep", None, None),
        ("service.exec", worker, "execute_wire_job", None, None),
        ("store.queue", queue_store.JobStore, "submit", None, None),
        ("store.queue", queue_store.JobStore, "lease", None, None),
        ("store.queue", queue_store.JobStore, "complete", None, None),
        ("store.results", resultstore.ResultStore, "record_batch", None, rows_after),
    ]
    for name in sorted(vars(wire)):
        if name.startswith(("encode_", "decode_")) and callable(getattr(wire, name)):
            targets.append((WIRE, wire, name, None, wire_after(name)))
    return targets


def _solver_stats(solver) -> dict[str, int]:
    stats = solver.stats
    return {
        "solves": stats.solves,
        "warm_hits": stats.warm_hits,
        "simplex_iterations": stats.simplex_iterations,
        "nodes": stats.nodes,
    }

"""The three workloads: set-up, one op, and the check of its output.

All three run closed-loop with one client.  Each workload object is
built by :func:`make` (the set-up that ``setup_s`` times), yields its
ops in rounds (:meth:`rounds`), runs one op (:meth:`run`) and checks its
output against ``expected.json`` (:meth:`check`).  A check returns the
list of problems it found; an op with any problem counts as failed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Iterator

import hostcal
import seeded

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"
#: Where runs write their trace files and scratch state (git-ignored).
OUT = HERE / "out"


def load_expected() -> dict:
    with open(EXPECTED) as handle:
        return json.load(handle)


def digest(results) -> str:
    """Order-sensitive digest of a list of result dataclasses."""
    text = repr([dataclasses.astuple(result) for result in results])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Workload:
    """Defaults shared by the workloads.

    A workload imports the entry points its ops call at set-up: the
    import is set-up work, and the traced run's wrappers can only
    replace functions in modules that are already loaded.
    """

    #: Whether op times are reported at nominal host speed.
    normalised = True

    def close(self) -> None:
        pass


class Paper(Workload):
    """Figure 4 in paper mode: five counter-based models, 18 bars, no
    simulation.  Exercises core, ilp and engine dispatch only."""

    name = "paper"

    def __init__(self, seed: int) -> None:
        from repro.analysis.experiments import figure4_paper_mode
        from repro.core.registry import counter_based_model_names

        self.figure4 = figure4_paper_mode
        self.models = counter_based_model_names()
        if len(self.models) != 5:
            raise RuntimeError(f"expected 5 counter-based models: {self.models}")
        self.first: list | None = None

    def rounds(self) -> Iterator[list]:
        return seeded.paper_rounds(self.models)

    def run(self, models) -> list:
        from repro.ilp.batch import reset_default_batch_solver

        # Every op starts where a fresh `repro figure4` starts.
        reset_default_batch_solver()
        return self.figure4(models=models)

    def check(self, models, rows, expected: dict) -> list[str]:
        problems = []
        anchors = expected["paper"]["anchors"]
        seen = set()
        for row in rows:
            key = f"{row.scenario}/{row.model}/{row.load}"
            if key in anchors:
                seen.add(key)
                if round(row.slowdown, 2) != anchors[key]:
                    problems.append(
                        f"{key} reads {row.slowdown:.4f}, anchor {anchors[key]}"
                    )
        problems += [f"{key} missing" for key in sorted(set(anchors) - seen)]
        if self.first is None:
            self.first = rows
        elif rows != self.first:
            problems.append("rows differ from the first op's")
        return problems

    def describe(self, models) -> str:
        return "figure4-paper"


class Matrix(Workload):
    """One row of the model x scenario matrix per op: one registered spec
    under all five counter-based models.  Dominated by simulation."""

    name = "matrix"

    def __init__(self, seed: int) -> None:
        from repro.analysis.experiments import model_scenario_matrix

        self.matrix = model_scenario_matrix
        self.seed = seed
        self.source = seeded.SpecSource(sized=True)
        self.valid = seeded.validate(self.source, self.source.registered)

    def rounds(self) -> Iterator[list]:
        return seeded.matrix_rounds(self.seed, self.source.registered, self.valid)

    def run(self, item: seeded.Input) -> list:
        from repro.ilp.batch import reset_default_batch_solver

        reset_default_batch_solver()
        return self.matrix(specs=[self.source.spec(item)])

    def check(self, item: seeded.Input, results, expected: dict) -> list[str]:
        problems = [
            f"{item.key} {result.model} unsound"
            for result in results
            if not result.sound
        ]
        pinned = expected["matrix"].get(item.key)
        if pinned is None:
            problems.append(f"{item.key} has no pinned result")
        elif digest(results) != pinned:
            problems.append(f"{item.key} digest {digest(results)} != {pinned}")
        return problems

    def describe(self, item: seeded.Input) -> str:
        return item.key


class Service(Workload):
    """One ``run_specs`` batch per op through ``ExperimentEngine(mode=
    "service")``: an in-process coordinator with a file-backed job store
    and result store, and one pull worker."""

    name = "service"
    normalised = False

    def __init__(self, seed: int) -> None:
        from repro.engine import ExperimentEngine
        from repro.service.coordinator import CoordinatorServer
        from repro.service.pull import PullWorker
        from repro.service.store import JobStore
        from repro.store import ResultStore

        self.seed = seed
        self.source = seeded.SpecSource(sized=False)
        self.valid = seeded.validate(
            self.source, seeded.SERVICE_PAIRS + self.source.family_members
        )
        OUT.mkdir(exist_ok=True)
        self.state = tempfile.mkdtemp(prefix="service-", dir=OUT)
        self.jobs = JobStore(os.path.join(self.state, "queue.sqlite"))
        self.results = ResultStore(self.state)
        self.server = CoordinatorServer(store=self.jobs, results=self.results)
        self.server.start()
        self.worker = PullWorker(self.server.url, name="bench").start()
        self.engine = ExperimentEngine(
            mode="service", coordinator_url=self.server.url
        )
        deadline = time.monotonic() + 30
        while not self.server.workers:
            if time.monotonic() > deadline:
                self.close()
                raise RuntimeError("the pull worker never registered")
            time.sleep(0.005)

    def rounds(self) -> Iterator[list]:
        return seeded.service_rounds(
            self.seed,
            seeded.SERVICE_PAIRS,
            self.source.family_members,
            self.valid,
        )

    def run(self, batch) -> list:
        from repro.engine import run_specs

        self._fallbacks = self.engine.stats.fallbacks
        return run_specs(
            [self.source.spec(item) for item in batch], engine=self.engine
        )

    def check(self, batch, results, expected: dict) -> list[str]:
        """Zero fallbacks, and every result equal to the serial in-process
        run of its spec (pinned in ``expected.json``)."""
        problems = []
        fallbacks = self.engine.stats.fallbacks - self._fallbacks
        if fallbacks:
            problems.append(f"{fallbacks} jobs fell back to in-process execution")
        if len(results) != len(batch):
            problems.append(f"{len(results)} results for {len(batch)} specs")
        pinned = expected["service"]["serial"]
        for item, result in zip(batch, results):
            if pinned.get(item.key) != digest([result]):
                problems.append(f"{item.key} differs from its serial run")
        return problems

    def describe(self, batch) -> str:
        return "+".join(item.key for item in batch)

    def close(self) -> None:
        self.worker.stop()
        self.server.stop()
        self.engine.close()
        self.jobs.close()
        self.results.close()
        shutil.rmtree(self.state, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (Paper, Matrix, Service)}


def make(name: str, seed: int) -> tuple[Any, dict]:
    """Set up workload ``name`` for ``seed``, timed.

    The set-up is ``import repro`` plus the workload's own (input
    generation and validation; coordinator and worker start on
    ``service``).  Returns the workload and ``{"setup_s", "import_s",
    "modules", "cal_s"}``: raw times and the calibration over them.
    Only a process that has not imported ``repro`` yet times the import.
    """
    before = len(sys.modules)
    stamps = {}

    def set_up():
        import repro  # noqa: F401  (the import is part of what is timed)

        stamps["imported"] = time.perf_counter_ns()
        stamps["modules"] = len(sys.modules) - before
        return WORKLOADS[name](seed)

    timing = hostcal.timed(set_up)
    return timing.result, {
        "setup_s": timing.seconds,
        "import_s": (stamps["imported"] - timing.start) / 1e9,
        "modules": stamps["modules"],
        "cal_s": timing.cal,
    }

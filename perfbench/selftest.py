"""Tests of the benchmark itself: seeded inputs, output checks, spans.

    python3 -m pytest -q perfbench/selftest.py

Not collected by the repository's test run (the file name does not
match ``test_*.py``): several tests run the benchmark command, which
takes tens of seconds.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import ops  # noqa: E402
import seeded  # noqa: E402
import spans  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _command(workload: str, seed: int = 1, seconds: float = 1, trace: int = 0):
    return [sys.executable, *BENCHMARK["command"][1:], "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def matrix_inputs():
    source = seeded.SpecSource(sized=True)
    return source, seeded.validate(source, source.registered)


@pytest.fixture(scope="module")
def service_inputs():
    source = seeded.SpecSource(sized=False)
    names = seeded.SERVICE_PAIRS + source.family_members
    return source, seeded.validate(source, names)


def _matrix_ops(matrix_inputs, seed):
    source, valid = matrix_inputs
    return [item for round_ in seeded.matrix_rounds(seed, source.registered, valid)
            for item in round_]


def _service_ops(service_inputs, seed, count=150):
    source, valid = service_inputs
    rounds = seeded.service_rounds(
        seed, seeded.SERVICE_PAIRS, source.family_members, valid)
    batches = itertools.chain.from_iterable(rounds)
    return list(itertools.islice(batches, count))


def test_matrix_inputs_are_seeded_and_distinct(matrix_inputs):
    first = _matrix_ops(matrix_inputs, 7)
    assert first == _matrix_ops(matrix_inputs, 7)
    assert first != _matrix_ops(matrix_inputs, 8)
    # Enough distinct rows for a program twice as fast as today's.
    assert len(set(first)) == len(first) >= 370
    # Round 0 is the canonical input set, whatever the seed.
    assert sorted(first[:10]) == sorted(_matrix_ops(matrix_inputs, 8)[:10])


def test_service_inputs_are_seeded_and_distinct(service_inputs):
    first = _service_ops(service_inputs, 7)
    assert first == _service_ops(service_inputs, 7)
    assert first != _service_ops(service_inputs, 8)
    assert len(set(first)) == len(first)
    assert all(len(batch) == 3 for batch in first)
    assert all(item.spec.startswith("dma-pressure/") for _, _, item in first)
    # Round 0 is the same whatever the seed, so its work counts repeat.
    assert first[:3] == _service_ops(service_inputs, 8)[:3]


def test_unbuildable_factors_are_dropped_at_set_up(matrix_inputs):
    from repro.errors import WorkloadError

    source, valid = matrix_inputs
    dropped = [
        seeded.Input(name, level)
        for name in source.registered
        for level in seeded.LEVELS
        if level not in valid[name]
    ]
    assert dropped, "the grid is expected to hold unbuildable factors"
    spec = source.spec(dropped[0])
    with pytest.raises(WorkloadError):
        spec.app_program()
        spec.contender_programs()
    pinned = ops.load_expected()["matrix"]
    assert all(item.key not in pinned for item in dropped)
    for name in source.registered:
        assert all(seeded.Input(name, level).key in pinned for level in valid[name])


def test_running_out_of_inputs_is_reported(capsys):
    import run

    class Short:
        normalised = False

        def rounds(self):
            return iter([["a"], ["b"]])

        def run(self, item):
            return [item]

        def check(self, item, output, expected):
            return []

        def describe(self, item):
            return item

    records = run.run_loop(Short(), 60, {})
    assert [record.label for record in records] == ["a", "b"]
    assert "the inputs ran out after 2 ops" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Output checks: a perturbed expectation fails the op
# ----------------------------------------------------------------------
def _perturbed(workload: str) -> dict:
    expected = ops.load_expected()
    if workload == "paper":
        expected["paper"]["anchors"]["scenario1/ftc-refined/-"] = 1.96
    elif workload == "matrix":
        expected["matrix"] = {key: "0" * 16 for key in expected["matrix"]}
    else:
        expected["service"]["serial"] = {
            key: "0" * 16 for key in expected["service"]["serial"]}
    return expected


def test_paper_check_flags_anchor_and_row_changes():
    import dataclasses

    paper = ops.Paper(seed=1)
    rows = paper.run(paper.models)
    expected = ops.load_expected()
    assert paper.check(paper.models, rows, expected) == []
    assert paper.check(paper.models, rows, _perturbed("paper"))
    changed = [dataclasses.replace(rows[0], delta_cycles=rows[0].delta_cycles + 1),
               *rows[1:]]
    assert paper.check(paper.models, changed, expected) == [
        "rows differ from the first op's"]


def test_matrix_check_flags_digest_and_soundness():
    import dataclasses

    matrix = ops.Matrix(seed=1)
    item = seeded.Input("scenario1-pair-H", 0)
    results = matrix.run(item)
    expected = ops.load_expected()
    assert matrix.check(item, results, expected) == []
    assert matrix.check(item, results, _perturbed("matrix"))
    unsound = [dataclasses.replace(results[0], observed_cycles=10**12), *results[1:]]
    problems = matrix.check(item, unsound, expected)
    assert any("unsound" in problem for problem in problems)


def test_service_check_flags_fallbacks_and_serial_mismatch():
    service = ops.Service(seed=1)
    try:
        batch = next(iter(service.rounds()))[0]
        results = service.run(batch)
        expected = ops.load_expected()
        assert service.check(batch, results, expected) == []
        assert service.check(batch, results, _perturbed("service"))
        # A dead coordinator makes the engine fall back to in-process
        # execution, which must count as a failed op.
        service.server.stop()
        service.engine._service.unreachable_grace = 0.0
        results = service.run(batch)
        problems = service.check(batch, results, expected)
        assert any("fell back" in problem for problem in problems)
    finally:
        service.close()


@pytest.mark.parametrize("workload", ["paper", "matrix", "service"])
def test_perturbed_expectation_fails_the_command(workload, tmp_path):
    script = tmp_path / "perturbed.py"
    script.write_text(textwrap.dedent(f"""
        import sys
        sys.path.insert(0, {str(HERE)!r})
        import run, selftest
        sys.exit(run.main(sys.argv[1:], expected=selftest._perturbed({workload!r})))
    """))
    command = _command(workload)
    done = subprocess.run([sys.executable, str(script), *command[2:]],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 1, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]


# ----------------------------------------------------------------------
# The command
# ----------------------------------------------------------------------
def _metric_names(kind):
    return {metric["name"] for metric in BENCHMARK[kind]}


def test_untraced_run_prints_every_end_to_end_metric():
    done = subprocess.run(_command("paper"), cwd=ROOT, capture_output=True,
                          text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == _metric_names("end_to_end")
    for metric in BENCHMARK["end_to_end"]:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"] and reported["value"] > 0


def test_traced_run_prints_layers_and_writes_a_chrome_trace():
    done = subprocess.run(_command("paper", seed=5, trace=1), cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result["metrics"]) == _metric_names("per_layer")
    for metric in BENCHMARK["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    metrics = result["metrics"]
    assert metrics["engine.jobs"]["value"] == 18
    assert metrics["sim.run.calls"]["value"] == 0  # paper mode simulates nothing
    trace = json.loads((ops.OUT / "trace-paper-5.json").read_text())
    events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert {"op", "engine.run", "engine.job", "core.bound"} <= {
        e["name"] for e in events}
    assert all(e["dur"] >= 0 and e["args"]["self_us"] >= 0 for e in events)


def test_command_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(_command("paper"), cwd=tmp_path, capture_output=True,
                          text=True, timeout=170)
    assert done.returncode != 0
    assert done.stdout == ""


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
def test_self_time_excludes_child_spans():
    recorder = spans.Recorder()
    recorder.op = 0

    def child():
        time.sleep(0.02)

    wrapped_child = recorder.wrap("child", child)

    def parent():
        time.sleep(0.01)
        wrapped_child()
        wrapped_child()

    recorder.wrap("parent", parent)()
    by_layer = {span.layer: span for span in recorder.spans}
    parent_span = by_layer["parent"]
    assert parent_span.child_ns == sum(
        s.end - s.start for s in recorder.spans if s.layer == "child")
    assert 0.009 < parent_span.self_ns / 1e9 < 0.02


def test_install_wraps_and_uninstall_restores():
    from repro.core import wcet
    from repro.engine import experiment
    from repro.engine.runner import ExperimentEngine

    original_run = ExperimentEngine.__dict__["run"]
    original_bound = experiment.contention_bound
    recorder = spans.Recorder()
    recorder.install()
    try:
        assert ExperimentEngine.__dict__["run"] is not original_run
        assert experiment.contention_bound is not original_bound
        assert experiment.contention_bound is wcet.contention_bound
    finally:
        recorder.uninstall()
    assert ExperimentEngine.__dict__["run"] is original_run
    assert experiment.contention_bound is original_bound

"""Regenerate ``expected.json``: the pinned result of every input.

    python3 perfbench/make_expected.py

Runs each buildable (spec, level) input once, serially and in-process:
every matrix row (requiring every cell to be sound) and every spec a
service batch can hold.  It pins the digest of each.  Any seed's ops
are checked against these tables, so they must only be regenerated
when a change is meant to alter results.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import ops  # noqa: E402
import seeded  # noqa: E402


def main() -> None:
    from repro.analysis.experiments import model_scenario_matrix
    from repro.engine import run_specs
    from repro.ilp.batch import reset_default_batch_solver

    expected = ops.load_expected()
    source = seeded.SpecSource(sized=True)
    valid = seeded.validate(source, source.registered)
    matrix = {}
    for name in source.registered:
        for level in valid[name]:
            item = seeded.Input(name, level)
            reset_default_batch_solver()
            results = model_scenario_matrix(specs=[source.spec(item)])
            if not all(result.sound for result in results):
                raise SystemExit(f"{item.key}: unsound cell")
            matrix[item.key] = ops.digest(results)
    source = seeded.SpecSource(sized=False)
    names = seeded.SERVICE_PAIRS + source.family_members
    valid = seeded.validate(source, names)
    serial = {}
    for name in names:
        for level in valid[name]:
            item = seeded.Input(name, level)
            serial[item.key] = ops.digest(run_specs([source.spec(item)]))
    expected["matrix"] = matrix
    expected["service"] = {"serial": serial}
    with open(ops.EXPECTED, "w") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"pinned {len(matrix)} matrix rows and {len(serial)} service specs")


if __name__ == "__main__":
    main()

"""One fresh-interpreter set-up of a workload, timed.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Prints the set-up sample of :func:`ops.make` as JSON.  ``run.py`` takes
the median of its own set-up and of these at nominal host speed.

NumPy is imported before the timed region because the calibration
kernel needs it; every workload needs it too, so no change to this
repository can remove that import from a run.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import ops  # noqa: E402


def main(workload: str, seed: int) -> None:
    setup, sample = ops.make(workload, seed)
    try:
        print(json.dumps(sample))
    finally:
        setup.close()


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))

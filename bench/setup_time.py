"""Set-up time of streamcheck: import it afresh and load a workload's models.

    python3 bench/setup_time.py REPEATS '[["fixtures/acc.scm.txt"], ...]'

prints, as a JSON list, REPEATS times to import `streamcheck` from `src/`
afresh and load every model set once, each scaled by the machine's speed
(see speed.py). run.py starts it as a child process,
so that the modules left behind by the repeated imports do not count towards
the peak memory of the measuring process.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from pathlib import Path

import speed

SRC = Path(__file__).resolve().parent.parent / "src"


def measure_setup(model_sets: list[list[str]], repeats: int) -> list[float]:
    clock = speed.Clock()
    times = []
    for _ in range(repeats):
        for name in [n for n in sys.modules if n == "streamcheck" or n.startswith("streamcheck.")]:
            del sys.modules[name]
        clock.ready()
        start = time.perf_counter()
        sc = importlib.import_module("streamcheck")
        for paths in model_sets:
            sc.load_models(paths)
        times.append(clock.scale(time.perf_counter() - start))
    return times


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    print(json.dumps(measure_setup(json.loads(sys.argv[2]), int(sys.argv[1]))))

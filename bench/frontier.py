"""Run one frontier instance of a scaling family under a cap, in its own process.

Usage: python bench/frontier.py <grid|path> <size> <seed> <cap seconds>,
with PYTHONPATH pointing at ``src``.  Prints one JSON object: the status
("ok", "timeout" or "<Exception> in <module.function>"), where a timeout
struck, the seconds spent, and for a finished op whether its answer was
right.  A process of its own keeps a crash, a deep recursion or the memory
of a runaway search away from the workload's measurements.
"""

import json
import random
import sys

import analysis
import inputs

FAMILIES = {
    "grid": (inputs.grid_diagram, analysis.grid_answer),
    "path": (inputs.path_diagram, analysis.path_answer),
}


def main() -> None:
    family, size, seed, cap = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), float(sys.argv[4])
    build, answer = FAMILIES[family]
    d = inputs.relabel(inputs.validated(build(size)), random.Random(seed))
    status, value, seconds = analysis.capped(cap, analysis.analyse, d)
    record = {"status": status, "seconds": seconds, "where": None, "wrong": None}
    if status == "timeout":
        record["where"] = value
    elif status == "ok":
        record["wrong"] = analysis.check(value, answer(size))
    print(json.dumps(record))


if __name__ == "__main__":
    main()

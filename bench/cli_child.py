"""Traced stand-in for the ``kra`` console script, used by the cli workload.

Usage: python bench/cli_child.py <kra arguments>, with PYTHONPATH pointing
at ``src`` and KRA_BENCH_TRACE_OUT naming a file.  It times
``import kra.cli``, rebinds the traced functions, runs ``main`` and writes
the import time, the per-layer sums and the spans to that file as JSON.
Stdout and the exit code are those of ``kra`` itself.
"""

import json
import os
import sys
from time import perf_counter

import tracer


def run() -> int:
    start = perf_counter()
    import kra.cli

    import_s = perf_counter() - start
    t = tracer.Tracer()
    t.install(tracer.TARGETS + (tracer.CLI_TARGET,))
    t.begin_op(0, "cli")
    try:
        code = kra.cli.main(sys.argv[1:])
    finally:
        sys.stdout.flush()
        report = {"import_s": import_s, "stats": t.groups["cli"], "spans": t.spans}
        with open(os.environ["KRA_BENCH_TRACE_OUT"], "w", encoding="utf-8") as out:
            json.dump(report, out)
    return code


if __name__ == "__main__":
    sys.exit(run())

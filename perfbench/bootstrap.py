"""Child process of the traced cold_cli run.

    python perfbench/bootstrap.py <spawn_epoch_s> <trace_json_path> <treelie argv...>

Run from the checkout root.  Times interpreter start (from the parent's
spawn time to the first line here), ``import numpy`` and ``import
treelie``, installs the same wrappers as the in-process traced run, runs
the CLI once, and writes the startup timings, per-name totals, counters
and span records to the trace file.  Exits with the CLI's exit code.
"""

import time

_ENTER = time.time()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    spawn, trace_path, argv = float(sys.argv[1]), sys.argv[2], sys.argv[3:]
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    t0 = time.perf_counter()
    import numpy  # noqa: F401

    t1 = time.perf_counter()
    import treelie.cli

    t2 = time.perf_counter()
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        rc = treelie.cli.main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
    doc = {
        "startup": {
            "interpreter_ms": (_ENTER - spawn) * 1e3,
            "import_numpy_ms": (t1 - t0) * 1e3,
            "import_treelie_ms": (t2 - t1) * 1e3,
        },
        "totals": tracer.totals(),
        "counters": dict(tracer.counters),
        "records": list(tracer.records()),
    }
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())

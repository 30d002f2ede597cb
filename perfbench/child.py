"""Run one CLI command in a fresh interpreter and print its timing record.

    python3 perfbench/child.py TRACE OUT COMMAND WORKSPACE [ARGS...]
    python3 perfbench/child.py

`minmodel` must be importable (PYTHONPATH=src).  The record is one JSON
line on stdout: the monotonic clock reading right after `minmodel.cli` was
imported (the parent subtracts its spawn time), the exit code, the seconds
from calling `cli.run` until the report at OUT was written, and the peak
resident set size.  With TRACE=1 the layer spans of `spans.py` are
installed first and their table is added to the record.

Without arguments the child is a probe: it runs `calibrate()` before
anything of `minmodel` is imported, then imports `minmodel.cli`, and
prints {"imported", "calibration"}.  Its "imported" reading leaves out the
time the calibration took, so that it too counts from spawn to import.
"""

import gc
import sys
import time


def calibrate() -> float:
    """Seconds taken by a fixed amount of work of the kind the engine does:
    tuple building and dict lookups over a working set of several MB.  It
    slows down with the machine, as the engine does.  It runs with the
    collector off, in an interpreter that has not imported the program, so
    no change to the program moves it."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table = {}
        for i in range(100_000):
            table[(i % 331, i % 997, i)] = (i, i % 7)
        keys = list(table)
        total = 0
        for r in range(3):
            for k in keys[r::5]:
                total += table[k][0]
        total += sum(len(t) for t in (tuple(range(i % 9)) for i in range(60_000)))
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


PROBE = len(sys.argv) == 1
if PROBE:
    began = time.monotonic()
    CALIBRATION = calibrate()
    CALIBRATING = time.monotonic() - began

from minmodel import cli  # noqa: E402

IMPORTED = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402


def main() -> None:
    if PROBE:
        print(json.dumps({"imported": IMPORTED - CALIBRATING, "calibration": CALIBRATION}))
        return
    trace, out, argv = sys.argv[1] == "1", sys.argv[2], sys.argv[3:]
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    code = cli.run(argv + ["--out", out])
    seconds = time.perf_counter() - start
    record = {
        "imported": IMPORTED,
        "code": code,
        "seconds": seconds,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        record["spans"] = tracer.table()
    print(json.dumps(record))


if __name__ == "__main__":
    main()

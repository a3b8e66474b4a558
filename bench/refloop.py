"""Reference loop: samples the speed of the core the ops run on.

    python3 bench/refloop.py OUT_JSON

Runs in its own process beside the ops, on the same single CPU (the caller
pins both).  It repeats a fixed unit of pure-Python work, times each unit in
its own CPU time, and sleeps between units, so it takes about a tenth of
the core.  On SIGTERM it writes ``[[end, cpu_s], ...]`` to OUT_JSON, where
``end`` is the ``time.perf_counter()`` reading when the unit ended (the clock
is system-wide, so it compares with the ops' readings) and ``cpu_s`` is the
unit's CPU time.  A shared host changes a core's speed by a tenth or more
within seconds; ops and units on the same core slow down together, so an
op's CPU time divided by the units' speed over its interval does not.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time

SLEEP_S = 0.018     # between units; with a unit of about 2 ms, ~10% duty


def unit() -> int:
    """A fixed mix of the operations the program spends its time in: small
    frozensets and their hashes, dict updates, and modular row arithmetic
    over lists.  Small enough to stay in cache."""
    counts: dict = {}
    for i in range(400):
        key = frozenset(((i * 7 + j) % 61 for j in range(6)))
        counts[key] = counts.get(key, 0) + 1
    row = list(range(1, 43))
    pivot = list(range(3, 45))
    for k in range(60):
        x = row[k % 42] % 10007
        row = [(a - x * b) % 10007 for a, b in zip(row, pivot)]
    return len(counts) + row[0]


def main(argv: list[str]) -> int:
    out_path = argv[0]
    stop = []
    signal.signal(signal.SIGTERM, lambda signum, frame: stop.append(signum))
    parent = os.getppid()
    samples = []
    while not stop and os.getppid() == parent:
        start = time.process_time()
        unit()
        samples.append((time.perf_counter(), time.process_time() - start))
        time.sleep(SLEEP_S)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(samples, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

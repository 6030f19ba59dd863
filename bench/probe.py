"""Machine-speed probe used to normalize the benchmark's timings.

Machines shared with other tenants run the same pure-Python code up to half
again slower for seconds at a time.  A short fixed task, timed often, tracks
that speed; timings are rescaled by it to a fixed nominal speed.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

#: Seconds between speed probes; a probe takes about five milliseconds.
PROBE_INTERVAL_S = 0.1
#: The nominal speed: timings are reported as if ``speed_probe`` took
#: exactly this long.  On an unloaded 2-vCPU x86-64 host under Python 3.11
#: it takes 0.65 to 0.8 ms, so reported times read somewhat below raw ones.
PROBE_NOMINAL_S = 0.001


def speed_probe() -> float:
    """Seconds taken by a fixed pure-Python task like the package's own work
    (tuple keys, dict updates, exact fractions): the median of five runs
    after one untimed run, with the collector off, so that neither the
    package's cache footprint nor the size of its heap enters."""
    runs = []
    gc.disable()
    try:
        for _ in range(6):
            started = time.perf_counter()
            table: dict = {}
            for i in range(3000):
                key = (i % 97, i % 13, i)
                table[key] = table.get(key, 0) + i * i
            sum(Fraction(i, 7) for i in range(100))
            runs.append(time.perf_counter() - started)
    finally:
        gc.enable()
    return sorted(runs[1:])[2]


def normalized(op_s: list, probes: list) -> list:
    """Operation times rescaled to the nominal machine speed.

    ``probes`` holds (operations done, probe seconds) pairs in order, with
    one probe before the first operation and one after the last.  Each
    operation's time is multiplied by PROBE_NOMINAL_S over the mean of the
    probes taken just before and just after it."""
    out = []
    for index, seconds in enumerate(op_s):
        before = [d for at, d in probes if at <= index][-1]
        after = next(d for at, d in probes if at > index)
        out.append(seconds * PROBE_NOMINAL_S * 2 / (before + after))
    return out

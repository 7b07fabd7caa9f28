"""Timing against a fixed reference loop.

The host this benchmark was tuned on (2 vCPUs of a shared 2.0 GHz Xeon)
changes speed by up to 2x, for seconds to minutes at a time, and the
package's code then runs up to 2x slower. So each timed part is paired
with a fixed loop run just before and just after it, and is reported at
the loop's speed of REF_S seconds, about its time when that host is
fast, so figures read close to seconds there. The loop reads pairs of
numbers in a shuffled order from a heap of a few megabytes: like the
package's per-specimen loops it waits on memory as well as on the
interpreter, and of the loops tried it followed their speed best (a
pure arithmetic loop left twice the run-to-run spread). Tuples of
numbers drop out of the garbage collector's tracking at its first pass,
so the heap does not lengthen the package's collections, and the loop
calls no package code.
"""
from __future__ import annotations

import statistics
import time

REF_LOOPS = 20_000
REF_S = 1.4e-3


def reference_s() -> float:
    """Seconds of the fixed reference loop at the host's current speed."""
    t0 = time.perf_counter()
    total = 0
    for i in range(REF_LOOPS):
        total += i * i
    return time.perf_counter() - t0


def timed(fn, *args, **kwargs):
    """fn's result and its sample: (seconds, reference-loop seconds around it)."""
    before = reference_s()
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    seconds = time.perf_counter() - t0
    return result, (seconds, (before + reference_s()) / 2)


def at_reference_speed(samples) -> float:
    """Seconds of one part at the reference speed: the median over its
    samples of its time relative to the reference loop's."""
    return REF_S * statistics.median(seconds / ref for seconds, ref in samples)

"""Machine-speed probe.

The reference host (2 vCPUs shared with other tenants) switches between
a fast and a slow state, about 1.45x apart, for stretches of seconds to
minutes.  ``SpeedProbe`` times a fixed piece of pure-Python work, exact
elimination over Fraction plus dict and JSON building as in the
engine's own hot paths but independent of the package, between jobs and
outside every job timer.  ``factors`` turns a job's interval into a
speed factor from the probe times around it; a measured time multiplied
by it is, roughly, the time on a host that runs the probe in
``REFERENCE_S``.
"""

import bisect
import gc
import json
import time
from fractions import Fraction

REFERENCE_S = 0.012
MIN_GAP_S = 0.2
# a probe reads the speed at one instant and a job spans many, so a full
# correction over-corrects; half of it in log space gave the smallest
# run-to-run spread on the reference host (free-emit 0.128 -> 0.051,
# model-lift 0.095 -> 0.061 over five seeds, against 0.085 and 0.125
# for the full correction)
EXPONENT = 0.5
SIZE = 9


def _eliminate():
    rows = [[Fraction((3 * i + 5 * j) % 11 - 5, 1 + (i * j) % 4)
             for j in range(SIZE)] for i in range(SIZE)]
    for col in range(SIZE):
        pivot = next((r for r in range(col, SIZE) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [x * inv for x in rows[col]]
        for r in range(SIZE):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return rows


def _tabulate():
    table = {}
    for i in range(4000):
        key = (i % 97, i % 89, i % 83)
        table[key] = table.get(key, 0) + i
    return json.dumps(sorted((str(k), v) for k, v in table.items()))


def probe_once():
    """Seconds for one run of the fixed work, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _eliminate()
        _eliminate()
        _tabulate()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Probe samples ``(perf_counter at start, seconds)`` between jobs."""

    def __init__(self):
        self.samples = []

    def sample(self, force=False):
        """Probe unless the last probe is less than ``MIN_GAP_S`` old."""
        now = time.perf_counter()
        if force or not self.samples or \
                now - self.samples[-1][0] >= MIN_GAP_S:
            self.samples.append((now, probe_once()))


def factors(samples, intervals):
    """Speed factor per ``(start, end)`` interval: ``REFERENCE_S`` over
    the mean of the last probe before it and the first probe after it,
    to the power ``EXPONENT``."""
    stamps = [t for t, _ in samples]
    out = []
    for start, end in intervals:
        before = max(bisect.bisect_right(stamps, start) - 1, 0)
        after = min(bisect.bisect_left(stamps, end), len(stamps) - 1)
        out.append((2 * REFERENCE_S / (samples[before][1] +
                                        samples[after][1])) ** EXPONENT)
    return out

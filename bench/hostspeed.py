"""Scaling measured times to a reference speed of the host.

The benchmark runs on shared virtual machines whose speed drifts: the same
single-threaded code has been seen to run up to about 1.9x slower, in
phases that last from about a second to minutes, and both vCPUs slow down
together. A median of wall times taken over one run moves with
those phases, by more than the regression bounds allow.

``HostSpeed`` interleaves a fixed probe (interpreter loops, allocation and
JSON encoding, small numpy solves: the kinds of work ``gapfill impute``
does, none of it in gapfill) with the measured calls. Each call's wall time
is divided by the mean of the probe times just before and just after it, and
multiplied by ``PROBE_REF_S``. A call therefore reads in seconds at the
host's reference speed, and a slower program still reads slower, by the
same factor, whatever phase the host is in.
"""

from __future__ import annotations

import json
from time import perf_counter

import numpy as np

# Wall time of one probe at the reference speed: the median probe time over
# the runs that set this constant, on a 2-vCPU Intel Xeon VM with Python 3.11
# and numpy 2.4. Scaled times there read close to the median wall times.
PROBE_REF_S = 0.028


class HostSpeed:
    """Probe, measured call, probe, measured call, ...; see the module docstring."""

    def __init__(self):
        rows = np.linspace(-1.0, 1.0, 6000).reshape(2000, 3)
        self._records = [{"t": i, "x": [float(v) for v in row]} for i, row in enumerate(rows)]
        self._spd = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 2.0]])
        self._rhs = np.ones(3)
        self.probes = []
        self._last = self.probe()

    def probe(self) -> float:
        """Wall time of the fixed probe."""
        start = perf_counter()
        total = 0
        for i in range(40_000):
            total += i * i
        json.dumps(self._records, indent=2)
        for _ in range(200):
            np.linalg.solve(self._spd, self._rhs)
        elapsed = perf_counter() - start
        self.probes.append(elapsed)
        return elapsed

    def scale(self, seconds: float) -> float:
        """``seconds``, just measured, at the reference speed; probes once more."""
        before, self._last = self._last, self.probe()
        return seconds * PROBE_REF_S / ((before + self._last) / 2)

"""A fixed reference computation that gauges how fast the CPU runs right now.

The benchmark's host is shared: the same fixed ehwf work takes up to a
third longer while neighbours load the machine, in spells that last from
seconds to minutes, so wall-clock figures of two runs drift apart even on
identical code.  `sample()` times a fixed mix of small-array numpy calls
and Python-level float handling -- the same kinds of work ehwf's solvers
do, but with no ehwf code, so no change to ehwf can move it.  run.py takes
a sample before every block of ops and around every set-up probe, and
scales each wall time by NOMINAL_S over the median of the samples around
it: times are then reported at the speed at which a sample takes
NOMINAL_S seconds, and a spell that slows the samples and the ops alike
cancels out.

The inputs are drawn once from a fixed seed, independent of --seed.
"""

from __future__ import annotations

import time

import numpy as np

# Median seconds per sample on a 2-vCPU Intel Xeon VM with Python 3.11 and
# numpy 2.4 (the reference speed the scaled times are reported at).
NOMINAL_S = 0.0053
CALLS = 3

_rng = np.random.default_rng(20140110)
_ARRAYS = [_rng.uniform(0.0, 10.0, n) for n in (5, 20, 80, 300, 1200)] * 8


def _kernel() -> float:
    acc = 0.0
    for x in _ARRAYS:
        c = np.cumsum(x)
        m = np.maximum(c - 0.5 * c[-1], 0.0)
        i = np.searchsorted(c, c[-1] / 2)
        o = np.argsort(x)
        acc += float(np.log1p(m).sum() + x[o][: i + 1].sum() + np.diff(c).max())
        y = np.where(x > 5.0, x, -x)
        acc += float(np.abs(y).mean())
    return acc


def sample() -> float:
    """Wall seconds for CALLS runs of the fixed kernel."""
    t0 = time.perf_counter()
    for _ in range(CALLS):
        _kernel()
    return time.perf_counter() - t0

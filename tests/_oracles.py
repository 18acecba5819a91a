"""Independent reference implementations used as test oracles.

Everything here is written the slow, obvious way on purpose: plain loops,
bisection instead of breakpoint sweeps, no shared code with the package.
If the library and these disagree, trust neither and investigate.  The
one exception is wf_array_reference, the package's earlier numpy segment
fill, kept as it was to hold the current fill to the same bits.
"""

import math
import sys

import numpy as np


def cumulative_loop(harvest):
    out = []
    total = 0.0
    for e in harvest:
        total += e
        out.append(total)
    return out


def battery_loop(harvest, p, d=None):
    """End-of-slot battery levels, one slot at a time."""
    levels = []
    level = 0.0
    for k in range(len(harvest)):
        level += harvest[k] - p[k]
        if d is not None:
            level -= d[k]
        levels.append(level)
    return levels


def sum_rate_loop(gain_rows, p_rows):
    """Objective in nats via per-slot scalar logs."""
    n_users = len(gain_rows)
    n_slots = len(gain_rows[0])
    total = 0.0
    for k in range(n_slots):
        s = 0.0
        for n in range(n_users):
            s += p_rows[n][k] * gain_rows[n][k]
        total += math.log(1.0 + s)
    return total


def greedy_loop(harvest, battery_max, power_max):
    """Literal consume-up-to-the-cap recurrence; returns (p, d, battery)."""
    p, d, bat = [], [], []
    level = 0.0
    for e in harvest:
        avail = level + e
        pk = min(power_max, avail)
        dk = max(avail - pk - battery_max, 0.0)
        level = avail - pk - dk
        p.append(pk)
        d.append(dk)
        bat.append(level)
    return p, d, bat


def wf_bisection(gains, target, power_max, iters=200):
    """Water-fill by bisection on the level; independent of the sweep solver.

    consumed(L) = sum over positive-gain slots of clamp(L - 1/gain, 0, cap)
    is nondecreasing in L, so plain bisection finds the level.  Returns the
    per-slot allocation.
    """
    pos = [g for g in gains if g > 0.0]
    if target <= 0.0 or not pos:
        return [0.0] * len(gains)

    def consumed(level):
        total = 0.0
        for g in pos:
            total += min(power_max, max(0.0, level - 1.0 / g))
        return total

    lo = 0.0
    hi = max(1.0 / g for g in pos) + target + 1.0
    while consumed(hi) < target:
        hi *= 2.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if consumed(mid) < target:
            lo = mid
        else:
            hi = mid
    level = 0.5 * (lo + hi)
    return [min(power_max, max(0.0, level - 1.0 / g)) if g > 0.0 else 0.0
            for g in gains]


def overflow_wastage_loop(harvest, battery_max, p):
    """The wastage a given consumption forces, or None when p overdraws.

    Waste exactly the battery overflow where it occurs; this d exists iff
    some feasible wastage exists for p at all.
    """
    d = []
    level = 0.0
    for k in range(len(harvest)):
        level += harvest[k] - p[k]
        if level < -1e-12:
            return None
        dk = max(level - battery_max, 0.0)
        level -= dk
        d.append(dk)
    return d


# The package's constants, restated so this file shares no code with it.
GAIN_FLOOR = 1.0 / sys.float_info.max
FEAS_TOL = 1e-9


def wf_array_reference(gains, target_energy, power_max):
    """The numpy segment fill that the list fill water_fill_segment replaced.

    Kept unchanged, with its level sweep, as the bit-for-bit reference:
    water_fill_segment, which takes and returns lists, performs the same
    IEEE operations in the same order, so p and w must match exactly, not
    just closely.  gains is an array; returns (p array, w).
    """
    gains = np.asarray(gains, dtype=float)
    cap = float(power_max)
    target = float(target_energy)
    p = np.zeros(gains.size)
    if target <= 0.0:
        return p, np.inf

    pos = gains > GAIN_FLOOR
    npos = int(np.count_nonzero(pos))
    if npos == 0:
        raise ValueError("cannot water-fill positive energy over all-zero gains")
    if math.isfinite(cap):
        if target > gains.size * cap + FEAS_TOL:
            raise ValueError("target energy exceeds segment capacity")
        if target > npos * cap + FEAS_TOL:
            raise ValueError("target energy exceeds positive-gain slot capacity")
        target = min(target, npos * cap)

    inv = 1.0 / gains[pos]
    level = _array_fill_level(inv, cap, target)
    p[pos] = np.minimum(np.maximum(level - inv, 0.0), cap)
    # One exact correction pass: spread the float residual over the slots
    # strictly between the bounds, where the level actually moves mass.
    resid = target - math.fsum(p.tolist())
    if resid != 0.0:
        interior = (p > 0.0) & (p < cap)
        n_int = int(np.count_nonzero(interior))
        if n_int:
            p[interior] += resid / n_int
            np.minimum(np.maximum(p, 0.0, out=p), cap, out=p)
    return p, 1.0 / level


def _array_fill_level(inv, cap, target):
    # the merged breakpoint sweep over an array of inverse gains
    starts = sorted(inv.tolist())
    ends = [v + cap for v in starts] if math.isfinite(cap) else []
    n, m = len(starts), len(ends)
    i = j = slope = 0
    total = 0.0
    prev = starts[0]
    while i < n or j < m:
        if j < m and (i == n or ends[j] <= starts[i]):
            x = ends[j]
            j += 1
            delta = -1
        else:
            x = starts[i]
            i += 1
            delta = 1
        if x > prev and slope > 0:
            step = slope * (x - prev)
            if total + step >= target:
                return prev + (target - total) / slope
            total += step
        prev = x
        slope += delta
    return prev if m else prev + (target - total) / slope

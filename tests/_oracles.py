"""Independent reference implementations used as test oracles.

Everything here is written the slow, obvious way on purpose: plain loops,
bisection instead of breakpoint sweeps, no shared code with the package.
If the library and these disagree, trust neither and investigate.  The
exceptions: wf_array_reference, the package's earlier numpy segment fill,
kept as it was to hold the current fill to the same bits; brute_force_tiny,
which takes the package's tolerance rule (energy_scale) so that its grid
filter accepts what the checkers accept; and wastage_minimality_check,
which tests the package's own optimal_wastage.
"""

import math
import sys

import numpy as np

from ehwf.model import Scenario, UserEnv, cumulative_harvest, energy_scale
from ehwf.single_user import optimal_wastage


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
    # past top every slot is saturated; a target at the total capacity can
    # sit a rounding error above the summed caps, so stop doubling there
    top = max(1.0 / g for g in pos) + power_max
    while consumed(hi) < target and hi < top:
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


def brute_force_tiny(scenario: Scenario):
    """Grid search with shrinking refinement; the oracle for tiny instances.

    Candidates are the incumbent plus one shared set of symmetric offsets
    on every axis, clamped to the box.  Shared offsets keep diagonal moves
    along coupling constraints on the lattice at every width (per-axis
    grids lose them once a window clips and can stall short of the
    optimum); clamping puts the box faces themselves on the lattice.  The
    width halves when no candidate improves, and a converged incumbent is
    rescanned at a ladder of widths before the result is trusted; the
    descent stops at width 1e-6.  Returns (best schedule, best value).
    """
    n_users, n_slots = scenario.num_users, scenario.num_slots
    n_axes = n_users * n_slots
    if n_axes > 6:
        raise ValueError("grid search is limited to num_users * num_slots <= 6")
    grid_pts = 13 if n_axes <= 4 else 7

    cum_e = cumulative_harvest(scenario.harvest)
    tol = FEAS_TOL * np.array([energy_scale(c) for c in cum_e])[None, :, None]
    upper = np.minimum(scenario.power_max[:, None], cum_e)
    gains = scenario.gain
    bmax = scenario.battery_max
    scale = float(upper.max())
    if scale <= 0.0:
        return np.zeros((n_users, n_slots)), 0.0

    def evaluate(cands):
        c = np.cumsum(cands, axis=2)
        h = c - cum_e[None]
        ok = (h <= tol).all(axis=(1, 2))
        prev = np.concatenate([np.zeros((cands.shape[0], n_users, 1)),
                               h[:, :, :-1]], axis=2)
        running_min = np.minimum.accumulate(prev, axis=2)
        ok &= (h - running_min <= bmax[None, :, None] + tol).all(axis=(1, 2))
        vals = np.log1p(np.sum(cands * gains[None], axis=1)).sum(axis=1)
        vals[~ok] = -np.inf
        i = int(np.argmax(vals))
        return float(vals[i]), cands[i]

    def scan(center, width):
        offsets = np.linspace(-width, width, grid_pts)
        mesh = np.stack(np.meshgrid(*[offsets] * n_axes, indexing="ij"),
                        axis=-1).reshape(-1, n_axes)
        cands = center.reshape(1, n_axes) + mesh
        np.clip(cands, 0.0, upper.reshape(1, n_axes), out=cands)
        return evaluate(cands.reshape(-1, n_users, n_slots))

    best_p = np.zeros((n_users, n_slots))
    best_v = 0.0                      # the zero schedule is always feasible

    def descend(center, width, best_v, best_p):
        for _ in range(400):
            v, q = scan(center, width)
            if v > best_v + 1e-10:
                best_v, best_p = v, q  # still improving: chase, don't shrink
            else:
                if v > best_v:
                    best_v, best_p = v, q
                width *= 0.5
            center = best_p
            if width <= 1e-6:
                break
        return best_v, best_p

    best_v, best_p = descend(upper / 2.0, scale / 2.0, best_v, best_p)
    for _ in range(20):
        resume = None
        for shrink in (2.0, 8.0, 32.0, 128.0, 512.0):
            v, q = scan(best_p, scale / shrink)
            if v > best_v + 1e-10:
                resume = scale / shrink
                best_v, best_p = v, q
                break
        if resume is None:
            break
        best_v, best_p = descend(best_p, resume, best_v, best_p)
    return best_p, best_v


def wastage_minimality_check(env: UserEnv, pairs) -> bool:
    """No feasible (p, d) pair wastes less in total than the greedy schedule.

    Less means by more than the feasibility tolerance of check_feasible.
    """
    d_star, _, _ = optimal_wastage(env)
    floor = float(d_star.sum()) - FEAS_TOL * energy_scale(cumulative_harvest(env.harvest))
    return all(float(np.asarray(d, dtype=float).sum()) >= floor
               for _p, d in pairs)

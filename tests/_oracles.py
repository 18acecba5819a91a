"""Independent reference implementations used as test oracles.

Everything here is written the slow, obvious way on purpose: plain loops,
bisection instead of breakpoint sweeps, no shared code with the package.
If the library and these disagree, trust neither and investigate.  The
exceptions: wf_array_reference, the package's earlier numpy segment fill,
kept as it was to hold the current fill to the same bits;
close_segment_reference, the package's earlier numpy boundary walk, kept
as it was, with the package's level function, to hold the current walk to
the same boundaries; clip_to_battery_reference, the package's earlier
battery clip, kept as it was, min and max builtins included, to hold the
comparison clamps to the same bits; check_feasible_reference, the
package's earlier per-slot feasibility loop, kept as it was, to hold the
vectorised check to the same report; brute_force_tiny, which takes the
package's tolerance rule (energy_scale) so that its grid filter accepts
what the checkers accept; and wastage_minimality_check, which tests the
package's own optimal_wastage.
"""

import bisect
import math
import sys

import numpy as np

from ehwf.model import (Scenario, UserEnv, cumulative_harvest, energy_scale,
                        user_battery_trace)
from ehwf.single_user import BDP, BFP, _fill_level, optimal_wastage


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


def close_segment_reference(inv, e_tilde, battery_max, power_max, a, kind_a):
    """The numpy boundary walk that the package's two-phase walk replaced.

    Kept unchanged as the reference for single_user._close_segment: from
    the same boundary a, both must return the same closing (b, kind).  inv
    and e_tilde are the arrays solve_reduced builds.

    Prefix j of the segment (slots a+1 .. a+j) draws D_j(L), the sum of
    clamp(L - inv, 0, P) over its slots, and must keep its battery in
    [0, B]: D_j(L) <= upper_j and D_j(L) >= lower_j = upper_j - B.  hi is
    the running minimum of the prefix ceilings, the highest levels meeting
    the first bound, and lo the running maximum of the floors, the lowest
    levels meeting the second.  Each remembers its last attaining prefix;
    a prefix whose draw at the current level is within FEAS_TOL of its
    bound ties and takes the slot.  A floor above hi closes the segment at
    hi's prefix as a BDP, a ceiling below lo closes it at lo's prefix as a
    BFP, and the horizon closes it at hi's prefix as a BDP (the last slot
    while hi is still unbounded).

    Only a prefix whose draw at hi or at lo ties or crosses its own bound
    can move either, so each bound keeps the draws of every prefix at its
    current level, one cumsum per move, and the walk jumps from one such
    prefix to the next, solving a level only where a bound moves.
    """
    start = battery_max if kind_a == BFP else 0.0
    upper = start + (e_tilde[a:] - (e_tilde[a - 1] if a > 0 else 0.0))
    lower = upper - battery_max
    inv = inv[a:]
    n = len(inv)
    near_upper, near_lower = upper - FEAS_TOL, lower + FEAS_TOL

    def draws(level, near, bound):
        # every prefix's draw at level, and the prefixes where near(draw,
        # bound) holds, closed by the horizon n
        drawn = np.minimum(np.maximum(level - inv, 0.0), power_max).cumsum()
        return drawn, near(drawn, bound).nonzero()[0].tolist() + [n]

    hi, hi_at, lo, lo_at = math.inf, n, -math.inf, 0
    draw_hi, hits_hi = draws(hi, np.greater_equal, near_upper)
    draw_lo, hits_lo = draws(lo, np.less_equal, near_lower)
    j = -1
    while True:
        j = min(hits_hi[bisect.bisect_right(hits_hi, j)],
                hits_lo[bisect.bisect_right(hits_lo, j)])
        if j == n:
            return a + (hi_at if hi < math.inf else n), BDP
        at_hi, at_lo, u, l = draw_hi[j], draw_lo[j], float(upper[j]), float(lower[j])
        if at_hi < l - FEAS_TOL:
            return a + hi_at, BDP
        if at_lo > u + FEAS_TOL:
            return a + lo_at, BFP
        if at_hi >= u - FEAS_TOL:
            if at_hi > u + FEAS_TOL:
                hi = _fill_level(inv[:j + 1].tolist(), power_max, u)
                draw_hi, hits_hi = draws(hi, np.greater_equal, near_upper)
            hi_at = j + 1
        if at_lo <= l + FEAS_TOL:
            if at_lo < l - FEAS_TOL:
                lo = _fill_level(inv[:j + 1].tolist(), power_max, l)
                draw_lo, hits_lo = draws(lo, np.less_equal, near_lower)
            lo_at = j + 1


def clip_to_battery_reference(env: UserEnv, want):
    """The battery clip that single_user._clip_to_battery's comparisons replaced.

    Kept unchanged, with the min and max builtins, as the bit-for-bit
    reference for every policy that clips.
    """
    bmax, cap = env.battery_max, env.power_max
    harvest = env.harvest.tolist()
    wants = want.tolist() if isinstance(want, np.ndarray) else [float(want)] * len(harvest)
    p, d, battery = [], [], []
    level = 0.0
    for h, w in zip(harvest, wants):
        avail = level + h
        p_k = min(w, cap, avail)
        level = avail - p_k
        d_k = max(level - bmax, 0.0)
        level -= d_k
        p.append(p_k)
        d.append(d_k)
        battery.append(level)
    return np.array(p), np.array(d), np.array(battery)


def check_feasible_reference(scenario: Scenario, p, d):
    """The per-slot loop that model.check_feasible's single pass replaced.

    Kept unchanged, apart from an np.errstate that silences the warnings a
    row mixing +inf and -inf raises in its battery sums, as the reference
    for the report: the same (user, slot, kind, magnitude) tuples in the
    same order.
    """
    p = np.asarray(p, dtype=float)
    d = np.asarray(d, dtype=float)
    finite = (np.isfinite(p) & np.isfinite(d)).all(axis=1)
    violations = []
    for n in range(scenario.num_users):
        cap = scenario.power_max[n]
        bmax = scenario.battery_max[n]
        tol = FEAS_TOL * energy_scale(cumulative_harvest(scenario.harvest[n]))
        with np.errstate(over="ignore", invalid="ignore"):
            levels = user_battery_trace(scenario.harvest[n], p[n], d[n])
        nonfinite = not finite[n]
        for k in range(scenario.num_slots):
            if nonfinite:
                if not math.isfinite(p[n, k]):
                    violations.append((n, k, "power-non-finite", math.inf))
                if not math.isfinite(d[n, k]):
                    violations.append((n, k, "wastage-non-finite", math.inf))
            if p[n, k] < -tol:
                violations.append((n, k, "power-negative", -p[n, k]))
            if p[n, k] > cap + tol:
                violations.append((n, k, "power-above-cap", p[n, k] - cap))
            if d[n, k] < -tol:
                violations.append((n, k, "wastage-negative", -d[n, k]))
            if levels[k] < -tol:
                violations.append((n, k, "battery-negative", -levels[k]))
            if levels[k] > bmax + tol:
                violations.append((n, k, "battery-above-cap", levels[k] - bmax))
    return tuple(violations)

"""Single-user optimal energy scheduling.

Contents
--------
optimal_wastage        minimal-total-wastage forward recurrence
effective_energy       cumulative harvest net of wastage
segment_target_energy  energy a boundary pair forces through its segment
water_fill_segment     capped water-filling at one constant level
classify_segment       feasible / semi-feasible / infeasible for a segment
solve_reduced          forward/backward boundary search on given energy,
                       optionally warm-started from a guessed boundary list
solve_single           the full pipeline: wastage, then boundary search

The solver works in two stages.  First the wastage schedule is fixed by a
greedy recurrence (waste only what overflows the battery, after consuming
as much as the cap allows); this is total-wastage minimal and leaves the
transmission problem over a pure polytope.  Second, the horizon is split
into segments by battery-depletion points (BDP, level 0) and
battery-full points (BFP, level at capacity); within a segment the
optimal allocation is capped water-filling at a single level, and the
segment boundaries are located by a forward scan with a backward
correction step whenever a candidate segment overfills the battery.

Every segment, whatever its length, is filled by water_fill_segment and
classified by one battery cumsum.  Its water level, and the prefix drain
levels of the scan filter, come from one level function that switches on
size: a scalar breakpoint sweep below _VECTOR_FILL_SLOTS slots, where
numpy's per-call overhead dominates, and a sorted-array solve from there
on, where the sweep's per-event Python loop does.

solve_reduced(env, e_tilde, guess=boundaries) first refills the guessed
segments once each and returns them untouched when they meet the KKT
conditions of the reduced problem, which on positive gains has a unique
optimum; any other guess falls through to the scan.  Best-response sweeps
pass each user's boundaries from its previous response, which stop
changing long before the sum rate does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    FEAS_TOL,
    FEASIBLE,
    GAIN_FLOOR,
    INFEASIBLE,
    SEMI_FEASIBLE,
    UserEnv,
    cumulative_harvest,
)

__all__ = [
    "BDP",
    "BFP",
    "SegmentSolution",
    "optimal_wastage",
    "effective_energy",
    "segment_target_energy",
    "water_fill_segment",
    "classify_segment",
    "solve_reduced",
    "solve_single",
]

BDP = "BDP"      # battery-depletion point: level 0, water level may rise after
BFP = "BFP"      # battery-full point: level at capacity, water level may drop

# Slot count from which _fill_level solves with arrays instead of sweeping
# breakpoints in Python.  On a 2-vCPU x86 host with numpy 2.4 the sweep
# takes 3-31 us a call at 5-47 slots, where the array solve takes 36-50 us;
# at 800 slots it takes 430-760 us against 80-160 us.
_VECTOR_FILL_SLOTS = 48


def _clip_to_battery(env: UserEnv, want):
    """Spend min(want, cap, banked energy) each slot; waste only overflow.

    want is one number for every slot or a per-slot vector.  Returns
    (p, d, battery): consumption, wastage and end-of-slot battery level.
    """
    bmax, cap = env.battery_max, env.power_max
    wants = np.broadcast_to(want, env.harvest.shape).tolist()
    p, d, battery = [], [], []
    level = 0.0
    for h, w in zip(env.harvest.tolist(), wants):
        avail = level + h
        p_k = min(w, cap, avail)
        level = avail - p_k
        d_k = max(level - bmax, 0.0)
        level -= d_k
        p.append(p_k)
        d.append(d_k)
        battery.append(level)
    return np.array(p), np.array(d), np.array(battery)


def optimal_wastage(env: UserEnv):
    """Greedy wastage: consume up to the cap, waste only battery overflow.

    Returns (d_star, p_greedy, battery).  d_star has minimal total wastage
    among all feasible wastage schedules; p_greedy is the max-consumption
    schedule that induces it, and battery its end-of-slot trace.
    """
    p, d, battery = _clip_to_battery(env, env.power_max)
    return d, p, battery


def effective_energy(env: UserEnv, d_star) -> np.ndarray:
    """Cumulative harvested energy minus cumulative wastage."""
    d_star = np.asarray(d_star, dtype=float)
    return cumulative_harvest(env.harvest) - np.cumsum(d_star)


def segment_target_energy(a, kind_a, b, kind_b, e_tilde, battery_max, power_max) -> float:
    """Total energy segment (a, b] must consume, given its boundary kinds.

    Boundary slots use the 1-based convention: boundary a is the end of
    slot a, so the segment covers slots a+1 .. b.  A BFP start adds a
    battery's worth of stored energy; a BFP end leaves one behind.  The
    per-slot cap bounds the total at (b-a) * power_max.
    """
    e_tilde = np.asarray(e_tilde, dtype=float)
    e_a = e_tilde[a - 1] if a > 0 else 0.0
    e_b = e_tilde[b - 1]
    swing = (battery_max if kind_a == BFP else 0.0) \
        - (battery_max if kind_b == BFP else 0.0)
    supply = e_b - e_a + swing
    return float(max(0.0, min((b - a) * power_max, supply)))


@dataclass(frozen=True)
class SegmentSolution:
    """One segment's allocation p and its water level dual w.

    The water level as a height is 1/w; w = +inf is the sentinel for an
    empty segment (no positive allocation), whose height reads as 0.
    """

    p: np.ndarray
    w: float

    @property
    def height(self) -> float:
        return 0.0 if not np.isfinite(self.w) else 1.0 / self.w


def water_fill_segment(gains, target_energy, power_max) -> SegmentSolution:
    """Allocate target_energy across slots at one water level, capped per slot.

    Solves sum_k min(P, max(0, L - 1/gain_k)) = target_energy for the level
    L exactly (see _fill_level).  Zero-gain slots always get 0, as do slots
    whose gain is too small to invert.  Returns p and w = 1/L.
    """
    gains = np.asarray(gains, dtype=float)
    cap = float(power_max)
    target = float(target_energy)
    p = np.zeros(gains.size)
    if target <= 0.0:
        return SegmentSolution(p=p, w=np.inf)

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
    level = _fill_level(inv, cap, target)
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
    return SegmentSolution(p=p, w=1.0 / level)


def _fill_level(inv, cap, target):
    """Smallest water level whose total draw over these slots reaches target.

    inv holds the inverse gains (an array, target > 0); each slot draws
    clamp(level - inv, 0, cap), so the total is piecewise linear and
    nondecreasing in the level, with a slope that rises by one where a slot
    starts filling (inv) and drops by one where it saturates (inv + cap).
    Short spans sweep those breakpoints in plain Python; from
    _VECTOR_FILL_SLOTS slots on, sorting and searching them as arrays is
    cheaper than the sweep's per-event loop.  A target at or above the
    total capacity returns the level where every slot saturates.
    """
    finite_cap = math.isfinite(cap)
    if len(inv) < _VECTOR_FILL_SLOTS:
        vals = inv.tolist()
        events = [(v, 1) for v in vals]
        if finite_cap:
            events += [(v + cap, -1) for v in vals]
        events.sort()
        slope = 0
        total = 0.0
        prev = events[0][0]
        for x, delta in events:
            if x > prev and slope > 0:
                step = slope * (x - prev)
                if total + step >= target:
                    return prev + (target - total) / slope
                total += step
            prev = x
            slope += delta
        return prev if finite_cap else prev + (target - total) / slope

    v = np.sort(inv)
    w = np.concatenate(([0.0], np.cumsum(v)))
    if finite_cap:
        knots = np.unique(np.concatenate((v, v + cap)))
        nsat = np.searchsorted(v, knots - cap, side="right")
    else:
        knots = np.unique(v)
        nsat = np.zeros(len(knots), dtype=int)
    nlt = np.searchsorted(v, knots, side="left")
    drawn = knots * (nlt - nsat) - (w[nlt] - w[nsat])
    if finite_cap:
        drawn = drawn + cap * nsat
    idx = int(np.searchsorted(drawn, target, side="left"))
    if idx >= len(knots):
        if finite_cap:
            return float(knots[-1])
        return float(knots[-1] + (target - drawn[-1]) / len(v))
    if idx == 0:
        return float(knots[0])
    lo, hi = float(knots[idx - 1]), float(knots[idx])
    clo, chi = float(drawn[idx - 1]), float(drawn[idx])
    if chi <= clo:
        return hi
    return lo + (target - clo) * (hi - lo) / (chi - clo)


def _classify(p, battery, battery_max, power_max, tol=FEAS_TOL):
    # the one segment status rule: p out of [0, P] or a negative battery is
    # infeasible; a battery above capacity alone is semi-feasible
    if p.min() < -tol or p.max() > power_max + tol or battery.min() < -tol:
        return INFEASIBLE
    if battery.max() > battery_max + tol:
        return SEMI_FEASIBLE
    return FEASIBLE


def classify_segment(p, e_tilde, battery_max, power_max,
                     base_energy=0.0, start_level=0.0, tol=FEAS_TOL) -> str:
    """Classify a segment allocation against the battery bounds.

    p and e_tilde are the segment's slice of the allocation and of the
    cumulative effective energy; base_energy and start_level describe the
    left boundary (cumulative energy already seen, battery carried in).
    Semi-feasible means the only violations are levels above battery_max.
    """
    p = np.asarray(p, dtype=float)
    battery = start_level + (np.asarray(e_tilde, dtype=float) - base_energy) - np.cumsum(p)
    return _classify(p, battery, battery_max, power_max, tol)


def _segment_schedule(env: UserEnv, e_tilde, a, kind_a, b, kind_b):
    """Fill segment (a, b] for the given boundary kinds and classify it.

    Returns (p_segment, height, status, battery).  When the boundary
    condition forces more energy through the segment than its positive-gain
    slots can carry under the cap, the surplus is burned on zero-gain slots
    (earliest first); it contributes no rate either way.
    """
    bmax, cap = env.battery_max, env.power_max
    target = segment_target_energy(a, kind_a, b, kind_b, e_tilde, bmax, cap)
    gains = env.gain[a:b]
    npos = int(np.count_nonzero(gains > GAIN_FLOOR))
    fill_target = min(target, npos * cap) if npos else 0.0
    sol = water_fill_segment(gains, fill_target, cap)
    p_seg = sol.p
    base = float(e_tilde[a - 1]) if a > 0 else 0.0
    start = bmax if kind_a == BFP else 0.0

    surplus = target - fill_target
    if surplus > FEAS_TOL:
        # Burn the surplus on zero-gain slots, earliest first but never
        # drawing the battery negative; it contributes no rate.
        p_list = p_seg.tolist()
        level_w = start
        base_w = base
        for i, e in enumerate(e_tilde[a:b].tolist()):
            level_w += e - base_w
            base_w = e
            if gains[i] <= GAIN_FLOOR and surplus > 0.0:
                room = cap - p_list[i] if math.isfinite(cap) else surplus
                u = min(room, surplus, level_w - p_list[i])
                if u > 0.0:
                    p_list[i] += u
                    surplus -= u
            level_w -= p_list[i]
        p_seg = np.array(p_list)

    battery = start + (e_tilde[a:b] - base) - np.cumsum(p_seg)
    if surplus > FEAS_TOL:
        status = INFEASIBLE
    else:
        status = _classify(p_seg, battery, bmax, cap)
    return p_seg, sol.height, status, battery


def _scan_skip_flags(inv, supply, targets, cap, tol):
    """Mark scan candidates that provably cannot fill without going negative.

    A candidate's fill level cannot exceed the drain level of any prefix it
    spans, so comparing per-prefix draw at a running minimum of prefix drain
    levels rules candidates out without filling them.  Margins keep the test
    one-sided: a flagged candidate is infeasible, an unflagged one is merely
    undecided.  Returns None when the structure is too irregular to help.
    """
    m = len(supply)
    skip = np.zeros(m, dtype=bool)
    safe = 1e-6 * max(1.0, float(np.max(supply)))
    lim = supply + tol + safe
    level = math.inf
    pos = 0
    records = 0
    while pos < m:
        if math.isinf(level) and not math.isfinite(cap):
            drawn = np.full(m, math.inf)
        else:
            drawn = np.cumsum(np.minimum(cap, np.maximum(0.0, level - inv)))
        over = drawn[pos:] > lim[pos:]
        t0 = pos + int(np.argmax(over)) if over.any() else -1
        if t0 < 0:
            skip[pos:] = drawn[pos:] < targets[pos:] - safe
            break
        if t0 > pos:
            seg = slice(pos, t0)
            skip[seg] = drawn[seg] < targets[seg] - safe
        records += 1
        if records > 48:
            return None
        level = _fill_level(inv[:t0 + 1], cap, float(lim[t0]))
        pos = t0 + 1
    return skip


def _backward_search(env, e_tilde, a, kind_a, battery0):
    """Resolve a semi-feasible segment by pinning its worst overflow as a BFP.

    Repeatedly take the largest slot whose battery exceeds capacity and
    refill up to it assuming a full battery there.  A feasible refill
    accepts that BFP; a semi-feasible one keeps shrinking; an infeasible
    one (the refill breaks causality) hands the slot back so the caller
    can rescan below it.
    """
    battery = battery0
    limit = env.battery_max + FEAS_TOL
    prev_k = None
    while True:
        over = np.flatnonzero(battery > limit)
        k = a + 1 + int(over[-1]) if over.size else None
        if k is None:
            raise RuntimeError("semi-feasible segment has no overflow slot")
        if prev_k is not None and k >= prev_k:
            # Each refill pins the battery at its endpoint, so the worst
            # overflow must move left; kept as a hard stop.
            raise RuntimeError("backward search made no progress")
        prev_k = k
        p_seg, height, status, battery = _segment_schedule(env, e_tilde, a, kind_a, k, BFP)
        if status == FEASIBLE:
            return ("accept", k, p_seg, height)
        if status == INFEASIBLE:
            return ("rescan", k)


def _checked_guess(guess, k_slots):
    # a boundary list in solve_reduced's own output form, or ValueError
    try:
        guess = [(int(slot), kind) for slot, kind in guess]
    except (TypeError, ValueError) as exc:
        raise ValueError(f"guess must be a list of (slot, kind) pairs: {exc}") from None
    if not guess or guess[0] != (0, BDP):
        raise ValueError("guess must start at (0, BDP)")
    if guess[-1][0] != k_slots:
        raise ValueError(f"guess must end at slot {k_slots}")
    if any(b <= a for (a, _), (b, _) in zip(guess, guess[1:])):
        raise ValueError("guess slots must be strictly increasing")
    if any(kind not in (BDP, BFP) for _, kind in guess):
        raise ValueError("guess kinds must be BDP or BFP")
    return guess


def _refill_guess(env: UserEnv, e_tilde, guess):
    """Fill each guessed segment once; (p, heights) if that is the optimum.

    Accepts only when every condition of the reduced problem's KKT system
    holds: each segment has positive gains and a target strictly inside
    (0, (b-a)*P), so its boundary battery levels are met exactly; its fill
    is feasible and has a slot more than FEAS_TOL inside (0, P), which pins
    the level; the height rises across every BDP and falls across every
    BFP; and the list ends at (K, BDP).  The optimum is then unique, so
    the guess describes the scan's own schedule.

    Two margins make the boundary list unique as well: the height must
    move by more than FEAS_TOL (relative) at each boundary, and the
    battery must stay more than FEAS_TOL inside (0, B) within each
    segment.  Where a level is flat or a battery bound is touched inside a
    segment, several lists describe one schedule (B = 0 is the extreme
    case), and the scan, which keeps the longest feasible segment, may
    have chosen another; such guesses fall back.  Returns None otherwise.
    """
    if guess[-1][1] != BDP:
        return None
    bmax, cap = env.battery_max, env.power_max
    p = np.zeros(env.num_slots)
    heights = []
    for (a, kind_a), (b, kind_b) in zip(guess, guess[1:]):
        gains = env.gain[a:b]
        if not gains.min() > GAIN_FLOOR:
            return None
        target = segment_target_energy(a, kind_a, b, kind_b, e_tilde, bmax, cap)
        if not 0.0 < target < (b - a) * cap:
            return None
        sol = water_fill_segment(gains, target, cap)
        p_seg = sol.p
        if not ((p_seg > FEAS_TOL) & (p_seg < cap - FEAS_TOL)).any():
            return None
        base = float(e_tilde[a - 1]) if a > 0 else 0.0
        start = bmax if kind_a == BFP else 0.0
        battery = start + (e_tilde[a:b] - base) - np.cumsum(p_seg)
        if _classify(p_seg, battery, bmax, cap) != FEASIBLE:
            return None
        inner = battery[:-1]
        if not ((inner > FEAS_TOL) & (inner < bmax - FEAS_TOL)).all():
            return None
        height = sol.height
        if heights:
            rise = (height - heights[-1]) * (1.0 if kind_a == BDP else -1.0)
            if not rise > FEAS_TOL * max(1.0, heights[-1]):
                return None
        p[a:b] = p_seg
        heights.append(height)
    return p, heights


def solve_reduced(env: UserEnv, e_tilde, guess=None):
    """Optimal transmission schedule for a fixed cumulative energy budget.

    e_tilde is the cumulative energy actually available per slot (harvest
    net of wastage).  Returns (p, boundaries, water_levels) where
    boundaries is the ordered (slot, kind) list starting at (0, BDP) and
    water_levels holds one height per segment (0 for empty segments).

    guess, when given, is a boundary list in that same form, typically
    this user's previous answer.  It is refilled once and returned as the
    answer if it satisfies the KKT conditions (see _refill_guess);
    otherwise the scan below runs as if no guess was given.  A malformed
    guess raises ValueError.

    Each round scans right endpoints downward from the current goal and
    keeps the first candidate whose fill is feasible (confirm a boundary)
    or semi-feasible (run the backward search).  Confirming any boundary
    resets the goal to the horizon; a backward search whose refill breaks
    causality lowers the goal to its overflow slot, a restriction that
    lives only until the next confirmed boundary.
    """
    k_slots = env.num_slots
    e_tilde = np.asarray(e_tilde, dtype=float)
    if guess is not None:
        guess = _checked_guess(guess, k_slots)
        warm = _refill_guess(env, e_tilde, guess)
        if warm is not None:
            return warm[0], guess, warm[1]
    cap = env.power_max
    p = np.zeros(k_slots)
    confirmed = [(0, BDP)]
    heights = []
    goal = (k_slots, BDP)
    # the goal only moves down between confirms, so rounds are bounded
    max_rounds = 2 * (k_slots + 1) * (k_slots + 2)
    rounds = 0

    while confirmed[-1][0] < k_slots:
        rounds += 1
        if rounds > max_rounds:
            raise RuntimeError("boundary search failed to terminate")
        a, kind_a = confirmed[-1]
        b, kind_b = goal
        base = float(e_tilde[a - 1]) if a > 0 else 0.0
        start = env.battery_max if kind_a == BFP else 0.0
        supply = start + (e_tilde[a:b] - base)

        # Capacity-counting filter: any schedule under the cap consumes at
        # least target - (k1 - t) * cap by slot t, so a candidate whose
        # implied battery floor dips negative can be skipped unfilled.
        pref_min = None
        if math.isfinite(cap):
            q = supply - cap * np.arange(1, b - a + 1)
            pref_min = np.minimum.accumulate(q).tolist()

        # Prefix drain-level filter: skips candidates whose fill provably
        # overdraws some prefix.  Needs strictly positive gains to price
        # every slot.
        gains_scan = env.gain[a:b]
        skip = None
        if b - a > 8 and float(np.min(gains_scan)) > GAIN_FLOOR:
            span = np.arange(1, b - a + 1, dtype=float)
            targets = supply.copy()
            if kind_b == BFP:
                targets[-1] -= env.battery_max
            np.minimum(targets, cap * span, out=targets)
            np.maximum(targets, 0.0, out=targets)
            skip = _scan_skip_flags(1.0 / gains_scan, supply, targets, cap, FEAS_TOL)

        accept = None
        rescan = None
        for k1 in range(b, a, -1):
            kind1 = kind_b if k1 == b else BDP
            if skip is not None and skip[k1 - a - 1]:
                continue
            if pref_min is not None:
                target = segment_target_energy(a, kind_a, k1, kind1,
                                               e_tilde, env.battery_max, cap)
                if pref_min[k1 - a - 1] + (k1 - a) * cap < target - FEAS_TOL:
                    continue
            p_seg, height, status, battery = _segment_schedule(
                env, e_tilde, a, kind_a, k1, kind1)
            if status == FEASIBLE:
                accept = (k1, kind1, p_seg, height)
                break
            if status == SEMI_FEASIBLE:
                outcome = _backward_search(env, e_tilde, a, kind_a, battery)
                if outcome[0] == "accept":
                    _, k, p_seg, height = outcome
                    accept = (k, BFP, p_seg, height)
                else:
                    rescan = outcome[1]
                break
        if accept is not None:
            k, kind, p_seg, height = accept
            p[a:k] = p_seg
            confirmed.append((k, kind))
            heights.append(height)
            goal = (k_slots, BDP)
        elif rescan is not None:
            goal = (rescan, BFP)
        else:
            raise RuntimeError("forward search exhausted all segment endpoints")

    return p, confirmed, heights


def solve_single(env: UserEnv):
    """Maximum-rate schedule for one user: wastage first, then segments.

    Returns (p_star, d_star, boundaries, water_levels).
    """
    d_star, _, _ = optimal_wastage(env)
    e_tilde = effective_energy(env, d_star)
    p_star, boundaries, levels = solve_reduced(env, e_tilde)
    return p_star, d_star, boundaries, levels

"""Single-user optimal energy scheduling.

Contents
--------
optimal_wastage        minimal-total-wastage forward recurrence
effective_energy       the cumulative energy budget that wastage leaves
water_fill_segment     capped water-filling at one constant level on a list of
                       inverse gains: checks, then the fill every segment calls
solve_reduced          forward tube walk on (gain, e_tilde, B, P) alone
solve_single           the full pipeline: wastage, then boundary search

The solver works in two stages.  First the wastage schedule is fixed by a
greedy recurrence (waste only what overflows the battery, after consuming
as much as the cap allows); this is total-wastage minimal and leaves the
transmission problem over a pure polytope, whose budget the same pass
gives as its running consumption plus its battery (_greedy_pass).
Second, the horizon is split into segments by battery-depletion points
(BDP, level 0) and battery-full points (BFP, level at capacity); within a
segment the optimal allocation is capped water-filling at a single level.

The boundaries come from one forward walk per segment.  Each prefix of
the segment bounds its level from above (the highest level that keeps its
battery nonnegative) and from below (the lowest that keeps it within
capacity).  The walk keeps the running minimum of the upper bounds and
the running maximum of the lower ones; where they cross, the water level
has to move, rising after the depletion point that set the minimum (BDP)
or falling after the full point that set the maximum (BFP), and at the
horizon the segment ends where the minimum was last attained.

The walk, every fill and the warm-start check read one list of inverse
gains, built once per solve from checked gains and so finite and
nonnegative.  A zero-gain slot is just a slot at one finite burn level
there, above every positive-gain slot's inverse gain plus its cap (or
plus the whole budget, if smaller), so it draws only where nothing else
can take the energy, and every slot has a positive gain: the problem's
optimum is unique.  The walk and the
warm-start check run on energies divided by model.energy_scale of the
budget, so their FEAS_TOL comparisons mean the same at any scale.  The
checkers in model and verify take the same scale of the cumulative
harvest, which the budget never exceeds, so a schedule the solver
accepts is never held to a tighter tolerance by a checker.

Every segment, whatever its length, is filled and checked by one helper,
_fill_segment: its target energy, one _water_fill call on its slice of
the inverse-gain list, and one pass, _segment_status, for feasibility
and the warm-start margins; the target and the pass share one lookup of
the budget before the segment.  _water_fill is the level, the draws and
their residual correction, with no check of its own: the list it slices
needs none, and the target is clamped into range.  Every segment
fill calls _water_fill by name, and water_fill_segment, the checked
public entry, calls it too, so the arithmetic has one copy.  No fill
inverts a gain, and no caller inverts the water level a fill returns.
That level, and the walk's prefix levels, come from one level function,
_fill_level: one merged sweep over the slots' sorted inverse gains, where
each slot starts filling, and their saturation points, each read off the
same sorted list as inverse gain plus cap, that stops at the target.  No
cap, not even an infinite one, takes another path.  The walk's bounds may
ask for a target at or below 0.0 or above the capacity; the sweep
extends the draw's line below its foot for the one and returns the level
where every slot is full for the other.
That layer (fill, level, target, feasibility, warm-start check) runs on
Python floats converted once per solve: its segments are a few slots
long, where a numpy call costs more than its arithmetic.  Python's float
operations are numpy's elementwise ones and the running battery sums add
in np.cumsum's order, so results are bit for bit those of array code.
The per-slot clamps are comparisons, not calls to the min and max
builtins, which cost ten times the arithmetic:
max(x, 0.0) is written 0.0 if x < 0.0 else x and min(x, cap) is cap if
cap < x else x.  Both keep the builtins' tie order: the first argument
wins unless the other compares strictly past it, so a -0.0 against 0.0,
or a NaN, comes out exactly as min and max return it.

The walk (_close_segment) starts on those Python floats as well, one
prefix at a time.  A prefix whose draw ties or crosses one of the two
level bounds is an event; any other is idle.  Once idle prefixes
outnumber events, and more than _NUMPY_WALK_MIN_SLOTS prefixes are left
to the horizon, the walk hands its levels to numpy: one np.cumsum per
bound over the rest of the horizon, then bisection jumps from event to
event.  The switch reads the walk and the slots it has left, nothing
else, and is no option.  A hand-over costs a fixed 15-26 us, a Python
visit 0.27-0.40 us a slot, so they break even at 48-56 slots left (one
walk over 16-256 idle slots timed in each phase alone on 2 vCPUs, Python
3.11, numpy 2.4): a walk with fewer left, every walk of a 20-slot horizon
among them, never calls numpy, while over a long idle stretch one vectorised
pass beats a Python loop over every slot.  Either phase sees the same
bits, so where the switch falls never moves a boundary: a running draw
past the float range becomes inf in both, and the numpy phase runs under
one np.errstate that silences numpy's overflow warning.  With an
unbounded battery the lower bound never moves, so neither phase draws at
it or builds its arrays.

solve_reduced(gain, e_tilde, B, P), the one entry that checks a budget,
caps and gains, is one solve of _ReducedProblem(e_tilde, B, P), which
checks nothing and scales the budget and the caps once and then
solves for one gain vector after another; each solve returns its
schedule as a list, which solve_reduced turns into an array.  Each solve
first refills the segments of its own last answer once each and returns
them untouched when they meet the KKT conditions of the reduced problem
on the inverse-gain list, whose optimum is unique; otherwise it walks.
Best-response sweeps hold one such problem per user, since only the
effective gains change between sweeps, and the boundaries stop changing
long before the sum rate does.
"""

from __future__ import annotations

import bisect
import itertools
import math

import numpy as np

from .model import FEAS_TOL, GAIN_FLOOR, UserEnv, _float_array, energy_scale

__all__ = [
    "BDP",
    "BFP",
    "optimal_wastage",
    "effective_energy",
    "water_fill_segment",
    "solve_reduced",
    "solve_single",
]

BDP = "BDP"      # battery-depletion point: level 0, water level may rise after
BFP = "BFP"      # battery-full point: level at capacity, water level may drop

# The walk hands over to numpy only with more than this many prefixes left
# to the horizon: one hand-over and a Python visit per slot break even at
# 48-56 slots, and 64 errs toward Python (see the module doc).
_NUMPY_WALK_MIN_SLOTS = 64


def _clip(harvest, bmax, cap, wants):
    """Spend min(want, cap, banked energy) each slot; waste only overflow.

    harvest and wants are lists of floats, one want per slot.  Returns
    (p, d, battery) lists: consumption, wastage and end-of-slot battery.  An
    overflowing battery is set to bmax, not reduced by the rounded overflow.
    """
    p, d, battery = [], [], []
    level = 0.0
    for h, w in zip(harvest, wants):
        avail = level + h
        p_k = cap if cap < w else w         # min(w, cap, avail); see the module doc
        p_k = avail if avail < p_k else p_k
        level = avail - p_k
        d_k = level - bmax
        d_k = 0.0 if d_k < 0.0 else d_k
        level = bmax if bmax < level else level     # min(level, bmax)
        p.append(p_k)
        d.append(d_k)
        battery.append(level)
    return p, d, battery


def _greedy_pass(harvest, bmax, cap):
    """_clip wanting the cap every slot: (d, p, battery, budget) lists.

    budget, the cumulative energy the wastage leaves, is cumsum(p) + battery
    in np.cumsum's order: nonnegative terms, where cumsum(harvest) -
    cumsum(d) cancels.
    """
    p, d, battery = _clip(harvest, bmax, cap, [cap] * len(harvest))
    budget = [drawn + level for drawn, level in zip(itertools.accumulate(p), battery)]
    return d, p, battery, budget


def optimal_wastage(env: UserEnv):
    """Greedy wastage: consume up to the cap, waste only battery overflow.

    Returns (d_star, p_greedy, battery).  d_star has minimal total wastage
    among all feasible wastage schedules; p_greedy is the max-consumption
    schedule that induces it, and battery its end-of-slot trace.
    """
    d, p, battery, _ = _greedy_pass(env.harvest.tolist(), env.battery_max, env.power_max)
    return np.array(d), np.array(p), np.array(battery)


def effective_energy(env: UserEnv) -> np.ndarray:
    """The cumulative energy budget the minimal wastage leaves, per slot.

    optimal_wastage's cumsum(p_greedy) + battery: nonnegative, met by p_greedy.
    """
    return np.array(_greedy_pass(env.harvest.tolist(), env.battery_max, env.power_max)[3])


def water_fill_segment(inv: list, target, cap):
    """Allocate target across slots at one water level, capped per slot.

    Solves sum_k clamp(L - inv_k, 0, cap) = target for the level L exactly
    (see _fill_level), inv a list of the slots' inverse gains; returns (p,
    L), p the list of draws clamp(L - inv_k, 0, cap), and L = 0.0 for a
    zero target.  This is the checked entry to _water_fill, the fill every
    segment of a solve calls by name on its slice of an inverse-gain list
    the solve built.  A NaN, negative or infinite entry, a NaN or infinite
    target, a NaN or negative cap, or a target above len(inv) * cap raises
    ValueError.
    """
    cap = float(cap)
    target = float(target)
    if not (cap >= 0.0 and -math.inf < target < math.inf):
        raise ValueError(f"water_fill_segment needs a finite target and a "
                         f"nonnegative cap, got target {target!r}, cap {cap!r}")
    if not _finite_nonnegative(inv):
        raise ValueError("water_fill_segment needs finite, nonnegative inverse gains")
    if target > 0.0:
        limit = len(inv) * cap
        if len(inv) == 0 or target > limit + FEAS_TOL:
            raise ValueError("target energy exceeds segment capacity")
        target = limit if limit < target else target
    return _water_fill(inv, target, cap)


def _finite_nonnegative(values) -> bool:
    """Whether every entry of a list of floats is finite and nonnegative.

    min and max may pass over a NaN, but the sum never does.
    """
    if len(values) == 0:
        return True
    total = sum(values)
    return 0.0 <= min(values) and max(values) < math.inf and total == total


def _water_fill(inv, target, cap):
    """water_fill_segment's (p, level) on inputs already checked.

    inv is a list of finite, nonnegative inverse gains and cap a
    nonnegative float; a target above 0.0 is at most len(inv) * cap.
    """
    if target <= 0.0:
        return [0.0] * len(inv), 0.0
    level = _fill_level(sorted(inv), cap, target)
    p = []
    for v in inv:
        x = level - v
        x = 0.0 if x < 0.0 else x
        p.append(cap if cap < x else x)
    # One exact correction pass: spread the float residual over the slots
    # strictly between the bounds, where the level actually moves mass.
    resid = target - math.fsum(p)
    if resid != 0.0:
        interior = [i for i, x in enumerate(p) if 0.0 < x < cap]
        if interior:
            step = resid / len(interior)
            for i in interior:
                x = p[i] + step
                x = 0.0 if x < 0.0 else x
                p[i] = cap if cap < x else x
    return p, level


def _fill_level(starts, cap, target):
    """Smallest water level whose total draw over these slots reaches target.

    starts holds the inverse gains in ascending order (a nonempty list);
    each slot draws clamp(level - inv, 0, cap), so the total is piecewise
    linear and nondecreasing in the level, with a slope that rises by one
    where a slot starts filling (inv) and drops by one where it saturates
    (inv + cap).  The saturation points come in the same order, so the
    sweep reads each one off starts as it goes, starts[j] + cap, and
    merges the two streams, a saturation before a start at equal points;
    once the starts run out it takes the saturation points left.  With
    cap = inf the first saturation point is inf, so the sweep takes every
    start and then solves on the last stretch, of slope len(starts).

    Fills pass a target in (0, len(starts) * cap]; the walk's level bounds
    may pass one at or below 0.0 or above that capacity.  A target at or
    below 0.0 returns prev + target / slope on the first stretch where the
    draw rises, prev its foot: the draw's line extended below the level
    where it leaves 0.  A target at or above the capacity, or any target
    where no stretch rises (cap = 0), returns the last saturation point,
    the level where every slot is full.
    """
    n = len(starts)
    i = j = slope = 0
    total = 0.0
    prev = starts[0]
    end = prev + cap        # the next saturation point, starts[j] + cap
    while j < n:
        if i < n and starts[i] < end:
            x = starts[i]
            i += 1
            delta = 1
        else:
            x = end
            j += 1
            end = starts[j] + cap if j < n else math.inf
            delta = -1
        if x > prev and slope > 0:
            step = slope * (x - prev)
            if total + step >= target:
                return prev + (target - total) / slope
            total += step
        prev = x
        slope += delta
    return prev


def _segment_status(p_seg, e_seg, base, start, battery_max, power_max):
    """One pass over a filled segment: (feasible, settled).

    e_seg is the segment's slice of the budget, base the budget before it
    and start its starting battery level, as _fill_segment works them out.
    feasible: p stays in [0, P] and the battery in [0, B], both within
    FEAS_TOL.  settled is _refill_guess's margins: a slot more than
    FEAS_TOL inside (0, P) and the battery more than FEAS_TOL inside
    (0, B) after all but the last.
    """
    tol = FEAS_TOL
    free, inside, drawn, level = False, True, 0.0, None
    for e_k, p_k in zip(e_seg, p_seg):
        inside = inside and (level is None or tol < level < battery_max - tol)
        drawn += p_k
        level = start + (e_k - base) - drawn
        if (p_k < -tol or p_k > power_max + tol
                or level < -tol or level > battery_max + tol):
            return False, False
        free = free or tol < p_k < power_max - tol
    return True, free and inside


def _fill_segment(inv, e_tilde, battery_max, power_max, a, kind_a, b, kind_b):
    """Fill segment (a, b], slots a+1 .. b, for its boundary kinds and check it.

    The target is the budget over the segment, plus a full battery after a
    BFP start and less one before a BFP end, clamped to [0, (b-a) * P].
    inv and e_tilde are lists of floats, inv the solve's inverse gains;
    returns (p_segment list, level, feasible, settled): p and the level from
    one unchecked _water_fill call on inv's slice, and feasible and settled
    from _segment_status.
    A zero-gain slot sits at the burn level, so it draws only once every
    positive-gain slot of the segment is capped: what the boundary
    condition forces through beyond their caps is burned evenly on the
    zero-gain slots, at no rate either way.
    """
    base = e_tilde[a - 1] if a > 0 else 0.0
    start = battery_max if kind_a == BFP else 0.0
    e_seg = e_tilde[a:b]
    supply = (e_seg[-1] - base) + (start - (battery_max if kind_b == BFP else 0.0))
    limit = (b - a) * power_max
    target = supply if supply < limit else limit    # max(0.0, min(limit, supply))
    target = target if target > 0.0 else 0.0
    p_seg, level = _water_fill(inv[a:b], target, power_max)
    feasible, settled = _segment_status(p_seg, e_seg, base, start, battery_max, power_max)
    return p_seg, level, feasible, settled


def _close_segment(inv, e_tilde, inv_list, e_list, battery_max, power_max, a, kind_a):
    """Walk the level tube forward from boundary a; return its closing boundary.

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

    Only an event prefix, whose draw at hi or at lo ties or crosses its own
    bound, can move either bound or close the segment; every other prefix
    is idle.  The walk runs in two phases.  The first visits the prefixes
    one at a time on Python floats (inv_list and e_list, the lists of inv
    and e_tilde): each bound's draw is a running sum added in np.cumsum's
    order and re-summed from the segment start when that bound moves, so
    every comparison sees the bits the arrays would hold.  Segments are
    mostly a few slots long, where one numpy call costs more than the whole
    walk.  Once idle prefixes outnumber event prefixes, a long idle stretch
    is likely, and the second phase takes over, if more than
    _NUMPY_WALK_MIN_SLOTS prefixes are left to the horizon: each bound
    keeps every prefix's draw at its current level, one np.cumsum over the
    rest of the horizon per move, and the walk jumps from one event prefix
    to the next by bisection.  The switch depends on the walk and the slots
    left to it: a walk that closes within a few slots, or has at most the
    constant's 64 left, never calls numpy, and a long idle stretch costs
    one pass per bound instead of a Python step per slot.  The constant is
    the break-even of the two (48-56 slots, see the module doc).

    With B = inf every floor is -inf, so lo never moves from -inf, where
    every prefix draws exactly 0.0: neither phase draws at lo or builds
    the floors, and only a ceiling below 0.0 (a budget that falls below
    its level at a) can still close the segment at lo's prefix 0.
    """
    start = battery_max if kind_a == BFP else 0.0
    base = e_list[a - 1] if a > 0 else 0.0
    n = len(inv_list) - a
    handover_before = n - _NUMPY_WALK_MIN_SLOTS    # a hand-over at j leaves n - j

    def prefix_draw(level, j):
        # prefix j's draw at level, summed in np.cumsum's order
        drawn = 0.0
        for v in inv_list[a:a + j + 1]:
            x = level - v
            x = 0.0 if x < 0.0 else x
            drawn += power_max if power_max < x else x
        return drawn

    def draws(level, near, bound):
        # every prefix's draw at level, and the prefixes where near(draw,
        # bound) holds, closed by the horizon n; at level -inf (lo before
        # its first move) every draw is exactly 0.0
        if level == -math.inf:
            drawn = np.zeros(n)
        else:
            drawn = np.minimum(np.maximum(level - inv, 0.0), power_max).cumsum()
        return drawn, near(drawn, bound).nonzero()[0].tolist() + [n]

    hi, hi_at, lo, lo_at = math.inf, n, -math.inf, 0
    at_hi = at_lo = 0.0
    bounded = battery_max < math.inf    # else lo stays at -inf, where every draw is 0.0
    events = idle = 0
    upper = None            # the second phase's prefix bounds, once it starts
    hits_lo = [n]           # the second phase's lo events: just the horizon if unbounded
    j = -1
    quiet = None            # the second phase's np.errstate, entered at the hand-over
    try:
        while True:
            if upper is None:
                j += 1
                if j < n:
                    v = inv_list[a + j]
                    x = hi - v
                    x = 0.0 if x < 0.0 else x
                    at_hi += power_max if power_max < x else x
                    if bounded:
                        x = lo - v
                        x = 0.0 if x < 0.0 else x
                        at_lo += power_max if power_max < x else x
                    u = start + (e_list[a + j] - base)
                    l = u - battery_max
                    if not (at_hi >= u - FEAS_TOL or at_lo <= l + FEAS_TOL):
                        idle += 1
                        if idle > events and j < handover_before:
                            # its sums overflow to inf as the first phase's do,
                            # without numpy's overflow warning
                            quiet = np.errstate(over="ignore")
                            quiet.__enter__()
                            inv = inv[a:]
                            upper = start + (e_tilde[a:] - base)
                            near_upper = upper - FEAS_TOL
                            draw_hi, hits_hi = draws(hi, np.greater_equal, near_upper)
                            if bounded:
                                near_lower = upper - battery_max + FEAS_TOL
                                draw_lo, hits_lo = draws(lo, np.less_equal, near_lower)
                        continue
                    events += 1
            else:
                j = min(hits_hi[bisect.bisect_right(hits_hi, j)],
                        hits_lo[bisect.bisect_right(hits_lo, j)])
                if j < n:
                    at_hi, u = draw_hi[j], float(upper[j])
                    l = u - battery_max
                    if bounded:
                        at_lo = draw_lo[j]
            if j == n:
                return a + (hi_at if hi < math.inf else n), BDP
            if at_hi < l - FEAS_TOL:
                return a + hi_at, BDP
            if at_lo > u + FEAS_TOL:
                return a + lo_at, BFP
            if at_hi >= u - FEAS_TOL:
                if at_hi > u + FEAS_TOL:
                    hi = _fill_level(sorted(inv_list[a:a + j + 1]), power_max, u)
                    if upper is None:
                        at_hi = prefix_draw(hi, j)
                    else:
                        draw_hi, hits_hi = draws(hi, np.greater_equal, near_upper)
                hi_at = j + 1
            if at_lo <= l + FEAS_TOL:
                if at_lo < l - FEAS_TOL:
                    lo = _fill_level(sorted(inv_list[a:a + j + 1]), power_max, l)
                    if upper is None:
                        at_lo = prefix_draw(lo, j)
                    else:
                        draw_lo, hits_lo = draws(lo, np.less_equal, near_lower)
                lo_at = j + 1
    finally:
        if quiet is not None:
            quiet.__exit__(None, None, None)


def _refill_guess(inv, e_tilde, bmax, cap, guess):
    """Fill each segment of guess once; (p, levels) if that is the optimum.

    guess is the boundary list of an answer the walk gave, so it runs from
    (0, BDP) to (K, BDP), and it holds no BFP where the battery is
    unbounded: the walk closes at the horizon only as a BDP, and with
    B = inf its lower bound stays at -inf.  Accepts only when every other
    condition of the KKT system of the problem on inv holds: each
    segment's fill is feasible and has a slot more than FEAS_TOL inside
    (0, P), which pins its level and puts its target strictly inside
    (0, (b-a)*P), so its boundary battery levels are met exactly; and the
    level rises across every BDP and falls across every BFP.  Every gain
    1/inv is positive, so the optimum is unique and the guess describes
    the walk's own schedule.

    Two margins make the boundary list unique as well: the level must
    move by more than FEAS_TOL (relative) at each boundary, and the
    battery must stay more than FEAS_TOL inside (0, B) within each
    segment.  Where a level is flat or a battery bound is touched inside a
    segment, several lists describe one schedule (B = 0 is the extreme
    case), and the walk, which gives ties to the later prefix, may have
    chosen another; such guesses fall back.  inv and e_tilde are lists of
    floats, and so is the p returned.  Returns None otherwise.
    """
    p = []
    levels = []
    for (a, kind_a), (b, kind_b) in zip(guess, guess[1:]):
        p_seg, level, _, settled = _fill_segment(inv, e_tilde, bmax, cap, a, kind_a, b, kind_b)
        if not settled:
            return None
        if levels:
            prev = levels[-1]
            rise = (level - prev) * (1.0 if kind_a == BDP else -1.0)
            if not rise > FEAS_TOL * (prev if prev > 1.0 else 1.0):   # max(1.0, prev)
                return None
        p += p_seg
        levels.append(level)
    return p, levels


def _check_reachable(e_tilde, battery_max, power_max):
    """Raise ValueError unless some schedule meets the budget e_tilde.

    cumsum(p) must stay in [e_k - B, e_k] and grow by 0 to P a slot, so
    its reachable interval goes [lo, hi] -> [max(lo, e_k - B), min(hi +
    P, e_k)] from [0, 0]; an empty one (beyond FEAS_TOL) has no schedule.
    """
    lo = hi = 0.0
    for k, e_k in enumerate(e_tilde):
        lo, hi = max(lo, e_k - battery_max), min(hi + power_max, e_k)
        if lo > hi + FEAS_TOL:
            raise ValueError(f"e_tilde is unreachable: no schedule within the "
                             f"cap and the battery meets it at slot {k}")


class _ReducedProblem:
    """One user's reduced problem with its gains left open: solve(gain).

    Built from (e_tilde, battery_max, power_max), which best-response
    sweeps hold fixed while only the effective gains change.  Nothing is
    checked (solve_reduced checks); the budget and the caps are divided by
    energy_scale(e_tilde) here, once, and each solve scales only its
    gains.  boundaries is the boundary list of the last answer (None before
    the first): each solve refills it once and keeps it if it passes
    _refill_guess, and walks cold otherwise, so a solve returns what a
    cold one would.
    """

    __slots__ = ("scale", "e", "e_list", "bmax", "cap", "boundaries")

    def __init__(self, e_tilde, battery_max, power_max):
        self.scale = scale = energy_scale(e_tilde)
        self.e = np.divide(e_tilde, scale)
        # segments are filled and checked on Python floats: the same IEEE
        # operations as numpy's, without a numpy call per few-slot segment
        self.e_list = self.e.tolist()
        self.bmax, self.cap = battery_max / scale, power_max / scale
        self.boundaries = None

    def solve(self, gain):
        """solve_reduced's (p, boundaries, water_levels), with p a list of floats."""
        e_list, bmax, cap, scale = self.e_list, self.bmax, self.cap, self.scale
        k_slots = len(e_list)
        gains = gain.tolist()
        # scale is a power of two, so g * scale is exact or rounds monotonically:
        # min(gains) * scale is the least scaled gain, bit for bit
        if min(gains) * scale > GAIN_FLOOR:
            inv, burn = [1.0 / (g * scale) for g in gains], math.inf
        else:
            gains = [g * scale for g in gains]
            # at or above the burn level every positive-gain slot draws its cap
            # or more than the whole budget
            priced = [1.0 / g for g in gains if g > GAIN_FLOOR]
            burn = (max(priced) if priced else 0.0) + min(cap, e_list[-1]) + 1.0
            inv = [1.0 / g if g > GAIN_FLOOR else burn for g in gains]
        # no check: 1/g is finite for every g > GAIN_FLOOR (0.0 past float
        # range), and burn, at most float max + ~1.5 K + 1, rounds to finite
        boundaries = self.boundaries
        warm = None if boundaries is None else _refill_guess(inv, e_list, bmax, cap,
                                                              boundaries)
        if warm is not None:
            p, levels = warm
        else:
            inv_array = np.array(inv)       # for the walk's second phase
            p, boundaries, levels = [], [(0, BDP)], []
            while boundaries[-1][0] < k_slots:
                a, kind_a = boundaries[-1]
                b, kind_b = _close_segment(inv_array, self.e, inv, e_list, bmax, cap,
                                           a, kind_a)
                feasible = b > a        # an empty segment: the budget dips below zero
                if feasible:
                    p_seg, level, feasible, _ = _fill_segment(inv, e_list, bmax, cap,
                                                              a, kind_a, b, kind_b)
                if not feasible:
                    # only a budget no schedule meets gets here; say so
                    _check_reachable(e_list, bmax, cap)
                    raise RuntimeError("closed segment did not fill feasibly")
                p += p_seg
                boundaries.append((b, kind_b))
                levels.append(level)
            self.boundaries = boundaries
        # scale is a power of two: these products are exact
        return ([v * scale for v in p], boundaries,
                [v * scale if v < burn else 0.0 for v in levels])


def solve_reduced(gain, e_tilde, battery_max, power_max):
    """Optimal schedule for gains, a fixed cumulative energy budget and caps.

    e_tilde is the cumulative energy actually available per slot (harvest
    net of wastage).  Returns (p, boundaries, water_levels) where
    boundaries is the ordered (slot, kind) list starting at (0, BDP) and
    water_levels holds each segment's fill level, or 0.0 where no
    positive-gain slot prices its energy: a segment with a zero target, or
    one filled at or above the burn level below.

    gain and e_tilde must hold K >= 1 finite, nonnegative entries each,
    each cap be nonnegative or infinite, and some schedule meet e_tilde;
    anything else raises ValueError; no other entry checks them.  Every
    fill runs on energies divided by energy_scale(e_tilde), gains
    multiplied by it: that power of two is exact in floating point, so p
    and the heights come back bit for bit, and the tolerances become
    scale-free.

    The walk and every fill read one list of inverse gains, built per
    solve; a zero-gain slot's entry is the burn level (see the module
    doc).  From each confirmed boundary a forward tube walk
    (_close_segment) finds the next one, and that segment is filled once.
    This is one solve of a fresh _ReducedProblem, the form sweeps hold per
    user to warm-start each solve from the last.
    """
    e_tilde = _float_array(e_tilde, "e_tilde")
    if not e_tilde.size or e_tilde.shape != (e_tilde.size,):
        raise ValueError(f"gain and e_tilde must be 1-D, of one length K >= 1, got "
                         f"e_tilde of shape {e_tilde.shape}")
    if not _finite_nonnegative(e_tilde.tolist()):
        raise ValueError("gain and e_tilde entries must be finite and nonnegative")
    try:
        bmax, cap = float(battery_max), float(power_max)
    except (TypeError, ValueError, OverflowError):
        bmax = cap = math.nan       # not a number: rejected just below
    if not (bmax >= 0.0 and cap >= 0.0):
        raise ValueError("battery_max and power_max must be nonnegative or infinite")
    gain = _float_array(gain, "gain")
    if gain.shape != e_tilde.shape:
        raise ValueError(f"gain and e_tilde must be 1-D, of one length K >= 1, got "
                         f"shapes {gain.shape} and {e_tilde.shape}")
    if not _finite_nonnegative(gain.tolist()):
        raise ValueError("gain and e_tilde entries must be finite and nonnegative")
    p, boundaries, levels = _ReducedProblem(e_tilde, bmax, cap).solve(gain)
    return np.array(p), boundaries, levels


def solve_single(env: UserEnv):
    """Maximum-rate schedule for one user: wastage first, then segments.

    Returns (p_star, d_star, boundaries, water_levels).
    """
    d_star, _, _, budget = _greedy_pass(env.harvest.tolist(), env.battery_max, env.power_max)
    p_star, x, levels = _ReducedProblem(budget, env.battery_max, env.power_max).solve(env.gain)
    return np.array(p_star), np.array(d_star), x, levels

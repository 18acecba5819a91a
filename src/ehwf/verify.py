"""Optimality certificates and independent oracles.

Contents
--------
ReducedPolytope          one user's feasible set, wastage eliminated
reduce_polytope          build it from a UserEnv
induced_wastage          a concrete wastage schedule for a given p, if any
kkt_certificate          structural optimality check for one user
duality_gap              Frank-Wolfe gap: an upper bound on f* - f(p)
first_order_certificate  global check: the duality gap is within tolerance
brute_force_tiny         refined grid search for instances with N*K <= 6
wastage_minimality_check no feasible pair wastes less than the greedy total
DualCertificate          per-condition results of kkt_certificate
GAP_TOL_PER_SLOT         default gap tolerance per slot, shared with solve_mac

Eliminating the wastage variables: a wastage schedule making p feasible
exists iff the cumulative consumption respects causality
(sum_{t<=k} p_t <= E_k) and every window satisfies
sum_{t=j+1..k} p_t <= E_k - E_j + B_max, together with 0 <= p <= P.
The window family comes from requiring the running maximum of the
wastage lower bounds E_j - B_max - C_j to stay below the upper bound
E_k - C_k; that is exactly the condition for a nondecreasing cumulative
wastage to fit between them.

The reduced set is what one flow network delivers (harvest in, a battery
of capacity B_max between slots, cap P out, free discard), a polymatroid,
so Edmonds' greedy maximises a linear function over it exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .model import FEAS_TOL, GAIN_FLOOR, Scenario, UserEnv, cumulative_harvest
from .single_user import effective_energy, optimal_wastage

__all__ = [
    "EPS_CERT",
    "GAP_TOL_PER_SLOT",
    "ReducedPolytope",
    "DualCertificate",
    "reduce_polytope",
    "induced_wastage",
    "kkt_certificate",
    "duality_gap",
    "first_order_certificate",
    "brute_force_tiny",
    "wastage_minimality_check",
]

# Relative tolerance on water-level equalities; downstream of the exact
# segment fill, so residuals this large mean a genuinely broken level.
EPS_CERT = 1e-7

# Default duality-gap tolerance in nats per slot, for the certificate and
# for solve_mac's stop rule alike.
GAP_TOL_PER_SLOT = 1e-6


@dataclass(frozen=True)
class ReducedPolytope:
    """Feasible transmission schedules of one user, wastage eliminated.

    Constraints: 0 <= p <= power_max, causality cumsum(p) <= cum_energy,
    and windows cumsum(p)[k] - cumsum(p)[j] <= cum_energy[k] -
    cum_energy[j] + battery_max for all j < k.
    """

    cum_energy: np.ndarray
    battery_max: float
    power_max: float

    def violation(self, p) -> float:
        """Largest constraint violation of p; 0 when p is a member."""
        p = np.asarray(p, dtype=float)
        worst = max(0.0, float((-p).max()), float((p - self.power_max).max()))
        h = np.cumsum(p) - self.cum_energy
        worst = max(worst, float(h.max()))
        # min over j < k of h[j], with h[0-boundary] = 0
        prev = np.concatenate(([0.0], h[:-1]))
        running_min = np.minimum.accumulate(prev)
        worst = max(worst, float((h - running_min - self.battery_max).max()))
        return worst

    def contains(self, p, tol: float = FEAS_TOL) -> bool:
        return self.violation(p) <= tol

    def max_linear(self, c) -> np.ndarray:
        """A member q maximising c . q, by Edmonds' greedy.

        In decreasing c > 0, each q_k is raised as far as the cap, the
        causality of later slots and the battery windows allow: with h =
        cumsum(q) - cum_energy, by min(P, min(0, B + min_{j<k} h_j) -
        max_{m>=k} h_m).
        """
        c = np.asarray(c, dtype=float).tolist()
        n = len(c)
        h = (-self.cum_energy).tolist()
        q = [0.0] * n
        for k in sorted(range(n), key=c.__getitem__, reverse=True):
            if not c[k] > 0.0:
                break
            step = min(self.power_max,
                       min(0.0, self.battery_max + min(h[:k], default=0.0))
                       - max(h[k:]))
            if step > 0.0:
                q[k] = step
                for m in range(k, n):
                    h[m] += step
        return np.array(q)


def reduce_polytope(env: UserEnv) -> ReducedPolytope:
    """The wastage-eliminated feasible set of one user's schedules."""
    return ReducedPolytope(cum_energy=cumulative_harvest(env.harvest),
                           battery_max=env.battery_max,
                           power_max=env.power_max)


def induced_wastage(env: UserEnv, p):
    """A wastage schedule making (p, d) feasible, or None when p is not.

    Wastes battery overflow where it occurs; by construction this d exists
    iff p is in the reduced polytope.
    """
    p = np.asarray(p, dtype=float)
    if (p < -FEAS_TOL).any() or (p > env.power_max + FEAS_TOL).any():
        return None
    d = np.zeros(env.num_slots)
    level = 0.0
    for k in range(env.num_slots):
        level += env.harvest[k] - p[k]
        if level < -FEAS_TOL:
            return None
        d[k] = max(level - env.battery_max, 0.0)
        level -= d[k]
    return d


@dataclass(frozen=True)
class DualCertificate:
    """Outcome of the structural optimality check for one user.

    conditions maps each check to (passed, residual); slot_levels is the
    implied water level per slot (nan where the segment leaves it free);
    cap_active / zero_active flag where the box bounds bind; boundaries
    classifies each boundary slot from the battery as BDP, BFP, or
    interior.
    """

    passed: bool
    conditions: dict
    slot_levels: np.ndarray
    cap_active: np.ndarray
    zero_active: np.ndarray
    boundaries: tuple

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "conditions": {k: {"passed": ok, "residual": res}
                           for k, (ok, res) in self.conditions.items()},
            "slot_levels": [None if np.isnan(v) else float(v)
                            for v in self.slot_levels],
            "cap_active": [bool(v) for v in self.cap_active],
            "zero_active": [bool(v) for v in self.zero_active],
            "boundaries": [[int(s), str(lbl)] for s, lbl in self.boundaries],
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_json_dict(), indent=indent)


def _finite_scale(*vals) -> float:
    scale = 1.0
    for v in vals:
        if np.isfinite(v):
            scale = max(scale, abs(float(v)))
    return scale


def _validate_boundary_set(x, n_slots):
    if not x:
        raise ValueError("boundary set is empty")
    slots = []
    for item in x:
        try:
            slot, kind = item
        except (TypeError, ValueError) as exc:
            raise ValueError(f"malformed boundary entry {item!r}") from exc
        if kind not in ("BDP", "BFP"):
            raise ValueError(f"unknown boundary kind {kind!r}")
        slots.append(int(slot))
    if slots[0] != 0 or slots[-1] != n_slots:
        raise ValueError("boundary set must span slot 0 through the horizon")
    if any(b <= a for a, b in zip(slots, slots[1:])):
        raise ValueError("boundary slots must be strictly increasing")
    return slots


def kkt_certificate(env: UserEnv, p, x) -> DualCertificate:
    """Check that p has the optimal structure for the given segmentation.

    Conditions, each reported with its worst residual:
      feasible        p admits a wastage schedule (reduced polytope);
      segment-levels  inside each segment the uncapped, nonzero slots share
                      one water level, capped slots sit at or above it and
                      zeroed slots at or below it;
      level-ordering  across a boundary the level may rise only where the
                      battery is empty and fall only where it is full;
      no-idle-slack   no slot below its cap is followed by a battery that
                      never depletes (such a slot could consume more).
    """
    p = np.asarray(p, dtype=float)
    n_slots = env.num_slots
    slots = _validate_boundary_set(x, n_slots)

    poly = reduce_polytope(env)
    feas_resid = poly.violation(p)
    feas_ok = feas_resid <= FEAS_TOL

    # battery of the reduced problem: effective energy net of consumption
    d_star, _, _ = optimal_wastage(env)
    battery = effective_energy(env, d_star) - np.cumsum(p)

    cap = env.power_max
    bmax = env.battery_max
    tol_p = EPS_CERT * _finite_scale(cap)
    cap_active = p >= cap - tol_p
    zero_active = p <= tol_p
    pos_gain = env.gain > GAIN_FLOOR
    inv = np.full(n_slots, np.nan)
    inv[pos_gain] = 1.0 / env.gain[pos_gain]

    # Per-segment feasible level intervals [lo, hi]; a pinned slot is an
    # equality, an active bound is one-sided.
    seg_lo, seg_hi, seg_tol = [], [], []
    slot_levels = np.full(n_slots, np.nan)
    resid_levels = 0.0
    for a, b in zip(slots[:-1], slots[1:]):
        sl = slice(a, b)
        considered = pos_gain[sl]
        pinned = (p[sl] + inv[sl])[considered & ~cap_active[sl] & ~zero_active[sl]]
        lo, hi = -np.inf, np.inf
        at_cap = considered & cap_active[sl]
        if at_cap.any():
            lo = float(np.max(cap + inv[sl][at_cap]))
        at_zero = considered & zero_active[sl] & ~cap_active[sl]
        if at_zero.any():
            hi = float(np.min(inv[sl][at_zero]))
        if pinned.size:
            lo = max(lo, float(pinned.max()))
            hi = min(hi, float(pinned.min()))
        scale = _finite_scale(lo, hi)
        if lo > hi:
            resid_levels = max(resid_levels, (lo - hi) / scale)
        if pinned.size:
            slot_levels[sl] = float(np.mean(pinned))
        elif np.isfinite(lo) and np.isfinite(hi):
            slot_levels[sl] = 0.5 * (lo + hi)
        elif np.isfinite(lo) or np.isfinite(hi):
            slot_levels[sl] = lo if np.isfinite(lo) else hi
        seg_lo.append(lo)
        seg_hi.append(hi)
        seg_tol.append(EPS_CERT * scale)
    levels_ok = resid_levels <= EPS_CERT

    # Walk the reachable level interval across boundaries: empty battery
    # lets the level rise, full battery lets it fall, anything else pins it.
    tol_b = FEAS_TOL * _finite_scale(bmax)
    boundaries = [(slots[0], "BDP")]
    resid_order = 0.0
    reach_lo = seg_lo[0] - seg_tol[0]
    reach_hi = seg_hi[0] + seg_tol[0]
    for i in range(1, len(slots) - 1):
        s = slots[i]
        beta = float(battery[s - 1])
        can_up = beta <= tol_b
        can_down = np.isfinite(bmax) and beta >= bmax - tol_b
        if can_up and can_down:
            label = "BDP" if beta <= bmax - beta else "BFP"
        elif can_up:
            label = "BDP"
        elif can_down:
            label = "BFP"
        else:
            label = "interior"
        boundaries.append((s, label))

        pre_lo = 0.0 if can_down else reach_lo
        pre_hi = np.inf if can_up else reach_hi
        nxt_lo = max(pre_lo, seg_lo[i] - seg_tol[i])
        nxt_hi = min(pre_hi, seg_hi[i] + seg_tol[i])
        if nxt_lo > nxt_hi:
            resid_order = max(resid_order,
                              (nxt_lo - nxt_hi) / _finite_scale(nxt_lo, nxt_hi))
            nxt_lo = seg_lo[i] - seg_tol[i]    # restart from the segment itself
            nxt_hi = seg_hi[i] + seg_tol[i]
            if nxt_lo > nxt_hi:
                nxt_lo = nxt_hi = 0.5 * (nxt_lo + nxt_hi)
        reach_lo, reach_hi = nxt_lo, nxt_hi
    order_ok = resid_order <= EPS_CERT

    last_beta = float(battery[-1])
    if last_beta <= tol_b:
        boundaries.append((n_slots, "BDP"))
    elif np.isfinite(bmax) and last_beta >= bmax - tol_b:
        boundaries.append((n_slots, "BFP"))
    else:
        boundaries.append((n_slots, "interior"))

    # A slot under its cap whose battery never empties afterwards could
    # simply transmit more; the optimum has no such slack.
    suffix_min = np.minimum.accumulate(battery[::-1])[::-1]
    idle = pos_gain & ~cap_active & (suffix_min > tol_b)
    resid_idle = float(suffix_min[idle].max()) if idle.any() else 0.0
    idle_ok = not idle.any()

    conditions = {
        "feasible": (bool(feas_ok), float(feas_resid)),
        "segment-levels": (bool(levels_ok), float(resid_levels)),
        "level-ordering": (bool(order_ok), float(resid_order)),
        "no-idle-slack": (bool(idle_ok), float(resid_idle)),
    }
    passed = feas_ok and levels_ok and order_ok and idle_ok
    return DualCertificate(passed=passed, conditions=conditions,
                           slot_levels=slot_levels, cap_active=cap_active,
                           zero_active=zero_active, boundaries=tuple(boundaries))


def duality_gap(scenario: Scenario, p) -> float:
    """Frank-Wolfe gap sum_n max_q grad_n . (q - p_n) of p, in nats.

    q ranges over user n's reduced polytope and grad is the sum rate's
    gradient at p.  For a feasible p (not checked) it bounds f* - f(p)
    from above (Jaggi, "Revisiting Frank-Wolfe", ICML 2013).
    """
    return _capped_gap(scenario, p, np.inf)


def _capped_gap(scenario: Scenario, p, limit: float) -> float:
    # duality_gap summed in user order, returned once it exceeds limit
    p = np.asarray(p, dtype=float)
    grad = scenario.gain / (1.0 + np.sum(p * scenario.gain, axis=0))
    cum_energy = cumulative_harvest(scenario.harvest)
    gap = 0.0
    for n in range(scenario.num_users):
        poly = ReducedPolytope(cum_energy[n], float(scenario.battery_max[n]),
                               float(scenario.power_max[n]))
        gap += float(grad[n] @ (poly.max_linear(grad[n]) - p[n]))
        if gap > limit:
            break
    return gap


def first_order_certificate(scenario: Scenario, p, tol: float | None = None):
    """Test global optimality of p: (gap <= tol, gap) with duality_gap.

    tol defaults to GAP_TOL_PER_SLOT per slot; an infeasible p raises.
    """
    p = np.asarray(p, dtype=float)
    if tol is None:
        tol = GAP_TOL_PER_SLOT * scenario.num_slots
    for n in range(scenario.num_users):
        if reduce_polytope(scenario.user(n)).violation(p[n]) > FEAS_TOL:
            raise ValueError(f"schedule of user {n} is infeasible")
    gap = duality_gap(scenario, p)
    return gap <= tol, gap


def brute_force_tiny(scenario: Scenario, grid_resolution: float = 1e-6):
    """Grid search with shrinking refinement; the oracle for tiny instances.

    Candidates are the incumbent plus one shared set of symmetric offsets
    on every axis, clamped to the box.  Shared offsets keep diagonal moves
    along coupling constraints on the lattice at every width (per-axis
    grids lose them once a window clips and can stall short of the
    optimum); clamping puts the box faces themselves on the lattice.  The
    width halves when no candidate improves, and a converged incumbent is
    rescanned at a ladder of widths before the result is trusted.
    Returns (best schedule, best value).
    """
    n_users, n_slots = scenario.num_users, scenario.num_slots
    n_axes = n_users * n_slots
    if n_axes > 6:
        raise ValueError("grid search is limited to num_users * num_slots <= 6")
    grid_pts = 13 if n_axes <= 4 else 7

    cum_e = cumulative_harvest(scenario.harvest)
    upper = np.minimum(scenario.power_max[:, None], cum_e)
    gains = scenario.gain
    bmax = scenario.battery_max
    scale = float(upper.max())
    if scale <= 0.0:
        return np.zeros((n_users, n_slots)), 0.0

    def evaluate(cands):
        c = np.cumsum(cands, axis=2)
        h = c - cum_e[None]
        ok = (h <= FEAS_TOL).all(axis=(1, 2))
        prev = np.concatenate([np.zeros((cands.shape[0], n_users, 1)),
                               h[:, :, :-1]], axis=2)
        running_min = np.minimum.accumulate(prev, axis=2)
        ok &= (h - running_min <= bmax[None, :, None] + FEAS_TOL).all(axis=(1, 2))
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
            if width <= grid_resolution:
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
    """No feasible (p, d) pair wastes less in total than the greedy schedule."""
    d_star, _, _ = optimal_wastage(env)
    floor = float(d_star.sum()) - FEAS_TOL
    return all(float(np.asarray(d, dtype=float).sum()) >= floor
               for _p, d in pairs)

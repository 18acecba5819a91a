"""Optimality certificates and independent oracles.

Contents
--------
ReducedPolytope          one user's feasible set, wastage eliminated
reduce_polytope          build it from a UserEnv
induced_wastage          a concrete wastage schedule for a given p, if any
kkt_certificate          one user's feasibility and exact gap on its own problem
                         (its boundary list checked as solve_reduced's guess is)
duality_gap              Frank-Wolfe gap: an upper bound on f* - f(p)
first_order_certificate  global check: the duality gap is within GAP_TOL_PER_SLOT*K
brute_force_tiny         refined grid search for instances with N*K <= 6
wastage_minimality_check no feasible pair wastes less than the greedy total
DualCertificate          kkt_certificate's two conditions and their residuals
GAP_TOL_PER_SLOT         gap tolerance per slot, shared with solve_mac's default

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

import math
from dataclasses import dataclass

import numpy as np

from .model import FEAS_TOL, Scenario, UserEnv, cumulative_harvest
from .single_user import _checked_boundaries, optimal_wastage

__all__ = [
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

# Duality-gap tolerance in nats per slot, for the certificates and for
# solve_mac's default stop rule alike.
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
        """Largest constraint violation of p; 0 when p is a member.

        A non-finite entry is an infinite violation; a p of another length
        than the horizon raises ValueError.
        """
        p = _schedule(p, self.cum_energy.shape)
        if not np.isfinite(p).all():
            return math.inf
        worst = max(0.0, float((-p).max()), float((p - self.power_max).max()))
        h = np.cumsum(p) - self.cum_energy
        worst = max(worst, float(h.max()))
        # min over j < k of h[j], with h[0-boundary] = 0
        prev = np.concatenate(([0.0], h[:-1]))
        running_min = np.minimum.accumulate(prev)
        worst = max(worst, float((h - running_min - self.battery_max).max()))
        return worst

    def contains(self, p) -> bool:
        return self.violation(p) <= FEAS_TOL

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

    def gap(self, c, p) -> float:
        """Frank-Wolfe gap c . (q - p) of p, with q = max_linear(c).

        For a member p and c the gradient of a concave f at p, it bounds
        max f - f(p) from above (Jaggi, "Revisiting Frank-Wolfe", ICML 2013).
        """
        return float(c @ (self.max_linear(c) - p))


def _schedule(p, shape) -> np.ndarray:
    """p as a float array of the given shape; any other shape raises."""
    p = np.asarray(p, dtype=float)
    if p.shape != shape:
        raise ValueError(f"schedule has shape {p.shape}, expected {shape}")
    return p


def reduce_polytope(env: UserEnv) -> ReducedPolytope:
    """The wastage-eliminated feasible set of one user's schedules."""
    return ReducedPolytope(cum_energy=cumulative_harvest(env.harvest),
                           battery_max=env.battery_max,
                           power_max=env.power_max)


def induced_wastage(env: UserEnv, p):
    """A wastage schedule making (p, d) feasible, or None when p is not.

    Wastes battery overflow where it occurs; by construction this d exists
    iff p is in the reduced polytope, so a non-finite p has none.
    """
    p = _schedule(p, (env.num_slots,))
    if not ((p >= -FEAS_TOL) & (p <= env.power_max + FEAS_TOL)).all():
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
    """Outcome of kkt_certificate for one user.

    conditions maps "feasible" and "duality-gap" to (passed, residual):
    the schedule's largest constraint violation and its Frank-Wolfe gap in
    nats.
    """

    passed: bool
    conditions: dict


def kkt_certificate(env: UserEnv, p, x) -> DualCertificate:
    """Certify p optimal for one user's own problem, max sum ln(1 + g p).

    x, the solver's boundary list, is checked for form only, by the check
    solve_reduced applies to a guess: a list that does not run from
    (0, BDP) to slot K raises ValueError.  Conditions, each with its
    residual:
      feasible     p lies in the reduced polytope (its largest violation);
      duality-gap  the Frank-Wolfe gap of p under the gradient g / (1 + g p)
                   is at most GAP_TOL_PER_SLOT per slot.
    The gap is first_order_certificate's on this user alone; on effective
    gains it is that user's term of duality_gap.  A pass bounds what p
    leaves of the optimum by GAP_TOL_PER_SLOT * K nats.
    """
    _checked_boundaries(x, env.num_slots)
    p = _schedule(p, (env.num_slots,))
    poly = reduce_polytope(env)
    violation = poly.violation(p)
    gap = poly.gap(env.gain / (1.0 + env.gain * p), p)
    feasible = violation <= FEAS_TOL
    gap_ok = gap <= GAP_TOL_PER_SLOT * env.num_slots
    return DualCertificate(passed=feasible and gap_ok,
                           conditions={"feasible": (feasible, violation),
                                       "duality-gap": (gap_ok, gap)})


def duality_gap(scenario: Scenario, p) -> float:
    """Frank-Wolfe gap sum_n max_q grad_n . (q - p_n) of p, in nats.

    q ranges over user n's reduced polytope and grad is the sum rate's
    gradient at p.  For a feasible p (not checked) it bounds f* - f(p)
    from above.
    """
    p = _schedule(p, scenario.harvest.shape)
    return _capped_gap(scenario, _user_polytopes(scenario), p, math.inf)


def _user_polytopes(scenario: Scenario) -> list:
    """Every user's ReducedPolytope, in user order."""
    cum_energy = cumulative_harvest(scenario.harvest)
    return [ReducedPolytope(cum_energy[n], float(scenario.battery_max[n]),
                            float(scenario.power_max[n]))
            for n in range(scenario.num_users)]


def _capped_gap(scenario: Scenario, polytopes, p, limit: float) -> float:
    # duality_gap summed in user order, returned once it exceeds limit; p
    # is a float array of the scenario's shape
    grad = scenario.gain / (1.0 + np.sum(p * scenario.gain, axis=0))
    gap = 0.0
    for n, poly in enumerate(polytopes):
        gap += poly.gap(grad[n], p[n])
        if gap > limit:
            break
    return gap


def first_order_certificate(scenario: Scenario, p):
    """Test global optimality of p: (gap <= tol, gap) with duality_gap.

    tol is GAP_TOL_PER_SLOT per slot; an infeasible p, one with a
    non-finite entry, or one of another shape than the scenario raises.
    """
    p = _schedule(p, scenario.harvest.shape)
    polytopes = _user_polytopes(scenario)
    for n, poly in enumerate(polytopes):
        if poly.violation(p[n]) > FEAS_TOL:
            raise ValueError(f"schedule of user {n} is infeasible")
    gap = _capped_gap(scenario, polytopes, p, math.inf)
    return gap <= GAP_TOL_PER_SLOT * scenario.num_slots, gap


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
    """No feasible (p, d) pair wastes less in total than the greedy schedule."""
    d_star, _, _ = optimal_wastage(env)
    floor = float(d_star.sum()) - FEAS_TOL
    return all(float(np.asarray(d, dtype=float).sum()) >= floor
               for _p, d in pairs)

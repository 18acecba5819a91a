"""Optimality certificates.

Contents
--------
ReducedPolytope          one user's feasible set, wastage eliminated
reduce_polytope          build it from a UserEnv
induced_wastage          a concrete wastage schedule for a given p, if any
kkt_certificate          one user's feasibility and exact gap on its own problem
                         (its boundary list checked as solve_reduced's guess is)
first_order_certificate  global check: the Frank-Wolfe duality gap, an upper
                         bound on f* - f(p), is within GAP_TOL_PER_SLOT*K
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

ReducedPolytope.contains is the one membership predicate: induced_wastage,
kkt_certificate and first_order_certificate all decide feasibility through
it.  It allows FEAS_TOL times model.energy_scale of the cumulative harvest
on every constraint, the tolerance model.check_feasible applies too, so a
verdict does not depend on the unit of energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import FEAS_TOL, Scenario, UserEnv, cumulative_harvest, energy_scale
from .single_user import _checked_boundaries

__all__ = [
    "GAP_TOL_PER_SLOT",
    "ReducedPolytope",
    "DualCertificate",
    "reduce_polytope",
    "induced_wastage",
    "kkt_certificate",
    "first_order_certificate",
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
        """Whether p is a member, within FEAS_TOL * energy_scale(cum_energy).

        The tolerance follows the user's mean harvest per slot, so the
        verdict does not depend on the unit of energy.
        """
        return self.violation(p) <= FEAS_TOL * energy_scale(self.cum_energy)

    def max_linear(self, c) -> np.ndarray:
        """A member q maximising c . q, by Edmonds' greedy.

        In decreasing c > 0, each q_k is raised as far as the cap, the
        causality of later slots and the battery windows allow: with h =
        cumsum(q) - cum_energy, by min(P, min(0, B + min_{j<k} h_j) -
        max_{m>=k} h_m).  A c of another length than the horizon, or with
        a non-finite entry, raises ValueError.
        """
        c = _schedule(c, self.cum_energy.shape)
        if not np.isfinite(c).all():
            raise ValueError("max_linear needs finite coefficients")
        c = c.tolist()
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

    None exactly when reduce_polytope(env).contains(p) is False, so a
    non-finite p has none.  Otherwise d wastes the battery overflow where
    it occurs: that keeps the battery as full as its capacity allows, so
    it stays nonnegative within the polytope's tolerance, and (p, d)
    passes check_feasible.
    """
    p = _schedule(p, (env.num_slots,))
    if not reduce_polytope(env).contains(p):
        return None
    d = np.zeros(env.num_slots)
    level = 0.0
    for k in range(env.num_slots):
        level += env.harvest[k] - p[k]
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
      feasible     ReducedPolytope.contains(p) (its largest violation);
      duality-gap  the Frank-Wolfe gap of p under the gradient g / (1 + g p)
                   is at most GAP_TOL_PER_SLOT per slot (infinite for a
                   non-finite p).
    The gap is first_order_certificate's on this user alone; on effective
    gains it is that user's term of the joint gap.  A pass bounds what p
    leaves of the optimum by GAP_TOL_PER_SLOT * K nats.
    """
    _checked_boundaries(x, env.num_slots)
    p = _schedule(p, (env.num_slots,))
    poly = reduce_polytope(env)
    violation = poly.violation(p)
    gap = math.inf      # a non-finite p (an infinite violation) has no gradient
    if violation < math.inf:
        gap = poly.gap(env.gain / (1.0 + env.gain * p), p)
    feasible = poly.contains(p)
    gap_ok = gap <= GAP_TOL_PER_SLOT * env.num_slots
    return DualCertificate(passed=feasible and gap_ok,
                           conditions={"feasible": (feasible, violation),
                                       "duality-gap": (gap_ok, gap)})


def _capped_gap(scenario: Scenario, polytopes, p, limit: float) -> float:
    # first_order_certificate's gap, summed in user order and returned once
    # it exceeds limit; p is a float array of the scenario's shape
    grad = scenario.gain / (1.0 + np.sum(p * scenario.gain, axis=0))
    gap = 0.0
    for n, poly in enumerate(polytopes):
        gap += poly.gap(grad[n], p[n])
        if gap > limit:
            break
    return gap


def first_order_certificate(scenario: Scenario, p):
    """Test global optimality of p: (gap <= tol, gap), gap in nats.

    gap is the Frank-Wolfe duality gap sum_n max_q grad_n . (q - p_n), q
    over user n's ReducedPolytope and grad the sum rate's gradient at p;
    for a member p it bounds f* - f(p) from above.  tol is
    GAP_TOL_PER_SLOT per slot; a p that some user's
    ReducedPolytope.contains rejects (a non-finite entry included), or one
    of another shape than the scenario, raises.
    """
    p = _schedule(p, scenario.harvest.shape)
    polytopes = [reduce_polytope(scenario.user(n)) for n in range(scenario.num_users)]
    for n, poly in enumerate(polytopes):
        if not poly.contains(p[n]):
            raise ValueError(f"schedule of user {n} is infeasible")
    gap = _capped_gap(scenario, polytopes, p, math.inf)
    return gap <= GAP_TOL_PER_SLOT * scenario.num_slots, gap

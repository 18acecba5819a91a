"""Optimality certificates.

Contents
--------
ReducedPolytope          one user's feasible set, wastage eliminated
reduce_polytope          build it from a UserEnv
induced_wastage          a concrete wastage schedule for a given p, if any
kkt_certificate          one user's feasibility and exact gap on its own problem
                         (its boundary list checked for solve_reduced's form)
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
so a greedy maximises a linear function over it exactly.  max_linear runs
it backward in time: each slot's harvest serves the most valuable demand
it can still reach, found in O(log K) from a list sorted by value.
A ReducedPolytope checks its data once, when built, and prepares the
Python lists that max_linear and violation walk (the cumulative harvest
and its per-slot increments) once too; reduce_polytope and the sweeps'
polytopes build from a checked UserEnv or Scenario and skip the checks.
solve_mac's pricing calls the unchecked gap, on the sweep's own
gradient and rows.

ReducedPolytope.contains is the one membership predicate: induced_wastage,
kkt_certificate and first_order_certificate all decide feasibility through
it, kkt_certificate taking the verdict with the violation it reports from
the one pass contains makes.  It allows FEAS_TOL times model.energy_scale
of the cumulative harvest on every constraint, the tolerance
model.check_feasible applies too, so a verdict does not depend on the
unit of energy.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .model import (FEAS_TOL, Scenario, UserEnv, _as_float_array, cumulative_harvest,
                    energy_scale)
from .single_user import BDP, BFP

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

    cum_energy must be 1-D with K >= 1 finite, nonnegative, nondecreasing
    entries, and each cap a nonnegative number or infinity; anything else
    raises ValueError naming the field.  cum_energy is kept as a read-only
    float copy, and the Python lists violation and max_linear walk are
    prepared from it once.
    """

    cum_energy: np.ndarray
    battery_max: float
    power_max: float

    def __post_init__(self):
        cum = _as_float_array(self.cum_energy, "cum_energy", 1).copy()
        if cum.size == 0:
            raise ValueError("cum_energy must cover at least one slot, got 0")
        if not (np.isfinite(cum).all() and cum[0] >= 0.0 and (cum[1:] >= cum[:-1]).all()):
            raise ValueError("cum_energy entries must be finite, nonnegative and nondecreasing")
        caps = []
        for name in ("battery_max", "power_max"):
            cap = float(_as_float_array(getattr(self, name), name, 0))
            if not cap >= 0.0:
                raise ValueError(f"{name} must be nonnegative or infinite, got {cap!r}")
            caps.append(cap)
        _prepare(self, cum, *caps)

    def violation(self, p) -> float:
        """Largest constraint violation of p; 0 when p is a member.

        A non-finite entry is an infinite violation; a p of another length
        than the horizon raises ValueError.
        """
        p = _schedule(p, self.cum_energy.shape)
        if not np.isfinite(p).all():
            return math.inf
        bmax, cap = self.battery_max, self.power_max
        # one pass, summing in np.cumsum's order: h = cumsum(p) - cum_energy
        # and low = min(0, h[j] for j < k).  Starting the sum at 0.0 changes
        # only the sign of a zero, which no positive violation shows.  A NaN
        # window (h = low = -inf, past a sum overflowing downward) voids the
        # whole window term, as the NaN numpy's max returned did in the
        # builtin max
        worst = window = total = low = 0.0
        void = False
        for pk, energy in zip(p.tolist(), self._cum):
            if -pk > worst:
                worst = -pk
            if pk - cap > worst:
                worst = pk - cap
            total += pk
            h = total - energy
            if h > worst:
                worst = h
            w = h - low - bmax
            if w > window:
                window = w
            elif w != w:
                void = True
            if h < low:
                low = h
        return window if window > worst and not void else worst

    def contains(self, p) -> bool:
        """Whether p is a member, within FEAS_TOL * energy_scale(cum_energy).

        The tolerance follows the user's mean harvest per slot, so the
        verdict does not depend on the unit of energy.
        """
        return self._membership(p)[0]

    def _membership(self, p):
        # (contains(p), violation(p)) from one violation pass; the one place
        # the membership tolerance is decided
        worst = self.violation(p)
        return worst <= FEAS_TOL * energy_scale(self.cum_energy), worst

    def max_linear(self, c) -> np.ndarray:
        """A member q maximising c . q, by one backward sweep over the slots.

        The polytope is a flow network: slot k's harvest E_k - E_{k-1}
        can serve slot k or any later slot, the battery carries at most B
        across each slot boundary, and slot m takes at most P.  Walking
        from slot K down to 1, the sweep keeps the demand still open at
        slots m >= k as [m, amount] entries in a list sorted by c_m, with
        the c_m in a list beside it.  Before
        slot k it cuts them to their top B units, as no more crosses the
        boundary after slot k; then it opens slot k's demand when c_k > 0
        and serves slot k's harvest from the top.  An entry is capped at
        min(P, E_k), which causality implies, so none is infinite.  Each
        slot is opened once and closed at most once: O(K log K)
        comparisons plus list moves.  Among equal c the earlier slot is
        served first and cut last; a different order gives another
        maximiser.  A c of another length than the horizon, or with a
        non-finite entry, raises ValueError.
        """
        c = _schedule(c, self.cum_energy.shape)
        if not np.isfinite(c).all():
            raise ValueError("max_linear needs finite coefficients")
        return np.array(self._max_linear(c.tolist()))

    def _max_linear(self, c) -> list:
        # max_linear's sweep, unchecked: c a list of K finite floats, q a list
        cum, harvests = self._cum, self._harvest
        bmax, cap = self.battery_max, self.power_max
        q = [0.0] * len(cum)
        values, entries = [], []    # the open demand, ascending by value
        total = 0.0                 # the entries' amounts summed as it runs
        for k in range(len(cum) - 1, -1, -1):
            if total > bmax:
                # drop the lowest units; the running total may have drifted
                # past the list's own sum, so the loop may empty the list
                excess = total - bmax
                drop = 0
                for entry in entries:
                    amount = entry[1]
                    if amount > excess:
                        entry[1] = amount - excess
                        break
                    excess -= amount
                    drop += 1
                del values[:drop], entries[:drop]
                total = bmax if entries else 0.0
            value = c[k]
            if value > 0.0:
                energy = cum[k]
                amount = cap if cap < energy else energy
                if amount > 0.0:
                    i = bisect.bisect_right(values, value)
                    values.insert(i, value)
                    entries.insert(i, [k, amount])
                    total += amount
            harvest = harvests[k]
            while harvest > 0.0 and entries:
                entry = entries[-1]
                slot, amount = entry
                if amount > harvest:
                    entry[1] = amount - harvest
                    q[slot] += harvest
                    total -= harvest
                    break
                q[slot] += amount
                harvest -= amount
                total -= amount
                values.pop()
                entries.pop()
        return q

    def gap(self, c, p) -> float:
        """Frank-Wolfe gap c . (q - p) of p, with q = max_linear(c).

        For a member p and c the gradient of a concave f at p, it bounds
        max f - f(p) from above (Jaggi, "Revisiting Frank-Wolfe", ICML 2013).
        A p of another length than the horizon raises ValueError, as a c
        that max_linear rejects does.
        """
        p = _schedule(p, self.cum_energy.shape)
        return float(c @ (self.max_linear(c) - p))

    def _gap(self, c, p) -> float:
        # gap unchecked, for pricing whose c (a finite gradient) and p are
        # float arrays of the horizon's shape
        return float(c @ (np.array(self._max_linear(c.tolist())) - p))


def _prepare(poly, cum_energy, battery_max, power_max):
    # set a ReducedPolytope's fields from checked data, past the frozen
    # dataclass's __setattr__, with the lists max_linear and violation walk:
    # cum_energy's entries and its per-slot increments
    cum_energy.setflags(write=False)
    cum = cum_energy.tolist()
    vars(poly).update(cum_energy=cum_energy, battery_max=battery_max, power_max=power_max,
                      _cum=cum, _harvest=[cum[0]] + [b - a for a, b in zip(cum, cum[1:])])


def _checked_polytope(cum_energy, battery_max, power_max):
    # a ReducedPolytope of data a Scenario or UserEnv checked already:
    # fresh cum_energy, Python-float caps; __post_init__'s checks skipped
    poly = object.__new__(ReducedPolytope)
    _prepare(poly, cum_energy, battery_max, power_max)
    return poly


def _schedule(p, shape) -> np.ndarray:
    """p as a float array of the given shape; any other shape raises."""
    p = np.asarray(p, dtype=float)
    if p.shape != shape:
        raise ValueError(f"schedule has shape {p.shape}, expected {shape}")
    return p


def reduce_polytope(env: UserEnv) -> ReducedPolytope:
    """The wastage-eliminated feasible set of one user's schedules."""
    return _checked_polytope(cumulative_harvest(env.harvest), env.battery_max,
                             env.power_max)


def _user_polytopes(scenario: Scenario) -> list:
    # every user's reduce_polytope, read straight from the scenario's rows
    return [_checked_polytope(cum, bmax, cap)
            for cum, bmax, cap in zip(cumulative_harvest(scenario.harvest),
                                      scenario.battery_max.tolist(),
                                      scenario.power_max.tolist())]


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


def _checked_boundaries(x, k_slots):
    """x as a boundary list in solve_reduced's own output form, or ValueError."""
    try:
        x = [(int(slot), kind) for slot, kind in x]
    except (TypeError, ValueError) as exc:
        raise ValueError(f"boundary list must hold (slot, kind) pairs: {exc}") from None
    if not x or x[0] != (0, BDP):
        raise ValueError("boundary list must start at (0, BDP)")
    if x[-1][0] != k_slots:
        raise ValueError(f"boundary list must end at slot {k_slots}")
    if any(b <= a for (a, _), (b, _) in zip(x, x[1:])):
        raise ValueError("boundary list slots must be strictly increasing")
    if any(kind not in (BDP, BFP) for _, kind in x):
        raise ValueError("boundary list kinds must be BDP or BFP")
    return x


def kkt_certificate(env: UserEnv, p, x) -> DualCertificate:
    """Certify p optimal for one user's own problem, max sum ln(1 + g p).

    x, the solver's boundary list, is checked for form only: a list of
    (slot, kind) pairs that does not run from (0, BDP) to slot K through
    strictly increasing slots of kind BDP or BFP raises ValueError.
    Conditions, each with its residual:
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
    feasible, violation = poly._membership(p)
    gap = math.inf      # a non-finite p (an infinite violation) has no gradient
    if violation < math.inf:
        gap = poly.gap(env.gain / (1.0 + env.gain * p), p)
    gap_ok = gap <= GAP_TOL_PER_SLOT * env.num_slots
    return DualCertificate(passed=feasible and gap_ok,
                           conditions={"feasible": (feasible, violation),
                                       "duality-gap": (gap_ok, gap)})


def _capped_gap(gain, polytopes, p, received, limit: float) -> float:
    # first_order_certificate's gap, summed in user order and returned once
    # it exceeds limit; p is a float array of gain's shape, and received
    # its received power np.sum(p * gain, axis=0)
    grad = gain / (1.0 + received)
    gap = 0.0
    for n, poly in enumerate(polytopes):
        gap += poly._gap(grad[n], p[n])
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
    polytopes = _user_polytopes(scenario)
    for n, poly in enumerate(polytopes):
        if not poly.contains(p[n]):
            raise ValueError(f"schedule of user {n} is infeasible")
    gap = _capped_gap(scenario.gain, polytopes, p, np.sum(p * scenario.gain, axis=0), math.inf)
    return gap <= GAP_TOL_PER_SLOT * scenario.num_slots, gap

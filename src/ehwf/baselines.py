"""Comparison policies: greedy, balanced, and staircase water-filling.

Contents
--------
greedy_policy                consume as much as possible every slot
balanced_policy              aim for the same consumption every slot
staircase_wf                 water-filling under causality only (no caps)
modified_staircase           staircase clipped to the cap and the battery
iterative_modified_staircase sweep loop with modified_staircase responses
non_iterative_multiuser      per-user policy on raw gains, no interaction

All single-user policies return feasible (p, d) pairs; the multi-user
assemblers stack per-user results into a schedule matrix.
"""

from __future__ import annotations

import numpy as np

from .model import Scenario, UserEnv, cumulative_harvest
from .single_user import _ReducedProblem, _clip, optimal_wastage
from .mac import MacSolution, iterate_best_response

__all__ = [
    "greedy_policy",
    "balanced_policy",
    "staircase_wf",
    "modified_staircase",
    "iterative_modified_staircase",
    "non_iterative_multiuser",
]


def greedy_policy(env: UserEnv):
    """Consume up to the cap every slot; identical to the wastage recurrence."""
    d, p, _ = optimal_wastage(env)
    return p, d


def balanced_policy(env: UserEnv):
    """Aim for the average per-slot harvest, bounded by cap and availability.

    The target is the pre-wastage mean of the harvest.  Shortfalls are not
    carried forward; battery overflow is wasted where it occurs.
    """
    tau = float(env.harvest.sum()) / env.num_slots
    p, d, _ = _clip(env.harvest.tolist(), env.battery_max, env.power_max, [tau] * env.num_slots)
    return np.array(p), np.array(d)


def staircase_wf(env: UserEnv):
    """Water-filling under energy causality alone, battery and cap unbounded.

    Runs the segment search with both limits at infinity, so only
    depletion points partition the horizon and the water levels step
    upward over time.  Returns p.
    """
    # no cap and no capacity: nothing overflows, the budget is the raw harvest;
    # env is checked, so the problem is solved unchecked, as the sweeps do
    p, _, _ = _ReducedProblem(cumulative_harvest(env.harvest), np.inf, np.inf).solve(env.gain)
    return np.array(p)


def modified_staircase(env: UserEnv):
    """Staircase allocation clipped to the cap and to the banked energy.

    The unconstrained staircase schedule is cut down slot by slot to what
    the cap and the battery actually allow; energy the clipped schedule
    leaves overflowing the battery is wasted on the spot.
    """
    stair = staircase_wf(env).tolist()
    p, d, _ = _clip(env.harvest.tolist(), env.battery_max, env.power_max, stair)
    return np.array(p), np.array(d)


def iterative_modified_staircase(scenario: Scenario, max_iter: int = 50) -> MacSolution:
    """Round-robin sweeps where each response is the modified staircase.

    Each user's staircase problem (its budget, the running total of its
    harvest, with no cap and no battery limit) is prepared once per solve,
    and each sweep solves it for the new gains, warm-started from its
    depletion points in the previous sweep, as solve_mac does.  The
    staircase comes back as a list, and is clipped against the user's
    harvest list, also built once per solve.  Its fixed point is not
    optimal, so the sweeps stop once the sum rate changes by at most 1e-5
    nats, or after max_iter.  The solution's d is the wastage of each
    user's last clipped response.
    """
    harvests = scenario.harvest.tolist()
    bmax, cap = scenario.battery_max.tolist(), scenario.power_max.tolist()
    stairs = [_ReducedProblem(budget, np.inf, np.inf)
              for budget in cumulative_harvest(scenario.harvest)]

    def respond(n, gains):
        stair, _, _ = stairs[n].solve(gains)
        p_n, d_n, _ = _clip(harvests[n], bmax[n], cap[n], stair)
        return p_n, d_n

    return iterate_best_response(
        scenario, respond, lambda p, rate_gain, received: abs(rate_gain) <= 1e-5,
        max_iter)


_POLICIES = {
    "greedy": greedy_policy,
    "balanced": balanced_policy,
    "staircase": modified_staircase,
}


def non_iterative_multiuser(policy: str, scenario: Scenario) -> np.ndarray:
    """Apply a single-user policy to every user on its raw gains.

    Users do not react to each other; the stacked schedule is what each
    would transmit alone.  policy is one of "greedy", "balanced",
    "staircase" (the capped staircase).
    """
    try:
        fn = _POLICIES[policy]
    except KeyError:
        raise ValueError(f"unknown policy {policy!r}; "
                         f"expected one of {sorted(_POLICIES)}") from None
    p = np.zeros_like(scenario.harvest)
    for n in range(scenario.num_users):
        p[n], _ = fn(scenario.user(n))
    return p

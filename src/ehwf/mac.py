"""Multi-user solver: best-response sweeps on effective gains.

Contents
--------
effective_gain            a user's gain discounted by the others' interference
iterate_best_response     generic round-robin sweep loop with a stop rule
solve_mac                 the full multi-user solver
first_iteration_gap_bound worst-case nats between sweep 1 and the optimum
MacSolution               schedules, trace, and convergence diagnostics

Each user's subproblem against the others' fixed schedules is exactly the
single-user problem with the gain replaced by the effective gain, so one
sweep is N single-user solves, fed those gains with no UserEnv built.
The sweeps take the gains from effective_gain's arithmetic,
_effective_gain, and check nothing: the schedule is their own, of the
scenario's shape from the start, and the users are 0 .. N-1.
The received power sum_n p[n] * gain[n] lives in the sweep loop: it
holds the rows p[n] * gain[n] in one array, rewrites row n after each
response and every row after step moves p.  Each response's
interference, the sweep's rate, and solve_mac's pricing (the gap's
gradient and the line search's power) all read those rows or their
column sum, never p * gain again.
Only the gains change between sweeps: solve_mac prepares each user's
reduced problem (single_user._ReducedProblem, the form solve_reduced
solves once) a single time, on the budget _greedy_pass reads off the
checked scenario's rows, and each solve hands back its schedule as a list.
The sum rate never decreases across a best response, and at a fixed
point the joint schedule is globally optimal; solve_mac prices the
duality gap of every sweep's schedule, the one
verify.first_order_certificate reports, and stops at the first within
tol nats of the optimum.
Round-robin sweeps zig-zag where users share slots, so between sweeps
solve_mac line-searches the sum rate along the step from one sweep's
result to the next (_line_search).  The trace holds best-response
rates, and p is always a full sweep's.

Later sweeps mostly only polish the rate: a user's segment boundaries
settle long before its levels do.  So each user's prepared problem
refills the boundary list of its previous answer once and keeps it only
when it passes a strict KKT check; the outputs are those of a cold
solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import Scenario, _is_index, _is_integer
# solve_reduced is imported only to keep the name ehwf.mac.solve_reduced,
# which the benchmark's self-test wraps to check the tracer
from .single_user import _ReducedProblem, _greedy_pass, solve_reduced
from .verify import GAP_TOL_PER_SLOT, _capped_gap, _user_polytopes

__all__ = [
    "MacSolution",
    "effective_gain",
    "iterate_best_response",
    "solve_mac",
    "first_iteration_gap_bound",
]

# Sweeps to the default tol on 27,300 five-user, 20-slot instances: mean
# 5.96, p99 14, the slowest 28 (2,005 without the line search).
MAX_ITER = 5000


@dataclass(frozen=True)
class MacSolution:
    """Multi-user result: schedules plus the per-sweep objective trace.

    iterations counts completed sweeps (the trace length); trace and p
    are the sweeps' own, before any line search.  converged is whether
    the stop test passed within the sweep budget.  gap is solve_mac's
    duality gap of p (None for the staircase iteration).
    user_boundaries / user_gains hold each user's segment boundary list
    and the effective gains from its last update, for certificate
    checking; they are None for solvers that do not produce them.
    """

    p: np.ndarray
    d: np.ndarray
    trace: np.ndarray
    iterations: int
    converged: bool
    gap: float | None = None
    user_boundaries: list | None = None
    user_gains: np.ndarray | None = None


def effective_gain(scenario: Scenario, p, n: int):
    """User n's gain per slot, discounted by the other users' interference.

    p must have the scenario's (N, K) shape and n be an integer (a Python
    or numpy one, not a bool) in 0 .. N-1; anything else raises ValueError.
    """
    p = np.asarray(p, dtype=float)
    if p.shape != scenario.gain.shape or not _is_index(n, scenario.num_users):
        raise ValueError(f"need p of shape {scenario.gain.shape} and a user in "
                         f"0..{scenario.num_users - 1}, got {p.shape} and {n!r}")
    return _effective_gain(scenario.gain, p * scenario.gain, n)


def _effective_gain(gain, rows, n):
    # effective_gain unchecked, on the rows p[m] * gain[m] of every user m,
    # for the sweeps' own p and users; np.add.reduce is np.sum's own
    # reduction, without its dispatch
    return gain[n] / (1.0 + (np.add.reduce(rows, axis=0) - rows[n]))


def _rate(received) -> float:
    # sum_rate of a schedule whose received power per slot is given
    return float(np.add.reduce(np.log1p(received)))


def iterate_best_response(scenario: Scenario, responder, stop,
                          max_iter: int, step=None) -> MacSolution:
    """Round-robin sweeps of a per-user responder until stop says so.

    responder(n, gains) takes a user and its effective gains against the
    current schedule and returns that user's new (p_n, d_n) slot vectors,
    arrays or lists;
    the solution's d holds each user's wastage from its last response.
    Sweeps run in user-index order, at most max_iter, an integer (not a
    bool) of at least 1; anything else raises ValueError.  The loop ends
    when stop(p, rate_gain, received) returns True (converged) or after
    max_iter sweeps.  stop gets the sweep's schedule, its rate_gain (its
    best-response rate less the previous sweep's; on sweep 1, less the
    all-zero schedule's 0) and its received power per slot, sum_n
    p[n] * gain[n] as np.sum(p * gain, axis=0) computes it.
    step(p_prev, p, rate, received), if given, runs between sweeps (never
    after the last) on the last two sweeps' results, the latter's rate
    and received power, and may move p in place.  The gains skip
    effective_gain's checks: p and the users are the loop's own.
    """
    if not (_is_integer(max_iter) and max_iter >= 1):
        raise ValueError(f"max_iter must be an integer of at least 1, got {max_iter!r}")
    p = np.zeros_like(scenario.harvest)
    gain = scenario.gain
    rows = np.zeros_like(p)         # p[n] * gain[n], kept row by row
    # each user's rows of p, gain and rows, as views made once
    users = [(n, p[n], gain[n], rows[n]) for n in range(scenario.num_users)]
    d = np.zeros_like(scenario.harvest)
    swept = np.zeros_like(scenario.harvest)
    trace = []
    v_prev = 0.0
    converged = False
    for sweep in range(max_iter):
        for n, p_n, gain_n, rows_n in users:
            p[n], d[n] = responder(n, _effective_gain(gain, rows, n))
            np.multiply(p_n, gain_n, out=rows_n)
        received = np.add.reduce(rows, axis=0)
        v = _rate(received)
        trace.append(v)
        if stop(p, v - v_prev, received):
            converged = True
            break
        if step is not None and sweep + 1 < max_iter:
            prev, swept = swept, p.copy()       # p copied before it moves
            step(prev, p, v, received)
            np.multiply(p, gain, out=rows)
        v_prev = v

    return MacSolution(p=p, d=d, trace=np.asarray(trace),
                       iterations=len(trace), converged=converged)


def solve_mac(scenario: Scenario, tol: float | None = None,
              max_iter: int = MAX_ITER) -> MacSolution:
    """Maximum-sum-rate schedule for all users via best-response sweeps.

    Per-user wastage is fixed once up front (it does not depend on the
    others), then each sweep re-solves every user's prepared problem
    against the latest schedules, warm-started from that user's
    boundaries in the previous sweep.  The duality gap of each sweep's p is
    priced as it ends, and sweeps stop at the first whose gap is at most
    tol nats (default GAP_TOL_PER_SLOT per slot) or after max_iter;
    converged is gap <= tol.  The guesses survive _line_search's moves,
    as the KKT check keeps them safe.  The solution carries each
    user's segment boundaries and effective gains from its final update.
    """
    if tol is None:
        tol = GAP_TOL_PER_SLOT * scenario.num_slots
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    bmax, cap = scenario.battery_max.tolist(), scenario.power_max.tolist()
    runs = [_greedy_pass(h, bmax[n], cap[n]) for n, h in enumerate(scenario.harvest.tolist())]
    d = np.array([run[0] for run in runs])
    e_tilde = np.array([run[3] for run in runs])
    users = [_ReducedProblem(run[3], bmax[n], cap[n]) for n, run in enumerate(runs)]
    polytopes = _user_polytopes(scenario)
    snap_gains = np.array(scenario.gain, dtype=float, copy=True)

    def respond(n, gains):
        p_n, _, _ = users[n].solve(gains)
        snap_gains[n] = gains
        return p_n, d[n]

    gaps = []

    def stop(p, rate_gain, received):
        gaps.append(_capped_gap(scenario.gain, polytopes, p, received, tol))
        return gaps[-1] <= tol

    sol = iterate_best_response(scenario, respond, stop, max_iter,
                                lambda *args: _line_search(scenario, e_tilde, *args))
    gap = gaps[-1] if sol.converged else _capped_gap(
        scenario.gain, polytopes, sol.p, np.sum(sol.p * scenario.gain, axis=0), math.inf)
    return replace(sol, converged=gap <= tol, gap=gap,
                   user_boundaries=[user.boundaries for user in users],
                   user_gains=snap_gains)


def _line_search(scenario: Scenario, e_tilde, p_prev, p, rate, received) -> None:
    """Move p in place to the best rate on the ray p + a * (p - p_prev).

    received is p's received power per slot, the sweep loop's.
    p_prev and p are consecutive sweeps' results, so the step carries the
    last move too and grows along a valley.  a >= 0 keeps every user in its
    fixed-wastage tube, 0 <= p <= P and e_tilde - B <= cumsum(p) <= e_tilde;
    the rate is concave in a, and Newton's method, kept in a bracket by
    bisection, finds its peak.  p moves only if that beats rate, p's own.
    """
    step = p - p_prev
    drawn, moved = np.cumsum(p, axis=1), np.cumsum(step, axis=1)
    speed = np.stack((step, -step, moved, -moved))
    slack = np.stack((scenario.power_max[:, None] - p, p, e_tilde - drawn,
                      drawn - e_tilde + scenario.battery_max[:, None]))
    # a bound both sweeps sit on moves by rounding only: a margin of 2**-40
    # of each user's budget keeps that noise from blocking the step
    slack = np.maximum(slack + 2.0 ** -40 * e_tilde[:, -1:], 0.0)
    ahead = speed > 0.0
    with np.errstate(over="ignore"):        # a bound past float range is inf
        a_max = float((slack[ahead] / speed[ahead]).min(initial=np.inf))
    power = 1.0 + received
    delta = np.sum(step * scenario.gain, axis=0)
    if not (0.0 < a_max < np.inf and float(np.sum(delta / power)) > 0.0):
        return
    lo, hi, a = 0.0, a_max, a_max       # from a_max, where the peak may sit
    for _ in range(50):
        # the rate's slope along the ray, and its curvature (negated)
        ratio = delta / (power + a * delta)
        g, curve = float(ratio.sum()), float(ratio @ ratio)
        lo, hi = (a, hi) if g >= 0.0 else (lo, a)
        newton = a + g / curve if curve > 0.0 else hi
        last, a = a, newton if lo <= newton <= hi else 0.5 * (lo + hi)
        if abs(a - last) <= 1e-12 * a:
            break
    stepped = p + a * step
    if _rate(np.add.reduce(stepped * scenario.gain, axis=0)) > rate:
        p[...] = stepped


def first_iteration_gap_bound(n_users: int, n_slots: int) -> float:
    """Worst-case nats between the first sweep's rate and the optimum.

    n_users and n_slots must be integers (not bools) of at least 1;
    anything else raises ValueError.
    """
    if not (_is_integer(n_users) and _is_integer(n_slots) and n_users >= 1 and n_slots >= 1):
        raise ValueError(f"need integer counts of at least one user and one slot, "
                         f"got {n_users!r} and {n_slots!r}")
    return (n_users - 1) * n_slots / 2.0

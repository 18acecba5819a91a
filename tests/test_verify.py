import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy.optimize import linprog

from ehwf.model import Scenario, UserEnv, check_feasible, sum_rate
from ehwf.single_user import optimal_wastage, solve_single
from ehwf.verify import (ReducedPolytope, first_order_certificate,
                         induced_wastage, kkt_certificate, reduce_polytope)

import _oracles
from _oracles import brute_force_tiny, wastage_minimality_check
from conftest import user_envs


def env_of(harvest, gain=None, bmax=100.0, pmax=100.0):
    harvest = np.asarray(harvest, dtype=float)
    if gain is None:
        gain = np.ones_like(harvest)
    return UserEnv(harvest=harvest, gain=np.asarray(gain, dtype=float),
                   battery_max=bmax, power_max=pmax)


# ---- reduced polytope ----------------------------------------------------------

def test_reduce_polytope_window_constraints():
    poly = reduce_polytope(env_of([10, 2], bmax=3.0, pmax=6.0))
    # causality: p1 <= 10; tail window: p2 <= 2 + 3 (carry at most one battery)
    assert poly.contains([6.0, 4.0])
    assert not poly.contains([0.0, 5.5])     # p2 window, strictly inside the box
    assert poly.violation([0.0, 5.5]) == pytest.approx(0.5)
    assert not poly.contains([6.5, 0.0])     # box


def test_reduce_polytope_infinite_battery():
    poly = reduce_polytope(env_of([1, 0], bmax=math.inf, pmax=math.inf))
    assert poly.contains([0.0, 1.0])         # banked arbitrarily long
    assert not poly.contains([1.1, 0.0])     # causality still binds


def test_reduce_polytope_single_slot():
    poly = reduce_polytope(env_of([3.0], pmax=2.0))
    assert poly.contains([2.0])
    assert not poly.contains([2.5])
    assert not poly.contains([-0.1])


@given(user_envs(max_slots=8, allow_inf_caps=False), st.data())
def test_polytope_membership_matches_constructive_wastage(env, data):
    # membership in the reduced set == some wastage schedule makes p feasible;
    # draws within float tolerance of the boundary prove nothing, skip them
    k = env.num_slots
    p = np.array(data.draw(st.lists(
        st.floats(min_value=0.0, max_value=20.0), min_size=k, max_size=k)))
    p = np.minimum(p, env.power_max)
    v = reduce_polytope(env).violation(p)
    assume(v == 0.0 or v > 1e-6)
    got = induced_wastage(env, p)
    if v == 0.0:
        assert got is not None
        report = check_feasible(Scenario.single_user(env), p[None, :],
                                np.array(got)[None, :])
        assert report.ok
    else:
        assert got is None
        assert _oracles.overflow_wastage_loop(
            env.harvest, env.battery_max, p) is None


def test_feasibility_tolerance_is_relative_to_the_harvest():
    # 5e-10 more than harvested is 1e-4 of a slot's energy at this scale:
    # every predicate rejects it, though it is below FEAS_TOL in absolute terms
    s = 1e-6
    env = env_of(np.array([5.0, 6.0, 4.0]) * s, gain=np.array([1.0, 2.0, 0.5]) / s,
                 bmax=20.0 * s, pmax=15.0 * s)
    p = env.harvest.copy()
    p[1] += 5e-10
    assert not reduce_polytope(env).contains(p)
    assert induced_wastage(env, p) is None
    report = check_feasible(Scenario.single_user(env), p[None, :], np.zeros((1, 3)))
    assert not report.ok
    assert {v[2] for v in report.violations} == {"battery-negative"}
    assert not kkt_certificate(env, p, [(0, "BDP"), (3, "BDP")]).conditions["feasible"][0]
    with pytest.raises(ValueError, match="infeasible"):
        first_order_certificate(Scenario.single_user(env), p[None, :])
    # the harvest itself, spent as it comes, is a member
    assert reduce_polytope(env).contains(env.harvest)


# ---- per-user certificate ----------------------------------------------------

def test_kkt_certificate_accepts_solver_output():
    env = env_of([1, 3])
    p, _, x, _ = solve_single(env)
    cert = kkt_certificate(env, p, x)
    assert cert.passed
    assert all(ok for ok, _ in cert.conditions.values())
    assert set(cert.conditions) == {"feasible", "duality-gap"}


def test_kkt_certificate_rejects_causality_violation():
    env = env_of([1, 3])
    cert = kkt_certificate(env, [2.0, 2.0], [(0, "BDP"), (2, "BDP")])
    assert not cert.passed
    ok, resid = cert.conditions["feasible"]
    assert not ok and resid == pytest.approx(1.0)


def test_kkt_certificate_rejects_level_drop_inside_slack_battery():
    # the battery sits at 1 after slot 1 (neither empty nor full), yet the
    # level would have to fall across it
    env = env_of([4, 0], bmax=50.0, pmax=50.0)
    cert = kkt_certificate(env, [3.0, 1.0], [(0, "BDP"), (1, "BDP"), (2, "BDP")])
    assert not cert.passed
    ok, gap = cert.conditions["duality-gap"]
    assert not ok and gap == pytest.approx(0.75)


def test_kkt_certificate_rejects_malformed_boundaries():
    env = env_of([1, 1])
    with pytest.raises(ValueError):
        kkt_certificate(env, [1.0, 1.0], [])
    with pytest.raises(ValueError):
        kkt_certificate(env, [1.0, 1.0], [(0, "BDP"), (2, "XXX")])
    with pytest.raises(ValueError):
        kkt_certificate(env, [1.0, 1.0], [(0, "BDP"), (1, "BDP")])


def test_kkt_certificate_rejects_suboptimal_schedule_in_huge_battery():
    # 0.0516 nats below the optimum; with B = 1e9 a battery tolerance
    # scaled by B (FEAS_TOL * B, one unit of energy) would call it empty
    env = env_of([0.0, 3.3197667629756413, 4.537572101969677],
                 gain=[0.8535866353982413, 2.399622378861894, 0.6997365470026274],
                 bmax=1e9, pmax=8.0)
    _, _, x, _ = solve_single(env)
    cert = kkt_certificate(env, [0.0, 3.2497013821762546, 4.345726187270887], x)
    assert not cert.passed
    assert cert.conditions["feasible"][0]
    ok, gap = cert.conditions["duality-gap"]
    assert not ok and gap > 0.05


def _user_rate(env, p):
    return float(np.log1p(env.gain * p).sum())


@given(user_envs(), st.floats(min_value=0.1, max_value=1e9),
       st.sampled_from(["greedy", "vertex"]),
       st.floats(min_value=0.0, max_value=1.0), st.data())
def test_kkt_certificate_pass_bounds_the_shortfall(env, bmax, toward, t, data):
    # p' on the segment from the optimum to another feasible schedule: a
    # pass means p' is within the certificate's tolerance of the optimum
    env = UserEnv(env.harvest, env.gain, bmax, env.power_max)
    p_star, _, x, _ = solve_single(env)
    if toward == "greedy":
        q = optimal_wastage(env)[1]
    else:
        k = env.num_slots
        c = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=k, max_size=k)))
        q = reduce_polytope(env).max_linear(c)
    p = p_star + t * (q - p_star)
    if kkt_certificate(env, p, x).passed:
        shortfall = _user_rate(env, p_star) - _user_rate(env, p)
        assert shortfall <= 1e-6 * env.num_slots + 1e-12


def test_non_finite_schedules_are_infeasible():
    env = env_of([1, 3], bmax=10.0, pmax=10.0)
    _, _, x, _ = solve_single(env)
    nan_p = [math.nan, 3.0]
    assert reduce_polytope(env).violation(nan_p) == math.inf
    assert not reduce_polytope(env).contains(nan_p)
    cert = kkt_certificate(env, nan_p, x)
    assert not cert.passed and not cert.conditions["feasible"][0]
    with pytest.raises(ValueError, match="schedule of user 0 is infeasible"):
        first_order_certificate(Scenario.single_user(env), np.array([nan_p]))
    assert induced_wastage(env, nan_p) is None
    assert induced_wastage(env, [math.inf, 0.0]) is None


def test_wrong_length_schedules_raise():
    env = env_of([1, 3], bmax=10.0, pmax=10.0)
    _, _, x, _ = solve_single(env)
    for p in ([1.0], [1.0, 1.0, 1.0]):
        with pytest.raises(ValueError, match=r"expected \(2,\)"):
            kkt_certificate(env, p, x)
        with pytest.raises(ValueError, match=r"expected \(2,\)"):
            reduce_polytope(env).violation(p)
        with pytest.raises(ValueError, match=r"expected \(2,\)"):
            induced_wastage(env, p)
        with pytest.raises(ValueError, match=r"expected \(1, 2\)"):
            first_order_certificate(Scenario.single_user(env), np.array([p]))


# ---- exact linear maximiser and duality gap ------------------------------------

def _lp_max(poly, c):
    # max c.q over the reduced polytope, written out row by row for HiGHS
    k = c.size
    lower = np.tril(np.ones((k, k)))
    rows, rhs = list(lower), list(poly.cum_energy)
    if math.isfinite(poly.battery_max):
        for j in range(k):
            for m in range(j + 1, k):
                rows.append(lower[m] - lower[j])
                rhs.append(poly.cum_energy[m] - poly.cum_energy[j] + poly.battery_max)
    cap = poly.power_max if math.isfinite(poly.power_max) else None
    res = linprog(-c, A_ub=np.array(rows), b_ub=np.array(rhs),
                  bounds=[(0.0, cap)] * k, method="highs")
    assert res.status == 0
    return -res.fun


def test_max_linear_matches_linprog():
    rng = np.random.default_rng(21)
    for i in range(300):
        k = int(rng.integers(1, 25))
        harvest = rng.uniform(0.0, 10.0, k) * (rng.random(k) > 0.2)
        if i % 10 == 0:
            harvest[:] = 0.0
        c = rng.exponential(1.0, k) * (rng.random(k) > 0.2)
        c[rng.random(k) < 0.1] *= -1.0
        poly = ReducedPolytope(np.cumsum(harvest), (0.0, 0.5, 5.0, 20.0, math.inf)[i % 5],
                               (1.0, 3.0, 15.0, math.inf)[(i // 5) % 4])
        q = poly.max_linear(c)
        assert poly.contains(q)
        want = _lp_max(poly, c)
        assert abs(float(c @ q) - want) <= 1e-9 * max(1.0, abs(want))


@pytest.mark.parametrize("c", [[1.0], [1.0, 2.0, 3.0, 4.0], [[1.0, 2.0, 3.0]],
                               [1.0, math.nan, 2.0], [1.0, math.inf, 2.0],
                               [-math.inf, 1.0, 2.0]])
def test_max_linear_rejects_bad_coefficients(c):
    # a short c used to give a short q, and a NaN entry an all-zero one
    poly = ReducedPolytope(np.cumsum([1.0, 2.0, 3.0]), 5.0, 5.0)
    with pytest.raises(ValueError, match="schedule has shape|finite coefficients"):
        poly.max_linear(c)


def _forward_schedule(env, rng):
    # spend a random fraction of what the cap and the bank allow, often all
    # or nothing; overflow is wasted, so the schedule is feasible
    p = np.zeros(env.num_slots)
    level = 0.0
    for k in range(env.num_slots):
        avail = level + env.harvest[k]
        u = rng.random()
        frac = 0.0 if u < 0.25 else 1.0 if u > 0.75 else rng.random()
        p[k] = frac * min(env.power_max, avail)
        level = min(avail - p[k], env.battery_max)
    return p


def test_duality_gap_bounds_grid_suboptimality():
    rng = np.random.default_rng(22)
    for i in range(24):
        n, k = ((1, 2), (1, 3), (2, 1), (2, 2))[i % 4]
        sc = Scenario(harvest=rng.uniform(0.0, 6.0, (n, k)),
                      gain=rng.exponential(1.0, (n, k)),
                      battery_max=np.full(n, (0.5, 2.0, 20.0)[i % 3]),
                      power_max=np.full(n, (1.0, 4.0)[(i // 3) % 2]))
        _, v_grid = brute_force_tiny(sc)
        for _ in range(5):
            p = np.stack([_forward_schedule(sc.user(m), rng) for m in range(n)])
            assert first_order_certificate(sc, p)[1] >= v_grid - sum_rate(sc, p) - 1e-9


# ---- first-order certificate ----------------------------------------------------

def test_first_order_accepts_solver_output():
    env = env_of([3, 0, 0], bmax=5.0, pmax=10.0)
    p, _, _, _ = solve_single(env)
    ok, gap = first_order_certificate(Scenario.single_user(env), p[None, :])
    assert ok
    assert gap <= 1e-6 * 3


def test_first_order_finds_greedy_improvement():
    # greedy dumps everything on the weak slot; moving mass to the strong
    # slot is an improving feasible direction
    env = env_of([5, 0], gain=[0.1, 10.0], bmax=100.0, pmax=100.0)
    p_greedy = optimal_wastage(env)[1]
    ok, gap = first_order_certificate(Scenario.single_user(env),
                                      p_greedy[None, :])
    assert not ok
    assert gap > 1.0


def test_first_order_zero_harvest_vacuous():
    sc = Scenario(harvest=np.zeros((1, 3)), gain=np.ones((1, 3)),
                  battery_max=np.array([5.0]), power_max=np.array([5.0]))
    ok, gap = first_order_certificate(sc, np.zeros((1, 3)))
    assert ok
    assert gap <= 0.0 + 1e-12


def test_first_order_rejects_infeasible_input():
    sc = Scenario(harvest=np.ones((1, 2)), gain=np.ones((1, 2)),
                  battery_max=np.array([5.0]), power_max=np.array([5.0]))
    with pytest.raises(ValueError):
        first_order_certificate(sc, np.array([[3.0, 0.0]]))


# ---- grid oracle ----------------------------------------------------------------

def test_brute_force_single_slot_exact():
    sc = Scenario(harvest=np.array([[7.0]]), gain=np.array([[2.0]]),
                  battery_max=np.array([5.0]), power_max=np.array([4.0]))
    p, v = brute_force_tiny(sc)
    assert p[0, 0] == pytest.approx(4.0, abs=1e-6)
    assert v == pytest.approx(math.log(9), abs=1e-6)


def test_brute_force_symmetric_split():
    sc = Scenario(harvest=np.array([[3.0, 0.0]]), gain=np.ones((1, 2)),
                  battery_max=np.array([50.0]), power_max=np.array([50.0]))
    p, _ = brute_force_tiny(sc)
    assert np.allclose(p, [[1.5, 1.5]], atol=1e-5)


def test_brute_force_size_limit():
    sc = Scenario(harvest=np.ones((2, 4)), gain=np.ones((2, 4)),
                  battery_max=np.ones(2), power_max=np.ones(2))
    with pytest.raises(ValueError):
        brute_force_tiny(sc)


# ---- wastage minimality -----------------------------------------------------------

def test_wastage_minimality_check_cases():
    env = env_of([10, 2], bmax=3.0, pmax=4.0)
    d_star, p_greedy, battery = optimal_wastage(env)

    assert wastage_minimality_check(env, [(p_greedy, d_star)])

    # waste a bit more somewhere it is banked, spend less: still >= total
    d_extra = d_star.copy()
    d_extra[1] += 1.0
    p_less = p_greedy.copy()
    p_less[1] -= 1.0
    report = check_feasible(Scenario.single_user(env), p_less[None, :],
                            d_extra[None, :])
    assert report.ok
    assert wastage_minimality_check(env, [(p_less, d_extra)])

    # a pair wasting less than the minimum must be flagged
    d_under = d_star.copy()
    d_under[0] -= 1.0
    assert not wastage_minimality_check(env, [(p_greedy, d_under)])


# ---- gradient cross-check ----------------------------------------------------------

def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(1, 5))
        gain = rng.exponential(1.0, (n, k))
        p = rng.uniform(0.0, 5.0, (n, k))
        sc = Scenario(harvest=np.full((n, k), 1e3), gain=gain,
                      battery_max=np.full(n, 1e3), power_max=np.full(n, 1e3))
        grad = gain / (1.0 + np.sum(p * gain, axis=0))
        h = 1e-6
        for _ in range(3):
            i, j = int(rng.integers(n)), int(rng.integers(k))
            hi, lo = p.copy(), p.copy()
            hi[i, j] += h
            lo[i, j] -= h
            fd = (sum_rate(sc, hi) - sum_rate(sc, lo)) / (2 * h)
            assert fd == pytest.approx(grad[i, j], rel=1e-5)

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from ehwf.mac import solve_mac
from ehwf.model import Scenario, UserEnv, check_feasible, sum_rate
from ehwf.single_user import optimal_wastage, solve_single
from ehwf.verify import (GAP_TOL_PER_SLOT, ReducedPolytope, first_order_certificate,
                         induced_wastage, kkt_certificate, reduce_polytope)

import _oracles
from _oracles import brute_force_tiny, max_linear_reference, wastage_minimality_check
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


@pytest.mark.parametrize("p", [[-0.5, 0.5], [-0.6, 0.5]])
def test_kkt_certificate_fails_a_schedule_outside_the_gradients_domain(p):
    # 1 + g p <= 0 in slot 0, where ln(1 + g p) has no gradient: the gap is
    # infinite, where it used to raise (an infinite gradient) or pass (a
    # negative one, a gap of -5.5), and no numpy warning escapes
    env = env_of([1.0, 1.0], gain=[2.0, 2.0], bmax=1.0, pmax=1.0)
    _, _, x, _ = solve_single(env)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cert = kkt_certificate(env, p, x)
    assert not cert.passed
    assert cert.conditions["duality-gap"] == (False, math.inf)


def test_certificates_fail_a_member_outside_the_gradients_domain():
    # -5e-10 is within the feasibility tolerance, yet 1 + g p = -4 there
    env = env_of([1.0, 1.0], gain=[1e10, 1.0], bmax=1.0, pmax=1.0)
    _, _, x, _ = solve_single(env)
    p = [-5e-10, 1.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cert = kkt_certificate(env, p, x)
        assert first_order_certificate(Scenario.single_user(env), [p]) == (False, math.inf)
    assert cert.conditions == {"feasible": (True, 5e-10), "duality-gap": (False, math.inf)}
    assert not cert.passed


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
    # a scalar used to broadcast, and a column to raise TypeError
    for p in (0.5, [[1.0], [1.0]]):
        with pytest.raises(ValueError, match=r"expected \(2,\)"):
            reduce_polytope(env).violation(p)
        with pytest.raises(ValueError, match=r"expected \(2,\)"):
            reduce_polytope(env).contains(p)


@pytest.mark.parametrize("cum, bmax, pmax, field", [
    ([1.0, math.nan], 1.0, 1.0, "cum_energy"),
    ([1.0, math.inf], 1.0, 1.0, "cum_energy"),
    ([-1.0, 2.0], 1.0, 1.0, "cum_energy"),
    ([2.0, 1.0], 1.0, 1.0, "cum_energy"),
    ([], 1.0, 1.0, "cum_energy"),
    ([[1.0, 2.0]], 1.0, 1.0, "cum_energy"),
    (2.0, 1.0, 1.0, "cum_energy"),
    ([1.0, 2.0], math.nan, 1.0, "battery_max"),
    ([1.0, 2.0], -1.0, 1.0, "battery_max"),
    ([1.0, 2.0], -math.inf, 1.0, "battery_max"),
    ([1.0, 2.0], [1.0], 1.0, "battery_max"),
    ([1.0, 2.0], 1.0, math.nan, "power_max"),
    ([1.0, 2.0], 1.0, -0.5, "power_max"),
    # a string used to raise numpy's own message, which names no field
    ([1.0, 2.0], 1.0, "x", "power_max"),
    (["x", 2.0], 1.0, 1.0, "cum_energy"),
])
def test_reduced_polytope_rejects_bad_data(cum, bmax, pmax, field):
    # a NaN battery used to admit zeros, and a list cum_energy to raise
    # AttributeError later
    with pytest.raises(ValueError, match=field):
        ReducedPolytope(cum, bmax, pmax)


def test_reduced_polytope_keeps_a_read_only_copy():
    cum = np.array([1.0, 3.0, 3.0])
    poly = ReducedPolytope(cum, np.float64(2.0), 0)
    assert cum.flags.writeable
    assert not poly.cum_energy.flags.writeable
    assert poly.cum_energy.tolist() == [1.0, 3.0, 3.0]
    assert type(poly.battery_max) is float and type(poly.power_max) is float
    listed = ReducedPolytope([1, 3, 3], 2.0, math.inf)
    assert listed.cum_energy.dtype == float
    # only B = 2 crosses into slot 2
    assert listed.max_linear([1.0, 2.0, 3.0]).tolist() == [0.0, 1.0, 2.0]


def test_internal_polytopes_are_the_checked_ones(monkeypatch):
    # reduce_polytope and the scenario's polytopes build from checked data
    # and skip the checks, yet equal the checked build field for field
    built = []
    original = ReducedPolytope.__post_init__
    monkeypatch.setattr(ReducedPolytope, "__post_init__",
                        lambda self: built.append(self) or original(self))
    sc = Scenario(harvest=np.array([[1.0, 0.0, 2.5], [3.0, 1.0, 0.0]]),
                  gain=np.ones((2, 3)), battery_max=np.array([2.0, math.inf]),
                  power_max=np.array([math.inf, 1.5]))
    sol = solve_mac(sc)
    first_order_certificate(sc, sol.p)
    kkt_certificate(sc.user(0), sol.p[0], sol.user_boundaries[0])
    polys = [reduce_polytope(sc.user(n)) for n in range(2)]
    assert built == []
    c = np.array([0.5, 2.0, 1.0])
    for n, poly in enumerate(polys):
        checked = ReducedPolytope(np.cumsum(sc.harvest[n]), sc.battery_max[n], sc.power_max[n])
        assert poly.cum_energy.tobytes() == checked.cum_energy.tobytes()
        assert not poly.cum_energy.flags.writeable
        assert (poly.battery_max, poly.power_max) == (checked.battery_max, checked.power_max)
        assert type(poly.battery_max) is float and type(poly.power_max) is float
        assert poly.max_linear(c).tobytes() == checked.max_linear(c).tobytes()
        assert poly.violation(sol.p[n]) == checked.violation(sol.p[n])
    assert len(built) == 2


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
        k = int(rng.integers(1, 61))
        harvest = rng.uniform(0.0, 10.0, k) * (rng.random(k) > 0.2)
        if i % 10 == 0:
            harvest[:] = 0.0
        c = rng.exponential(1.0, k) * (rng.random(k) > 0.2)
        c[rng.random(k) < 0.1] *= -1.0
        poly = ReducedPolytope(np.cumsum(harvest), (0.0, 0.5, 5.0, 20.0, math.inf)[i % 5],
                               (0.0, 1.0, 3.0, 15.0, math.inf)[(i // 5) % 5])
        q = poly.max_linear(c)
        assert poly.contains(q)
        want = _lp_max(poly, c)
        assert abs(float(c @ q) - want) <= 1e-9 * max(1.0, abs(want))


@pytest.mark.parametrize("harvest, bmax, pmax, c, want", [
    # no battery: each slot spends at most its own harvest, up to the cap
    ([3.0, 1.0, 2.0], 0.0, 2.0, [1.0, 5.0, -2.0], [2.0, 1.0, 0.0]),
    # an uncapped slot with a finite battery: only B reaches slot 1
    ([4.0, 0.0, 0.0], 1.0, math.inf, [1.0, 3.0, 2.0], [3.0, 1.0, 0.0]),
    # three uncapped slots behind a battery of 2: the best later slot wins
    ([5.0, 0.0, 0.0, 0.0], 2.0, math.inf, [1.0, 2.0, 4.0, 3.0], [3.0, 0.0, 2.0, 0.0]),
    # an infinite battery and cap: everything goes to the best reachable slot
    ([1.0, 2.0, 0.0], math.inf, math.inf, [3.0, 1.0, 2.0], [1.0, 0.0, 2.0]),
    # nothing harvested, whatever c says
    ([0.0, 0.0, 0.0], 5.0, math.inf, [1.0, 2.0, 3.0], [0.0, 0.0, 0.0]),
    ([0.0, 0.0], math.inf, 4.0, [1.0, 1.0], [0.0, 0.0]),
    # a zero cap or no positive coefficient opens no demand
    ([1.0, 2.0], 5.0, 0.0, [1.0, 2.0], [0.0, 0.0]),
    ([1.0, 2.0], 5.0, 3.0, [0.0, -1.0], [0.0, 0.0]),
])
def test_max_linear_edge_cases(harvest, bmax, pmax, c, want):
    poly = ReducedPolytope(np.cumsum(harvest), bmax, pmax)
    assert poly.max_linear(c).tolist() == want


def test_max_linear_tiny_energies_do_not_raise():
    # near the bottom of the float range the sweep's running total drifts
    # from the sum of its entries; cuts must stop at an empty list
    rng = np.random.default_rng(8)
    for i in range(300):
        k = int(rng.integers(1, 40))
        scale = 10.0 ** rng.uniform(-310.0, -295.0)
        harvest = rng.uniform(0.0, 10.0, k) * scale * (rng.random(k) > 0.3)
        c = rng.uniform(-0.2, 1.0, k)
        c[rng.random(k) < 0.3] = 0.5
        poly = ReducedPolytope(np.cumsum(harvest), (0.0, 0.3 * scale, math.inf)[i % 3],
                               (0.0, 2.0 * scale, math.inf)[(i // 3) % 3])
        q = poly.max_linear(c)
        assert poly.contains(q)
        want = float(c @ max_linear_reference(poly, c))
        assert abs(float(c @ q) - want) <= 1e-12 * max(1.0, abs(want))


_coefficient = st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0]),
                         st.floats(min_value=-1.0, max_value=3.0))
_harvest_entry = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=10.0))


@settings(max_examples=150)
@given(st.integers(min_value=1, max_value=60).flatmap(
           lambda k: st.tuples(st.lists(_harvest_entry, min_size=k, max_size=k),
                               st.lists(_coefficient, min_size=k, max_size=k))),
       st.sampled_from([0.0, 0.5, 5.0, 20.0, math.inf]),
       st.sampled_from([0.0, 1.0, 15.0, math.inf]),
       st.floats(min_value=-6.0, max_value=12.0))
def test_max_linear_matches_the_reference_greedy(rows, bmax, pmax, exponent):
    # the sweep against the O(K^2) greedy it replaced, in any unit of energy
    harvest, c = rows
    scale = 10.0 ** exponent
    poly = ReducedPolytope(np.cumsum(harvest) * scale, bmax * scale, pmax * scale)
    c = np.array(c)
    q = poly.max_linear(c)
    assert poly.contains(q)
    want = float(c @ max_linear_reference(poly, c))
    assert abs(float(c @ q) - want) <= 1e-12 * max(1.0, abs(want))


_any_float = st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0]),
                       st.floats(min_value=-1.0, max_value=3.0), st.floats())
_cap = st.one_of(st.sampled_from([0.0, 0.5, 5.0, math.inf]),
                 st.floats(min_value=0.0, max_value=1e308))


def _bits(x):
    return np.float64(x).tobytes()


@settings(max_examples=300)
@given(st.integers(min_value=1, max_value=30).flatmap(
           lambda k: st.tuples(st.lists(_harvest_entry, min_size=k, max_size=k),
                               st.lists(_any_float, min_size=k, max_size=k))),
       _cap, _cap, st.floats(min_value=-300.0, max_value=290.0))
def test_max_linear_and_violation_match_their_numpy_era_forms(rows, bmax, pmax, exponent):
    # the sweep on [slot, amount] entries against the three-list sweep, and
    # the one-pass violation against the numpy pass, bit for bit: non-finite
    # entries, -0.0, caps of 0 and inf, ties in c, sums overflowing the
    # float range
    harvest, c = rows
    poly = ReducedPolytope(np.cumsum(harvest) * 10.0 ** exponent, bmax, pmax)
    for x in (c, [-v for v in c], [v * 10.0 ** exponent for v in c]):
        assert _bits(poly.violation(x)) == _bits(_oracles.violation_reference(poly, x))
        try:
            want = _oracles.max_linear_sweep_reference(poly, x).tobytes()
        except ValueError:
            with pytest.raises(ValueError, match="finite coefficients"):
                poly.max_linear(x)
        else:
            assert poly.max_linear(x).tobytes() == want


@pytest.mark.parametrize("p, bmax", [
    # a sum overflowing downward leaves NaN windows, which void the window
    # term, here its largest (1e308 against -p's 0.9e308)
    ([-1e307, 1e308, -0.9e308, -0.9e308, -0.9e308, -0.9e308, 0.0], 0.0),
    ([-1.5e308, -1.5e308, 1.0, 1.0], 1.0),
    # and upward: an infinite h is an infinite violation
    ([1e308, 1e308, 0.0], math.inf),
    ([1e308, 1e308, 0.0], 0.0),
    # a window of a finite h less a large negative low overflows past B = inf
    ([-1e308, 1.7e308, 1.7e308], math.inf),
])
def test_violation_matches_its_numpy_era_form_past_float_range(p, bmax):
    poly = ReducedPolytope(np.arange(1.0, len(p) + 1.0), bmax, math.inf)
    assert _bits(poly.violation(p)) == _bits(_oracles.violation_reference(poly, p))


def test_max_linear_matches_the_reference_greedy_at_k800():
    # beyond linprog's reach: two random and two dense users of the long
    # horizon, at the certificate's own gradient
    rng = np.random.default_rng(800)
    for i in range(4):
        if i % 2:
            env = UserEnv(np.sort(rng.uniform(1.0, 4.0, 800)), np.ones(800), 1e9, math.inf)
        else:
            env = UserEnv(rng.uniform(0.0, 10.0, 800), rng.standard_exponential(800),
                          20.0, 15.0)
        p = solve_single(env)[0]
        c = env.gain / (1.0 + env.gain * p)
        poly = reduce_polytope(env)
        q = poly.max_linear(c)
        assert poly.contains(q)
        want = float(c @ max_linear_reference(poly, c))
        assert abs(float(c @ q) - want) <= 1e-12 * max(1.0, abs(want))


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


# ---- exact referee ----------------------------------------------------------------

@st.composite
def mixed_scale_scenarios(draw, max_users, max_slots):
    """Energies at one scale in 1e-12..1e12, gains at one in 1e-8..1e8, mixed caps."""
    n = draw(st.integers(min_value=1, max_value=max_users))
    k = draw(st.integers(min_value=1, max_value=max_slots))
    unit = 10.0 ** draw(st.integers(min_value=-12, max_value=12))
    per_slot = st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=n * k,
                        max_size=n * k)
    harvest = unit * np.array(draw(per_slot)).reshape(n, k)
    gain = 10.0 ** draw(st.integers(min_value=-8, max_value=8)) / unit
    gain = gain * np.array(draw(per_slot)).reshape(n, k)
    bmax = [unit * draw(st.sampled_from([0.0, 0.5, 5.0, 20.0, math.inf])) for _ in range(n)]
    pmax = [unit * draw(st.sampled_from([0.3, 3.0, 15.0, math.inf])) for _ in range(n)]
    return Scenario(harvest, gain, bmax, pmax)


# how far toward the greedy schedule a solved schedule is moved: not at
# all, all the way, or by 1e-12 to 1, which brings gaps near the tolerance
toward_greedy = st.one_of(st.sampled_from([0.0, 1.0]),
                          st.floats(min_value=-12.0, max_value=0.0).map(lambda e: 10.0 ** e))


def assert_verdict_matches_the_exact_gap(passed, scenario, p):
    # a pass bounds the true gap by the tolerance; a true gap well inside
    # it passes
    exact = _oracles.exact_gap(scenario, p)
    tol = GAP_TOL_PER_SLOT * scenario.num_slots
    if passed:
        assert exact <= tol, float(exact)
    if exact <= tol / 2:
        assert passed, float(exact)


@given(mixed_scale_scenarios(max_users=1, max_slots=15), toward_greedy)
@settings(max_examples=300)
def test_kkt_certificate_agrees_with_the_exact_gap(sc, t):
    env = sc.user(0)
    try:
        p_star, _, x, _ = solve_single(env)
    except RuntimeError:
        return          # the open low-SNR defect: no schedule to judge
    p = p_star + t * (optimal_wastage(env)[1] - p_star)
    assert_verdict_matches_the_exact_gap(kkt_certificate(env, p, x).passed, sc, p[None, :])


@given(mixed_scale_scenarios(max_users=3, max_slots=15), toward_greedy)
@settings(max_examples=100)
def test_first_order_certificate_agrees_with_the_exact_gap(sc, t):
    try:
        p_star = solve_mac(sc).p
    except RuntimeError:
        return          # the open low-SNR defect: no schedule to judge
    greedy = np.stack([optimal_wastage(sc.user(n))[1] for n in range(sc.num_users)])
    p = p_star + t * (greedy - p_star)
    assert_verdict_matches_the_exact_gap(first_order_certificate(sc, p)[0], sc, p)


@given(mixed_scale_scenarios(max_users=1, max_slots=30),
       st.one_of(st.sampled_from([1.0, 0.5, 1.0 - 1e-9, 0.0]),
                 st.floats(min_value=0.0, max_value=1.0)))
@settings(max_examples=200)
def test_kkt_gap_is_the_gap_reference_bit_for_bit(sc, t):
    # kkt_certificate prices through the sweeps' pricing, and its residual
    # is still c . (max_linear(c) - p) under its own gradient, bit for bit,
    # on solved users shrunk toward zero at every unit of energy
    env = sc.user(0)
    try:
        p_star, _, x, _ = solve_single(env)
    except RuntimeError:
        return          # the open low-SNR defect: no schedule to judge
    p = p_star * t
    gap = kkt_certificate(env, p, x).conditions["duality-gap"][1]
    want = _oracles.gap_reference(reduce_polytope(env), env.gain / (1.0 + env.gain * p), p)
    assert _bits(gap) == _bits(want)


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

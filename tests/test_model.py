import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ehwf.mac import solve_mac
from ehwf.model import (Scenario, UserEnv, check_feasible, cumulative_harvest,
                        sum_rate, user_battery_trace)
from ehwf.single_user import optimal_wastage, solve_single
from ehwf.verify import first_order_certificate, kkt_certificate

import _oracles
from conftest import finite_energy, user_envs


def scenario_1u(harvest, gain=None, bmax=100.0, pmax=100.0):
    harvest = np.asarray(harvest, dtype=float)
    if gain is None:
        gain = np.ones_like(harvest)
    return Scenario(harvest=harvest[None, :], gain=np.asarray(gain, float)[None, :],
                    battery_max=np.array([bmax]), power_max=np.array([pmax]))


def test_cumulative_harvest_values():
    assert cumulative_harvest([1, 2, 3]).tolist() == [1, 3, 6]
    assert cumulative_harvest([0, 0]).tolist() == [0, 0]
    assert cumulative_harvest([5]).tolist() == [5]


def test_battery_trace_values():
    assert user_battery_trace([10, 2], [4, 4], [3, 0]).tolist() == [3, 1]
    # zero consumption leaves the cumulative harvest
    assert user_battery_trace([10, 2], [0, 0], [0, 0]).tolist() == [10, 12]
    assert user_battery_trace([1], [2], [0]).tolist() == [-1]


def test_battery_trace_shape_errors():
    sc = scenario_1u([1, 2])
    with pytest.raises(ValueError):
        user_battery_trace([1, 2], [1], [0, 0])
    with pytest.raises(ValueError):
        check_feasible(sc, np.zeros((1, 3)), np.zeros((1, 2)))


def test_check_feasible_greedy_schedule():
    env = UserEnv(np.array([10.0, 2.0]), np.ones(2), 3.0, 4.0)
    d, p, _ = optimal_wastage(env)
    report = check_feasible(Scenario.single_user(env), p[None, :], d[None, :])
    assert report.ok
    assert report.violations == ()


def test_check_feasible_battery_overshoot_alone_is_infeasible():
    # battery ends at 21 with capacity 20: an overshoot is a violation too
    sc = scenario_1u([25], bmax=20.0, pmax=15.0)
    report = check_feasible(sc, np.array([[4.0]]), np.array([[0.0]]))
    assert not report.ok
    assert report.violations == ((0, 0, "battery-above-cap", 1.0),)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_check_feasible_reports_non_finite_entries(bad):
    # NaN fails every comparison, so it needs its own test; an infinite
    # entry gets the same kind, next to any bound it also breaks
    sc = scenario_1u([1.0, 1.0], bmax=math.inf, pmax=math.inf)
    zeros = np.zeros((1, 2))
    report = check_feasible(sc, np.array([[bad, 1.0]]), zeros)
    assert not report.ok
    assert (0, 0, "power-non-finite", math.inf) in report.violations
    report = check_feasible(sc, zeros, np.array([[0.0, bad]]))
    assert not report.ok
    assert (0, 1, "wastage-non-finite", math.inf) in report.violations


def test_check_feasible_mixed_infinities_warn_nothing():
    # +inf and -inf in one row sum to a NaN battery level, where numpy's
    # invalid-value warning used to escape and fail the check under pytest
    sc = scenario_1u([1.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = check_feasible(sc, np.array([[math.inf, -math.inf]]), np.zeros((1, 2)))
    assert report.violations == (
        (0, 0, "power-non-finite", math.inf), (0, 0, "power-above-cap", math.inf),
        (0, 0, "battery-negative", math.inf),
        (0, 1, "power-non-finite", math.inf), (0, 1, "power-negative", math.inf))


schedule_entry = st.one_of(
    st.floats(min_value=-3.0, max_value=30.0),
    st.sampled_from([math.inf, -math.inf, math.nan, 1e308, -1e308, 0.0]))


@given(st.integers(1, 3), st.integers(1, 5), st.data())
def test_check_feasible_matches_the_loop_reference(n, k, data):
    # the same tuples, in the same (user, slot, kind) order, with Python
    # ints for the indices
    caps = st.lists(st.sampled_from([0.0, 0.5, 5.0, 20.0, math.inf]), min_size=n, max_size=n)
    grid = st.lists(st.lists(schedule_entry, min_size=k, max_size=k), min_size=n, max_size=n)
    harvest = data.draw(st.lists(st.lists(finite_energy, min_size=k, max_size=k),
                                 min_size=n, max_size=n))
    sc = Scenario(np.array(harvest), np.ones((n, k)), np.array(data.draw(caps)),
                  np.array(data.draw(caps)))
    p, d = np.array(data.draw(grid)), np.array(data.draw(grid))
    report = check_feasible(sc, p, d)
    assert report.violations == _oracles.check_feasible_reference(sc, p, d)
    assert all(type(v[0]) is int and type(v[1]) is int for v in report.violations)


def test_check_feasible_passes_a_budget_scaled_solve():
    # the solver checks this user on energies halved (its energy scale is
    # 2), so its battery ends slot 3 at 0.5 + 1.00000008e-9: within FEAS_TOL
    # at that scale, beyond it in absolute terms
    env = UserEnv([0.0, 0.0, 9.0, 1e-9, 0.0], [0.0, 0.0, 0.0, 0.0, 1.0], 0.5, 8.0)
    p, d, _, _ = solve_single(env)
    assert check_feasible(Scenario.single_user(env), p[None, :], d[None, :]).ok


def test_check_feasible_power_cap_violation():
    sc = scenario_1u([25], bmax=20.0, pmax=15.0)
    report = check_feasible(sc, np.array([[16.0]]), np.array([[0.0]]))
    assert not report.ok
    assert any(v[2] == "power-above-cap" for v in report.violations)


def test_sum_rate_values():
    assert sum_rate(scenario_1u([5], gain=[1.0]), np.array([[1.0]])) == pytest.approx(math.log(2))
    assert sum_rate(scenario_1u([5, 5]), np.zeros((1, 2))) == 0.0
    sc = Scenario(harvest=np.ones((2, 1)), gain=np.array([[1.0], [2.0]]),
                  battery_max=np.ones(2), power_max=np.ones(2))
    assert sum_rate(sc, np.ones((2, 1))) == pytest.approx(math.log(4))


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(harvest=np.ones((1, 2)), gain=np.ones((1, 3)),
                 battery_max=np.ones(1), power_max=np.ones(1))
    with pytest.raises(ValueError):
        Scenario(harvest=-np.ones((1, 2)), gain=np.ones((1, 2)),
                 battery_max=np.ones(1), power_max=np.ones(1))
    with pytest.raises(ValueError, match="nonnegative"):
        Scenario(harvest=np.ones((1, 2)), gain=np.ones((1, 2)),
                 battery_max=-np.ones(1), power_max=np.ones(1))
    # zero caps load, as they do for UserEnv
    sc = Scenario(harvest=np.ones((1, 2)), gain=np.ones((1, 2)),
                  battery_max=np.zeros(1), power_max=np.zeros(1))
    assert sc.battery_max[0] == 0.0 and sc.power_max[0] == 0.0
    # each entry and each running total is finite, but a slot's received
    # power, gain times total harvest summed over users, is not: rejected
    # here, with no numpy warning, before a solver meets it
    with pytest.raises(ValueError, match="received power overflows"):
        Scenario(harvest=[[1e300, 1.0], [1e300, 1.0]], gain=[[1e10, 1.0], [1e10, 1.0]],
                 battery_max=[math.inf, math.inf], power_max=[math.inf, math.inf])
    with pytest.raises(ValueError, match="received power overflows"):
        UserEnv([1e300, 1.0], [1e10, 1.0], math.inf, math.inf)
    # a received power that fits loads, also where the largest harvest
    # and the largest gain belong to different users
    for gain in ([[1e7, 1.0], [1e7, 1.0]], [[1e-10, 1e-10], [1e300, 1e300]]):
        Scenario(harvest=[[1e300, 0.0], [0.0, 1.0]], gain=gain,
                 battery_max=[math.inf, math.inf], power_max=[math.inf, math.inf])


@pytest.mark.parametrize("n", [-1, 2, True, False, 1.0, 1.5, np.int64(-1), "0", None])
def test_scenario_user_rejects_a_bad_index(n):
    # -1 used to return the last user; True escaped as TypeError, and 1.0
    # or 2 as IndexError
    sc = Scenario(harvest=[[1.0, 2.0], [3.0, 4.0]], gain=np.ones((2, 2)),
                  battery_max=[5.0, 6.0], power_max=[7.0, 8.0])
    with pytest.raises(ValueError, match=r"need a user in 0\.\.1"):
        sc.user(n)
    # a numpy integer is a user like a Python one
    env = sc.user(np.int64(1))
    assert env.harvest.tolist() == [3.0, 4.0] and env.battery_max == 6.0


@pytest.mark.parametrize("bmax, pmax", [(0.0, 0.0), (0.0, 3.0), (4.0, 0.0)])
def test_zero_caps_round_trip_and_certify(bmax, pmax):
    # B = 0 banks nothing between slots, P = 0 spends nothing
    env = UserEnv([2.0, 0.0, 5.0, 1.0], [0.5, 1.0, 2.0, 0.0], bmax, pmax)
    sc = Scenario.from_json(Scenario.single_user(env).to_json())
    assert np.array_equal(sc.harvest[0], env.harvest)
    assert np.array_equal(sc.gain[0], env.gain)
    assert (sc.battery_max[0], sc.power_max[0]) == (bmax, pmax)
    sol = solve_mac(sc)
    assert sol.converged
    assert check_feasible(sc, sol.p, sol.d).ok
    user = UserEnv(env.harvest, sol.user_gains[0], bmax, pmax)
    assert kkt_certificate(user, sol.p[0], sol.user_boundaries[0]).passed
    assert first_order_certificate(sc, sol.p)[0]


def test_non_finite_input_rejected():
    nan = float("nan")
    # a NaN harvest used to yield p = [1, 10, 10]: 21 units spent from 3
    with pytest.raises(ValueError, match="finite"):
        UserEnv(harvest=[1.0, nan, 2.0], gain=np.ones(3), battery_max=5.0,
                power_max=10.0)
    with pytest.raises(ValueError, match="finite"):
        UserEnv(harvest=np.ones(3), gain=[1.0, nan, 2.0], battery_max=5.0,
                power_max=10.0)
    with pytest.raises(ValueError, match="finite"):
        UserEnv(harvest=[1.0, math.inf], gain=np.ones(2), battery_max=5.0,
                power_max=10.0)
    with pytest.raises(ValueError, match="NaN"):
        UserEnv(harvest=np.ones(2), gain=np.ones(2), battery_max=nan,
                power_max=10.0)
    with pytest.raises(ValueError, match="finite"):
        scenario_1u([1.0, 2.0], gain=[nan, 1.0])
    with pytest.raises(ValueError, match="NaN"):
        scenario_1u([1.0, 2.0], pmax=nan)
    # infinite caps mean "no limit" and stay allowed
    env = UserEnv(harvest=np.ones(2), gain=np.ones(2), battery_max=math.inf,
                  power_max=math.inf)
    assert env.battery_max == math.inf


def test_scenario_from_json_rejects_nan():
    text = ('{"num_users": 1, "num_slots": 2, "users": [{"harvest": [1, NaN], '
            '"gain": [1, 1], "battery_max": 5, "power_max": 5}]}')
    with pytest.raises(ValueError, match="finite"):
        Scenario.from_json(text)
    with pytest.raises(ValueError, match="NaN"):
        Scenario.from_json(text.replace("[1, NaN]", "[1, 2]")
                               .replace('"battery_max": 5', '"battery_max": NaN'))


ZERO_SLOTS = ('{"num_users": 2, "num_slots": 0, "users": ['
              '{"harvest": [], "gain": [], "battery_max": 5, "power_max": 5}, '
              '{"harvest": [], "gain": [], "battery_max": 5, "power_max": 5}]}')


def test_zero_slots_rejected():
    # a problem without slots has no schedule to check or certify; every
    # solver and checker used to fail on it with an unrelated message
    for make in (lambda: UserEnv([], [], 5.0, 5.0),
                 lambda: Scenario(np.zeros((2, 0)), np.zeros((2, 0)),
                                  np.full(2, 5.0), np.full(2, 5.0)),
                 lambda: Scenario.from_json(ZERO_SLOTS)):
        with pytest.raises(ValueError, match="at least one slot"):
            make()


def test_zero_users_rejected():
    # to_json of a zero-user scenario used to load, then fail to read back
    # with a shape error about num_slots
    with pytest.raises(ValueError, match="at least one user"):
        Scenario(np.zeros((0, 3)), np.zeros((0, 3)), np.zeros(0), np.zeros(0))
    for k in (3, -1):
        with pytest.raises(ValueError, match="at least one user"):
            Scenario.from_json(f'{{"num_users": 0, "num_slots": {k}, "users": []}}')


OVERFLOW = ('{"num_users": 1, "num_slots": 2, "users": [{"harvest": [1e308, 1e308], '
            '"gain": [1, 1], "battery_max": 1e308, "power_max": 1e308}]}')


@pytest.mark.parametrize("make", [
    lambda: UserEnv([1e308, 1e308], [1.0, 1.0], 1e308, 1e308),
    lambda: Scenario(np.full((2, 2), 1e308), np.ones((2, 2)),
                     np.full(2, 1e308), np.full(2, 1e308)),
    lambda: Scenario.from_json(OVERFLOW),
], ids=["UserEnv", "Scenario", "from_json"])
def test_overflowing_harvest_total_rejected(make):
    # every entry is finite, but the running total every checker and solver
    # takes is not; no numpy overflow warning escapes either
    with pytest.raises(ValueError, match="running total of harvest overflows"):
        make()


def test_large_harvest_with_a_finite_total_loads():
    # entries above float max / 2K take the exact test and pass it
    env = UserEnv([1e308, 5e307], [1.0, 1.0], 1e308, 1e308)
    assert cumulative_harvest(env.harvest)[-1] == 1.5e308
    d, p, _ = optimal_wastage(env)
    assert check_feasible(Scenario.single_user(env), p[None, :], d[None, :]).ok


def json_user(num_users=1, num_slots=2, **fields):
    # a one-user scenario object with some fields replaced
    user = {"harvest": [1, 2], "gain": [1, 1], "battery_max": 5, "power_max": None}
    user.update(fields)
    return {"num_users": num_users, "num_slots": num_slots, "users": [user]}


@pytest.mark.parametrize("obj, message", [
    ({"num_users": 1, "num_slots": 1,
      "users": [{"harvest": [1], "gain": [1], "power_max": 5}]},
     "missing key 'battery_max'"),
    ({"num_users": 1, "num_slots": 1, "users": [{"gain": [1]}]},
     "missing key 'harvest'"),
    ({"num_users": 1, "num_slots": 1, "users": 3}, "users must be a list"),
    ({"num_users": 1, "num_slots": 1, "users": {"harvest": [1]}},
     "users must be a list"),
    ({"num_users": 1, "num_slots": 1, "users": [[1, 2]]}, "malformed"),
    (json_user(harvest=["1", "2"]), "harvest and gain must be lists of numbers"),
    (json_user(gain=[True, 1]), "harvest and gain must be lists of numbers"),
    (json_user(harvest=[[1, 2]]), "harvest and gain must be lists of numbers"),
    (json_user(power_max="5"), "battery_max and power_max must be numbers or null"),
    (json_user(battery_max=False), "battery_max and power_max must be numbers or null"),
    (json_user(battery_max=[1]), "battery_max and power_max must be numbers or null"),
    (json_user(num_slots=2.9), "num_users and num_slots must be integers"),
    (json_user(num_users=True), "num_users and num_slots must be integers"),
    (json_user(harvest=[10**400, 1]), "too large to convert to float"),
    (json_user(gain=[1, 10**400]), "too large to convert to float"),
    (json_user(battery_max=10**400), "too large to convert to float"),
    (json_user(power_max=10**400), "too large to convert to float"),
], ids=["no-battery-max", "no-harvest", "users-int", "users-dict", "user-list",
        "string-harvest", "bool-gain", "nested-harvest", "string-cap", "bool-cap",
        "list-cap", "fractional-slots", "bool-users", "huge-harvest", "huge-gain",
        "huge-battery-max", "huge-power-max"])
def test_scenario_from_json_rejects_malformed_users(obj, message):
    with pytest.raises(ValueError, match="malformed scenario object") as info:
        Scenario.from_json_dict(obj)
    assert message in str(info.value)


@pytest.mark.parametrize("make, message", [
    (lambda: UserEnv(np.ones((1, 2)), np.ones((1, 2)), 1.0, 1.0),
     "harvest must be 1-dimensional"),
    (lambda: UserEnv([1.0, 2.0], [1.0], 1.0, 1.0), "must have the same length"),
    (lambda: Scenario(np.ones((2, 2)), np.ones((2, 2)), np.ones(1), np.ones(2)),
     "one entry per user"),
    (lambda: Scenario.from_json_dict(json_user(num_users=2)),
     "scenario declares 2 users but lists 1"),
    (lambda: Scenario.from_json_dict(json_user(num_slots=3)),
     "do not match the declared num_slots"),
    (lambda: user_battery_trace([1.0, 2.0], [0.0, 0.0], [0.0]),
     "d must have one entry per slot"),
    (lambda: sum_rate(scenario_1u([1.0, 2.0]), np.zeros((1, 3))),
     "p shape does not match"),
], ids=["ndim", "length", "caps-per-user", "user-count", "slot-count",
        "trace-d", "sum-rate-p"])
def test_mismatched_shapes_rejected(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_scenario_json_round_trip():
    sc = Scenario(harvest=np.array([[1.0, 2.5], [0.0, 4.0]]),
                  gain=np.array([[0.3, 1.0], [2.0, 0.0]]),
                  battery_max=np.array([5.0, 6.0]),
                  power_max=np.array([2.0, np.inf]))
    back = Scenario.from_json(sc.to_json())
    assert np.array_equal(back.harvest, sc.harvest)
    assert np.array_equal(back.gain, sc.gain)
    assert np.array_equal(back.battery_max, sc.battery_max)
    assert np.array_equal(back.power_max, sc.power_max)


def strict_json(text):
    def reject(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=reject)


def test_scenario_json_is_strict_with_unbounded_caps():
    sc = Scenario(harvest=np.array([[1.0, 2.5], [0.0, 4.0]]),
                  gain=np.array([[0.3, 1.0], [2.0, 0.0]]),
                  battery_max=np.array([np.inf, 6.0]),
                  power_max=np.array([2.0, np.inf]))
    obj = strict_json(sc.to_json(indent=2))
    assert obj["users"][0]["battery_max"] is None
    assert obj["users"][1]["power_max"] is None
    back = Scenario.from_json_dict(obj)
    assert np.array_equal(back.battery_max, sc.battery_max)
    assert np.array_equal(back.power_max, sc.power_max)
    # files written before caps became null spell them Infinity
    legacy = sc.to_json().replace("null", "Infinity")
    assert np.array_equal(Scenario.from_json(legacy).power_max, sc.power_max)


@given(st.lists(finite_energy, min_size=1, max_size=10), st.data())
def test_battery_trace_matches_loop_oracle(harvest, data):
    k = len(harvest)
    box = st.floats(min_value=0.0, max_value=30.0)
    p = data.draw(st.lists(box, min_size=k, max_size=k))
    d = data.draw(st.lists(box, min_size=k, max_size=k))
    got = user_battery_trace(harvest, p, d)
    want = _oracles.battery_loop(harvest, p, d)
    assert np.allclose(got, want, atol=1e-9)


@given(st.lists(finite_energy, min_size=1, max_size=8), st.data())
def test_battery_trace_superposition(harvest, data):
    # linear in p: splitting consumption across two schedules adds up
    k = len(harvest)
    box = st.floats(min_value=0.0, max_value=10.0)
    p1 = np.array(data.draw(st.lists(box, min_size=k, max_size=k)))
    p2 = np.array(data.draw(st.lists(box, min_size=k, max_size=k)))
    zero = np.zeros(k)
    lhs = user_battery_trace(harvest, p1 + p2)
    rhs = user_battery_trace(harvest, p1) + user_battery_trace(harvest, p2) \
        - cumulative_harvest(harvest)
    assert np.allclose(lhs, rhs, atol=1e-9)
    assert np.allclose(user_battery_trace(harvest, zero),
                       cumulative_harvest(harvest))


@given(st.data())
def test_sum_rate_concave_and_monotone(data):
    n = data.draw(st.integers(min_value=1, max_value=3))
    k = data.draw(st.integers(min_value=1, max_value=5))
    box = st.floats(min_value=0.0, max_value=10.0)
    draw_mat = lambda: np.array(
        data.draw(st.lists(st.lists(box, min_size=k, max_size=k),
                           min_size=n, max_size=n)))
    gain = draw_mat()
    sc = Scenario(harvest=np.full((n, k), 100.0), gain=gain,
                  battery_max=np.full(n, 100.0), power_max=np.full(n, 100.0))
    p = draw_mat()
    q = draw_mat()
    t = data.draw(st.floats(min_value=0.0, max_value=1.0))
    mix = sum_rate(sc, t * p + (1 - t) * q)
    assert mix >= t * sum_rate(sc, p) + (1 - t) * sum_rate(sc, q) - 1e-12
    # monotone: adding energy anywhere never lowers the rate
    bump = p.copy()
    bump[data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, k - 1))] += 1.0
    assert sum_rate(sc, bump) >= sum_rate(sc, p) - 1e-12


@given(user_envs(max_slots=8, allow_inf_caps=False), st.data())
def test_feasible_implies_battery_in_bounds(env, data):
    # spend a random fraction of the greedy schedule; always feasible
    frac = data.draw(st.floats(min_value=0.0, max_value=1.0))
    d_star, p_greedy, _ = optimal_wastage(env)
    p = frac * p_greedy
    d = _oracles.overflow_wastage_loop(env.harvest, env.battery_max, p)
    sc = Scenario.single_user(env)
    report = check_feasible(sc, p[None, :], np.array(d)[None, :])
    assert report.ok
    levels = user_battery_trace(env.harvest, p, d)
    assert (levels >= -1e-9).all()
    assert (levels <= env.battery_max + 1e-9).all()

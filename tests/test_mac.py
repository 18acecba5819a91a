import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ehwf.baselines as baselines
import ehwf.mac as mac
from ehwf.baselines import iterative_modified_staircase
from ehwf.bench import PRESETS, GenParams, gen_scenario
from ehwf.mac import (effective_gain, first_iteration_gap_bound,
                      iterate_best_response, solve_mac)
from ehwf.model import Scenario, UserEnv, check_feasible, sum_rate
from ehwf.single_user import effective_energy, solve_reduced, solve_single
from ehwf.verify import first_order_certificate, kkt_certificate

from _oracles import brute_force_tiny
from conftest import finite_energy, finite_gain


def scenario_of(harvest, gain, bmax, pmax):
    harvest = np.asarray(harvest, dtype=float)
    return Scenario(harvest=harvest, gain=np.asarray(gain, dtype=float),
                    battery_max=np.asarray(bmax, dtype=float),
                    power_max=np.asarray(pmax, dtype=float))


def random_scenario(rng, n, k, bmax=20.0, pmax=15.0):
    return scenario_of(rng.uniform(0, 10, (n, k)),
                       rng.exponential(1.0, (n, k)),
                       np.full(n, bmax), np.full(n, pmax))


def best_response(sc, p, n):
    # user n's optimal schedule against the others' fixed schedules: the
    # single-user solve on its effective gains
    env = sc.user(n)
    return solve_reduced(effective_gain(sc, p, n), effective_energy(env),
                         env.battery_max, env.power_max)[0]


def test_effective_gain_values():
    sc = scenario_of([[1.0], [2.0]], [[1.0], [1.0]], [5, 5], [5, 5])
    p = np.array([[0.0], [1.0]])
    # single interferer contributing p*H = 1 halves the gain
    assert effective_gain(sc, p, 0)[0] == pytest.approx(0.5)

    sc1 = scenario_of([[1.0]], [[3.0]], [5], [5])
    assert effective_gain(sc1, np.zeros((1, 1)), 0)[0] == pytest.approx(3.0)

    sc2 = scenario_of([[1.0], [3.0]], [[2.0], [1.0]], [5, 5], [5, 5])
    p2 = np.array([[0.0], [3.0]])
    assert effective_gain(sc2, p2, 0)[0] == pytest.approx(0.5)


def test_effective_gain_vector_matches_scalar():
    rng = np.random.default_rng(1)
    sc = random_scenario(rng, 3, 4)
    p = rng.uniform(0, 2, (3, 4))
    for n in range(3):
        vec = effective_gain(sc, p, n)
        for k in range(4):
            interference = sum(p[m, k] * sc.gain[m, k] for m in range(3) if m != n)
            assert vec[k] == pytest.approx(sc.gain[n, k] / (1.0 + interference))


@pytest.mark.parametrize("p, n", [
    (np.zeros(3), 0),           # one user's row
    (np.zeros((1, 3)), 0),      # too few users
    (np.zeros((2, 4)), 0),      # too many slots
    (np.zeros((2, 3)), -1),     # used to read user 1's gains
    (np.zeros((2, 3)), 2),
    (np.zeros((2, 3)), True),   # used to index as a boolean mask
    (np.zeros((2, 3)), 1.0),    # used to escape as IndexError
    (np.zeros((2, 3)), 1.5),
])
def test_effective_gain_rejects_bad_shape_or_user(p, n):
    sc = random_scenario(np.random.default_rng(2), 2, 3)
    with pytest.raises(ValueError, match="need p of shape"):
        effective_gain(sc, p, n)
    # a numpy integer is a user like a Python one
    assert effective_gain(sc, np.zeros((2, 3)), np.int64(1)).tobytes() == \
        effective_gain(sc, np.zeros((2, 3)), 1).tobytes()


@given(st.integers(1, 4), st.integers(1, 6), st.data())
def test_sweep_gains_match_effective_gain_bit_for_bit(n_users, k, data):
    # the sweeps' unchecked helper on the rows p * gain is effective_gain's
    # arithmetic, and both are the np.sum expression effective_gain
    # computed before the helper
    def rows(lo, hi):
        floats = st.floats(min_value=lo, max_value=hi)
        return np.array(data.draw(st.lists(st.lists(floats, min_size=k, max_size=k),
                                           min_size=n_users, max_size=n_users)))

    sc = scenario_of(np.ones((n_users, k)), rows(0.0, 1e3), np.full(n_users, 5.0),
                     np.full(n_users, 5.0))
    p = rows(0.0, 1e3)
    for n in range(n_users):
        want = sc.gain[n] / (1.0 + (np.sum(p * sc.gain, axis=0) - p[n] * sc.gain[n]))
        assert mac._effective_gain(sc.gain, p * sc.gain, n).tobytes() == want.tobytes()
        assert effective_gain(sc, p, n).tobytes() == want.tobytes()


def test_sweeps_take_each_response_gain_from_the_unchecked_helper(monkeypatch):
    # every response of every sweep gets its gains from one call of the
    # unchecked helper on the sweep's rows p * gain, users in index order
    users = []
    helper = mac._effective_gain

    def counted(gain, rows, n):
        users.append(n)
        return helper(gain, rows, n)

    monkeypatch.setattr(mac, "_effective_gain", counted)
    sc = random_scenario(np.random.default_rng(13), 4, 12)
    sol = solve_mac(sc)
    assert sol.iterations > 1
    assert users == [0, 1, 2, 3] * sol.iterations


def _watch_sweeps(monkeypatch, record):
    # wrap the sweep loop, for solve_mac and the staircase alike, so that it
    # keeps its own copy of p: every response's gains, the stop rule's
    # received power and the step's go to record(kind, value, want), want
    # computed afresh from that copy
    loop = mac.iterate_best_response

    def watched(scenario, responder, stop, max_iter, step=None):
        mirror = np.zeros_like(scenario.harvest)

        def respond(n, gains):
            record("gains", gains, effective_gain(scenario, mirror, n))
            p_n, d_n = responder(n, gains)
            mirror[n] = p_n
            return p_n, d_n

        def stopped(p, rate_gain, received):
            record("stop", received, np.sum(mirror * scenario.gain, axis=0))
            return stop(p, rate_gain, received)

        def stepped(p_prev, p, rate, received):
            record("step", received, np.sum(mirror * scenario.gain, axis=0))
            step(p_prev, p, rate, received)
            record("moved", None, not np.array_equal(p, mirror))
            mirror[...] = p

        return loop(scenario, respond, stopped, max_iter,
                    None if step is None else stepped)

    monkeypatch.setattr(mac, "iterate_best_response", watched)
    monkeypatch.setattr(baselines, "iterate_best_response", watched)


def _check_sweep_arrays(sc):
    # the number of line-search moves seen; every array the loop hands out
    # has the bits effective_gain and np.sum give on the current p
    moves = []

    def record(kind, value, want):
        if kind == "moved":
            moves.append(want)
        else:
            assert value.tobytes() == want.tobytes(), kind

    with pytest.MonkeyPatch.context() as monkeypatch:
        _watch_sweeps(monkeypatch, record)
        solve_mac(sc, max_iter=30)
        iterative_modified_staircase(sc, max_iter=30)
    return sum(moves)


@given(st.data())
@settings(max_examples=60)
def test_sweep_arrays_match_a_fresh_computation_bit_for_bit(data):
    # the rows the loop keeps are refreshed after every response and after
    # every line-search move: the first response after a move sees the
    # moved p
    n = data.draw(st.integers(min_value=1, max_value=4))
    k = data.draw(st.integers(min_value=1, max_value=8))
    harvest = np.array(data.draw(st.lists(
        st.lists(finite_energy, min_size=k, max_size=k), min_size=n, max_size=n)))
    gain = np.array(data.draw(st.lists(
        st.lists(finite_gain, min_size=k, max_size=k), min_size=n, max_size=n)))
    bmax = data.draw(st.lists(st.sampled_from([0.5, 3.0, 20.0, math.inf]),
                              min_size=n, max_size=n))
    pmax = data.draw(st.lists(st.sampled_from([2.0, 8.0, math.inf]),
                              min_size=n, max_size=n))
    _check_sweep_arrays(scenario_of(harvest, gain, bmax, pmax))


def test_sweep_arrays_match_after_line_search_moves():
    # the same check where the line search is known to move p
    rng = np.random.default_rng(15)
    moves = sum(_check_sweep_arrays(random_scenario(rng, 5, 20))
                for _ in range(10))
    assert moves >= 10


def test_sweeps_build_no_user_env(monkeypatch):
    # a best response reads only the reduced problem, and each user's budget
    # comes from the scenario's own rows: no solver builds a UserEnv
    built = []
    original = UserEnv.__post_init__

    def counted(self):
        built.append(self)
        original(self)

    sc = random_scenario(np.random.default_rng(13), 4, 12)
    monkeypatch.setattr(UserEnv, "__post_init__", counted)
    for solve in (solve_mac, iterative_modified_staircase):
        built.clear()
        sol = solve(sc)
        assert sol.iterations > 1
        assert not built, solve.__name__


def test_sweeps_prepare_each_user_once(monkeypatch):
    # a user's budget and caps are checked and scaled once per solve, not
    # once per sweep: each solver prepares exactly one problem per user
    import ehwf.single_user as su

    prepared = []
    original = su._ReducedProblem.__init__

    def counted(self, *args):
        prepared.append(1)
        original(self, *args)

    sc = random_scenario(np.random.default_rng(13), 4, 12)
    monkeypatch.setattr(su._ReducedProblem, "__init__", counted)
    for solve in (solve_mac, iterative_modified_staircase):
        prepared.clear()
        sol = solve(sc)
        assert sol.iterations > 1
        assert len(prepared) == sc.num_users, solve.__name__


def test_best_response_single_user_is_solve_single():
    rng = np.random.default_rng(2)
    sc = random_scenario(rng, 1, 6)
    p0 = np.zeros((1, 6))
    got = best_response(sc, p0, 0)
    want, _, _, _ = solve_single(sc.user(0))
    assert np.allclose(got, want, atol=1e-12)


def test_best_response_against_silent_users_is_solve_single():
    rng = np.random.default_rng(3)
    sc = random_scenario(rng, 3, 5)
    p0 = np.zeros((3, 5))
    got = best_response(sc, p0, 1)
    want, _, _, _ = solve_single(sc.user(1))
    assert np.allclose(got, want, atol=1e-12)


def test_best_response_abundant_single_slot_hits_cap():
    # with energy to spare the response is the full cap however loud the
    # interference is
    sc = scenario_of([[100.0], [100.0]], [[1.0], [1.0]], [100, 100], [5, 5])
    p = np.array([[0.0], [5.0]])
    assert best_response(sc, p, 0).tolist() == [5.0]


def test_best_response_reads_only_own_energy_constraints():
    rng = np.random.default_rng(4)
    sc = random_scenario(rng, 2, 5)
    other_harvest = sc.harvest.copy()
    other_harvest[1] = rng.uniform(0, 3, 5)
    sc2 = Scenario(harvest=other_harvest, gain=sc.gain,
                   battery_max=np.array([sc.battery_max[0], 1.0]),
                   power_max=np.array([sc.power_max[0], 2.0]))
    p = np.zeros((2, 5))
    p[1] = 1.0
    # user 0's response depends on user 1 only through the interference term
    assert np.array_equal(best_response(sc, p, 0), best_response(sc2, p, 0))


def test_solve_mac_single_user_reduction():
    rng = np.random.default_rng(5)
    sc = random_scenario(rng, 1, 8)
    sol = solve_mac(sc)
    want, _, _, _ = solve_single(sc.user(0))
    assert np.allclose(sol.p[0], want, atol=1e-12)
    assert sol.converged
    # with one user the first sweep is the exact single-user solve, so its
    # gap already certifies it and no second sweep runs
    assert sol.iterations == 1


def test_solve_mac_matches_grid_oracle_tiny():
    rng = np.random.default_rng(6)
    sc = random_scenario(rng, 2, 2, bmax=3.0, pmax=2.0)
    sol = solve_mac(sc)
    _, ref = brute_force_tiny(sc)
    assert sum_rate(sc, sol.p) >= ref - 1e-3


def test_solve_mac_trace_is_monotone():
    rng = np.random.default_rng(7)
    sc = random_scenario(rng, 4, 10)
    sol = solve_mac(sc)
    diffs = np.diff(sol.trace)
    assert (diffs >= -1e-9).all()
    assert sol.converged


def test_solve_mac_fixed_point():
    # a value gap of tol only pins the schedule to ~sqrt(tol), so converge
    # far below the target parameter tolerance before testing stationarity
    rng = np.random.default_rng(8)
    sc = random_scenario(rng, 3, 8)
    sol = solve_mac(sc, tol=1e-13, max_iter=300)
    assert sol.converged
    for n in range(3):
        again = best_response(sc, sol.p, n)
        assert np.max(np.abs(again - sol.p[n])) < 1e-6


def test_solve_mac_stops_on_the_duality_gap():
    rng = np.random.default_rng(13)
    sc = random_scenario(rng, 5, 20)
    sol = solve_mac(sc)
    assert sol.converged
    assert sol.gap == first_order_certificate(sc, sol.p)[1] <= 1e-6 * 20
    # one sweep leaves a gap; the budget runs out and the solution says so
    first = solve_mac(sc, max_iter=1)
    assert not first.converged
    assert first.gap == first_order_certificate(sc, first.p)[1] > 1e-6 * 20
    assert iterative_modified_staircase(sc).gap is None


def test_solve_mac_stops_at_the_first_certified_sweep():
    # fig9/fig10-grid instances: a budget one sweep short of the run must
    # leave a gap past tol, or an earlier sweep was already certified
    means = PRESETS["fig9"]["sweep"]["values"]
    variances = (PRESETS["fig9"]["harvest_var"], PRESETS["fig10"]["harvest_var"])
    grid = [(m, v) for v in variances for m in means]
    for i in range(48):
        mean, var = grid[i % len(grid)]
        sc = gen_scenario(GenParams(n_users=5, n_slots=20, harvest_mean=mean,
                                    harvest_var=var, battery_max=20.0,
                                    power_max=15.0, seed=4000 + i))
        sol = solve_mac(sc)
        assert sol.converged
        if sol.iterations > 1:
            assert not solve_mac(sc, max_iter=sol.iterations - 1).converged, i


def test_solve_mac_respects_max_iter():
    rng = np.random.default_rng(9)
    sc = random_scenario(rng, 3, 6)
    # at sweep 4 this instance sits on its optimum up to rounding (a gap
    # of -1.5e-16, which meets any tol), so stop the budget one sweep short
    sol = solve_mac(sc, tol=1e-300, max_iter=3)
    assert sol.iterations == 3
    assert not sol.converged
    assert solve_mac(sc, tol=1e-300, max_iter=np.int64(3)).iterations == 3
    # a sweep count is an integer: not a float, a NaN or a bool
    zero = (lambda n, gains: (np.zeros(gains.size), np.zeros(gains.size)))
    for bad in (2.5, 3.0, math.nan, True, False):
        for solve in (lambda: solve_mac(sc, max_iter=bad),
                      lambda: iterative_modified_staircase(sc, max_iter=bad),
                      lambda: iterate_best_response(sc, zero, lambda p, g, r: True, bad)):
            with pytest.raises(ValueError, match="max_iter"):
                solve()


def test_solve_mac_rejects_bad_arguments():
    sc = scenario_of([[1.0]], [[1.0]], [1], [1])
    with pytest.raises(ValueError):
        solve_mac(sc, tol=0.0)
    with pytest.raises(ValueError):
        solve_mac(sc, max_iter=0)


def test_iterate_best_response_generic_loop():
    rng = np.random.default_rng(10)
    sc = random_scenario(rng, 2, 4)
    sol = iterate_best_response(
        sc, lambda n, gains: (np.zeros(gains.size), np.zeros(gains.size)),
        lambda p, rate_gain, received: abs(rate_gain) <= 1e-5, max_iter=50)
    assert not sol.p.any()
    assert sol.converged
    assert sol.iterations == 1            # zero schedule matches V(0) = 0


def test_warm_start_leaves_sweep_outputs_unchanged(monkeypatch):
    # every sweep after the first warm-starts each user from its previous
    # boundaries; refusing every refilled guess must not move a bit
    import ehwf.baselines as baselines
    import ehwf.single_user as su

    rng = np.random.default_rng(12)
    scenarios = [random_scenario(rng, 5, 20) for _ in range(6)]
    scenarios.append(scenario_of(rng.uniform(0, 10, (3, 12)),
                                 rng.exponential(1.0, (3, 12)) * (rng.random((3, 12)) > 0.2),
                                 [0.5, 20.0, 5.0], [15.0, np.inf, 3.0]))

    def run_all():
        out = []
        for sc in scenarios:
            for sol in (solve_mac(sc), baselines.iterative_modified_staircase(sc)):
                out.append((sol.p.tobytes(), sol.d.tobytes(), sol.trace.tobytes(),
                            sol.iterations, sol.user_boundaries))
        return out

    warm = run_all()
    refused = []

    def refuse(*args):
        # the one place a guess becomes an answer
        refused.append(1)

    monkeypatch.setattr(su, "_refill_guess", refuse)
    assert run_all() == warm
    # each user offers its guess once in every sweep after the first
    users = [sc.num_users for sc in scenarios for _ in range(2)]
    assert len(refused) == sum((out[3] - 1) * n for out, n in zip(warm, users))


def test_first_iteration_gap_bound_values():
    assert first_iteration_gap_bound(1, 7) == 0.0
    assert first_iteration_gap_bound(5, 20) == 40.0
    assert first_iteration_gap_bound(2, 2) == 1.0
    with pytest.raises(ValueError):
        first_iteration_gap_bound(0, 5)
    # counts are integers: not a float, a NaN or a bool
    for n_users, n_slots in ((2.5, math.nan), (True, 20), (5, False), (2.0, 3),
                             (2, 3.5)):
        with pytest.raises(ValueError):
            first_iteration_gap_bound(n_users, n_slots)
    assert first_iteration_gap_bound(np.int64(5), np.int32(20)) == 40.0


@given(st.data())
@settings(max_examples=25)
def test_solve_mac_gap_bound_property(data):
    n = data.draw(st.integers(min_value=1, max_value=3))
    k = data.draw(st.integers(min_value=1, max_value=5))
    harvest = np.array(data.draw(st.lists(
        st.lists(finite_energy, min_size=k, max_size=k), min_size=n, max_size=n)))
    gain = np.array(data.draw(st.lists(
        st.lists(finite_gain, min_size=k, max_size=k), min_size=n, max_size=n)))
    sc = Scenario(harvest=harvest, gain=gain,
                  battery_max=np.full(n, 10.0), power_max=np.full(n, 8.0))
    sol = solve_mac(sc)
    assert sol.trace[-1] - sol.trace[0] <= first_iteration_gap_bound(n, k) + 1e-9


def user_certificates(sc, sol):
    # each user's KKT check against the gains of its own last response
    return [kkt_certificate(UserEnv(sc.harvest[n], sol.user_gains[n],
                                    float(sc.battery_max[n]),
                                    float(sc.power_max[n])),
                            sol.p[n], sol.user_boundaries[n]).passed
            for n in range(sc.num_users)]


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6, 1e9, 1e12])
def test_solve_mac_certifies_in_any_unit_of_energy(scale):
    # mac-certify-shaped instances with energies times scale and gains
    # over it: the same problems, so every check must pass at every scale
    for i in range(12):
        sc = gen_scenario(GenParams(n_users=5, n_slots=20,
                                    harvest_mean=5.0 + i % 6,
                                    harvest_var=3.5 if i < 6 else 8.0,
                                    battery_max=20.0, power_max=15.0,
                                    seed=900 + i))
        sc = scenario_of(sc.harvest * scale, sc.gain / scale,
                         sc.battery_max * scale, sc.power_max * scale)
        sol = solve_mac(sc)
        assert sol.converged
        assert check_feasible(sc, sol.p, sol.d).ok
        assert all(user_certificates(sc, sol))
        assert first_order_certificate(sc, sol.p)[0]


def test_solve_mac_closes_the_slow_tail():
    # round-robin sweeps without the line search took 2,005 sweeps here
    sc = gen_scenario(GenParams(n_users=5, n_slots=20, harvest_mean=6.0,
                                harvest_var=3.5, battery_max=20.0,
                                power_max=15.0, seed=17692172790995075766))
    sol = solve_mac(sc)
    assert sol.converged
    assert sol.iterations <= 100
    assert all(user_certificates(sc, sol))
    assert first_order_certificate(sc, sol.p)[0]


@given(st.data())
@settings(max_examples=40)
def test_line_search_steps_raise_the_rate_inside_the_tube(data):
    n = data.draw(st.integers(min_value=1, max_value=3))
    k = data.draw(st.integers(min_value=1, max_value=5))
    harvest = np.array(data.draw(st.lists(
        st.lists(finite_energy, min_size=k, max_size=k), min_size=n, max_size=n)))
    gain = np.array(data.draw(st.lists(
        st.lists(finite_gain, min_size=k, max_size=k), min_size=n, max_size=n)))
    bmax = data.draw(st.lists(st.sampled_from([0.5, 3.0, 20.0, math.inf]),
                              min_size=n, max_size=n))
    pmax = data.draw(st.lists(st.sampled_from([2.0, 8.0, math.inf]),
                              min_size=n, max_size=n))
    sc = scenario_of(harvest, gain, bmax, pmax)
    steps = []
    line_search = mac._line_search

    def recorded(scenario, e_tilde, p_prev, p, rate, received):
        before = p.copy()
        line_search(scenario, e_tilde, p_prev, p, rate, received)
        steps.append((before, p.copy(), rate, received))

    with mock.patch.object(mac, "_line_search", recorded):
        sol = solve_mac(sc, max_iter=20)
    for before, after, rate, received in steps:
        assert rate == sum_rate(sc, before)
        assert received.tobytes() == np.sum(before * sc.gain, axis=0).tobytes()
        if np.array_equal(before, after):
            continue
        assert sum_rate(sc, after) > rate
        # a step keeps a feasible sweep feasible under solve_mac's wastage
        if check_feasible(sc, before, sol.d).ok:
            assert check_feasible(sc, after, sol.d).ok


@pytest.mark.parametrize("max_iter", [1, 2, 3])
def test_capped_solve_mac_passes_user_certificates(max_iter):
    # the returned p is always a full sweep, never a line-search step, so
    # each user's schedule is its best response to user_gains
    rng = np.random.default_rng(14)
    for _ in range(10):
        sc = random_scenario(rng, 4, 12)
        sol = solve_mac(sc, max_iter=max_iter)
        assert sol.iterations <= max_iter
        assert all(user_certificates(sc, sol))

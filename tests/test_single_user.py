import contextlib
import itertools
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ehwf.single_user as su
from ehwf.bench import run_experiment
from ehwf.model import (GAIN_FLOOR, Scenario, UserEnv, check_feasible,
                        cumulative_harvest, energy_scale)
from ehwf.verify import (first_order_certificate, induced_wastage,
                         kkt_certificate, reduce_polytope)

import _oracles
from conftest import finite_energy, finite_gain, user_envs


def env_of(harvest, gain=None, bmax=100.0, pmax=100.0):
    harvest = np.asarray(harvest, dtype=float)
    if gain is None:
        gain = np.ones_like(harvest)
    return UserEnv(harvest=harvest, gain=np.asarray(gain, dtype=float),
                   battery_max=bmax, power_max=pmax)


def warm_solve(gain, e_tilde, bmax, pmax, guess):
    # a prepared problem whose last answer had the boundary list guess
    problem = su._ReducedProblem(e_tilde, bmax, pmax)
    problem.boundaries = guess
    return problem.solve(gain)


class _HandoverCounter:
    """single_user's numpy, counting the walk's hand-overs to its numpy phase.

    Each hand-over enters one np.errstate, and no other code of the module
    enters one.
    """

    def __init__(self):
        self.count = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def errstate(self, **kwargs):
        self.count += 1
        return np.errstate(**kwargs)


@contextlib.contextmanager
def counted_handovers():
    counter = _HandoverCounter()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(su, "np", counter)
        yield counter


# ---- optimal wastage ---------------------------------------------------------

def test_optimal_wastage_overflow_case():
    d, p, bat = su.optimal_wastage(env_of([10, 2], bmax=3.0, pmax=4.0))
    assert d.tolist() == [3, 0]
    assert p.tolist() == [4, 4]
    assert bat.tolist() == [3, 1]


def test_optimal_wastage_zero_harvest():
    d, p, _ = su.optimal_wastage(env_of([0, 0, 0]))
    assert not d.any() and not p.any()


def test_optimal_wastage_no_overflow():
    d, p, _ = su.optimal_wastage(env_of([2, 2], bmax=10.0, pmax=5.0))
    assert d.tolist() == [0, 0]
    assert p.tolist() == [2, 2]


def test_optimal_wastage_zero_battery():
    d, p, _ = su.optimal_wastage(env_of([5], bmax=0.0, pmax=3.0))
    assert d.tolist() == [2]
    assert p.tolist() == [3]


@given(user_envs(allow_inf_caps=False))
def test_optimal_wastage_matches_loop_oracle(env):
    d, p, bat = su.optimal_wastage(env)
    p_ref, d_ref, bat_ref = _oracles.greedy_loop(env.harvest, env.battery_max,
                                                 env.power_max)
    assert np.allclose(p, p_ref, atol=1e-9)
    assert np.allclose(d, d_ref, atol=1e-9)
    assert np.allclose(bat, bat_ref, atol=1e-9)


# ---- effective energy --------------------------------------------------------

def test_effective_energy_values():
    # harvest 10 then 2: 3 of the first overflows a battery of 3 at a cap of 4
    assert su.effective_energy(env_of([10, 2], bmax=3.0, pmax=4.0)).tolist() == [7, 9]
    assert su.effective_energy(env_of([10, 2])).tolist() == [10, 12]


def test_effective_energy_all_wasted():
    env = env_of([5], bmax=0.0, pmax=0.0)
    assert su.effective_energy(env).tolist() == [0]


@st.composite
def float_range_envs(draw):
    """Users whose harvest mixes 0, subnormals, ordinary values and values up
    to the constructor's bound, with caps from 0 through about 1e-18 of the
    harvest up to infinity."""
    k = draw(st.integers(min_value=1, max_value=8))
    top = sys.float_info.max / (2 * k)
    entry = st.one_of(st.just(0.0), st.floats(min_value=5e-324, max_value=2.2e-308),
                      st.floats(min_value=0.0, max_value=10.0),
                      st.floats(min_value=1e10, max_value=top), st.just(top))
    harvest = draw(st.lists(entry, min_size=k, max_size=k))
    most = max(harvest)
    cap = st.one_of(st.sampled_from([0.0, math.inf]), st.floats(min_value=0.0, max_value=10.0),
                    st.sampled_from([1e-18, 1e-17, 1e-16, 2.0 ** -53, 1e-12, 0.5, 1.0])
                    .map(lambda share: share * most))
    return UserEnv(harvest, np.ones(k), draw(cap), draw(cap))


@given(float_range_envs())
@settings(max_examples=300)
@example(UserEnv([9100114506957038.0, 0.6666666666666666, 9100114506957038.0, 3.0],
                 [1.0] * 4, 1.0, 0.2))
def test_greedy_budget_is_exact_at_the_float_range(env):
    # an overflowing battery is clamped to B, not reduced by the rounded
    # overflow, and the budget adds nonnegative terms: it is finite,
    # nonnegative and reachable, however far the harvest dwarfs the caps
    _, _, battery = su.optimal_wastage(env)
    assert (battery <= env.battery_max).all()
    e_tilde = su.effective_energy(env)
    assert np.isfinite(e_tilde).all() and (e_tilde >= 0.0).all()
    problem = su._ReducedProblem(e_tilde, env.battery_max, env.power_max)
    su._check_reachable(problem.e_list, problem.bmax, problem.cap)


# ---- segment targets ---------------------------------------------------------

def fill_total(e_tilde, bmax, cap, a, kind_a, b, kind_b):
    # the energy _fill_segment puts through segment (a, b] on unit gains
    inv = [1.0] * len(e_tilde)
    p_seg, _, _, _ = su._fill_segment(inv, e_tilde, bmax, cap, a, kind_a, b, kind_b)
    return math.fsum(p_seg)


def test_segment_target_energy_values():
    # right-open boundary convention: entry a reads e_tilde[a-1]
    assert fill_total([2.0, 4.0], 10.0, 3.0, 0, su.BDP, 2, su.BDP) == 4.0
    assert fill_total([2.0, 3.0, 5.0], 2.0, 10.0, 1, su.BFP, 3, su.BDP) == 5.0
    assert fill_total([3.0, 6.0], 2.0, 10.0, 0, su.BDP, 2, su.BFP) == 4.0


def test_segment_target_energy_never_negative():
    # an end boundary needing more than the segment supplies clips to zero
    assert fill_total([1.0], 5.0, 10.0, 0, su.BDP, 1, su.BFP) == 0.0


# ---- segment water filling ---------------------------------------------------

def test_water_fill_segment_values():
    p, level = su.water_fill_segment([1.0, 1.0], 2.0, 10.0)
    assert np.allclose(p, [1.0, 1.0], atol=1e-9)
    assert level == pytest.approx(2.0)

    p, level = su.water_fill_segment([0.5, 1.0], 1.0, 10.0)
    assert np.allclose(p, [0.75, 0.25], atol=1e-9)
    assert level == pytest.approx(1.25)

    p, level = su.water_fill_segment([0.5, 1.0], 1.0, 0.6)
    assert np.allclose(p, [0.6, 0.4], atol=1e-9)
    assert level == pytest.approx(1.4)


def test_water_fill_segment_zero_target_sentinel():
    p, level = su.water_fill_segment([1.0, 0.5], 0.0, 5.0)
    assert p == [0.0, 0.0]
    assert level == 0.0


def inverse_gains(gains, budget):
    # solve_reduced's list for these gains: 1/g, and for a zero gain the
    # burn level, above every positive-gain slot's inverse plus budget
    priced = [1.0 / g for g in gains if g > 0.0]
    burn = max(priced, default=0.0) + budget + 1.0
    return [1.0 / g if g > 0.0 else burn for g in gains]


def fill_on_gains(gains, target, cap):
    # the fill on the inverse of positive gains, its level returned as the
    # array reference's w = 1/L (+inf for a zero target)
    p, level = su.water_fill_segment([1.0 / g for g in gains], target, cap)
    return p, 1.0 / level if level else math.inf


@pytest.mark.parametrize("gains, target, cap", [
    ([1.0, 0.5], 1.0, math.inf),        # level 2.0 is slot 2's inverse gain
    ([1.0, 0.5], 0.0, 3.0),             # a zero target
    ([1.0, 0.5], 1.0, 1.0),             # slot 1's gap 2.0 - 1.0 is the cap
    ([1.0, 0.5, 0.25], 3.0, 2.0),       # level 3.0: slot 1 at the cap exactly
    ([4.0, 0.015625, 0.5], 1.75, 1.75),  # both ties at level 2.0, a dry slot between
])
def test_fill_ties_match_array_fill_bit_for_bit(gains, target, cap):
    # draws that land exactly on a clamp bound, which hypothesis seldom hits
    want_p, want_w = _oracles.wf_array_reference(np.array(gains), target, cap)
    p, w = fill_on_gains(gains, target, cap)
    assert np.array(p).tobytes() == want_p.tobytes()
    assert float.hex(w) == float.hex(want_w)


def test_water_fill_segment_errors():
    with pytest.raises(ValueError, match="exceeds segment capacity"):
        su.water_fill_segment([1.0, 1.0], 11.0, 5.0)
    with pytest.raises(ValueError, match="exceeds segment capacity"):
        su.water_fill_segment([1.0, 4.0, 2.0], 15.5, 5.0)
    for cap in (5.0, math.inf):         # no slots, no capacity
        with pytest.raises(ValueError, match="exceeds segment capacity"):
            su.water_fill_segment([], 1e-12, cap)
    assert su.water_fill_segment([], 0.0, 5.0) == ([], 0.0)
    for target, cap in ((math.nan, 1.0), (math.inf, math.inf), (-math.inf, 1.0),
                        (1.0, math.nan), (1.0, -1.0), (0.0, -1.0)):
        with pytest.raises(ValueError, match="finite target and a nonnegative cap"):
            su.water_fill_segment([1.0, 0.5], target, cap)


@pytest.mark.parametrize("inv", [
    [math.nan, 1.0], [1.0, math.nan, 2.0], [-1.0, 1.0], [1.0, -0.5],
    [1.0, math.inf], [math.inf], [-math.inf, math.inf], [2.0, math.nan, -1.0],
])
@pytest.mark.parametrize("target", [0.0, 1.0])
def test_water_fill_segment_rejects_bad_inverse_gains(inv, target):
    # a NaN anywhere, not only first, or a negative or infinite entry
    with pytest.raises(ValueError, match="finite, nonnegative inverse gains"):
        su.water_fill_segment(inv, target, 5.0)


def test_segments_without_a_priced_level_report_zero():
    # slot 1 is capped at 5 and slot 2, of zero gain, burns the other 5:
    # the segment's level is at the burn level, and no gain prices it
    p, _, levels = su.solve_reduced([1.0, 0.0], [10.0, 10.0], 10.0, 5.0)
    assert p.tolist() == [5.0, 5.0]
    assert levels == [0.0]
    # a segment of zero-gain slots alone burns evenly, and reports 0 too
    p, _, levels = su.solve_reduced([0.0, 0.0], [1.0, 2.0], 5.0, math.inf)
    assert p.tolist() == [1.0, 1.0]
    assert levels == [0.0]


def test_guess_with_a_full_point_on_an_unbounded_battery_falls_back():
    # a battery of infinite capacity is never full: the BFP guess has no
    # finite target, and the solve is the cold one
    env = env_of([3.0, 1.0, 4.0], [1.0, 0.5, 2.0], bmax=math.inf, pmax=math.inf)
    e_tilde = su.effective_energy(env)
    cold = su.solve_reduced(env.gain, e_tilde, env.battery_max, env.power_max)
    for guess in ([(0, su.BDP), (1, su.BFP), (3, su.BDP)],
                  [(0, su.BDP), (1, su.BFP), (2, su.BFP), (3, su.BDP)]):
        assert_same_solution(warm_solve(env.gain, e_tilde, env.battery_max,
                                        env.power_max, guess), cold)


def draw_fill_case(data, zeros=True):
    # short and long spans, and spans whose inverse gains sit on a grid of
    # cap multiples, where one slot saturates exactly where another starts
    # filling; long draws keep zero gains rare, and zeros=False draws none.
    # Returns (gains, cap, hi), hi the most energy the positive-gain slots
    # take (50 with no cap).
    k = data.draw(st.one_of(st.integers(min_value=1, max_value=10),
                            st.integers(min_value=48, max_value=120)))
    if data.draw(st.booleans()):
        # powers of two keep every inverse gain and breakpoint exact
        cap = data.draw(st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0]))
        steps = data.draw(st.lists(st.integers(1, 8), min_size=k, max_size=k))
        gains = [1.0 / (m * cap) for m in steps]
    else:
        gain = st.floats(min_value=1e-6, max_value=10.0)
        if zeros and k <= 10:
            gain = st.one_of(st.just(0.0), gain)
        gains = data.draw(st.lists(gain, min_size=k, max_size=k))
        cap = data.draw(st.one_of(
            st.floats(min_value=0.1, max_value=20.0), st.just(math.inf)))
    for i in data.draw(st.lists(st.integers(0, k - 1), max_size=k // 10 if zeros else 0)):
        gains[i] = 0.0
    if not any(g > 0 for g in gains):
        gains[0] = 1.0
    npos = sum(1 for g in gains if g > 0)
    hi = npos * cap if math.isfinite(cap) else 50.0
    return gains, cap, hi


@given(st.data())
@settings(max_examples=150)
def test_water_fill_matches_bisection_oracle(data):
    gains, cap, hi = draw_fill_case(data)
    target = data.draw(st.floats(min_value=0.0, max_value=hi))
    # a zero-gain slot sits at the burn level, where the level never gets
    p, _ = su.water_fill_segment(inverse_gains(gains, min(cap, hi)), target, cap)
    ref = _oracles.wf_bisection(gains, target, cap)
    assert np.allclose(p, ref, atol=1e-6)
    assert abs(math.fsum(p) - min(target, hi)) <= 1e-10 * max(1.0, target)


@given(st.data())
@settings(max_examples=150)
def test_list_fill_matches_array_fill_bit_for_bit(data):
    # the fill runs on Python floats; the numpy fill it replaced is the
    # reference, and every bit of p and w = 1/L must agree on positive gains
    gains, cap, hi = draw_fill_case(data, zeros=False)
    target = data.draw(st.one_of(st.just(0.0), st.just(hi),
                                 st.floats(min_value=0.0, max_value=hi)))
    want_p, want_w = _oracles.wf_array_reference(np.array(gains), target, cap)
    p, w = fill_on_gains(gains, target, cap)
    assert type(p) is list
    assert np.array(p).tobytes() == want_p.tobytes()
    assert float.hex(w) == float.hex(want_w)


@given(st.data())
@settings(max_examples=300)
def test_level_sweep_matches_the_array_sweep_on_the_walks_targets(data):
    # the walk's level bounds solve for targets the fills never pass, at or
    # below 0.0 and above the capacity, on sorted prefixes with repeated
    # gains; every level must be the earlier sweep's, bit for bit
    starts = sorted(data.draw(st.lists(
        st.one_of(st.sampled_from([0.0, 0.5, 1.0, 3.0, 3.5]),
                  st.floats(min_value=0.0, max_value=10.0)),
        min_size=1, max_size=10)))
    cap = data.draw(st.sampled_from([0.0, 5e-324, 0.5, 3.0, 1e300, math.inf]))
    top = len(starts) * cap if cap < math.inf else 1e6     # the capacity
    finite = {"allow_nan": False, "allow_infinity": False}
    target = data.draw(st.one_of(st.floats(max_value=0.0, **finite),
                                 st.floats(min_value=0.0, max_value=top),
                                 st.floats(min_value=top, **finite)))
    got = su._fill_level(starts, cap, target)
    want = _oracles._array_fill_level(np.array(starts), cap, target)
    assert float.hex(got) == float.hex(want)


def test_long_fills_go_through_the_one_fill(monkeypatch):
    # every segment fill, long ones included, is one _water_fill call
    records = []
    original = su._water_fill

    def audited(inv, target_energy, power_max):
        p, level = original(inv, target_energy, power_max)
        target = float(target_energy)
        if target > 0.0:
            records.append((len(inv), target, abs(target - math.fsum(p))))
        return p, level

    monkeypatch.setattr(su, "_water_fill", audited)
    # a battery of 200 gives this K = 200 draw one 77-slot segment
    rng = np.random.default_rng(8000)
    k = 200
    env = UserEnv(harvest=rng.uniform(0.0, 10.0, k),
                  gain=rng.standard_exponential(k),
                  battery_max=200.0, power_max=15.0)
    p, _, x, _ = su.solve_single(env)
    assert kkt_certificate(env, p, x).passed
    long_fills = [(t, r) for n, t, r in records if n >= 48]
    assert long_fills
    assert max(r / t for t, r in long_fills) <= 1e-10


# ---- classification ----------------------------------------------------------

def test_classify_segment_statuses():
    e = np.array([2.0, 4.0])

    def feasible(p, battery_max, power_max):
        # segment (0, 2] from a BDP: the battery is e - cumsum(p)
        ok, _ = su._segment_status(p, e.tolist(), 0.0, 0.0, battery_max, power_max)
        return ok

    assert feasible([1.0, 1.0], 5.0, 10.0) is True
    assert feasible([0.0, 0.0], 3.5, 10.0) is False    # battery above capacity
    assert feasible([2.1, 0.0], 5.0, 10.0) is False    # battery below zero
    assert feasible([1.0, 1.0], 5.0, 0.5) is False     # above the cap


# ---- full single-user solve --------------------------------------------------

def test_solve_single_even_split():
    p, d, x, levels = su.solve_single(env_of([3, 0, 0], bmax=5.0, pmax=10.0))
    assert np.allclose(p, [1, 1, 1], atol=1e-9)
    assert not d.any()
    assert x == [(0, su.BDP), (3, su.BDP)]
    assert len(levels) == 1 and levels[0] == pytest.approx(2.0)


def test_solve_single_depletion_point():
    p, _, x, levels = su.solve_single(env_of([1, 3], bmax=10.0, pmax=10.0))
    assert np.allclose(p, [1, 3], atol=1e-9)
    assert x == [(0, su.BDP), (1, su.BDP), (2, su.BDP)]
    assert np.allclose(levels, [2.0, 4.0], atol=1e-9)


def test_solve_single_full_charge_point():
    p, _, x, levels = su.solve_single(env_of([6, 0], bmax=2.0, pmax=10.0))
    assert np.allclose(p, [4, 2], atol=1e-9)
    assert (1, su.BFP) in x
    assert np.allclose(levels, [5.0, 3.0], atol=1e-9)


def test_solve_single_zero_battery_degenerates_to_slotwise():
    env = env_of([3, 7, 1], bmax=0.0, pmax=4.0)
    p, _, _, _ = su.solve_single(env)
    assert np.allclose(p, np.minimum(env.harvest, 4.0), atol=1e-9)


def assert_same_solution(got, want):
    # bit for bit: the warm start may only skip work, never move an output;
    # a prepared solve's p is a list, solve_reduced's an array
    p, x, levels = got
    p0, x0, levels0 = want
    assert np.asarray(p, dtype=float).tobytes() == np.asarray(p0, dtype=float).tobytes()
    assert x == x0
    assert levels == levels0


@given(user_envs(), st.data())
@settings(max_examples=80)
def test_solve_single_passes_certificate(env, data):
    p, _, x, levels = su.solve_single(env)
    cert = kkt_certificate(env, p, x)
    assert cert.passed, cert.conditions
    # the exact fill leaves a gap at rounding level, far below the tolerance
    assert cert.conditions["duality-gap"][1] <= 1e-10 * env.num_slots
    # warm starts from its own boundaries and from a stale guess, the
    # answer on other gains, both give the cold result
    e_tilde = su.effective_energy(env)
    assert_same_solution(warm_solve(env.gain, e_tilde, env.battery_max,
                                    env.power_max, x), (p, x, levels))
    k = env.num_slots
    other = UserEnv(env.harvest,
                    np.array(data.draw(st.lists(finite_gain, min_size=k, max_size=k))),
                    env.battery_max, env.power_max)
    _, _, stale, _ = su.solve_single(other)
    assert_same_solution(warm_solve(env.gain, e_tilde, env.battery_max,
                                    env.power_max, stale), (p, x, levels))


def assert_certified(env, p, d, x):
    # the schedule passes every check, whatever the unit of energy
    sc = Scenario.single_user(env)
    assert check_feasible(sc, p[None, :], d[None, :]).ok
    assert kkt_certificate(env, p, x).passed
    assert first_order_certificate(sc, p[None, :])[0]


def test_solve_single_is_scale_invariant():
    # energies times c and gains over c describe the same problem: neither
    # the boundary list nor the rate may move with c, nothing may raise,
    # and every check passes in every unit
    rng = np.random.default_rng(41)
    for i in range(120):
        k = int(rng.integers(1, 31))
        harvest = rng.uniform(0.0, 10.0, k)
        gain = np.where(rng.random(k) < 0.1, 0.0, rng.standard_exponential(k))
        bmax = (0.0, 5.0, 20.0, math.inf)[i % 4]
        pmax = (3.0, 15.0, math.inf)[(i // 4) % 3]
        env = env_of(harvest, gain, bmax=bmax, pmax=pmax)
        p, d, x, _ = su.solve_single(env)
        assert_certified(env, p, d, x)
        rate = float(np.log1p(gain * p).sum())
        for c in (1e-6, 1e5, 1e8, 1e12):
            env = env_of(harvest * c, gain / c, bmax=bmax * c, pmax=pmax * c)
            p_c, d_c, x_c, _ = su.solve_single(env)
            assert x_c == x
            assert float(np.log1p(env.gain * p_c).sum()) == pytest.approx(rate, rel=1e-9)
            assert_certified(env, p_c, d_c, x_c)


@st.composite
def scaled_user_envs(draw, max_slots=12):
    """test_solve_single_is_scale_invariant's family in a random unit of energy.

    s is log-uniform in [1e-6, 1e12]; harvest in [0, 10] times s, gains
    over s with about one in ten zero, B in {0, finite times s, inf} and P
    in {finite times s, inf}.  Harvests and gains keep at least 1e-3 when
    positive, as U(0, 10) and Exp(1) draws do: an instance whose every
    gain times energy per slot is below about 1e-13 is the low-SNR regime,
    a separate open defect of the fill, not a question of units.
    """
    s = 10.0 ** draw(st.floats(min_value=-6.0, max_value=12.0))
    k = draw(st.integers(min_value=1, max_value=max_slots))
    harvest = draw(st.lists(st.one_of(st.just(0.0),
                                      st.floats(min_value=1e-3, max_value=10.0)),
                            min_size=k, max_size=k))
    gain = draw(st.lists(st.tuples(st.integers(0, 9),
                                   st.floats(min_value=1e-3, max_value=20.0))
                         .map(lambda t: t[1] if t[0] else 0.0),
                         min_size=k, max_size=k))
    bmax = draw(st.one_of(st.just(0.0), st.floats(min_value=0.1, max_value=40.0),
                          st.just(math.inf)))
    pmax = draw(st.one_of(st.floats(min_value=0.1, max_value=30.0),
                          st.just(math.inf)))
    return env_of(np.array(harvest) * s, np.array(gain) / s,
                  bmax=bmax * s, pmax=pmax * s)


@given(scaled_user_envs())
def test_extreme_scale_outputs_pass_every_check(env):
    # solve_reduced's internal RuntimeError would fail this too
    p, d, x, _ = su.solve_single(env)
    assert_certified(env, p, d, x)


def _overflow_wastage(env, p):
    # waste only what overflows the battery, with no tolerance of its own
    d = np.zeros(env.num_slots)
    level = 0.0
    for k in range(env.num_slots):
        level += env.harvest[k] - p[k]
        d[k] = max(level - env.battery_max, 0.0)
        level -= d[k]
    return d


@given(scaled_user_envs(max_slots=8), st.data())
@settings(max_examples=200)
def test_feasibility_predicates_agree_at_any_scale(env, data):
    # the optimum nudged by at most 1e-12 or at least 1e-6 of the energy
    # scale; nudges in between land where rounding decides and prove nothing
    p = su.solve_single(env)[0]
    k = env.num_slots
    size = data.draw(st.one_of(st.floats(min_value=0.0, max_value=1e-12),
                               st.floats(min_value=1e-6, max_value=1e-2)))
    step = np.array(data.draw(st.lists(st.sampled_from([-1.0, 0.0, 1.0]),
                                       min_size=k, max_size=k)))
    q = p + size * energy_scale(cumulative_harvest(env.harvest)) * step
    member = reduce_polytope(env).contains(q)
    d = induced_wastage(env, q)
    assert (d is not None) == member
    report = check_feasible(Scenario.single_user(env), q[None, :],
                            _overflow_wastage(env, q)[None, :])
    assert report.ok == member


@st.composite
def staircase_envs(draw, max_slots=100):
    """B = P = infinity with harvest in about one slot in four.

    Energy only ever waits, so the walk crosses long idle stretches between
    the harvests and the levels rise in a staircase.
    """
    k = draw(st.integers(min_value=1, max_value=max_slots))
    harvest = draw(st.lists(st.tuples(st.integers(0, 3), finite_energy)
                            .map(lambda t: 0.0 if t[0] else t[1]),
                            min_size=k, max_size=k))
    gain = draw(st.lists(finite_gain, min_size=k, max_size=k))
    return env_of(harvest, gain, bmax=math.inf, pmax=math.inf)


@st.composite
def dense_envs(draw, max_slots=200):
    """Criterion 8's worst case: rising harvest on a flat channel.

    Spending each arrival at once is optimal, so every slot closes a
    segment and every walk crosses the rest of the horizon idle.
    """
    k = draw(st.integers(min_value=1, max_value=max_slots))
    first = draw(st.floats(min_value=0.1, max_value=5.0))
    rise = draw(st.floats(min_value=0.01, max_value=3.0))
    gain = draw(st.floats(min_value=1e-3, max_value=20.0))
    return env_of(np.linspace(first, first * (1.0 + rise), k) ** 2,
                  np.full(k, gain), bmax=1e9, pmax=math.inf)


# 100 slots: the walks from boundaries 0 .. 33 are still idle with more
# than su._NUMPY_WALK_MIN_SLOTS slots left, and hand over to numpy
LONG_UNBOUNDED = env_of(np.linspace(1.0, 2.0, 100) ** 2, bmax=math.inf, pmax=math.inf)


@given(st.one_of(user_envs(), scaled_user_envs(), staircase_envs(), dense_envs()))
# prefix draws that tie a level bound exactly, which hypothesis seldom hits:
# hi = 3.0 from slot 1, and slot 2 draws 2.0 + (3.0 - 2.0) = 3.0, its bound
@example(env_of([2.0, 1.0, 5.0], [1.0, 0.5, 1.0], bmax=math.inf, pmax=math.inf))
# B = 0: every prefix's floor is its ceiling, and each draw ties both
@example(env_of([1.0, 1.0, 1.0], bmax=0.0, pmax=math.inf))
# every slot spends its harvest at the cap exactly
@example(env_of([3.0, 3.0, 3.0], bmax=10.0, pmax=3.0))
# slot 1 fills the battery: lo's prefix draws its floor 10.0 - 2.0 exactly
@example(env_of([10.0, 0.0, 0.0, 4.0], [1.0, 1.0, 0.5, 1.0], bmax=2.0, pmax=math.inf))
# an unbounded battery keeps no lower bound, in the numpy phase as well:
# every slot is a depletion point and every walk crosses the horizon idle
@example(LONG_UNBOUNDED)
def test_walk_matches_the_numpy_reference_walk(env):
    # from every boundary the cold solve confirms, the two-phase walk closes
    # the segment where the earlier all-numpy walk does; short segments
    # stay on Python floats, the idle stretches of the last two families
    # take the numpy phase where more than su._NUMPY_WALK_MIN_SLOTS slots
    # are left
    walk = su._close_segment

    def checked(inv, e_tilde, inv_list, e_list, bmax, cap, a, kind_a):
        got = walk(inv, e_tilde, inv_list, e_list, bmax, cap, a, kind_a)
        assert got == _oracles.close_segment_reference(inv, e_tilde, bmax, cap,
                                                       a, kind_a)
        return got

    with pytest.MonkeyPatch.context() as mp, counted_handovers() as handovers:
        mp.setattr(su, "_close_segment", checked)
        su.solve_single(env)
    if env is LONG_UNBOUNDED:
        assert handovers.count


def test_walk_overflows_to_inf_quietly_in_either_phase():
    # gains near the float minimum put inverse gains near the float
    # maximum, and the numpy phase's running draws overflow to inf as the
    # Python phase's do, with no warning (an error under this suite): the
    # 70 slots at 2.2e-308 draw nothing at hi, so the walk hands over with
    # 73 slots left, and the last two draw past float max in its cumsum
    tiny = 2.2250738585072014e-308
    gain = [5.562684646268003e-309, tiny, tiny] + [tiny] * 70 + [1.0, 3.7]
    e_tilde = list(itertools.accumulate(
        [0.1110158509111514, 0.4931, 0.8433] + [0.5] * 70 + [0.4087, 0.5922]))
    with counted_handovers() as handovers:
        p, x, _ = su.solve_reduced(gain, e_tilde, math.inf, math.inf)
    assert handovers.count
    assert x == [(0, su.BDP), (75, su.BDP)]
    env = UserEnv(np.diff(e_tilde, prepend=0.0), np.array(gain), math.inf, math.inf)
    assert kkt_certificate(env, p, x).passed


@pytest.mark.parametrize("pmax", [3.0, math.inf])
def test_unbounded_walk_still_closes_below_its_zero_floor(pmax):
    # with B = inf the walk drops its lower bound, whose draws are all 0.0,
    # but a prefix ceiling below that floor still closes the segment at
    # once, as a BFP, where the reference walk does; here after an idle
    # stretch of 80 slots, in the numpy phase
    e_tilde = list(itertools.accumulate([5.0] + [float(k) for k in range(1, 81)])) + [4.0]
    inv = [1.0] * len(e_tilde)
    args = (np.array(inv), np.array(e_tilde))
    want = _oracles.close_segment_reference(*args, math.inf, pmax, 1, su.BDP)
    assert want == (1, su.BFP)
    with counted_handovers() as handovers:
        assert su._close_segment(*args, inv, e_tilde, math.inf, pmax, 1, su.BDP) == want
    assert handovers.count


@contextlib.contextmanager
def walks_under_both_rules():
    """Check every walk against the hand-over rule without the slots-left test.

    Each walk runs as it is and again with su._NUMPY_WALK_MIN_SLOTS at 0,
    where it hands over whenever idle prefixes outnumber events, and the
    two must close at one boundary.  Yields the list of walks checked.
    """
    walk, default = su._close_segment, su._NUMPY_WALK_MIN_SLOTS
    walks = []

    def both(*args):
        got = walk(*args)
        su._NUMPY_WALK_MIN_SLOTS = 0
        try:
            assert walk(*args) == got
        finally:
            su._NUMPY_WALK_MIN_SLOTS = default
        walks.append(got)
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(su, "_close_segment", both)
        yield walks


def test_slots_left_moves_no_walk_on_the_fig9_grid():
    # every cold walk of the fig9 and fig10 cells (all five policies) closes
    # where it does when the walk hands over regardless of the slots left;
    # at 20 slots only that rule enters the numpy phase
    with walks_under_both_rules() as walks, counted_handovers() as handovers:
        for preset in ("fig9", "fig10"):
            run_experiment(preset, trials=2, seed=11)
    assert walks and handovers.count


@given(st.one_of(user_envs(), scaled_user_envs(), staircase_envs(), dense_envs()))
def test_slots_left_moves_no_walk_on_the_hypothesis_families(env):
    with walks_under_both_rules():
        su.solve_single(env)


def test_no_20_slot_fig9_cell_enters_the_numpy_phase():
    with counted_handovers() as handovers:
        for preset in ("fig9", "fig10"):
            run_experiment(preset, trials=2, seed=11)
    assert handovers.count == 0


@given(st.one_of(user_envs(max_slots=20), scaled_user_envs(max_slots=20),
                 staircase_envs(max_slots=20), dense_envs(max_slots=20)))
def test_no_20_slot_solve_enters_the_numpy_phase(env):
    with counted_handovers() as handovers:
        su.solve_single(env)
    assert handovers.count == 0


def test_warm_start_from_own_boundaries_fills_each_segment_once(monkeypatch):
    # the guess is checked in the walk's own units: energies times c and
    # gains over c accept it exactly as at unit scale
    calls = []
    original = su._water_fill

    def counted(*args):
        calls.append(len(args[0]))
        return original(*args)

    monkeypatch.setattr(su, "_water_fill", counted)
    rng = np.random.default_rng(31)
    for _ in range(40):
        k = int(rng.integers(1, 40))
        harvest, gain = rng.uniform(0.0, 10.0, k), rng.standard_exponential(k)
        for c in (1.0, 1e-6, 1e5, 1e8, 1e12):
            env = UserEnv(harvest=harvest * c, gain=gain / c,
                          battery_max=20.0 * c, power_max=15.0 * c)
            e_tilde = su.effective_energy(env)
            cold = su.solve_reduced(env.gain, e_tilde, env.battery_max, env.power_max)
            calls.clear()
            warm = warm_solve(env.gain, e_tilde, env.battery_max, env.power_max,
                              cold[1])
            assert_same_solution(warm, cold)
            assert len(calls) == len(cold[1]) - 1, c


def test_stale_guess_from_another_instance_gives_cold_result():
    rng = np.random.default_rng(32)
    k = 20
    envs = [UserEnv(harvest=rng.uniform(0.0, 10.0, k),
                    gain=rng.standard_exponential(k),
                    battery_max=20.0, power_max=15.0) for _ in range(12)]
    answers = [su.solve_single(env) for env in envs]
    for env, (p, _, x, levels) in zip(envs, answers):
        e_tilde = su.effective_energy(env)
        for _, _, stale, _ in answers:
            warm = warm_solve(env.gain, e_tilde, env.battery_max,
                              env.power_max, stale)
            assert_same_solution(warm, (p, x, levels))


@pytest.mark.parametrize("harvest, gain, bmax, pmax, falls_back", [
    # zero-gain slots, the last segment's alone: each sits at the burn
    # level like any other slot, so the cold boundaries are accepted
    ([3.0, 1.0, 4.0, 2.0], [1.0, 0.0, 2.0, 0.0], 5.0, 10.0, False),
    # no battery: every slot is both a BDP and a BFP
    ([3.0, 1.0, 4.0, 2.0], [1.0, 0.5, 2.0, 1.5], 0.0, 10.0, False),
    # no cap
    ([3.0, 1.0, 4.0, 2.0], [1.0, 0.5, 2.0, 1.5], 5.0, math.inf, False),
    # harvest above the cap everywhere: every segment is all capped
    ([9.0, 9.0, 9.0], [1.0, 0.5, 2.0], 100.0, 2.0, True),
])
def test_edge_case_guesses_match_cold_result(harvest, gain, bmax, pmax,
                                             falls_back):
    env = env_of(harvest, gain, bmax=bmax, pmax=pmax)
    e_tilde = su.effective_energy(env)
    cold = su.solve_reduced(env.gain, e_tilde, bmax, pmax)
    k = env.num_slots
    guesses = [cold[1], [(0, su.BDP), (k, su.BDP)],
               [(0, su.BDP)] + [(t, su.BDP) for t in range(1, k + 1)]]
    for guess in guesses:
        assert_same_solution(warm_solve(env.gain, e_tilde, bmax, pmax, guess), cold)
        if falls_back:
            assert su._refill_guess([1.0 / g for g in env.gain], e_tilde.tolist(),
                                    bmax, pmax, guess) is None


@pytest.mark.parametrize("e_tilde", [
    [math.nan, 2.0],        # not a number
    [1.0, math.inf],        # not finite
    [-1.0, 2.0],            # a budget below zero
    [1.0, 2.0, 3.0],        # one entry too many
    [2.0],                  # one entry too few
    [[1.0, 2.0]],           # not one-dimensional
])
def test_bad_e_tilde_raises(e_tilde):
    with pytest.raises(ValueError, match="e_tilde"):
        su.solve_reduced([1.0, 1.0], e_tilde, 100.0, 100.0)


@pytest.mark.parametrize("gain, bmax, pmax, match", [
    ([math.nan, 1.0], 5.0, 5.0, "entries must be finite"),
    ([-1.0, 1.0], 5.0, 5.0, "entries must be finite"),
    ([math.inf, 1.0], 5.0, 5.0, "entries must be finite"),
    ([1.0, 1.0, 1.0], 5.0, 5.0, "of one length"),
    ([], 5.0, 5.0, "of one length"),
    ([[1.0, 1.0]], 5.0, 5.0, "must be 1-D"),
    ([1.0, 1.0], math.nan, 5.0, "battery_max and power_max"),
    ([1.0, 1.0], 5.0, math.nan, "battery_max and power_max"),
    ([1.0, 1.0], -1.0, 5.0, "battery_max and power_max"),
    ([1.0, 1.0], 5.0, -1.0, "battery_max and power_max"),
])
def test_bad_gain_or_cap_raises(gain, bmax, pmax, match):
    # solve_reduced checks its own inputs: no UserEnv checked them first
    with pytest.raises(ValueError, match=match):
        su.solve_reduced(gain, [1.0, 2.0], bmax, pmax)


@pytest.mark.parametrize("bmax, pmax, e_tilde", [
    (0.0, 100.0, [2.0, 1.0]),     # with no battery, a budget that falls
    (20.0, 1.0, [0.0, 100.0]),    # more than the cap can spend in time
])
def test_unreachable_e_tilde_raises(bmax, pmax, e_tilde):
    with pytest.raises(ValueError, match="e_tilde is unreachable"):
        su.solve_reduced([1.0, 1.0], e_tilde, bmax, pmax)


@pytest.mark.parametrize("pmax", [0.0, 1.0, math.inf])
def test_falling_e_tilde_is_reachable_on_an_unbounded_battery(pmax):
    # the falling budget above has no schedule with B = 0; with B = inf the
    # floor e_k - B never rises past 0, so spending nothing more than the
    # budget's minimum meets it, and the solve does
    p, x, _ = su.solve_reduced([1.0, 1.0, 1.0], [3.0, 2.0, 1.0], math.inf, pmax)
    assert x == [(0, su.BDP), (3, su.BDP)]
    assert p.tolist() == ([0.0] * 3 if pmax == 0.0 else [1.0 / 3.0] * 3)


@pytest.mark.parametrize("guess", [
    [],
    [(1, su.BDP), (4, su.BDP)],
    [(0, su.BFP), (4, su.BDP)],
    [(0, su.BDP), (3, su.BDP)],
    [(0, su.BDP), (5, su.BDP)],
    [(0, su.BDP), (2, su.BDP), (2, su.BFP), (4, su.BDP)],
    [(0, su.BDP), (3, su.BDP), (2, su.BDP), (4, su.BDP)],
    [(0, su.BDP), (2, "full"), (4, su.BDP)],
    [(0, su.BDP), 4],
])
def test_malformed_guess_raises(guess):
    env = env_of([3.0, 1.0, 4.0, 2.0], [1.0, 0.5, 2.0, 1.5], bmax=5.0, pmax=10.0)
    with pytest.raises(ValueError, match="boundary list"):
        kkt_certificate(env, np.zeros(4), guess)


@pytest.mark.parametrize("bmax", [0.0, 5.0, math.inf])
@pytest.mark.parametrize("pmax", [3.0, math.inf])
def test_prepared_solves_match_solve_reduced(bmax, pmax):
    # one problem solved for gains in turn, as a sweep does, answers each
    # exactly as a cold solve_reduced and as a fresh problem warm-started
    # from the last answer
    rng = np.random.default_rng(33)
    for _ in range(8):
        k = int(rng.integers(1, 16))
        env = env_of(rng.uniform(0.0, 10.0, k), np.ones(k), bmax=bmax, pmax=pmax)
        e_tilde = su.effective_energy(env)
        problem = su._ReducedProblem(e_tilde, bmax, pmax)
        base = rng.standard_exponential(k)
        previous = None
        for gain in (base, base * 1.01, np.zeros(k), base * (rng.random(k) > 0.3),
                     base * rng.uniform(0.5, 2.0, k), base):
            got = problem.solve(gain)
            assert type(got[0]) is list and all(type(v) is float for v in got[0])
            assert_same_solution(got, su.solve_reduced(gain, e_tilde, bmax, pmax))
            if previous is not None:
                assert_same_solution(got, warm_solve(gain, e_tilde, bmax, pmax,
                                                     previous))
            previous = got[1]


@given(st.data())
@settings(max_examples=80)
def test_prepared_answers_end_at_a_depletion_point(data):
    # the only boundary lists a prepared problem refills are its own
    # answers': each runs from (0, BDP) to (K, BDP), with no BFP where the
    # battery is unbounded, cold or warm-started on perturbed gains
    k = data.draw(st.integers(min_value=1, max_value=12))
    harvest = data.draw(st.lists(finite_energy, min_size=k, max_size=k))
    gain = np.array(data.draw(st.lists(finite_gain, min_size=k, max_size=k)))
    bmax = data.draw(st.sampled_from([0.0, 5.0, math.inf]))
    pmax = data.draw(st.sampled_from([3.0, math.inf]))
    factors = data.draw(st.lists(st.floats(min_value=0.5, max_value=2.0),
                                 min_size=k, max_size=k))
    env = env_of(harvest, gain, bmax=bmax, pmax=pmax)
    problem = su._ReducedProblem(su.effective_energy(env), bmax, pmax)
    for g in (gain, gain * np.array(factors)):
        _, x, _ = problem.solve(g)
        assert x[0] == (0, su.BDP) and x[-1] == (k, su.BDP)
        if bmax == math.inf:
            assert all(kind == su.BDP for _, kind in x)


# the edges of the priced gain range: zero, the least subnormal, the floor
# and the next float above it, the least normal, and on to the float maximum
EDGE_GAINS = (0.0, 5e-324, GAIN_FLOOR, math.nextafter(GAIN_FLOOR, math.inf),
              2.2e-308, 1e-300, 1.0, 1e300, sys.float_info.max)
# the open low-SNR defect a solve may still end in (ROADMAP item 2),
# matched by its message
KNOWN_SOLVER_ERRORS = re.compile("closed segment did not fill feasibly")


@given(st.data())
@settings(max_examples=150)
def test_solves_fill_only_finite_nonnegative_inverse_gains(data):
    # every solve builds its inverse-gain list from gains it has checked,
    # and nothing checks the list again: every slice a fill receives, cold
    # or warm-started, at any energy scale and gain, is finite and >= 0
    k = data.draw(st.integers(min_value=1, max_value=8))
    scale = 10.0 ** data.draw(st.integers(min_value=-300, max_value=300))
    harvest = scale * np.array(data.draw(st.lists(st.floats(0.0, 1.0),
                                                  min_size=k, max_size=k)))
    gains = [np.array(data.draw(st.lists(st.sampled_from(EDGE_GAINS),
                                         min_size=k, max_size=k)))
             for _ in range(2)]
    bmax, pmax = (scale * data.draw(st.sampled_from([0.0, 0.5, 3.0, math.inf])),
                  scale * data.draw(st.sampled_from([0.0, 0.3, 2.0, math.inf])))
    env = env_of(harvest, bmax=bmax, pmax=pmax)
    slices = []
    original = su._water_fill

    def audited(inv, target, cap):
        slices.append(list(inv))
        return original(inv, target, cap)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(su, "_water_fill", audited)
        try:
            problem = su._ReducedProblem(su.effective_energy(env), bmax, pmax)
            for g in gains:
                problem.solve(g)
        except (ValueError, RuntimeError) as exc:
            assert KNOWN_SOLVER_ERRORS.search(str(exc)), exc
    for inv in slices:
        assert all(0.0 <= v < math.inf for v in inv), inv


@given(user_envs(allow_inf_caps=False))
@settings(max_examples=80)
def test_solve_single_level_steps_match_boundary_kinds(env):
    # Uncapped instance: every positive allocation is strictly interior, so
    # the stored segment heights are the true dual levels.  (With a binding
    # cap a saturated segment's height is only a lower bound and ordering
    # may legitimately deviate; kkt_certificate covers that case.)
    env = UserEnv(env.harvest, env.gain, env.battery_max, math.inf)
    _, _, x, levels = su.solve_single(env)
    for (slot, kind), before, after in zip(x[1:-1], levels[:-1], levels[1:]):
        if before == 0.0 or after == 0.0:
            continue                      # empty segment carries no level
        if after > before + 1e-7 * max(1.0, before):
            assert kind == su.BDP
        if after < before - 1e-7 * max(1.0, before):
            assert kind == su.BFP

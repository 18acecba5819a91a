import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ehwf.baselines import (balanced_policy, greedy_policy,
                            iterative_modified_staircase, modified_staircase,
                            non_iterative_multiuser, staircase_wf)
from ehwf.bench import GenParams, gen_scenario
from ehwf.model import (Scenario, UserEnv, check_feasible, cumulative_harvest,
                        sum_rate)
from ehwf.mac import effective_gain
from ehwf.single_user import _clip, optimal_wastage, solve_reduced

import _oracles
from conftest import user_envs


def env_of(harvest, gain=None, bmax=100.0, pmax=100.0):
    harvest = np.asarray(harvest, dtype=float)
    if gain is None:
        gain = np.ones_like(harvest)
    return UserEnv(harvest=harvest, gain=np.asarray(gain, dtype=float),
                   battery_max=bmax, power_max=pmax)


def test_greedy_policy_is_the_wastage_pair():
    env = env_of([10, 2], bmax=3.0, pmax=4.0)
    p, d = greedy_policy(env)
    d_ref, p_ref, _ = optimal_wastage(env)
    assert np.array_equal(p, p_ref) and np.array_equal(d, d_ref)
    assert p.tolist() == [4, 4]

    p, _ = greedy_policy(env_of([0, 0]))
    assert not p.any()

    p, _ = greedy_policy(env_of([2, 2], pmax=5.0))
    assert p.tolist() == [2, 2]


@st.composite
def clip_envs(draw):
    """user_envs with zero-harvest slots, and B = 0, P = 0 or P = inf, drawn often."""
    env = draw(user_envs())
    keep = draw(st.lists(st.booleans(), min_size=env.num_slots, max_size=env.num_slots))
    return UserEnv(env.harvest * np.array(keep, dtype=float), env.gain,
                   draw(st.sampled_from([0.0, env.battery_max, math.inf])),
                   draw(st.sampled_from([0.0, env.power_max, math.inf])))


@given(clip_envs())
@example(env_of([0.0, 4.0, 0.0, 2.0], [1.0, 0.0, 2.0, 1.0], bmax=0.0, pmax=3.0))
@example(env_of([5.0, 0.0, 1.0], bmax=2.0, pmax=0.0))
@example(env_of([0.0, 0.0, 7.0, 0.0], bmax=0.0, pmax=math.inf))
def test_clipping_policies_match_the_builtin_clip_bit_for_bit(env):
    # the clip clamps with comparisons; the min/max clip it replaced is the
    # reference, and every byte of every output must agree
    def as_bytes(arrays):
        return [a.tobytes() for a in arrays]

    ref = _oracles.clip_to_battery_reference
    d, p, battery = optimal_wastage(env)
    assert as_bytes((p, d, battery)) == as_bytes(ref(env, env.power_max))
    tau = float(env.harvest.sum()) / env.num_slots
    assert as_bytes(balanced_policy(env)) == as_bytes(ref(env, tau)[:2])
    stair = staircase_wf(env)
    assert as_bytes(modified_staircase(env)) == as_bytes(ref(env, stair)[:2])
    # the sweeps' clip on lists, as iterative_modified_staircase calls it
    got = _clip(env.harvest.tolist(), env.battery_max, env.power_max, stair.tolist())
    assert as_bytes(map(np.array, got)) == as_bytes(ref(env, stair))


def test_clip_keeps_the_builtin_tie_order():
    # a -0.0 want ties 0.0, and a NaN want compares false both ways: the
    # comparisons must return what min and max return, sign and payload
    env = env_of([0.0, 1.0, 2.0, 0.0, 3.0], bmax=0.0, pmax=2.0)
    want = np.array([-0.0, 0.0, math.nan, 2.0, -0.0])
    ref = _oracles.clip_to_battery_reference(env, want)
    got = _clip(env.harvest.tolist(), env.battery_max, env.power_max, want.tolist())
    assert [np.array(a).tobytes() for a in got] == [a.tobytes() for a in ref]


def test_staircase_sweeps_match_a_replay_on_arrays():
    # each response, the prepared staircase list clipped against the harvest
    # list, is bit for bit the reference clip of a cold solve_reduced array
    # on the public effective gains, sweep after sweep
    for seed in range(6):
        sc = gen_scenario(GenParams(n_users=3, n_slots=10, harvest_mean=5.0 + seed,
                                    harvest_var=3.5, battery_max=20.0,
                                    power_max=15.0, seed=seed))
        sol = iterative_modified_staircase(sc, max_iter=4)
        p, d = np.zeros_like(sc.harvest), np.zeros_like(sc.harvest)
        for _ in range(sol.iterations):
            for n in range(sc.num_users):
                stair, _, _ = solve_reduced(effective_gain(sc, p, n),
                                            cumulative_harvest(sc.harvest[n]),
                                            math.inf, math.inf)
                p[n], d[n], _ = _oracles.clip_to_battery_reference(sc.user(n), stair)
        assert p.tobytes() == sol.p.tobytes() and d.tobytes() == sol.d.tobytes()


def test_balanced_policy_examples():
    p, _ = balanced_policy(env_of([2, 2]))
    assert np.allclose(p, [2, 2])

    p, _ = balanced_policy(env_of([4, 0], bmax=2.0))
    assert np.allclose(p, [2, 2])

    # nothing banked in slot 1, so the target is simply unavailable there
    p, _ = balanced_policy(env_of([0, 4]))
    assert np.allclose(p, [0, 2])


def staircase_levels(env):
    # the staircase's water levels: the segment solve with both limits off
    _, _, levels = solve_reduced(env.gain, cumulative_harvest(env.harvest),
                                 math.inf, math.inf)
    return levels


def test_staircase_wf_examples():
    p = staircase_wf(env_of([1, 3]))
    assert np.allclose(p, [1, 3], atol=1e-9)
    assert np.allclose(staircase_levels(env_of([1, 3])), [2, 4], atol=1e-9)

    p = staircase_wf(env_of([6, 0, 0]))
    assert np.allclose(p, [2, 2, 2], atol=1e-9)

    p = staircase_wf(env_of([7.5]))
    assert np.allclose(p, [7.5], atol=1e-9)


def test_modified_staircase_clips_to_cap():
    # unconstrained staircase would send [6, 2]; the cap cuts slot 1 to 4
    env = env_of([6, 2], gain=[10.0, 0.1], bmax=50.0, pmax=4.0)
    stair = staircase_wf(env)
    assert stair[0] > 4.0
    p, d = modified_staircase(env)
    assert p[0] == pytest.approx(4.0)
    assert np.allclose(p, np.minimum(stair, 4.0), atol=1e-9)
    report = check_feasible(Scenario.single_user(env), p[None, :], d[None, :])
    assert report.ok


def test_modified_staircase_feasible_input_unchanged():
    env = env_of([1, 3], bmax=100.0, pmax=100.0)
    p, d = modified_staircase(env)
    assert np.allclose(p, staircase_wf(env), atol=1e-9)
    assert not d.any()


def test_modified_staircase_zero_cap():
    env = env_of([3, 3], bmax=2.0, pmax=0.0)
    p, d = modified_staircase(env)
    assert not p.any()
    assert d.sum() == pytest.approx(4.0)   # all harvest wasted once the battery fills


def test_iterative_modified_staircase_single_user_reduction():
    rng = np.random.default_rng(0)
    harvest = rng.uniform(0, 10, (1, 6))
    gain = rng.exponential(1.0, (1, 6))
    sc = Scenario(harvest=harvest, gain=gain,
                  battery_max=np.array([20.0]), power_max=np.array([15.0]))
    sol = iterative_modified_staircase(sc)
    p_ref, _ = modified_staircase(sc.user(0))
    assert np.allclose(sol.p[0], p_ref, atol=1e-12)
    assert sol.converged

    zero = Scenario(harvest=np.zeros((1, 3)), gain=gain[:, :3],
                    battery_max=np.array([20.0]), power_max=np.array([15.0]))
    assert sum_rate(zero, iterative_modified_staircase(zero).p) == 0.0


def test_iterative_modified_staircase_wastage_is_its_own():
    # d must be the wastage of the returned schedule, not the greedy one:
    # with greedy wastage these fig9-shaped pairs all overfill the battery
    for seed in range(200):
        sc = gen_scenario(GenParams(n_users=5, n_slots=20,
                                    harvest_mean=5.0 + seed % 6, harvest_var=3.5,
                                    battery_max=20.0, power_max=15.0, seed=seed))
        sol = iterative_modified_staircase(sc)
        assert check_feasible(sc, sol.p, sol.d).ok, seed


def test_non_iterative_multiuser():
    rng = np.random.default_rng(1)
    harvest = rng.uniform(0, 10, (1, 5))
    gain = rng.exponential(1.0, (1, 5))
    sc = Scenario(harvest=harvest, gain=gain,
                  battery_max=np.array([20.0]), power_max=np.array([15.0]))
    p = non_iterative_multiuser("greedy", sc)
    assert np.allclose(p[0], greedy_policy(sc.user(0))[0])

    # identical users produce identical rows
    sym = Scenario(harvest=np.vstack([harvest, harvest]),
                   gain=np.vstack([gain, gain]),
                   battery_max=np.array([20.0, 20.0]),
                   power_max=np.array([15.0, 15.0]))
    p2 = non_iterative_multiuser("staircase", sym)
    assert np.array_equal(p2[0], p2[1])

    with pytest.raises(ValueError):
        non_iterative_multiuser("optimal", sc)


@given(user_envs(allow_inf_caps=False))
@settings(max_examples=60)
def test_all_baselines_are_feasible(env):
    sc = Scenario.single_user(env)
    for policy in (greedy_policy, balanced_policy, modified_staircase):
        p, d = policy(env)
        report = check_feasible(sc, p[None, :], d[None, :])
        assert report.ok, (policy.__name__, report.violations)


@given(user_envs(allow_inf_caps=False))
@settings(max_examples=60)
def test_staircase_levels_never_step_down(env):
    levels = staircase_levels(env)
    active = [lv for lv in levels if lv > 0.0]
    for before, after in zip(active, active[1:]):
        assert after >= before - 1e-7 * max(1.0, before)

import math

import numpy as np
import pytest
from hypothesis import given, settings

from ehwf.baselines import (balanced_policy, greedy_policy,
                            iterative_modified_staircase, modified_staircase,
                            non_iterative_multiuser, staircase_wf)
from ehwf.bench import GenParams, gen_scenario
from ehwf.model import (Scenario, UserEnv, check_feasible, cumulative_harvest,
                        sum_rate)
from ehwf.single_user import optimal_wastage, solve_reduced

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

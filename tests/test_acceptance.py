"""Acceptance gate: nine end-to-end checks over solver, certificates, and bench.

Each test prints one verdict line (visible through -rP) with the measured
numbers next to the threshold it had to meet.
"""

import math
import time

import numpy as np
import pytest

import ehwf.single_user
from ehwf.bench import GenParams, gen_scenario, run_experiment, truncated_gaussian
from ehwf.mac import first_iteration_gap_bound, solve_mac
from ehwf.model import Scenario, UserEnv, check_feasible, cumulative_harvest, sum_rate
from ehwf.single_user import optimal_wastage, solve_reduced, solve_single
from ehwf.verify import first_order_certificate, kkt_certificate

from _oracles import brute_force_tiny, wastage_minimality_check

BATTERY_GRID = (0.5, 2.0, 20.0)
POWER_GRID = (1.0, 4.0, 15.0)
MEAN_GRID = (5.0, 7.5, 10.0)
VAR_GRID = (1.0, 3.5, 8.0)


def _random_user(i, k, seed):
    rng = np.random.default_rng(seed + i)
    harvest = truncated_gaussian(MEAN_GRID[i % 3], VAR_GRID[(i // 3) % 3],
                                 rng, size=k)
    gain = rng.standard_exponential(k)
    return UserEnv(harvest=harvest, gain=gain,
                   battery_max=BATTERY_GRID[i % 3],
                   power_max=POWER_GRID[(i // 3) % 3])


@pytest.fixture(scope="module")
def converged_mac_batch():
    """500 five-user instances solved to convergence, shared by two checks."""
    batch = []
    for i in range(500):
        params = GenParams(n_users=5, n_slots=20,
                           harvest_mean=5.0 + (i % 6),
                           harvest_var=3.5 if i % 2 == 0 else 8.0,
                           battery_max=20.0, power_max=15.0, seed=3000 + i)
        scenario = gen_scenario(params)
        batch.append((scenario, solve_mac(scenario)))
    return batch


def test_criterion_1_single_user_matches_grid_oracle():
    t0 = time.perf_counter()
    worst_gap = 0.0
    for i in range(200):
        env = _random_user(i, 3, seed=900)
        scenario = Scenario.single_user(env)
        p, _, _, _ = solve_single(env)
        v_solver = sum_rate(scenario, p[None, :])
        _, v_grid = brute_force_tiny(scenario)
        assert v_solver >= v_grid - 1e-9
        assert abs(v_solver - v_grid) <= 1e-3
        worst_gap = max(worst_gap, abs(v_solver - v_grid))
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"criterion 1 PASS: 200 three-slot instances, worst |solver-grid| "
          f"{worst_gap:.2e} <= 1e-3, never worse, {elapsed:.1f}s < 60s")


def test_criterion_2_two_user_matches_grid_oracle():
    t0 = time.perf_counter()
    worst_gap = 0.0
    for i in range(100):
        rng = np.random.default_rng(1200 + i)
        harvest = np.stack([
            truncated_gaussian(MEAN_GRID[i % 3], VAR_GRID[(i // 3) % 3],
                               rng, size=2)
            for _ in range(2)])
        gain = rng.standard_exponential((2, 2))
        scenario = Scenario(harvest=harvest, gain=gain,
                            battery_max=np.full(2, BATTERY_GRID[i % 3]),
                            power_max=np.full(2, POWER_GRID[(i // 3) % 3]))
        sol = solve_mac(scenario)
        v_mac = sum_rate(scenario, sol.p)
        _, v_grid = brute_force_tiny(scenario)
        gap = abs(v_mac - v_grid)
        assert gap <= 1e-3
        worst_gap = max(worst_gap, gap)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"criterion 2 PASS: 100 two-user two-slot instances, worst "
          f"|iterate-grid| {worst_gap:.2e} <= 1e-3, {elapsed:.1f}s < 120s")


def test_criterion_3_certificates_pass_everywhere(converged_mac_batch):
    worst_joint = -math.inf
    worst_single = -math.inf
    for scenario, sol in converged_mac_batch:
        ok, gap = first_order_certificate(scenario, sol.p)
        assert ok
        worst_joint = max(worst_joint, gap)
        for n in range(scenario.num_users):
            env = UserEnv(harvest=scenario.harvest[n], gain=sol.user_gains[n],
                          battery_max=float(scenario.battery_max[n]),
                          power_max=float(scenario.power_max[n]))
            cert = kkt_certificate(env, sol.p[n], sol.user_boundaries[n])
            assert cert.passed
            # each user's own response is exact to rounding
            assert cert.conditions["duality-gap"][1] <= 1e-10 * env.num_slots

        # the same machinery on a plain single-user solve of user 0
        env0 = scenario.user(0)
        p0, _, x0, _ = solve_single(env0)
        cert0 = kkt_certificate(env0, p0, x0)
        assert cert0.passed
        assert cert0.conditions["duality-gap"][1] <= 1e-10 * env0.num_slots
        ok0, gap0 = first_order_certificate(Scenario.single_user(env0),
                                            p0[None, :])
        assert ok0
        worst_single = max(worst_single, gap0)

    # greedy on a lopsided channel leaves rate on the table
    env = UserEnv(harvest=np.array([5.0, 0.0]), gain=np.array([0.1, 10.0]),
                  battery_max=100.0, power_max=100.0)
    _, p_greedy, _ = optimal_wastage(env)
    ok, gap = first_order_certificate(Scenario.single_user(env),
                                      p_greedy[None, :])
    assert not ok and gap > 0.0
    print(f"criterion 3 PASS: certificates hold on 500 converged five-user "
          f"instances (worst joint gap {worst_joint:.2e}, worst single-user gap "
          f"{worst_single:.2e}, tol 2e-5); greedy flagged with gap {gap:.2f} > 0")


def test_criterion_4_wastage_minimality_and_reschedule():
    # any feasible pair wastes at least the greedy minimum
    accepted = 0
    attempts = 0
    rng = np.random.default_rng(77)
    while accepted < 500 and attempts < 30_000:
        attempts += 1
        k = 6
        env = UserEnv(harvest=rng.uniform(0.0, 10.0, k),
                      gain=rng.standard_exponential(k),
                      battery_max=BATTERY_GRID[attempts % 3],
                      power_max=POWER_GRID[attempts % 2])
        p = rng.uniform(0.0, min(env.power_max, 4.0), k)
        d = rng.uniform(0.0, 1.5, k) * (rng.random(k) < 0.5)
        report = check_feasible(Scenario.single_user(env), p[None, :],
                                d[None, :])
        if not report.ok:
            continue
        accepted += 1
        assert wastage_minimality_check(env, [(p, d)])
    assert accepted == 500

    # realizing the same total discard on a different full-battery slot
    # leaves the optimizer untouched
    worst_move = 0.0
    for i in range(100):
        rng = np.random.default_rng(500 + i)
        k = 4 + (i % 5)
        bmax = (2.0, 5.0)[i % 2]
        pmax = (1.0, 3.0)[(i // 2) % 2]
        x1 = rng.uniform(0.2, bmax / 2)
        x2 = rng.uniform(0.2, bmax / 2)
        harvest = np.concatenate([[bmax + pmax + x1, pmax + x2],
                                  rng.uniform(0.0, 0.9 * pmax, k - 2)])
        env = UserEnv(harvest=harvest, gain=rng.standard_exponential(k),
                      battery_max=bmax, power_max=pmax)
        d_star, _, _ = optimal_wastage(env)
        assert d_star[0] == pytest.approx(x1, abs=1e-9)
        assert d_star[1] == pytest.approx(x2, abs=1e-9)

        p_ref, _, _, _ = solve_single(env)
        d_alt = d_star.copy()
        d_alt[0] += d_alt[1]
        d_alt[1] = 0.0
        assert d_alt.sum() == pytest.approx(d_star.sum())
        # the budget d_alt leaves: the harvest's running total less d_alt's
        e_alt = cumulative_harvest(env.harvest) - np.cumsum(d_alt)
        p_alt, _, _ = solve_reduced(env.gain, e_alt, env.battery_max, env.power_max)
        report = check_feasible(Scenario.single_user(env), p_alt[None, :],
                                d_alt[None, :])
        assert report.ok
        move = float(np.max(np.abs(p_alt - p_ref)))
        assert move <= 1e-8
        worst_move = max(worst_move, move)
    print(f"criterion 4 PASS: 500 rejection-sampled feasible pairs respect the "
          f"wastage minimum; discard reschedule moves the optimizer by at most "
          f"{worst_move:.2e} <= 1e-8 on 100 engineered instances")


def test_criterion_5_first_sweep_gap_bound(converged_mac_batch):
    bound = first_iteration_gap_bound(5, 20)
    gaps = []
    for _, sol in converged_mac_batch:
        gap = sol.trace[-1] - sol.trace[0]
        assert 0.0 <= gap <= bound
        gaps.append(gap)
    gaps = np.array(gaps)
    print(f"criterion 5 PASS: converged-minus-first-sweep gap <= {bound:g} "
          f"nats on all 500 instances; empirical mean {gaps.mean():.3f}, "
          f"max {gaps.max():.3f}")


def test_criterion_6_convergence_speed():
    t0 = time.perf_counter()
    sweeps = []
    for i in range(500):
        params = GenParams(n_users=5, n_slots=20, harvest_mean=5.0,
                           harvest_var=8.0, battery_max=20.0, power_max=15.0,
                           seed=6000 + i)
        sol = solve_mac(gen_scenario(params))
        final = sol.trace[-1]
        # converged once the value sits within 0.1% of its settled level,
        # the resolution at which a convergence curve is read
        sweeps.append(next(t + 1 for t, v in enumerate(sol.trace)
                           if final - v <= 1e-3 * final))
    elapsed = time.perf_counter() - t0
    sweeps = np.array(sweeps)
    share5 = float(np.mean(sweeps <= 5))
    median = float(np.median(sweeps))
    assert share5 >= 0.95
    assert median <= 2.0
    assert elapsed < 60.0
    print(f"criterion 6 PASS: {share5 * 100:.1f}% of 500 instances within 5 "
          f"sweeps (>= 95%), median {median:g} <= 2, {elapsed:.1f}s < 60s")


def test_criterion_7_policy_ordering_and_trends():
    curves = {}
    for preset in ("fig5", "fig6", "fig7", "fig8"):
        res = run_experiment(preset, trials=500, seed=0)
        means = {pol: np.array([res.mean_sum_rate(pol, v)
                                for v in res.sweep_values])
                 for pol in res.policies}
        opt, stair = means["optimal"], means["staircase"]
        assert (opt > stair).all()
        assert (stair > means["greedy"]).all()
        assert (opt > means["balanced"]).all()
        curves[preset] = (np.array(res.sweep_values), opt, stair)

    def fitted_slope(x, y):
        return np.polyfit(x, y, 1)[0]

    # low harvest mean: more variance means more energy overall; the rise
    # dominates the upper half of the sweep and the whole-sweep trend
    x, opt, _ = curves["fig5"]
    assert fitted_slope(x, opt) > 0 and opt[-1] > opt[0]
    assert (np.diff(opt[2:]) > 0).all()
    # high harvest mean: more variance only overflows battery and cap
    x, opt, _ = curves["fig6"]
    assert fitted_slope(x, opt) < 0 and (np.diff(opt) < 0).all()
    # bigger battery always helps, and lets the clipped staircase catch up
    for preset in ("fig7", "fig8"):
        x, opt, _ = curves[preset]
        assert fitted_slope(x, opt) > 0 and (np.diff(opt) > 0).all()
    _, opt, stair = curves["fig7"]
    gap = opt - stair
    assert (np.diff(gap) < 0).all()
    assert gap[-1] < gap[0] / 2
    print(f"criterion 7 PASS: optimal > staircase > greedy and optimal > "
          f"balanced at all 24 sweep points (500 trials each); trends match "
          f"(battery-sweep gap {gap[0]:.3f} -> {gap[-1]:.3f})")


def test_criterion_8_scaling_and_sweep_time():
    sizes = (50, 100, 200, 400, 800)

    def timed_solve(env, reps):
        best = math.inf
        for _ in range(reps):
            t0 = time.perf_counter()
            solve_single(env)
            best = min(best, time.perf_counter() - t0)
        return best

    warm = UserEnv(harvest=np.linspace(1.0, 2.0, 50) ** 2, gain=np.ones(50),
                   battery_max=1e9, power_max=math.inf)
    solve_single(warm)

    # rising harvest on a flat channel puts a depletion point in every slot,
    # the quadratic-work worst case
    dense_times = []
    for k in sizes:
        env = UserEnv(harvest=np.linspace(1.0, 2.0, k) ** 2, gain=np.ones(k),
                      battery_max=1e9, power_max=math.inf)
        dense_times.append(timed_solve(env, reps=3))

    random_times = []
    for k in sizes:
        per_seed = []
        for seed in range(3):
            rng = np.random.default_rng(8000 + seed)
            env = UserEnv(harvest=rng.uniform(0.0, 10.0, k),
                          gain=rng.standard_exponential(k),
                          battery_max=20.0, power_max=15.0)
            per_seed.append(timed_solve(env, reps=2))
        random_times.append(float(np.median(per_seed)))

    log_k = np.log(sizes)
    slope_dense = float(np.polyfit(log_k, np.log(dense_times), 1)[0])
    slope_random = float(np.polyfit(log_k, np.log(random_times), 1)[0])
    assert slope_dense <= 2.3
    assert slope_random <= 2.3

    params = GenParams(n_users=5, n_slots=20, harvest_mean=5.0,
                       harvest_var=3.5, battery_max=20.0, power_max=15.0,
                       seed=8100)
    scenario = gen_scenario(params)
    solve_mac(scenario, max_iter=1)
    sweep = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        solve_mac(scenario, max_iter=1)
        sweep = min(sweep, time.perf_counter() - t0)
    assert sweep < 0.010
    print(f"criterion 8 PASS: wall-time slopes {slope_dense:.2f} (dense "
          f"boundaries) and {slope_random:.2f} (random) <= 2.3 over "
          f"K=50..800; one five-user sweep {sweep * 1e3:.2f}ms < 10ms")


def test_criterion_9_gradient_and_fill_residuals(monkeypatch):
    rng = np.random.default_rng(91)
    worst_rel = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(1, 7))
        scenario = Scenario(harvest=np.full((n, k), 1e3),
                            gain=rng.exponential(1.0, (n, k)),
                            battery_max=np.full(n, 1e3),
                            power_max=np.full(n, 1e3))
        p = rng.uniform(0.0, 5.0, (n, k))
        grad = scenario.gain / (1.0 + np.sum(p * scenario.gain, axis=0))
        h = 1e-6
        for _ in range(3):
            i, j = int(rng.integers(n)), int(rng.integers(k))
            hi, lo = p.copy(), p.copy()
            hi[i, j] += h
            lo[i, j] -= h
            fd = (sum_rate(scenario, hi) - sum_rate(scenario, lo)) / (2 * h)
            rel = abs(fd - grad[i, j]) / abs(grad[i, j])
            assert rel <= 1e-5
            worst_rel = max(worst_rel, rel)

    # audit every level solve across a mixed solver workload
    records = []
    original = ehwf.single_user._water_fill

    def audited(inv, target_energy, power_max):
        p, level = original(inv, target_energy, power_max)
        target = float(target_energy)
        if target > 0.0:
            records.append((target, abs(target - float(np.sum(p)))))
        return p, level

    monkeypatch.setattr(ehwf.single_user, "_water_fill", audited)
    for i in range(60):
        solve_single(_random_user(i, 30, seed=9000))
    for i in range(20):
        params = GenParams(n_users=3, n_slots=12, harvest_mean=5.0 + (i % 6),
                           harvest_var=3.5, battery_max=20.0, power_max=15.0,
                           seed=9200 + i)
        solve_mac(gen_scenario(params))
    solve_single(UserEnv(harvest=np.linspace(1.0, 2.0, 200) ** 2,
                         gain=np.ones(200), battery_max=1e9,
                         power_max=math.inf))
    assert records
    worst_frac = max(resid / target for target, resid in records)
    assert worst_frac <= 1e-10
    print(f"criterion 9 PASS: gradient matches finite differences to "
          f"{worst_rel:.2e} rel (<= 1e-5) on 50 points; {len(records)} "
          f"audited level solves, worst residual {worst_frac:.2e} of target "
          f"(<= 1e-10)")

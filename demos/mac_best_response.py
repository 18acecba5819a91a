"""Three transmitters sharing a channel: watch the best-response sweeps.

Each sweep re-solves every user's single-user problem against the
interference of the others' current schedules, and between sweeps a
line search extrapolates along the last sweep's move.  The sum rate
climbs (the table lists it after each sweep; a gain includes the line
search before that sweep), and the sweeps stop once the exact duality
gap (an upper bound on the nats left on the table) is within tolerance;
the joint schedule then passes both the joint gap certificate and each
user's duality-gap certificate on its own effective-gain problem.
"""

import numpy as np

from ehwf import (
    GenParams,
    Scenario,
    UserEnv,
    first_iteration_gap_bound,
    first_order_certificate,
    gen_scenario,
    kkt_certificate,
    solve_mac,
    solve_single,
    sum_rate,
)

params = GenParams(n_users=3, n_slots=12, harvest_mean=6.0, harvest_var=4.0,
                   battery_max=10.0, power_max=8.0, seed=42)
scenario = gen_scenario(params)
print(f"{scenario.num_users} users, {scenario.num_slots} slots, seed {params.seed}")

sol = solve_mac(scenario)
print(f"converged: {sol.converged} after {sol.iterations} sweeps, "
      f"duality gap {sol.gap:.3e} nats\n")

print("sweep   sum rate (nats)   gain over previous")
prev = 0.0
for i, v in enumerate(sol.trace, start=1):
    print(f"{i:5d}   {v:15.9f}   {v - prev:18.3e}")
    prev = v

# The first sweep does most of the work, and provably so: everything
# the remaining sweeps can still add is at most (N-1)*K/2 nats.
bound = first_iteration_gap_bound(scenario.num_users, scenario.num_slots)
print(f"\nbound on the climb after sweep 1: {bound:.1f} nats "
      f"(observed {sol.trace[-1] - sol.trace[0]:.3e})")

assert abs(sum_rate(scenario, sol.p) - sol.trace[-1]) < 1e-9

ok, gap = first_order_certificate(scenario, sol.p)
print(f"duality-gap certificate: {'PASS' if ok else 'FAIL'} "
      f"(gap {gap:.3e} nats, a bound on the rate left on the table)")

# Per user, against the effective gains of its final update.
for n in range(scenario.num_users):
    env = scenario.user(n)
    env = UserEnv(harvest=env.harvest, gain=sol.user_gains[n],
                  battery_max=env.battery_max, power_max=env.power_max)
    cert = kkt_certificate(env, sol.p[n], sol.user_boundaries[n])
    print(f"user {n}: duality-gap certificate "
          f"{'PASS' if cert.passed else 'FAIL'}, "
          f"{len(sol.user_boundaries[n]) - 1} segments")

# Interference costs: jointly the users cannot collect what each would
# get with the channel to itself.
alone = 0.0
for n in range(scenario.num_users):
    p_solo = solve_single(scenario.user(n))[0]
    alone += sum_rate(Scenario.single_user(scenario.user(n)), p_solo[None, :])
print(f"\njoint optimum {sol.trace[-1]:.4f} vs sum of solo rates {alone:.4f}")

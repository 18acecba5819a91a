"""Single-transmitter walkthrough: wastage, segments, and the certificate.

A small battery in front of a bursty harvest forces the solver to make
two coupled choices: how much energy to let overflow (as little as
possible, as early as necessary) and how to spread the rest over the
fading slots.  This script builds such an instance, solves it, and then
prints every intermediate the solver worked from.
"""

import numpy as np

from ehwf import (
    Scenario,
    UserEnv,
    check_feasible,
    effective_energy,
    kkt_certificate,
    optimal_wastage,
    solve_single,
    sum_rate,
    user_battery_trace,
)

np.set_printoptions(precision=4, suppress=True)

# A burst in slot 1 that the battery cannot hold, a dry spell, then a
# second burst.  The cap keeps slot 1 from simply dumping the burst.
harvest = np.array([9.0, 0.0, 0.5, 6.0, 0.0])
gain = np.array([0.8, 1.5, 0.3, 1.0, 2.0])
env = UserEnv(harvest=harvest, gain=gain, battery_max=3.0, power_max=4.0)

print("harvest     ", env.harvest)
print("gain        ", env.gain)
print(f"battery_max  {env.battery_max}   power_max {env.power_max}")

# Step 1: minimal wastage.  Spending at the cap, slot 1 keeps at most
# 4 + 3 = 7 of its 9 units, so 2 must overflow no matter what.
d_star, p_greedy, _ = optimal_wastage(env)
print("\nminimal wastage d*      ", d_star, f"  (total {d_star.sum():g})")
print("cap-greedy spend used   ", p_greedy)

# Step 2: the same greedy pass gives the budget the wastage leaves, its
# running spend plus its battery, and the reduced problem on that budget
# is solved by water-filling between battery-driven boundaries.
e_tilde = effective_energy(env)
p, d, boundaries, levels = solve_single(env)
print("\neffective harvest       ", e_tilde)
print("optimal schedule p*     ", p)
print("segment boundaries      ", boundaries)
print("segment water levels    ", np.asarray(levels))

battery = user_battery_trace(harvest, p, d)
print("end-of-slot battery     ", battery)

report = check_feasible(Scenario.single_user(env), p[None, :], d[None, :])
rate = sum_rate(Scenario.single_user(env), p[None, :])
print(f"\nfeasible: {report.ok}    rate: {rate:.6f} nats")

# Step 3: the certificate checks p against the feasible set and bounds
# the nats it leaves on the table by the exact Frank-Wolfe duality gap.
cert = kkt_certificate(env, p, boundaries)
print(f"\ncertificate passed: {cert.passed}")
for name, (ok, residual) in cert.conditions.items():
    print(f"  {name:12s} {'ok ' if ok else 'FAIL'}  residual {residual:.3e}")

# For contrast: the cap-greedy spend is feasible by construction (it is
# what induced d*), but it ignores the gains, and the certificate names
# the condition that fails and by how many nats.
bad = kkt_certificate(env, p_greedy, boundaries)
broken = [f"{name} {res:.3f}" for name, (ok, res) in bad.conditions.items()
          if not ok]
print(f"\ncap-greedy schedule passes: {bad.passed} "
      f"(failed: {', '.join(broken)})")

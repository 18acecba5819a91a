"""Water-filling power schedules for energy-harvesting transmitters.

Solvers for maximum-sum-rate transmission over fading multiple-access
channels where each transmitter harvests energy into a finite battery
and is limited by a per-slot power cap.  The package provides the exact
single-user schedule, a best-response solver for many users, baseline
policies, optimality certificates, and a benchmark harness (CLI: ehwf).
"""

from .model import (
    FEAS_TOL,
    FeasibilityReport,
    Scenario,
    UserEnv,
    check_feasible,
    cumulative_harvest,
    energy_scale,
    sum_rate,
    user_battery_trace,
)
from .single_user import (
    BDP,
    BFP,
    effective_energy,
    optimal_wastage,
    solve_reduced,
    solve_single,
    water_fill_segment,
)
from .mac import (
    MacSolution,
    effective_gain,
    first_iteration_gap_bound,
    iterate_best_response,
    solve_mac,
)
from .baselines import (
    balanced_policy,
    greedy_policy,
    iterative_modified_staircase,
    modified_staircase,
    non_iterative_multiuser,
    staircase_wf,
)
from .verify import (
    GAP_TOL_PER_SLOT,
    DualCertificate,
    ReducedPolytope,
    first_order_certificate,
    induced_wastage,
    kkt_certificate,
    reduce_polytope,
)
from .bench import (
    PRESETS,
    ExperimentResult,
    GenParams,
    cli_main,
    gen_scenario,
    run_experiment,
    truncated_gaussian,
)

__version__ = "0.1.0"

__all__ = [
    # model
    "FEAS_TOL", "energy_scale",
    "Scenario", "UserEnv", "FeasibilityReport",
    "cumulative_harvest", "user_battery_trace",
    "check_feasible", "sum_rate",
    # single user
    "BDP", "BFP", "optimal_wastage", "effective_energy",
    "water_fill_segment",
    "solve_reduced", "solve_single",
    # multiple access
    "MacSolution", "effective_gain",
    "iterate_best_response", "solve_mac", "first_iteration_gap_bound",
    # baselines
    "greedy_policy", "balanced_policy", "staircase_wf",
    "modified_staircase", "iterative_modified_staircase",
    "non_iterative_multiuser",
    # certificates
    "GAP_TOL_PER_SLOT", "ReducedPolytope", "DualCertificate",
    "reduce_polytope", "induced_wastage", "kkt_certificate",
    "first_order_certificate",
    # benchmarks
    "GenParams", "ExperimentResult", "PRESETS", "truncated_gaussian",
    "gen_scenario", "run_experiment", "cli_main",
]

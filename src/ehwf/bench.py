"""Scenario generation, benchmark sweeps, and the command-line interface.

Contents
--------
GenParams / gen_scenario  reproducible random instances
truncated_gaussian        nonnegative harvest draws
PRESETS                   the named benchmark configurations
run_experiment            sweep a parameter, run each policy per trial
ExperimentResult          rows plus convergence traces, CSV writers
cli_main / main           the `ehwf` console entry point

Determinism: every trial derives its seed from the root seed with a
spawn key, and the same trial seed is reused at every sweep value, so
sweeps are coupled through common random draws.  Timing columns are the
only non-reproducible output.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from .baselines import _POLICIES, iterative_modified_staircase, non_iterative_multiuser
from .mac import solve_mac
from .model import Scenario, UserEnv, _is_integer, _is_json_number, sum_rate
from .verify import first_order_certificate, kkt_certificate

__all__ = [
    "GenParams",
    "ExperimentResult",
    "PRESETS",
    "truncated_gaussian",
    "gen_scenario",
    "run_experiment",
    "cli_main",
]

RESULT_COLUMNS = ("scenario_id", "seed", "policy", "sum_rate_nats",
                  "iterations", "wall_time_ms")
TRACE_COLUMNS = ("scenario_id", "iteration", "sum_rate_nats")

# the iterative optimum, the single-shot baselines, the iterative staircase
POLICIES = ("optimal", *_POLICIES, "staircase-iter")

_SWEEP_SHORT = {"harvest_var": "v", "harvest_mean": "m",
                "battery_max": "B", "power_max": "P"}


@dataclass(frozen=True)
class GenParams:
    """Parameters of one random instance; identical limits for all users.

    The one statement of a config's field rules: an int field takes a
    Python or numpy integer, a float field any number (neither takes a
    bool); anything else, or a value out of range, raises ValueError
    naming the field.
    """

    n_users: int
    n_slots: int
    harvest_mean: float
    harvest_var: float
    battery_max: float
    power_max: float
    seed: int = 0

    def __post_init__(self):
        # the annotations are the rules: under `from __future__ import
        # annotations` they are the strings "int" and "float"
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int" and not _is_integer(value):
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
            if f.type == "float" and not _is_json_number(value):
                raise ValueError(f"{f.name} must be a number, got {value!r}")
        if self.n_users < 1 or self.n_slots < 1:
            raise ValueError(f"n_users and n_slots must be at least 1, got "
                             f"{self.n_users!r} and {self.n_slots!r}")
        if not 0.0 <= self.harvest_mean < math.inf:
            raise ValueError("harvest_mean must be finite and nonnegative")
        if not 0.0 < self.harvest_var < math.inf:
            raise ValueError("harvest_var must be finite and positive")


# the fields a config sets: every GenParams field but seed
_CONFIG_FIELDS = tuple(f.name for f in fields(GenParams) if f.name != "seed")


def truncated_gaussian(mean: float, var: float, rng, size=None):
    """Normal(mean, var) draws redrawn until nonnegative.

    Scalar when size is None, else a 1-D array of that length, an integer
    (a Python or numpy one, not a bool) of at least 0.  The mean must be
    finite and nonnegative (a negative one could take forever to draw) and
    the variance finite and positive; NaN is neither.  Anything else
    raises ValueError.
    """
    if not 0.0 <= mean < math.inf:
        raise ValueError("mean must be finite and nonnegative")
    if not 0.0 < var < math.inf:
        raise ValueError("variance must be finite and positive")
    if not (size is None or (_is_integer(size) and size >= 0)):
        raise ValueError(f"size must be None or an integer of at least 0, got {size!r}")
    sigma = math.sqrt(var)
    n = 1 if size is None else int(size)
    out = rng.normal(mean, sigma, size=n)
    bad = out < 0.0
    while bad.any():
        out[bad] = rng.normal(mean, sigma, size=int(bad.sum()))
        bad = out < 0.0
    return float(out[0]) if size is None else out


def gen_scenario(params: GenParams) -> Scenario:
    """Random instance: truncated-Gaussian harvests, unit-mean fading gains.

    Each user gets an independent stream spawned from the seed, so adding
    users never shifts the draws of existing ones.
    """
    harvest = np.empty((params.n_users, params.n_slots))
    gain = np.empty((params.n_users, params.n_slots))
    for n in range(params.n_users):
        seq = np.random.SeedSequence(params.seed, spawn_key=(n,))
        rng = np.random.Generator(np.random.PCG64(seq))
        harvest[n] = truncated_gaussian(params.harvest_mean, params.harvest_var,
                                        rng, size=params.n_slots)
        gain[n] = rng.standard_exponential(params.n_slots)
    return Scenario(harvest=harvest, gain=gain,
                    battery_max=np.full(params.n_users, params.battery_max),
                    power_max=np.full(params.n_users, params.power_max))


# Benchmark configurations.  Values under sweep override the base field.
PRESETS = {
    "fig5": {"label": "fig5", "n_users": 1, "n_slots": 20,
             "harvest_mean": 5.0, "harvest_var": 1.0,
             "battery_max": 20.0, "power_max": 15.0,
             "sweep": {"param": "harvest_var",
                       "values": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]},
             "policies": ["optimal", "staircase", "greedy", "balanced"]},
    "fig6": {"label": "fig6", "n_users": 1, "n_slots": 20,
             "harvest_mean": 10.0, "harvest_var": 1.0,
             "battery_max": 20.0, "power_max": 15.0,
             "sweep": {"param": "harvest_var",
                       "values": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]},
             "policies": ["optimal", "staircase", "greedy", "balanced"]},
    "fig7": {"label": "fig7", "n_users": 1, "n_slots": 20,
             "harvest_mean": 7.5, "harvest_var": 3.5,
             "battery_max": 15.0, "power_max": 15.0,
             "sweep": {"param": "battery_max",
                       "values": [15.0, 18.0, 21.0, 24.0, 27.0, 30.0]},
             "policies": ["optimal", "staircase", "greedy", "balanced"]},
    "fig8": {"label": "fig8", "n_users": 1, "n_slots": 20,
             "harvest_mean": 7.5, "harvest_var": 3.5,
             "battery_max": 15.0, "power_max": 10.0,
             "sweep": {"param": "battery_max",
                       "values": [15.0, 18.0, 21.0, 24.0, 27.0, 30.0]},
             "policies": ["optimal", "staircase", "greedy", "balanced"]},
    "fig9": {"label": "fig9", "n_users": 5, "n_slots": 20,
             "harvest_mean": 5.0, "harvest_var": 3.5,
             "battery_max": 20.0, "power_max": 15.0,
             "sweep": {"param": "harvest_mean",
                       "values": [5.0, 6.0, 7.0, 8.0, 9.0, 10.0]},
             "policies": ["optimal", "staircase", "greedy", "balanced",
                          "staircase-iter"]},
    "fig10": {"label": "fig10", "n_users": 5, "n_slots": 20,
              "harvest_mean": 5.0, "harvest_var": 8.0,
              "battery_max": 20.0, "power_max": 15.0,
              "sweep": {"param": "harvest_mean",
                        "values": [5.0, 6.0, 7.0, 8.0, 9.0, 10.0]},
              "policies": ["optimal", "staircase", "greedy", "balanced",
                           "staircase-iter"]},
}

DEFAULT_TRIALS = 500


@dataclass(frozen=True)
class ExperimentResult:
    """All per-trial rows of one sweep, plus convergence traces.

    rows are dicts keyed by RESULT_COLUMNS plus the bookkeeping fields
    sweep_value and trial; traces are (scenario_id, iteration, value)
    triples recorded for the iterative optimal policy only.
    """

    label: str
    sweep_param: str
    sweep_values: tuple
    policies: tuple
    rows: tuple
    traces: tuple

    def write_csv(self, path) -> None:
        _write_csv(path, RESULT_COLUMNS,
                   ([row["scenario_id"], row["seed"], row["policy"],
                     f"{row['sum_rate_nats']:.9g}", row["iterations"],
                     f"{row['wall_time_ms']:.9g}"] for row in self.rows))

    def write_trace_csv(self, path) -> None:
        _write_csv(path, TRACE_COLUMNS,
                   ([sid, iteration, f"{value:.9g}"] for sid, iteration, value in self.traces))

    def mean_sum_rate(self, policy: str, sweep_value) -> float:
        vals = [row["sum_rate_nats"] for row in self.rows
                if row["policy"] == policy and row["sweep_value"] == sweep_value]
        if not vals:
            raise KeyError(f"no rows for {policy!r} at {sweep_value!r}")
        return float(np.mean(vals))


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _trial_seed(root_seed: int, trial: int) -> int:
    seq = np.random.SeedSequence(root_seed, spawn_key=(trial,))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def _run_policy(policy: str, scenario: Scenario, max_iter: int | None = None):
    """One policy on one instance: (p, iterations, solution or None).

    The solution is the MacSolution of the two iterative policies (their
    own sweep budgets unless max_iter is set); the one-shot policies have
    none and count as one iteration.
    """
    budget = {} if max_iter is None else {"max_iter": max_iter}
    if policy == "optimal":
        sol = solve_mac(scenario, **budget)
    elif policy == "staircase-iter":
        sol = iterative_modified_staircase(scenario, **budget)
    else:
        return non_iterative_multiuser(policy, scenario), 1, None
    return sol.p, sol.iterations, sol


def _run_cell(params, sweep_param, trial, root_seed, policies, label):
    """All policies for one (sweep value, trial) cell; params holds the value."""
    seed = _trial_seed(root_seed, trial)
    scenario = gen_scenario(replace(params, seed=seed))
    value = getattr(params, sweep_param)
    sid = f"{label}-{_SWEEP_SHORT.get(sweep_param, sweep_param)}{value:g}-t{trial:03d}"
    rows, traces = [], []
    for policy in policies:
        t0 = time.perf_counter()
        p, iterations, sol = _run_policy(policy, scenario)
        elapsed_ms = (time.perf_counter() - t0) * 1e3
        rows.append({"scenario_id": sid, "seed": seed, "policy": policy,
                     "sum_rate_nats": float(sum_rate(scenario, p)),
                     "iterations": int(iterations),
                     "wall_time_ms": float(elapsed_ms),
                     "sweep_value": value, "trial": trial})
        if policy == "optimal":
            traces.extend((sid, i + 1, float(v)) for i, v in enumerate(sol.trace))
    return rows, traces


def _malformed(what: str) -> ValueError:
    return ValueError(f"malformed experiment config: {what}")


def _resolve_config(config) -> dict:
    """The preset of that name, or the config dict given, checked in outline.

    An unknown preset or a missing key raises KeyError.  sweep must map
    param, a GenParams field other than seed, to a list of values, trials
    (if set) be an integer and policies a list of POLICIES names; anything
    else raises ValueError.  The fields are GenParams' to check.
    """
    if isinstance(config, str):
        if config not in PRESETS:
            raise KeyError(f"unknown preset {config!r}; "
                           f"have {', '.join(sorted(PRESETS))}")
        return dict(PRESETS[config])
    if not isinstance(config, dict):
        raise _malformed(f"expected an object, got {type(config).__name__}")
    cfg = dict(config)
    required = ("label",) + _CONFIG_FIELDS + ("sweep", "policies")
    missing = [k for k in required if k not in cfg]
    sweep = cfg.get("sweep")
    if isinstance(sweep, dict):
        missing += [f"sweep.{k}" for k in ("param", "values") if k not in sweep]
    if missing:
        raise KeyError(f"config is missing {', '.join(missing)}")
    if not (isinstance(sweep, dict) and sweep["param"] in _CONFIG_FIELDS
            and isinstance(sweep["values"], (list, tuple))):
        raise _malformed(f"sweep must map param, one of {', '.join(_CONFIG_FIELDS)}, "
                         f"to a list of values, got {sweep!r}")
    if "trials" in cfg and not _is_integer(cfg["trials"]):
        raise _malformed(f"trials must be an integer, got {cfg['trials']!r}")
    policies = cfg["policies"]
    if not (isinstance(policies, (list, tuple)) and all(p in POLICIES for p in policies)):
        raise _malformed(f"policies must be a list of {', '.join(POLICIES)}, "
                         f"got {policies!r}")
    return cfg


def run_experiment(config, trials: int | None = None,
                   seed: int = 0) -> ExperimentResult:
    """Run a preset (by name) or an explicit config dict.

    trials and seed override anything in the config.  Every sweep value's
    GenParams is built first: a field it rejects raises "malformed
    experiment config: " and its message before any instance is drawn.
    Per trial, the same derived seed feeds every sweep value, so curves
    differ only through the swept parameter.
    """
    cfg = _resolve_config(config)
    if trials is None:
        trials = cfg.get("trials", DEFAULT_TRIALS)
    elif not _is_integer(trials):
        raise ValueError(f"trials must be an integer, got {trials!r}")
    if trials < 1:
        raise ValueError("need at least one trial")
    sweep_param = cfg["sweep"]["param"]
    sweep_values = tuple(cfg["sweep"]["values"])
    policies = tuple(cfg["policies"])
    try:
        base = GenParams(**{k: cfg[k] for k in _CONFIG_FIELDS})
        cells = [replace(base, **{sweep_param: value}) for value in sweep_values]
    except ValueError as exc:
        raise _malformed(str(exc)) from exc

    rows, traces = [], []
    for params in cells:
        for trial in range(trials):
            cell_rows, cell_traces = _run_cell(params, sweep_param, trial,
                                               seed, policies, cfg["label"])
            rows.extend(cell_rows)
            traces.extend(cell_traces)
    return ExperimentResult(label=cfg["label"], sweep_param=sweep_param,
                            sweep_values=sweep_values, policies=policies,
                            rows=tuple(rows), traces=tuple(traces))


def _cmd_solve(args) -> int:
    with open(args.infile) as fh:
        scenario = Scenario.from_json(fh.read())
    p, iterations, sol = _run_policy(args.policy, scenario, args.max_iter)
    for n in range(scenario.num_users):
        print(f"p[{n}]: " + " ".join(f"{v:.9g}" for v in p[n]))
    print(f"iterations: {iterations}")
    if sol is not None:
        print(f"converged: {'yes' if sol.converged else 'no'}")
    print(f"sum_rate_nats: {sum_rate(scenario, p):.9g}")
    if not args.certify:
        return 0

    ok = True
    if args.policy == "optimal":
        for n in range(scenario.num_users):
            env = UserEnv(scenario.harvest[n], sol.user_gains[n],
                          scenario.battery_max[n], scenario.power_max[n])
            ok = ok and kkt_certificate(env, p[n], sol.user_boundaries[n]).passed
    fo_ok, gap = first_order_certificate(scenario, p)
    ok = ok and fo_ok
    print(f"duality_gap: {gap:.9g}")
    print(f"certificate: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_experiment(args) -> int:
    if args.preset is not None:
        config = args.preset
    else:
        with open(args.config) as fh:
            config = json.load(fh)
    result = run_experiment(config, trials=args.trials, seed=args.seed)
    result.write_csv(args.out)
    print(f"{result.label}: {len(result.rows)} rows -> {args.out}")
    if args.trace_out is not None:
        result.write_trace_csv(args.trace_out)
        print(f"{result.label}: {len(result.traces)} trace rows -> {args.trace_out}")
    for policy in result.policies:
        means = " ".join(f"{result.mean_sum_rate(policy, v):.4f}"
                         for v in result.sweep_values)
        print(f"mean sum_rate_nats [{policy:>15}] over {result.sweep_param}: {means}")
    return 0


def _cmd_gen(args) -> int:
    params = GenParams(n_users=args.n, n_slots=args.k, harvest_mean=args.m,
                       harvest_var=args.v, battery_max=args.b_max,
                       power_max=args.p_max, seed=args.seed)
    text = gen_scenario(params).to_json(indent=2)
    if args.out == "-":
        print(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out}")
    return 0


def cli_main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ehwf",
        description="Energy-harvesting water-filling: solve instances, "
                    "run benchmark sweeps, generate scenarios.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one scenario file")
    p_solve.add_argument("--in", dest="infile", required=True,
                         help="scenario JSON path")
    p_solve.add_argument("--policy", choices=POLICIES, default="optimal")
    p_solve.add_argument("--max-iter", type=int, default=None,
                         help="sweep budget (default: the solver's own)")
    p_solve.add_argument("--certify", action="store_true",
                         help="check optimality certificates, exit 1 on FAIL")
    p_solve.set_defaults(func=_cmd_solve)

    p_exp = sub.add_parser("experiment", help="run a benchmark sweep")
    src = p_exp.add_mutually_exclusive_group(required=True)
    src.add_argument("--preset", choices=sorted(PRESETS))
    src.add_argument("--config", help="JSON config path")
    p_exp.add_argument("--trials", type=int, default=None)
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.add_argument("--out", default="results.csv")
    p_exp.add_argument("--trace-out", default=None,
                       help="also write per-sweep convergence traces")
    p_exp.set_defaults(func=_cmd_experiment)

    p_gen = sub.add_parser("gen", help="generate a random scenario file")
    p_gen.add_argument("--n", type=int, default=1, help="users")
    p_gen.add_argument("--k", type=int, default=20, help="slots")
    p_gen.add_argument("--m", type=float, default=5.0, help="harvest mean")
    p_gen.add_argument("--v", type=float, default=1.0, help="harvest variance")
    p_gen.add_argument("--b-max", type=float, default=20.0)
    p_gen.add_argument("--p-max", type=float, default=15.0)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", default="-", help="output path, - for stdout")
    p_gen.set_defaults(func=_cmd_gen)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:                      # argparse errors exit above
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(cli_main())

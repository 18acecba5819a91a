#!/usr/bin/env python3
"""Benchmark for ehwf: closed-loop workloads, end-to-end and per-layer metrics.

    python3 benchmark/run.py --workload mac-certify --seed 1 --seconds 20 --trace 0

Run it from anywhere inside a checkout; it imports ehwf from the checkout's
own `src/` and nothing else.  Each run is one process and one caller: the
next op starts only after the previous one has finished and been checked,
with no threads or pools and with EHWF_THREADS removed from the
environment.  Op i runs on the i-th instance drawn from --seed, so a run
averages over as many instances as fit in --seconds.  The first few ops
(count_ops per workload) always run, whatever --seconds says, and the exact
solver counts are taken from them, so those repeat exactly for a seed.

Workloads (an op is the unit that latency and throughput count):
  mac-certify  solve_mac on a 5-user x 20-slot fig9/fig10-grid instance,
               then kkt_certificate per user and first_order_certificate
               on the joint schedule (the `ehwf solve --certify` path).
  sweep-fig9   one run_experiment("fig9") cell: all five policies on one
               generated instance (the Monte Carlo path).
  single-long  solve_single plus kkt_certificate on one K=800 user; three
               random instances for every dense one, whose rising harvest
               on a flat channel makes every slot a depletion point.  Not
               in BENCHMARK.json: the ~120 heavy-tailed instances that fit
               in a run leave its figures 11-18% apart from seed to seed.

--trace 0 prints the end-to-end metrics: setup_s (median over fresh
processes that import ehwf, generate the inputs and make one warm-up op),
ops_per_s (median over blocks of one instance cycle each),
latency_ms.p50/.p90, sum_rate_nats.mean (optimal policy, over every
passing op) and peak_rss_mb.  --trace 1 measures half of --seconds
untraced and half with spans around each public ehwf function (see
tracer.py), and prints the per-layer metrics: per-op calls, inclusive and
self milliseconds, the exact counts, and trace.overhead_frac.  Spans go to
benchmark/out/.

The host is shared, and its speed drifts by up to a third over seconds to
minutes.  So the times in setup_s, ops_per_s, latency_ms.* and
trace.overhead_frac are scaled to a fixed reference speed: a fixed numpy
computation that uses no ehwf code is timed between blocks of ops and
between set-up probes (see reference.py), and each wall time is
multiplied by the reference's nominal time over its time measured around
it.  The unscaled wall-clock figures are printed on the comment lines;
the per-layer span times are wall clock, unscaled.

An op fails when it raises or when one of its checks fails; failures are
counted in `failed` and do not stop the run.  `correct` is true only when
no op failed.  Lines before the last one are human-readable and carry the
reproducibility record; the last line is the JSON result.

Seeds 0-99 are for tuning and regression runs; seed 7919 is held out for
confirming a claimed gain.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import reference
from tracer import Tracer, traced

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"

HELD_OUT_SEED = 7919
WARMUP_SEED = 1_000_003       # the warm-up op's input is the same for every seed
SETUP_PROBES = 5
# Tolerance in nats for "a baseline beats the optimal policy": the optimal
# solver stops once a sweep changes the rate by at most 1e-5 nats.
SWEEP_TOL = 1e-4
# Relative tolerance when a re-solved cell is compared with its result row.
RESOLVE_RTOL = 1e-9


def load_ehwf():
    """Import ehwf from this checkout's src/, refusing any other copy."""
    pkg = SRC / "ehwf"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"error: ehwf sources not found at {pkg}")
    sys.path.insert(0, str(SRC))
    import ehwf
    if Path(ehwf.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"error: imported ehwf from {ehwf.__file__}, not {pkg}")
    return ehwf


def item_seed(seed: int, index: int) -> int:
    seq = np.random.SeedSequence(seed, spawn_key=(index,))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def settled_sweep(trace) -> int:
    """First sweep whose rate is within 0.1% of the final one (criterion 6)."""
    final = float(trace[-1])
    return next(t + 1 for t, v in enumerate(trace) if final - v <= 1e-3 * final)


class MacCertify:
    """solve_mac + per-user KKT + joint first-order certificate."""

    name = "mac-certify"

    def __init__(self, ehwf, tiny=False):
        self.ehwf = ehwf
        self.n_users, self.n_slots = (2, 6) if tiny else (5, 20)
        means = ehwf.PRESETS["fig9"]["sweep"]["values"]
        variances = (ehwf.PRESETS["fig9"]["harvest_var"],
                     ehwf.PRESETS["fig10"]["harvest_var"])
        self.grid = [(m, v) for v in variances for m in means]
        self.count_ops = len(self.grid) * (1 if tiny else 2)
        self.block_ops = len(self.grid)

    def item(self, seed, i):
        ehwf = self.ehwf
        mean, var = self.grid[i % len(self.grid)]
        return ehwf.gen_scenario(ehwf.GenParams(
            n_users=self.n_users, n_slots=self.n_slots, harvest_mean=mean,
            harvest_var=var, battery_max=20.0, power_max=15.0,
            seed=item_seed(seed, i)))

    def op(self, sc):
        ehwf = self.ehwf
        sol = ehwf.solve_mac(sc)
        kkt = [ehwf.kkt_certificate(
                   ehwf.UserEnv(sc.harvest[n], sol.user_gains[n],
                                float(sc.battery_max[n]), float(sc.power_max[n])),
                   sol.p[n], sol.user_boundaries[n]).passed
               for n in range(sc.num_users)]
        fo_ok, _ = ehwf.first_order_certificate(sc, sol.p)
        return sol, kkt, fo_ok, ehwf.sum_rate(sc, sol.p)

    def check(self, sc, out):
        sol, kkt, fo_ok, rate = out
        problems = []
        if not self.ehwf.check_feasible(sc, sol.p, sol.d).ok:
            problems.append("solve_mac schedule infeasible with its wastage")
        if not all(kkt):
            problems.append("kkt_certificate failed")
        if not fo_ok:
            problems.append("first_order_certificate failed")
        if not math.isfinite(rate):
            problems.append("non-finite sum rate")
        return problems

    def rate(self, out):
        return out[3]

    def counts(self, outs):
        sols = [out[0] for out in outs]
        return solver_counts([(s.iterations, settled_sweep(s.trace)) for s in sols],
                             [len(x) - 1 for s in sols for x in s.user_boundaries],
                             [])


class SweepFig9:
    """One run_experiment("fig9") cell: every policy on one instance."""

    name = "sweep-fig9"

    def __init__(self, ehwf, tiny=False):
        self.ehwf = ehwf
        self.config = dict(ehwf.PRESETS["fig9"])
        if tiny:
            self.config.update(n_users=2, n_slots=6)
        self.means = list(self.config["sweep"]["values"])
        self.count_ops = len(self.means) * (1 if tiny else 2)
        self.block_ops = len(self.means)
        self.recheck_cells = len(self.means)
        self.resolved = []

    def item(self, seed, i):
        return self.means[i % len(self.means)], item_seed(seed, i)

    def op(self, cell):
        mean, cell_seed = cell
        cfg = dict(self.config,
                   sweep={"param": self.config["sweep"]["param"], "values": [mean]})
        return self.ehwf.run_experiment(cfg, trials=1, seed=cell_seed)

    def check(self, cell, res):
        rows = {row["policy"]: row for row in res.rows}
        problems = []
        if sorted(rows) != sorted(self.config["policies"]) or len(res.rows) != len(rows):
            return [f"expected one row per policy, got {[r['policy'] for r in res.rows]}"]
        rates = {pol: row["sum_rate_nats"] for pol, row in rows.items()}
        if not all(math.isfinite(v) for v in rates.values()):
            problems.append("non-finite sum rate")
        best_other = max(v for pol, v in rates.items() if pol != "optimal")
        if rates["optimal"] < best_other - SWEEP_TOL:
            problems.append(f"optimal {rates['optimal']:.9g} below a baseline "
                            f"{best_other:.9g} by more than {SWEEP_TOL} nats")
        return problems

    def rate(self, res):
        return next(r["sum_rate_nats"] for r in res.rows if r["policy"] == "optimal")

    def recheck(self, cell, res):
        """Re-solve one cell outside the timed loop and check every schedule.

        run_experiment reports rates, not schedules, so the cell's instance
        is regenerated from its row seed; each policy's schedule must be
        feasible with its wastage and reproduce the row's rate.
        """
        ehwf = self.ehwf
        cfg = self.config
        rows = {row["policy"]: row for row in res.rows}
        sc = ehwf.gen_scenario(ehwf.GenParams(
            n_users=cfg["n_users"], n_slots=cfg["n_slots"],
            harvest_mean=cell[0], harvest_var=cfg["harvest_var"],
            battery_max=cfg["battery_max"], power_max=cfg["power_max"],
            seed=rows["optimal"]["seed"]))
        problems = []
        schedules = {}
        opt = ehwf.solve_mac(sc)
        self.resolved.append(opt)
        schedules["optimal"] = (opt.p, opt.d)
        for policy in cfg["policies"]:
            if policy == "optimal":
                continue
            if policy == "staircase-iter":
                p = ehwf.iterative_modified_staircase(sc).p
            else:
                p = ehwf.non_iterative_multiuser(policy, sc)
            d = [ehwf.induced_wastage(sc.user(n), p[n]) for n in range(sc.num_users)]
            if any(dn is None for dn in d):
                problems.append(f"{policy}: no wastage makes the schedule feasible")
                continue
            schedules[policy] = (p, np.array(d))
        for policy, (p, d) in schedules.items():
            if not ehwf.check_feasible(sc, p, d).ok:
                problems.append(f"{policy}: schedule infeasible with its wastage")
            want = rows[policy]["sum_rate_nats"]
            got = ehwf.sum_rate(sc, p)
            if abs(got - want) > RESOLVE_RTOL * max(1.0, abs(want)):
                problems.append(f"{policy}: re-solved rate {got:.12g} != row {want:.12g}")
        return problems

    def counts(self, outs):
        opt, stair = [], []
        for res in outs:
            iters = {row["policy"]: row["iterations"] for row in res.rows}
            trace = [v for _, _, v in res.traces]
            opt.append((iters["optimal"], settled_sweep(trace)))
            stair.append(iters["staircase-iter"])
        segments = [len(x) - 1 for s in self.resolved for x in s.user_boundaries]
        return solver_counts(opt, segments, stair)


class SingleLong:
    """solve_single + kkt_certificate on one long horizon."""

    name = "single-long"

    def __init__(self, ehwf, tiny=False):
        self.ehwf = ehwf
        self.n_slots = 40 if tiny else 800
        self.count_ops = 4 if tiny else 8
        self.block_ops = 4

    def item(self, seed, i):
        ehwf = self.ehwf
        rng = np.random.default_rng(item_seed(seed, i))
        k = self.n_slots
        if i % 4 == 3:
            # strictly rising harvest on a flat channel: spending each
            # arrival at once is optimal, so every slot is a depletion point
            return ehwf.UserEnv(harvest=np.sort(rng.uniform(1.0, 4.0, k)),
                                gain=np.ones(k),
                                battery_max=1e9, power_max=math.inf)
        return ehwf.UserEnv(harvest=rng.uniform(0.0, 10.0, k),
                            gain=rng.standard_exponential(k),
                            battery_max=20.0, power_max=15.0)

    def op(self, env):
        ehwf = self.ehwf
        p, d, x, _ = ehwf.solve_single(env)
        cert = ehwf.kkt_certificate(env, p, x)
        return p, d, x, cert.passed, ehwf.sum_rate(ehwf.Scenario.single_user(env), p[None, :])

    def check(self, env, out):
        p, d, _, cert_ok, rate = out
        problems = []
        sc = self.ehwf.Scenario.single_user(env)
        if not self.ehwf.check_feasible(sc, p[None, :], d[None, :]).ok:
            problems.append("solve_single schedule infeasible with its wastage")
        if not cert_ok:
            problems.append("kkt_certificate failed")
        if not math.isfinite(rate):
            problems.append("non-finite sum rate")
        return problems

    def rate(self, out):
        return out[4]

    def counts(self, outs):
        return solver_counts([], [len(out[2]) - 1 for out in outs], [])


WORKLOADS = {cls.name: cls for cls in (MacCertify, SweepFig9, SingleLong)}

# Per-layer metrics from spans, named <span>.<field>: field is "calls",
# "ms" (inclusive) or "self_ms", each reported per op.
LAYER_METRICS = (
    "single_user.solve_reduced.calls", "single_user.solve_reduced.self_ms",
    "single_user.water_fill_segment.calls", "single_user.water_fill_segment.ms",
    "single_user.optimal_wastage.ms",
    "mac.solve_mac.calls", "mac.solve_mac.self_ms",
    "mac.effective_gain.calls", "mac.effective_gain.ms",
    "mac.iterate_best_response.self_ms",
    "baselines.iterative_modified_staircase.ms",
    "baselines.modified_staircase.calls", "baselines.modified_staircase.ms",
    "baselines.staircase_wf.ms", "baselines.non_iterative_multiuser.ms",
    "verify.kkt_certificate.calls", "verify.kkt_certificate.ms",
    "verify.first_order_certificate.calls", "verify.first_order_certificate.ms",
    "bench.gen_scenario.calls", "bench.gen_scenario.ms",
    "bench.run_experiment.self_ms",
    "model.sum_rate.calls", "model.sum_rate.ms",
)
COUNT_METRICS = ("single_user.segments", "mac.sweeps", "mac.polish_sweeps",
                 "mac.useful_sweep_frac", "baselines.staircase_iter.sweeps")
COUNT_UNITS = {"mac.useful_sweep_frac": "frac"}


def solver_counts(sweeps, segments, stair_sweeps):
    """Exact solver counts from returned objects; 0 where a layer is idle.

    sweeps holds (total sweeps, sweep at which the rate settled) per
    solve_mac result; useful_sweep_frac is settled sweeps over total sweeps.
    """
    total = sum(t for t, _ in sweeps)
    settled = sum(s for _, s in sweeps)
    return {
        "single_user.segments": statistics.fmean(segments) if segments else 0.0,
        "mac.sweeps": total / len(sweeps) if sweeps else 0.0,
        "mac.polish_sweeps": (total - settled) / len(sweeps) if sweeps else 0.0,
        "mac.useful_sweep_frac": settled / total if total else 0.0,
        "baselines.staircase_iter.sweeps":
            statistics.fmean(stair_sweeps) if stair_sweeps else 0.0,
    }


def measure(workload, seed, first, seconds, root=None):
    """Closed loop over the seed's instance stream until `seconds` pass.

    Op i runs on instance i, so every op sees a new instance; `first` holds
    the pre-generated instances of the first ops, which always run.
    Latency covers the op only; instance generation and the checks run
    after the clock stops.  root, when given, opens the tracer's root span
    around each op.  A reference sample is taken before each block of
    block_ops ops and once at the end; "scaled" holds each latency scaled
    to the reference speed by the median of the four samples nearest its
    block (one before it, its own two bounds, one after).
    """
    latencies, ok, first_out, problems, rates, ref = [], [], [], [], [], []
    failed = 0
    deadline = time.perf_counter() + seconds
    i = 0
    while i < len(first) or time.perf_counter() < deadline:
        if i % workload.block_ops == 0:
            ref.append(reference.sample())
        item = first[i] if i < len(first) else workload.item(seed, i)
        out = None
        t0 = time.perf_counter()
        try:
            if root is None:
                out = workload.op(item)
            else:
                with root():
                    out = workload.op(item)
        except Exception as exc:          # a raising op is a failed op
            latencies.append(time.perf_counter() - t0)
            errs = [f"op raised {type(exc).__name__}: {exc}"]
        else:
            latencies.append(time.perf_counter() - t0)
            try:
                errs = workload.check(item, out)
            except Exception as exc:
                errs = [f"check raised {type(exc).__name__}: {exc}"]
        ok.append(not errs)
        if errs:
            failed += 1
            problems.append((i, errs))
        else:
            rates.append(workload.rate(out))
        if i < len(first):
            first_out.append(out)
        i += 1
    ref.append(reference.sample())
    speed = [reference.NOMINAL_S / statistics.median(ref[max(0, b - 1):b + 3])
             for b in range(len(ref) - 1)]
    scaled = [t * speed[k // workload.block_ops] for k, t in enumerate(latencies)]
    return {"latencies": latencies, "scaled": scaled, "ok": ok, "failed": failed,
            "problems": problems, "first": first_out, "rates": rates, "ref": ref}


def recheck(workload, first, phase):
    """Untimed re-solve of the first cells, where the workload has one."""
    if not hasattr(workload, "recheck"):
        return
    for i in range(min(workload.recheck_cells, len(first))):
        out = phase["first"][i]
        if out is None:
            continue
        try:
            errs = workload.recheck(first[i], out)
        except Exception as exc:
            errs = [f"recheck raised {type(exc).__name__}: {exc}"]
        if errs:
            if phase["ok"][i]:
                phase["failed"] += 1
                phase["ok"][i] = False
            phase["problems"].append((i, errs))


def block_rates(phase, block):
    """Passing ops per second of op time in each whole block of `block` ops.

    Blocks start at op 0 and span one period of the workload's instance
    cycle, so every block holds the same mix of instance kinds.
    """
    lat, ok = phase["scaled"], phase["ok"]
    return [sum(ok[s:s + block]) / sum(lat[s:s + block])
            for s in range(0, len(lat) - block + 1, block)]


def setup_probe(workload_name, seed, tiny):
    """Seconds for a fresh process to import, generate inputs and warm up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           workload_name, "--seed", str(seed), "--setup-probe"]
    if tiny:
        cmd.append("--tiny")
    env = {k: v for k, v in os.environ.items() if k != "EHWF_THREADS"}
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                          text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup probe exited {code} with {line!r}")
    return elapsed


def prepare(workload, seed):
    """Generate the instances of the first ops, then make one warm-up op."""
    first = [workload.item(seed, i) for i in range(workload.count_ops)]
    workload.op(workload.item(WARMUP_SEED, 0))
    return first


def run_workload(ehwf, name, seed, seconds, trace, tiny=False):
    """One benchmark run; returns (result dict, human-readable lines)."""
    workload = WORKLOADS[name](ehwf, tiny=tiny)
    notes = []
    setup, setup_ref = [], []
    if not trace:
        setup_ref.append(reference.sample())
        for _ in range(SETUP_PROBES):
            setup.append(setup_probe(name, seed, tiny))
            setup_ref.append(reference.sample())
    first = prepare(workload, seed)

    untraced = measure(workload, seed, first, seconds / 2 if trace else seconds)
    recheck(workload, first, untraced)
    phases = [untraced]
    counts = workload.counts(untraced["first"])
    rates = untraced["rates"]

    lat = untraced["scaled"]
    ok_ops = len(lat) - untraced["failed"]
    time_per_op = sum(lat) / len(lat)
    if not trace:
        blocks = block_rates(untraced, workload.block_ops) or [ok_ops / sum(lat)]
        raw = untraced["latencies"]
        ref = untraced["ref"]
        deciles = statistics.quantiles(lat, n=10) if len(lat) > 1 else lat * 9
        metrics = {
            "setup_s": (statistics.median(setup) * reference.NOMINAL_S
                        / statistics.median(setup_ref), "s"),
            "ops_per_s": (statistics.median(blocks), "1/s"),
            "latency_ms.p50": (statistics.median(lat) * 1e3, "ms"),
            "latency_ms.p90": (deciles[8] * 1e3, "ms"),
            "sum_rate_nats.mean": (statistics.fmean(rates) if rates else math.nan,
                                   "nats"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "MB"),
        }
        notes.append(f"latency over {len(lat)} ops; p90 has "
                     f"{sum(1 for v in lat if v > deciles[8])} ops beyond it")
        notes.append(f"ops_per_s is the median over {len(blocks)} blocks of "
                     f"{workload.block_ops} ops; over the whole run: "
                     f"{ok_ops / sum(lat):.6g} 1/s")
        notes.append(f"times are scaled to a {reference.NOMINAL_S * 1e3:g} ms reference "
                     f"sample; {len(ref)} samples, median "
                     f"{statistics.median(ref) * 1e3:.4g} ms, range "
                     f"{min(ref) * 1e3:.4g}-{max(ref) * 1e3:.4g} ms")
        notes.append(f"unscaled wall clock: {ok_ops / sum(raw):.6g} ops/s, p50 "
                     f"{statistics.median(raw) * 1e3:.6g} ms")
        notes.append(f"setup_s unscaled samples: {', '.join(f'{s:.4f}' for s in setup)}; "
                     f"reference samples around them, median "
                     f"{statistics.median(setup_ref) * 1e3:.4g} ms")
        notes.append(f"sum_rate_nats.mean over {len(rates)} instances")
    else:
        tracer = Tracer()
        with traced(tracer, ehwf) as missing:
            traced_phase = measure(workload, seed, first, seconds / 2, root=tracer.root)
        phases.append(traced_phase)
        n_traced = len(traced_phase["latencies"])
        totals = tracer.totals()
        metrics = {}
        for metric in LAYER_METRICS:
            span, field = metric.rsplit(".", 1)
            unit = "count/op" if field == "calls" else "ms/op"
            if span in missing:
                metrics[metric] = (None, unit)
                continue
            calls, incl, self_s = totals.get(span, (0, 0.0, 0.0))
            value = {"calls": calls, "ms": incl * 1e3, "self_ms": self_s * 1e3}[field]
            metrics[metric] = (value / n_traced, unit)
        for metric in COUNT_METRICS:
            metrics[metric] = (counts[metric], COUNT_UNITS.get(metric, "count"))
        traced_time_per_op = sum(traced_phase["scaled"]) / n_traced
        metrics["trace.overhead_frac"] = (traced_time_per_op / time_per_op - 1.0,
                                          "frac")
        if missing:
            notes.append(f"absent on this commit: {', '.join(missing)}")
        notes.append(f"per-layer values per op over {n_traced} traced ops; "
                     f"untraced phase {len(lat)} ops")
        notes.append(f"mac.useful_sweep_frac base: {counts['mac.sweeps']:.6g} "
                     f"sweeps per solve_mac")
        OUT_DIR.mkdir(exist_ok=True)
        span_file = OUT_DIR / f"spans-{name}-seed{seed}.json"
        tracer.dump(span_file, {"workload": name, "seed": seed,
                                "ops": n_traced, "missing": missing})
        notes.append(f"spans: {span_file.relative_to(ROOT)}")

    attempted = sum(len(ph["latencies"]) for ph in phases)
    failed = sum(ph["failed"] for ph in phases)
    for ph in phases:
        for i, errs in ph["problems"][:5]:
            notes.append(f"FAILED op {i}: {'; '.join(errs)}")
    notes.append(f"failed_frac: {failed / attempted:.6g} ({failed} of {attempted})")
    if not trace:
        notes.extend(f"count {metric} = {counts[metric]!r}" for metric in COUNT_METRICS)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, notes


def environment_record(ehwf, threads_env):
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "ehwf": ehwf.__version__,
            "EHWF_THREADS": "unset" if threads_env is None
                            else f"unset by the benchmark (was {threads_env!r})",
            "machine": platform.machine()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every instance (self-test only)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    threads_env = os.environ.pop("EHWF_THREADS", None)
    ehwf = load_ehwf()
    if args.setup_probe:
        workload = WORKLOADS[args.workload](ehwf, tiny=args.tiny)
        prepare(workload, args.seed)
        print("ready", flush=True)
        return 0

    result, notes = run_workload(ehwf, args.workload, args.seed, args.seconds,
                                 bool(args.trace), tiny=args.tiny)
    print("# record " + json.dumps({"workload": args.workload, "seed": args.seed,
                                    "held_out_seed": HELD_OUT_SEED,
                                    "seconds": args.seconds, "trace": args.trace,
                                    **environment_record(ehwf, threads_env)}))
    for line in notes:
        print("# " + line)
    for name, m in result["metrics"].items():
        value = "absent" if m["value"] is None else f"{m['value']:.6g}"
        print(f"# {name} = {value} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

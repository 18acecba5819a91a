"""Self-test of the benchmark: python3 -m pytest benchmark

Tiny runs emit every metric named in BENCHMARK.json, op times are scaled
by the reference speed, a wrong schedule or a raising op is counted as a
failed op, exact counts repeat for a seed, the traced run restores what it
wraps, and a directory without the sources fails without printing a result.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
ehwf = run.load_ehwf()


def _run_cli(cwd, *args, env_extra=None):
    env = dict(os.environ, **(env_extra or {}))
    return subprocess.run([sys.executable, "benchmark/run.py", *args],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric(workload, trace):
    proc = _run_cli(HERE.parent, "--workload", workload, "--seed", "3",
                    "--seconds", "0.5", "--trace", str(trace), "--tiny",
                    env_extra={"EHWF_THREADS": "2"})
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = result["metrics"]
    assert set(got) == set(want)
    for name, metric in got.items():
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == want[name]
        assert isinstance(metric["value"], (int, float)), name
    record = json.loads(next(l for l in lines if l.startswith("# record "))[9:])
    assert record["cores"] >= 1 and record["numpy"] and record["python"]
    assert record["EHWF_THREADS"].startswith("unset")


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_exact_counts_repeat_for_a_seed(workload):
    def counts():
        wl = run.WORKLOADS[workload](ehwf, tiny=True)
        first = run.prepare(wl, 5)
        phase = run.measure(wl, 5, first, 0.0)
        run.recheck(wl, first, phase)
        assert phase["failed"] == 0
        return wl.counts(phase["first"])

    one, two = counts(), counts()
    assert one == two
    assert one["single_user.segments"] > 0


def _greedy(env):
    _, p_greedy, _ = ehwf.optimal_wastage(env)
    return p_greedy


def test_greedy_schedule_fails_single_long(monkeypatch):
    original = ehwf.solve_single

    def greedy_solve(env):
        p, d, x, levels = original(env)
        return _greedy(env), d, x, levels

    monkeypatch.setattr(ehwf, "solve_single", greedy_solve)
    wl = run.SingleLong(ehwf, tiny=True)
    # random-family instances only: on the dense family (every fourth
    # instance) spending each arrival at once is optimal, so greedy passes
    first = [wl.item(0, i) for i in range(3)]
    phase = run.measure(wl, 0, first, 0.0)
    assert phase["failed"] == len(phase["latencies"]) == len(first)


def test_greedy_schedule_fails_mac_certify(monkeypatch):
    original = ehwf.solve_mac

    def greedy_mac(scenario):
        sol = original(scenario)
        p = sol.p.copy()
        for n in range(scenario.num_users):
            p[n] = _greedy(scenario.user(n))
        return dataclasses.replace(sol, p=p)

    monkeypatch.setattr(ehwf, "solve_mac", greedy_mac)
    wl = run.MacCertify(ehwf, tiny=True)
    first = [wl.item(0, i) for i in range(wl.count_ops)]
    phase = run.measure(wl, 0, first, 0.0)
    assert phase["failed"] == len(first)
    assert all("certificate failed" in " ".join(errs)
               for _, errs in phase["problems"])


def test_raising_op_is_counted_and_the_run_goes_on(monkeypatch):
    original = ehwf.solve_single
    calls = []

    def flaky(env):
        calls.append(1)
        if len(calls) % 2:
            raise ValueError("injected")
        return original(env)

    monkeypatch.setattr(ehwf, "solve_single", flaky)
    wl = run.SingleLong(ehwf, tiny=True)
    first = [wl.item(0, i) for i in range(wl.count_ops)]
    phase = run.measure(wl, 0, first, 0.0)
    assert len(phase["latencies"]) == len(first)
    assert phase["failed"] == len(first) // 2


def test_traced_run_restores_and_reports_missing_names():
    before = (ehwf.mac.solve_reduced, ehwf.baselines._POLICIES["staircase"],
              ehwf.bench.gen_scenario, ehwf.solve_mac)
    rec = tracer.Tracer()
    layers = dict(tracer.LAYERS, mac=tracer.LAYERS["mac"] + ("no_such_fn",))
    with tracer.traced(rec, ehwf, layers) as missing:
        assert ehwf.mac.solve_reduced is not before[0]
        assert ehwf.baselines._POLICIES["staircase"] is not before[1]
        wl = run.SweepFig9(ehwf, tiny=True)
        with rec.root():
            wl.op(wl.item(0, 0))
    assert missing == ["mac.no_such_fn"]
    assert (ehwf.mac.solve_reduced, ehwf.baselines._POLICIES["staircase"],
            ehwf.bench.gen_scenario, ehwf.solve_mac) == before
    totals = rec.totals()
    assert totals["bench.run_experiment"][0] == 1
    assert totals["baselines.modified_staircase"][0] > 0
    calls, incl, self_s = totals["op"]
    assert 0.0 <= self_s < incl


def test_directory_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run_cli(tmp_path, "--workload", "mac-certify", "--seed", "1",
                    "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_op_times_are_scaled_by_the_reference_speed(monkeypatch):
    # a host running at half speed doubles every reference sample, and the
    # scaled times halve the wall times to match
    monkeypatch.setattr(run.reference, "sample", lambda: 2 * run.reference.NOMINAL_S)
    wl = run.MacCertify(ehwf, tiny=True)
    first = [wl.item(0, i) for i in range(wl.count_ops)]
    phase = run.measure(wl, 0, first, 0.0)
    assert len(phase["ref"]) == len(first) // wl.block_ops + 1
    assert phase["scaled"] == pytest.approx([t / 2 for t in phase["latencies"]])
    rates = run.block_rates(phase, wl.block_ops)
    assert len(rates) == len(first) // wl.block_ops
    assert rates[0] == pytest.approx(2 * wl.block_ops / sum(phase["latencies"][:wl.block_ops]))
